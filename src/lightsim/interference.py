"""Interferogram synthesis and fork-charge reading.

A vortex beam interfered with a tilted plane-wave reference makes the
classic fork: at the dislocation one fringe splits into |l| + 1.  The
reader turns the image back into the beam by Fourier-transform fringe
analysis (Takeda, Ina & Kobayashi, J. Opt. Soc. Am. 72, 156, 1982) and
reads the charge as the phase winding of that field round a square loop.
"""

import math

import numpy as np

from .analysis import loop_winding
from .beams import _by_rows, max_abs
from .errors import (RadiusOutOfGrid, TiltTooSmall, UnresolvableFringes,
                     ZeroField)

MIN_FRINGES = 8
MIN_SAMPLES_PER_FRINGE = 4
# Least |k_x| * loop_radius the fork reader accepts.  Below it the sideband
# filter can cut enough of the beam's spectrum to change the winding: with
# no limit, 20,000 configs drawn from the domain of the fork property test
# (tests/test_interference.py) gave wrong windings up to 3.50.
MIN_CARRIER_PHASE = 4.0


def interference_image(out, tilt):
    """Normalized intensity |psi + exp(i k sin(tilt) x)|^2 in [0, 1].

    The beam is peak-normalized before superposition so fringe contrast is
    of order one.  `tilt` must give at least 8 fringes across the window.
    """
    grid = out.grid
    kx = grid.k * math.sin(tilt)
    fringes = abs(kx) * grid.window / (2.0 * math.pi)
    if fringes < MIN_FRINGES:
        raise TiltTooSmall(
            f"tilt yields {fringes:.2f} fringes across the window; need >= "
            f"{MIN_FRINGES}")
    if grid.n / fringes < MIN_SAMPLES_PER_FRINGE:
        raise UnresolvableFringes(
            f"{grid.n / fringes:.2f} samples per fringe; need >= "
            f"{MIN_SAMPLES_PER_FRINGE}")
    peak = max_abs(out.amp)
    if peak == 0.0:
        raise ZeroField("cannot interfere a zero field")
    carrier = np.exp(1j * kx * grid.axis())
    img, = _by_rows(lambda a: (np.abs(a / peak + carrier) ** 2,), out.amp)
    return np.divide(img, img.max(), out=img)


def fringe_fork_count(image, grid, tilt, loop_radius):
    """Charge of the beam in `image`, an `interference_image` at `tilt`.

    The rows spanned by the centered square pixel loop of half-side
    `loop_radius` are filtered along x to the sideband |f + k_x| < |k_x|/2;
    times exp(i k_x x) that is psi up to a positive scale and the band, and
    its phase winding round the loop is the charge, for either sign of k_x.
    """
    n, kx = grid.n, grid.k * math.sin(tilt)
    lo = math.floor(n / 2 - 0.5 - loop_radius / grid.pitch)
    if not (loop_radius > 0.0 and lo >= 0):
        raise RadiusOutOfGrid(
            f"square loop of half-side {loop_radius:g} does not fit the grid")
    if abs(kx) * loop_radius < MIN_CARRIER_PHASE:
        raise TiltTooSmall(
            f"|k_x| * loop radius = {abs(kx) * loop_radius:.2f}; need >= "
            f"{MIN_CARRIER_PHASE}")
    freq = 2.0 * math.pi * np.fft.fftfreq(n, grid.pitch)
    band = np.abs(freq + kx) < abs(kx) / 2.0
    carrier = np.exp(1j * kx * grid.axis()[lo:n - lo])

    def demodulate(rows):
        field = np.fft.ifft(np.fft.fft(rows, axis=1) * band, axis=1)
        return np.abs(field).max(axis=1), field[:, lo:n - lo] * carrier

    peaks, sq = _by_rows(demodulate, np.asarray(image, float)[lo:n - lo])
    loop = np.concatenate([sq[:-1, -1], sq[-1, :0:-1], sq[:0:-1, 0],
                           sq[0, :-1]])
    return loop_winding(loop, float(peaks.max()), loop_radius)[0]
