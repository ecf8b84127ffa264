"""Interferogram synthesis and fork-fringe counting.

A vortex beam interfered with a tilted plane-wave reference produces the
classic fork pattern: the fringe count below the dislocation minus the
count above equals the topological charge.  The counter works on two
horizontal cuts of the normalized intensity image.
"""

import math

import numpy as np
from scipy.signal import find_peaks

from .errors import TiltTooSmall, UnresolvableFringes

MIN_FRINGES = 8
MIN_SAMPLES_PER_FRINGE = 4


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
    peak = float(np.max(np.abs(out.amp)))
    if peak == 0.0:
        raise ValueError("cannot interfere a zero field")
    img = np.abs(out.amp / peak + np.exp(1j * kx * grid.axis())) ** 2
    return img / img.max()


def _carrier_period(row):
    """Fringe period in samples, from the strongest non-DC Fourier peak."""
    spec = np.abs(np.fft.rfft(row - row.mean()))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    if peak == 0:
        raise UnresolvableFringes("no fringe carrier found in the cut")
    return len(row) / peak


def fringe_fork_count(image, cut_offset):
    """(# fringe maxima below center) - (# above), at rows +-cut_offset.

    Rows follow image-raster order (row 0 at the top), so "below" is the
    higher row index.  For positive tilt the count equals the topological
    charge of the interfering beam.  The cuts must resolve the fringes
    (>= 4 samples per period) and should sit far enough from the
    dislocation that the local fringe frequency stays positive along the
    cut (cut_offset * pitch > |charge| / carrier wavenumber).
    """
    image = np.asarray(image, dtype=float)
    n = image.shape[0]
    if not (0 < cut_offset < n // 2):
        raise ValueError(f"cut offset must be in (0, {n // 2})")
    below = image[n // 2 + cut_offset, :]
    above = image[n // 2 - cut_offset, :]
    for row in (below, above):
        if _carrier_period(row) < MIN_SAMPLES_PER_FRINGE:
            raise UnresolvableFringes("fringe period below 4 samples")
    n_below = len(find_peaks(below)[0])
    n_above = len(find_peaks(above)[0])
    return n_below - n_above
