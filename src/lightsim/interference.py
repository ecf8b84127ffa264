"""Interferogram synthesis and fork-fringe counting.

A vortex beam interfered with a tilted plane-wave reference produces the
classic fork pattern: the fringe count below the dislocation minus the
count above equals the topological charge.  The counter works on two
horizontal cuts of the normalized intensity image.
"""

import math

import numpy as np

from .beams import max_abs
from .errors import TiltTooSmall, UnresolvableFringes, ZeroField

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
    peak = max_abs(out.amp)
    if peak == 0.0:
        raise ZeroField("cannot interfere a zero field")
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


def _count_maxima(row):
    """Strict interior local maxima of `row`, a plateau counting once: the
    rises followed, after any run of equal values, by a fall.  A plateau at
    an edge is no maximum."""
    step = np.sign(np.diff(row))
    step = step[step != 0]
    return int(np.count_nonzero((step[:-1] > 0) & (step[1:] < 0)))


def fringe_fork_count(image):
    """(# fringe maxima below center) - (# above), at rows n/2 +- n // 8.

    Rows follow image-raster order (row 0 at the top), so "below" is the
    higher row index.  For positive tilt the count equals the topological
    charge of the interfering beam.  The cuts must resolve the fringes
    (>= 4 samples per period) and should sit far enough from the
    dislocation that the local fringe frequency stays positive along the
    cut (n // 8 * pitch > |charge| / carrier wavenumber).
    """
    image = np.asarray(image, dtype=float)
    n = image.shape[0]
    below = image[n // 2 + n // 8, :]
    above = image[n // 2 - n // 8, :]
    for row in (below, above):
        if _carrier_period(row) < MIN_SAMPLES_PER_FRINGE:
            raise UnresolvableFringes("fringe period below 4 samples")
    return _count_maxima(below) - _count_maxima(above)
