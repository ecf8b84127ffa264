"""Sampled transverse beam fields on a uniform square grid.

All generators evaluate the field at the waist plane (z = 0); curvature and
Gouy phases enter only through the propagation module.  Grids are
cell-centered so no sample ever falls on an on-axis phase singularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, WaistOutOfRange

MAX_L = 10
MAX_P = 5


@dataclass(frozen=True)
class Grid:
    """Uniform square sampling grid with physical pitch and wavelength.

    Coordinates are cell-centered: x_i = (i - n/2 + 1/2) * pitch, so the
    grid is symmetric about the beam axis and excludes r = 0 exactly.
    Each beam generator checks its waist against the pitch and window.
    """

    n: int
    pitch: float
    wavelength: float

    def __post_init__(self):
        if self.n < 32 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 32, got {self.n}")
        if self.pitch <= 0.0 or self.wavelength <= 0.0:
            raise ValueError("pitch and wavelength must be positive")

    @property
    def window(self):
        return self.n * self.pitch

    @property
    def k(self):
        """Vacuum wavenumber 2 pi / lambda."""
        return 2.0 * math.pi / self.wavelength

    def axis(self):
        return (np.arange(self.n) - self.n / 2 + 0.5) * self.pitch


def _dot(a, b):
    return np.einsum("ij,ij->", a, b)


def sum_abs2(a):
    """sum |a|^2 over the pixels of a complex map.

    Pixel reductions use einsum over the real and imaginary parts, not a
    BLAS dot (np.vdot, np.linalg.norm): a threaded BLAS call can stall for
    milliseconds waiting on a busy core, even on a 128 x 128 map.
    """
    u, v = a.real, a.imag
    return float(_dot(u, u) + _dot(v, v))


def overlap_imag(a, b):
    """Im<a|b> over the pixels of two complex maps, like `sum_abs2`."""
    return _dot(a.real, b.imag) - _dot(a.imag, b.real)


@dataclass(frozen=True)
class ScalarField:
    """Complex scalar amplitude sampled on a grid; `components` is (amp,)."""

    grid: Grid
    amp: np.ndarray

    @property
    def components(self):
        return (self.amp,)


@dataclass(frozen=True)
class VectorField:
    """Two-component (ex, ey) transverse field on one shared grid.

    `components` is (ex, ey), so kernels that act per component (the
    ledger, propagation, far field) treat it like a scalar field with two
    amplitudes.
    """

    grid: Grid
    ex: np.ndarray
    ey: np.ndarray

    @property
    def components(self):
        return (self.ex, self.ey)


def _check_waist(grid, w):
    if not (4.0 * grid.pitch < w and w <= grid.window / 8.0):
        raise WaistOutOfRange(
            f"waist {w:g} outside (4 x pitch, window/8] = "
            f"({4 * grid.pitch:g}, {grid.window / 8:g}]")


def _unfold(out, m):
    """Fill the n x n map `out` from its quadrant x, y > 0 (rows and
    columns n/2 on), for a map f with f(x, -y) = conj f(x, y) and
    f(-x, y) = (-1)^m conj f(x, y), as exp(i m phi) times a radial profile
    has; m = 0 mirrors the quadrant as it is.  The cell-centered axis has
    x[n-1-i] == -x[i] exactly."""
    h = len(out) // 2
    flip = np.conjugate if m else np.positive
    flip(out[h:, :h - 1:-1], out=out[h:, :h])
    if m % 2:
        np.negative(out[h:, :h], out=out[h:, :h])
    flip(out[:h - 1:-1], out=out[:h])


# Pixels evaluated per block.  A block's temporaries stay in L2, and stay
# too small for malloc to keep them resident once freed: whole quadrant
# temporaries (8-16 MB at n = 2048) raised the peak RSS of a 2048-point
# run by 16 MB.
_BLOCK = 1 << 14


def _by_rows(fn, *maps):
    """fn(*maps) for an `fn` that treats each row of 2-D maps alone and
    returns arrays indexed by row first, run on blocks of rows into full
    results: fn(*maps) bit for bit when `fn` is a pixelwise formula."""
    n = len(maps[0])
    step = max(1, _BLOCK // maps[0].shape[1])
    outs = None
    for r in range(0, n, step):
        got = fn(*(m[r:r + step] for m in maps))
        if outs is None:
            outs = [np.empty((n,) + g.shape[1:], g.dtype) for g in got]
        for out, g in zip(outs, got):
            out[r:r + step] = g
    return outs


def max_abs(a):
    """np.max(np.abs(a)) over a map, taken by rows: max is exact."""
    return float(np.max(*_by_rows(lambda b: (np.abs(b).max(axis=1),), a)))


def _mirrored(f, grid, m):
    """f(x, y) on the grid, for f with the symmetry `_unfold` asks of m,
    evaluated on one quadrant, in blocks of rows, and unfolded.

    Negation is exact, so every nonzero real or imaginary part unfolds to
    the value f gives at the mirror pixel; the sign of a zero is decided by
    the arithmetic, not the symmetry, so the mirror pixels of a quadrant
    pixel with a zero part are evaluated (the diagonal of an even charge,
    corners where exp(-r^2) underflows).  Where such pixels are more than
    1/64 of the quadrant (a waist of a few pixels), f is evaluated on the
    whole grid instead.
    """
    n, h = grid.n, grid.n // 2
    axis = grid.axis()
    x = axis[h:]
    step = max(1, _BLOCK // h)
    out, zeros = None, [np.empty(0, np.intp)]
    for r in range(0, h, step):
        block = f(x[None, :], x[r:r + step, None])
        if out is None:
            out = np.empty((n, n), block.dtype)
        out[h + r:h + r + len(block), h:] = block
        if m:
            # parts, not pixels: a pixel with two zero parts comes twice
            zeros.append(np.flatnonzero(block.view(float) == 0.0) // 2
                         + r * h)
    zeros = np.concatenate(zeros)
    if len(zeros) * 64 > h * h:
        return f(axis[None, :], axis[:, None])
    _unfold(out, m)
    if len(zeros):
        a, b = np.divmod(zeros, h)
        rows = np.concatenate([h - 1 - a, h + a, h - 1 - a])
        cols = np.concatenate([h + b, h - 1 - b, h - 1 - b])
        out[rows, cols] = f(axis[cols], axis[rows])
    return out


def gaussian(grid, w0):
    """Unit-peak TEM00 Gaussian, amp = exp(-(x^2+y^2)/w0^2)."""
    _check_waist(grid, w0)
    return ScalarField(grid, _mirrored(
        lambda x, y: np.exp(-(x ** 2 + y ** 2) / w0 ** 2), grid, 0))


def elliptical_gaussian(grid, wx, wy, tilt=0.0):
    """Elliptical Gaussian with waists wx, wy along axes rotated by `tilt`."""
    _check_waist(grid, wx)
    _check_waist(grid, wy)
    x = grid.axis()
    X, Y = x[None, :], x[:, None]
    c, s = math.cos(tilt), math.sin(tilt)
    xr = c * X + s * Y
    yr = -s * X + c * Y
    return ScalarField(grid, np.exp(-xr ** 2 / wx ** 2 - yr ** 2 / wy ** 2))


def _vortex(x, y, m, scale):
    """exp(i m phi) at the points (x, y), as ((x + i sgn(m) y)/r)^|m|; with
    a `scale`, ((x + i sgn(m) y) scale)^|m| = (scale r)^|m| exp(i m phi)."""
    z = x + (1j if m > 0 else -1j) * y
    if scale is None:
        z /= np.abs(z)
    else:
        z *= scale
    return z ** abs(m)


def azimuthal_phase(grid, m):
    """exp(i m phi) as ((x + i sgn(m) y)/r)^|m|, with no arctan2."""
    return _mirrored(lambda x, y: _vortex(x, y, m, None), grid, m)


def _genlaguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x) for integers n, alpha
    >= 0, by the recurrence (and in the operation order) of scipy's
    eval_genlaguerre for an integer degree."""
    if n == 0:
        return 1.0
    if n == 1:
        return -x + alpha + 1.0
    d = -x / (alpha + 1.0)
    p = d + 1.0
    for k in range(1, n):
        d = -x / (k + alpha + 1.0) * p + (k / (k + alpha + 1.0)) * d
        p = d + p
    return math.comb(n + alpha, n) * p


def laguerre_gaussian(grid, l, p, w0):
    """Unit-power Laguerre-Gaussian mode LG_{l,p} at the waist plane.

    amp ~ (sqrt(2) r/w0)^|l| L_p^|l|(2 r^2/w0^2) exp(-r^2/w0^2) exp(i l phi),
    normalized analytically so the continuum power is 1.
    """
    if abs(l) > MAX_L or p < 0 or p > MAX_P:
        raise IndexOutOfRange(f"require |l| <= {MAX_L} and 0 <= p <= {MAX_P}, "
                              f"got l={l}, p={p}")
    _check_waist(grid, w0)
    al = abs(l)
    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al))) / w0

    def mode(x, y):
        r2 = (x / w0) ** 2 + (y / w0) ** 2
        return (norm * _vortex(x, y, l, math.sqrt(2.0) / w0)
                * _genlaguerre(p, al, 2.0 * r2)
                * np.exp(-r2))

    return ScalarField(grid, _mirrored(mode, grid, l))


def vector_field(s, pol):
    """Uniformly polarized vector field: components pol * amp."""
    pol = pol.normalized()
    return VectorField(s.grid, pol.ex * s.amp, pol.ey * s.amp)


def circular_component(f, hand):
    """Project a vector field on the circular state `hand` ('L' or 'R').

    psi_L = <L|field> = (ex - i ey)/sqrt(2) and psi_R = <R|field> =
    (ex + i ey)/sqrt(2) per pixel, as a scalar field.
    """
    project = circular_projection(hand)
    return ScalarField(f.grid, *_by_rows(lambda ex, ey: (project(ex, ey),),
                                         f.ex, f.ey))


def circular_projection(hand):
    """The pixelwise formula of `circular_component`, of (ex, ey) maps."""
    i = -1j if hand == "L" else 1j
    return lambda ex, ey: (ex + i * ey) * (1.0 / math.sqrt(2.0))


def circular_components(f):
    """Project a vector field on the circular basis; returns (psi_L, psi_R)."""
    return circular_component(f, "L"), circular_component(f, "R")


def plane_wave_em(e0, polarization, phase):
    """Instantaneous real (E, B) of a plane wave propagating along +z.

    Gaussian units; `phase` is the optical phase w*t.  Kinds:

    * 'linear'     E along x, E = (e0 cos, 0, 0)
    * 'circular'   |E| = e0 at all times
    * 'elliptical' semi-axes e0 and e0 / 2

    B = z x E pointwise, so E.B = 0 and |E| = |B|.
    """
    c, s = math.cos(phase), math.sin(phase)
    if polarization == "linear":
        ex, ey = e0 * c, 0.0
    elif polarization == "circular":
        ex, ey = e0 * c, e0 * s
    elif polarization == "elliptical":
        ex, ey = e0 * c, 0.5 * e0 * s
    else:
        raise ValueError(f"unknown polarization kind {polarization!r}")
    e = np.array([ex, ey, 0.0])
    b = np.array([-ey, ex, 0.0])  # z x E
    return e, b
