"""Sampled transverse beam fields on a uniform square grid.

All generators evaluate the field at the waist plane (z = 0); curvature and
Gouy phases enter only through the propagation module.  Grids are
cell-centered so no sample ever falls on an on-axis phase singularity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, WaistOutOfRange
from .polarization import JonesVector

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

    def coords(self):
        """Meshgrid (X, Y) of cell-centered coordinates."""
        x = self.axis()
        return np.meshgrid(x, x, indexing="xy")

    def polar(self):
        """Meshgrid (R, PHI) of polar coordinates."""
        X, Y = self.coords()
        return np.hypot(X, Y), np.arctan2(Y, X)


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


def overlap(a, b):
    """<a|b> = sum conj(a) b over the pixels of two complex maps, summed
    like `sum_abs2`."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return complex(_dot(ar, br) + _dot(ai, bi), _dot(ar, bi) - _dot(ai, br))


class _Field:
    """What scalar and vector fields share: `components`, the tuple of
    complex arrays on `grid`, and the total power over all of them."""

    @property
    def power(self):
        total = sum(sum_abs2(c) for c in self.components)
        return total * self.grid.pitch ** 2


@dataclass(frozen=True)
class ScalarField(_Field):
    """Complex scalar amplitude sampled on a grid.

    `components` is (amp,); `power` is sum |amp|^2 pitch^2.
    """

    grid: Grid
    amp: np.ndarray

    @property
    def components(self):
        return (self.amp,)


@dataclass(frozen=True)
class VectorField(_Field):
    """Two-component (ex, ey) transverse field on one shared grid.

    `components` is (ex, ey), so kernels that act per component (power,
    propagation, far field, OAM) treat it like a scalar field with two
    amplitudes; `power` sums both.
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


def gaussian(grid, w0):
    """Unit-peak TEM00 Gaussian, amp = exp(-(x^2+y^2)/w0^2)."""
    _check_waist(grid, w0)
    X, Y = grid.coords()
    return ScalarField(grid, np.exp(-(X ** 2 + Y ** 2) / w0 ** 2))


def elliptical_gaussian(grid, wx, wy, tilt=0.0):
    """Elliptical Gaussian with waists wx, wy along axes rotated by `tilt`."""
    _check_waist(grid, wx)
    _check_waist(grid, wy)
    X, Y = grid.coords()
    c, s = math.cos(tilt), math.sin(tilt)
    xr = c * X + s * Y
    yr = -s * X + c * Y
    return ScalarField(grid, np.exp(-xr ** 2 / wx ** 2 - yr ** 2 / wy ** 2))


def azimuthal_phase(grid, m, scale=None):
    """exp(i m phi) as ((x + i sgn(m) y)/r)^|m|, with no arctan2; with a
    `scale`, ((x + i sgn(m) y) scale)^|m| = (scale r)^|m| exp(i m phi)."""
    if m == 0:
        return np.ones((grid.n, grid.n), dtype=complex)
    x = grid.axis()
    z = x[None, :] + (1j if m > 0 else -1j) * x[:, None]
    if scale is None:
        z /= np.abs(z)
    else:
        z *= scale
    return z ** abs(m)


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
    x2 = (grid.axis() / w0) ** 2
    r2 = x2[None, :] + x2[:, None]
    al = abs(l)
    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al))) / w0
    amp = (norm * azimuthal_phase(grid, l, math.sqrt(2.0) / w0)
           * _genlaguerre(p, al, 2.0 * r2)
           * np.exp(-r2))
    return ScalarField(grid, amp)


def vector_field(s, pol):
    """Uniformly polarized vector field: components pol * amp."""
    if isinstance(pol, JonesVector):
        pol = pol.normalized()
    ex, ey = pol.ex, pol.ey
    return VectorField(s.grid, ex * s.amp, ey * s.amp)


def circular_component(f, hand):
    """Project a vector field on the circular state `hand` ('L' or 'R').

    psi_L = <L|field> = (ex - i ey)/sqrt(2) and psi_R = <R|field> =
    (ex + i ey)/sqrt(2) per pixel, as a scalar field.
    """
    i = -1j if hand == "L" else 1j
    return ScalarField(f.grid, (f.ex + i * f.ey) * (1.0 / math.sqrt(2.0)))


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
