"""Per-photon and per-field observables.

SAM is measured as the intensity-weighted Stokes s3; OAM as the normalized
azimuthal-derivative integral Im(psi* d_phi psi)/|psi|^2 evaluated with
centered finite differences, with an azimuthal-spectrum decomposition
available as an independent cross-check.  Energy and momentum densities use
Gaussian units.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .beams import ScalarField, max_abs, overlap, sum_abs2
from .constants import C_LIGHT, H_PLANCK
from .errors import (LoopThroughZero, NonpositiveFrequency, RadiusOutOfGrid,
                     ZeroEnergy, ZeroField)
from .polarization import wrap_angle


@dataclass(frozen=True)
class AmLedger:
    """Angular momentum per photon, in units of hbar: spin, orbital, total."""

    sam: float
    oam: float

    @property
    def total(self):
        return self.sam + self.oam


def sam_per_photon(f):
    """Intensity-weighted spin helicity: sum(s3)/sum(s0), in [-1, 1].

    sum(s3) = 2 Im<ex|ey> and sum(s0) = <ex|ex> + <ey|ey>, so no Stokes
    map is built.
    """
    total = sum_abs2(f.ex) + sum_abs2(f.ey)
    if total <= 0.0:
        raise ZeroField("SAM undefined for a zero-power field")
    return 2.0 * overlap(f.ex, f.ey).imag / total


# Sixth-order centered first derivative, in units of 1/pitch:
# f'_i = sum_k c_k (f_{i+k} - f_{i-k}), as (k, c_k) pairs.
_D1 = ((1, 45.0 / 60.0), (2, -9.0 / 60.0), (3, 1.0 / 60.0))


def _stencil_dot(u, v):
    """Per column j, sum_i u_ij (D v)_ij with D the zero-padded stencil
    along axis 0, summed as lagged products u_i (v_{i+k} - v_{i-k})."""
    return sum(c * (np.einsum("ij,ij->j", u[:-k], v[k:])
                    - np.einsum("ij,ij->j", u[k:], v[:-k])) for k, c in _D1)


def _oam_scalar_sums(grid, amp):
    """(sum Im(a* (x d_y - y d_x) a), sum |a|^2).  The zero-padded stencil
    D is antisymmetric, so on each grid line sum Im(a* D a) = 2 Re(a).D Im(a).
    """
    x = grid.axis()
    u, v = amp.real, amp.imag
    along_y, along_x = _stencil_dot(u, v), _stencil_dot(u.T, v.T)
    num = 2.0 * (along_y @ x - along_x @ x) / grid.pitch
    return float(num), sum_abs2(amp)


def oam_per_photon(field):
    """Orbital angular momentum per photon, in units of hbar.

    Im( integral psi* (x d_y - y d_x) psi ) / integral |psi|^2, with the
    azimuthal derivative from centered finite differences.  For a vector
    field the two components are combined with intensity weights.
    """
    num = den = 0.0
    for amp in field.components:
        n, d = _oam_scalar_sums(field.grid, amp)
        num += n
        den += d
    if den <= 0.0:
        raise ZeroField("OAM undefined for a zero-power field")
    return num / den


# Margin [px] around the circle: the spline prefilter's edge effect is 0.268^d.
CROP_MARGIN = 24

# Pole of the cubic B-spline prefilter, sqrt(3) - 2 rounded once (math.sqrt(3)
# - 2 is an ulp off), and the terms of its causal boundary sum that are kept:
# |pole|^40 < 1e-22.
_POLE = -0.267949192431122706472553658494127633
_HORIZON = 40


def _spline_prefilter(c):
    """Cubic B-spline coefficients along axis 0 of the float array `c`, in
    place: the gain (1 - z)(1 - 1/z) = 6, then a causal and an anticausal
    first-order recursion with the pole z, each step one row operation.
    The rows are extended by mirroring: x_{-k} = x_k, x_{m-1+k} = x_{m-1-k}.
    """
    z, m = _POLE, len(c)
    c *= (1.0 - z) * (1.0 - 1.0 / z)
    zn, h = z ** (m - 1), min(m - 1, _HORIZON)
    mirrored = c[1:h] + zn * c[m - 2:m - 1 - h:-1]
    c[0] = (c[0] + zn * c[-1] + np.einsum(
        "i,ij->j", z ** np.arange(1, h), mirrored)) / (1.0 - zn * zn)
    rows = list(c)
    for prev, row in zip(rows, rows[1:]):
        row += z * prev
    c[-1] = (z * c[-2] + c[-1]) * z / (z * z - 1.0)
    for nxt, row in zip(rows[::-1], rows[-2::-1]):
        np.subtract(nxt, row, out=row)
        row *= z


def _spline_taps(x, m):
    """Indices (mirrored at 0 and m - 1) and weights of the four cubic
    B-spline taps at the coordinates x, along a new last axis."""
    f = np.floor(x)
    y = x - f
    z = 1.0 - y
    w0 = z * z * z / 6.0
    w1 = (y * y * (y - 2.0) * 3.0 + 4.0) / 6.0
    w2 = (z * z * (z - 2.0) * 3.0 + 4.0) / 6.0
    weights = np.stack([w0, w1, w2, 1.0 - w0 - w1 - w2], axis=-1)
    idx = np.abs(f.astype(int)[..., None] + np.arange(-1, 3))
    return np.where(idx > m - 1, 2 * (m - 1) - idx, idx), weights


def loop_crop(s, radius):
    """The centered crop of the scalar field `s` that a circle of `radius`
    is read from: the circle plus `CROP_MARGIN`, clipped to the grid."""
    g = s.grid
    half = g.window / 2.0 - g.pitch
    if not (0.0 < radius < half):
        raise RadiusOutOfGrid(f"radius {radius:g} outside (0, {half:g})")
    lo = max(0, math.floor(g.n / 2 - 0.5 - radius / g.pitch) - CROP_MARGIN)
    return ScalarField(replace(g, n=g.n - 2 * lo),
                       s.amp[lo:g.n - lo, lo:g.n - lo])


def _sample_circle(s, radius, samples):
    """Interpolate the scalar field `s` on a centered circle; returns values
    at `samples` uniformly spaced azimuths in [0, 2 pi).

    Cubic B-spline interpolation on `loop_crop`: the recursive prefilter
    with pole sqrt(3) - 2 and a mirror boundary (Unser, "Splines: a perfect
    fit for signal and image processing", IEEE Signal Processing Magazine
    16(6):22, 1999), then the 4 x 4 B-spline weights at each sample.
    """
    crop = loop_crop(s, radius)
    a, g = crop.amp, crop.grid
    theta = 2.0 * math.pi * np.arange(samples) / samples
    # prefilter axis 0 of a C-contiguous real view, then of the transposed
    # copy, so the coefficients are indexed [column, row]
    coef = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    _spline_prefilter(coef.view(float))
    coef = np.ascontiguousarray(coef.T)
    _spline_prefilter(coef.view(float))
    coords = radius / g.pitch * np.vstack([np.sin(theta), np.cos(theta)])
    (rows, cols), (wr, wc) = _spline_taps(coords + (g.n / 2 - 0.5), len(coef))
    taps = coef[cols[:, None, :], rows[:, :, None]]
    return np.einsum("sa,sab,sb->s", wr, taps, wc)


def azimuthal_spectrum(s, r):
    """Azimuthal harmonic power fractions of psi on the circle of radius r,
    from 512 samples.

    Returns a dict {l: fraction}; fractions sum to 1 (within roundoff) and
    are invariant under global phase.
    """
    samples = 512
    vals = _sample_circle(s, r, samples)
    c = np.fft.fft(vals) / samples
    power = np.abs(c) ** 2
    total = float(np.sum(power))
    if total <= 0.0:
        raise ZeroField("field vanishes on the sampling circle")
    ls = np.fft.fftfreq(samples, d=1.0 / samples).astype(int)
    return {int(l): float(pw) / total for l, pw in zip(ls, power)}


def loop_winding(vals, peak, loop_radius):
    """Phase winding (exact integer) of the closed loop of field samples
    `vals`; LoopThroughZero if one is within 1e-9 * `peak` of zero."""
    if np.min(np.abs(vals)) <= 1e-9 * peak:
        raise LoopThroughZero(
            f"loop at r={loop_radius:g} passes within 1e-9 of a field zero")
    angles = np.angle(vals)
    steps = wrap_angle(np.diff(np.concatenate([angles, angles[:1]])))
    return int(round(float(np.sum(steps)) / (2.0 * math.pi)))


def topological_charge(s, loop_radius, peak=None):
    """Phase winding of psi around a centered circle of 720 samples (exact
    integer); LoopThroughZero if a sample is within 1e-9 of `peak`, by
    default max |psi| of `s`.  A phase step above pi/2 between samples is
    also a LoopThroughZero: the loop skirts a zero, and such steps alias
    (read loops step at most 0.33 rad, those beside a radial node 2-3 rad)."""
    vals = _sample_circle(s, loop_radius, 720)
    charge = loop_winding(vals, max_abs(s.amp) if peak is None else peak,
                          loop_radius)
    step = float(np.max(np.abs(np.angle(np.roll(vals, -1) * vals.conj()))))
    if step > math.pi / 2.0:
        raise LoopThroughZero(f"loop at r={loop_radius:g} steps {step:.3g} "
                              "rad in phase between samples, above pi/2")
    return charge


def energy_density(e, b):
    """u = (E^2 + B^2)/8 pi, Gaussian units."""
    e = np.asarray(e, dtype=float)
    b = np.asarray(b, dtype=float)
    return (float(e @ e) + float(b @ b)) / (8.0 * math.pi)


def momentum_density(e, b):
    """g = (E x B)/4 pi c, Gaussian units."""
    return np.cross(np.asarray(e, float), np.asarray(b, float)) / (
        4.0 * math.pi * C_LIGHT)


def magnetic_energy_fraction(e, b):
    """Fraction of the energy density carried by the magnetic field."""
    u = energy_density(e, b)
    if u <= 0.0:
        raise ZeroEnergy("zero total energy density")
    b = np.asarray(b, dtype=float)
    return (float(b @ b) / (8.0 * math.pi)) / u


def photon_partition(nu):
    """Split the photon energy h*nu into equal rotational and translational
    halves; returns (rotational, translational) in erg."""
    if nu <= 0.0:
        raise NonpositiveFrequency(f"frequency must be positive, got {nu}")
    half = H_PLANCK * nu / 2.0
    return half, half


def classical_ke(l_am, omega, p, v):
    """Kinetic energy split of a classical particle: (L w / 2, p v / 2)."""
    return l_am * omega / 2.0, p * v / 2.0


def am_ledger(f):
    """Per-photon angular momentum ledger (units of hbar) of a vector field."""
    return AmLedger(sam_per_photon(f), oam_per_photon(f))
