"""Per-photon and per-field observables.

SAM is measured as the intensity-weighted Stokes s3; OAM as the normalized
azimuthal-derivative integral Im(psi* d_phi psi)/|psi|^2 evaluated with
centered finite differences, with an azimuthal-spectrum decomposition
available as an independent cross-check.  Energy and momentum densities use
Gaussian units.  A field's `am_ledger` (SAM, OAM, power and widths) comes
from one pass over blocks of its rows, each read while it is in cache.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import beams
from .beams import max_abs
from .constants import C_LIGHT, H_PLANCK
from .errors import (LoopThroughZero, NonpositiveFrequency, RadiusOutOfGrid,
                     ZeroEnergy, ZeroField)


@dataclass(frozen=True)
class AmLedger:
    """Angular momentum per photon, in units of hbar (spin, orbital and
    their total), power sum |a|^2 pitch^2 and the principal 1/e widths
    (2 x rms, x-like then y-like) of a field's total intensity."""

    sam: float
    oam: float
    power: float
    widths: tuple

    @property
    def total(self):
        return self.sam + self.oam


# Sixth-order centered first derivative, in units of 1/pitch:
# f'_i = sum_k c_k (f_{i+k} - f_{i-k}), with c_k = _D1[k - 1].
_D1 = np.array([45.0, -9.0, 1.0]) / 60.0


def _power_spin(blocks):
    """sum |a|^2 and Im<ex|ey> (0 if scalar) of one block per component."""
    return (sum(beams.sum_abs2(b) for b in blocks),
            sum(beams.overlap_imag(a, b) for a, b in zip(blocks, blocks[1:])))


def _pixel_sums(field):
    """Per row sum_j |a|^2 and sum_j |a|^2 x_j, per column sum_i |a|^2, and
    sum |a|^2, sum Im(a* (x d_y - y d_x) a) and Im<ex|ey> (0 for a scalar
    field) over all components, in one pass over blocks of at most
    `beams._BLOCK` pixels, each copied with the 3 rows above it.  As D is
    antisymmetric, sum Im(a* D a) = 2 sum_k c_k sum_i (u_i v_{i+k} -
    u_{i+k} v_i) on a grid line; a block takes the pairs whose row i + k
    it holds.  Power and Im<ex|ey> are summed alike, per block by
    `_power_spin`: SAM(L) = 1 exactly."""
    g, comps, x = field.grid, field.components, field.grid.axis()
    n, step = g.n, max(1, beams._BLOCK // g.n)
    rows, cols, row_x, *lags = np.zeros((9, n))  # 3 lags along y, 3 along x
    buf, total, spin = np.empty((2, step + 3, n)), 0.0, 0.0
    for r in range(0, n, step):
        e, lo = min(r + step, n), max(r - 3, 0)
        m, o = e - lo, r - lo
        (u, v), (ub, vb) = buf[:, :m], buf[:, o:m]
        power, overlap = _power_spin([a[r:e] for a in comps])
        total, spin = total + power, spin + overlap
        for a in comps:
            np.copyto(u, a[lo:e].real)
            np.copyto(v, a[lo:e].imag)
            for k, along_y, along_x in zip((1, 2, 3), lags[:3], lags[3:]):
                i = max(o - k, 0)
                along_y += np.einsum("ij,ij->j", u[i:m - k], v[i + k:m])
                along_y -= np.einsum("ij,ij->j", u[i + k:m], v[i:m - k])
                along_x[r:e] += np.einsum("ij,ij->i", ub[:, :-k], vb[:, k:])
                along_x[r:e] -= np.einsum("ij,ij->i", ub[:, k:], vb[:, :-k])
            np.add(np.square(ub, out=ub), np.square(vb, out=vb), out=ub)
            rows[r:e] += np.einsum("ij->i", ub)
            cols += np.einsum("ij->j", ub)
            row_x[r:e] += np.einsum("ij,j->i", ub, x)
    curl = np.einsum("k,kj,j->", _D1, np.subtract(lags[:3], lags[3:]), x)
    return rows, cols, row_x, float(total), 2.0 * curl / g.pitch, float(spin)


def _widths(rows, cols, row_x, total, x):
    """Principal 1/e widths (2 x rms), ordered (x-like, y-like) by the
    dominant axis of each eigenvector, from the row and column sums."""
    xm, ym = np.einsum("ki,i->k", [cols, rows], x) / total
    dx, dy = x - xm, x - ym
    xx, yy, xy = np.einsum("ki,ki->k", [dx * cols, dy * rows, dy],
                           [dx, dy, row_x - xm * rows]) / total
    evals, evecs = np.linalg.eigh(np.array([[xx, xy], [xy, yy]]))
    w = 2.0 * np.sqrt(evals)
    i = int(abs(evecs[0, 1]) >= abs(evecs[1, 1]))
    return float(w[i]), float(w[1 - i])


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
    """The centered crop of the field `s` that a circle of `radius` is read
    from: the circle plus `CROP_MARGIN`, clipped to the grid."""
    g = s.grid
    half = g.window / 2.0 - g.pitch
    if not (0.0 < radius < half):
        raise RadiusOutOfGrid(f"radius {radius:g} outside (0, {half:g})")
    lo = max(0, math.floor(g.n / 2 - 0.5 - radius / g.pitch) - CROP_MARGIN)
    return type(s)(replace(g, n=g.n - 2 * lo),
                   *(a[lo:g.n - lo, lo:g.n - lo] for a in s.components))


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
    # prefilter axis 0 of a C-contiguous real view, then of the array
    # transposed in place by pairs of tiles, so it is indexed [column, row]
    coef = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    _spline_prefilter(coef.view(float))
    for i in range(0, len(coef), 64):
        for j in range(i, len(coef), 64):
            t, u = coef[i:i + 64, j:j + 64], coef[j:j + 64, i:i + 64]
            t[...], u[...] = u.T.copy(), t.T.copy()
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
    `vals` and its phase steps angle(vals[i + 1] vals[i]*), the closing step
    last; LoopThroughZero if a sample is within 1e-9 * `peak` of zero."""
    if np.min(np.abs(vals)) <= 1e-9 * peak:
        raise LoopThroughZero(
            f"loop at r={loop_radius:g} passes within 1e-9 of a field zero")
    steps = np.angle(np.roll(vals, -1) * vals.conj())
    return int(round(float(np.sum(steps)) / (2.0 * math.pi))), steps


def topological_charge(s, loop_radius, peak=None):
    """Phase winding of psi around a centered circle of 720 samples (exact
    integer); LoopThroughZero if a sample is within 1e-9 of `peak`, by
    default max |psi| of `s`.  A phase step above pi/4 between samples is
    also a LoopThroughZero: the loop skirts a zero, and such steps alias
    (LG loops, |l| <= 10, p <= 5, n >= 64, w0/2 <= r <= 3 w0, that read
    step at most 0.11 rad; those beside a radial node 1.0-3 rad)."""
    charge, steps = loop_winding(_sample_circle(s, loop_radius, 720),
                                 max_abs(s.amp) if peak is None else peak,
                                 loop_radius)
    step = float(np.max(np.abs(steps)))
    if step > math.pi / 4.0:
        raise LoopThroughZero(f"loop at r={loop_radius:g} steps {step:.3g} "
                              "rad in phase between samples, above pi/4")
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


def power_sam(blocks, pitch):
    """`am_ledger`'s power and SAM, bit for bit, from `_pixel_sums` blocks."""
    total = spin = 0.0
    for power, overlap in map(_power_spin, blocks):
        total, spin = total + power, spin + overlap
    if total <= 0.0:
        raise ZeroField("angular momentum undefined for a zero-power field")
    return total * pitch ** 2, 2.0 * spin / total


def am_ledger(f):
    """The `AmLedger` of a scalar or vector field, from one `_pixel_sums`
    pass: SAM = 2 Im<ex|ey> / sum |a|^2 = sum(s3)/sum(s0) and OAM per
    photon, power and widths.  ZeroField for a zero-power field."""
    rows, cols, row_x, total, curl, spin = _pixel_sums(f)
    if total <= 0.0:
        raise ZeroField("angular momentum undefined for a zero-power field")
    return AmLedger(2.0 * spin / total, float(curl) / total,
                    total * f.grid.pitch ** 2,
                    _widths(rows, cols, row_x, total, f.grid.axis()))
