"""Per-photon and per-field observables.

SAM is measured as the intensity-weighted Stokes s3; OAM as the normalized
azimuthal-derivative integral Im(psi* d_phi psi)/|psi|^2 evaluated with
centered finite differences, with an azimuthal-spectrum decomposition
available as an independent cross-check.  Energy and momentum densities use
Gaussian units.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d, map_coordinates

from .constants import C_LIGHT, H_PLANCK
from .errors import (LoopThroughUnpolarized, LoopThroughZero,
                     NonpositiveFrequency, RadiusOutOfGrid, ZeroAmplitudes,
                     ZeroEnergy, ZeroField)
from .polarization import stokes_of, wrap_angle


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
    total = float(np.vdot(f.ex, f.ex).real + np.vdot(f.ey, f.ey).real)
    if total <= 0.0:
        raise ZeroField("SAM undefined for a zero-power field")
    return 2.0 * float(np.vdot(f.ex, f.ey).imag) / total


# Sixth-order centered first-derivative stencil, in units of 1/pitch.
_D1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def _oam_scalar_sums(grid, amp):
    """(sum Im(a* (x d_y - y d_x) a), sum |a|^2).  The zero-padded stencil
    D is antisymmetric, so on each grid line sum Im(a* D a) = 2 Re(a).D Im(a).
    """
    x = grid.axis()
    u, v = amp.real, amp.imag
    dy = correlate1d(v, _D1, axis=0, mode="constant")
    dx = correlate1d(v, _D1, axis=1, mode="constant")
    num = 2.0 * (np.einsum("ij,ij->j", u, dy) @ x
                 - np.einsum("ij,ij->i", u, dx) @ x) / grid.pitch
    den = float(np.einsum("ij,ij->", u, u) + np.einsum("ij,ij->", v, v))
    return float(num), den


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


def _sample_circle(grid, arr, radius, samples, order=3):
    """Interpolate `arr` on a centered circle; returns values at `samples`
    uniformly spaced azimuths in [0, 2 pi)."""
    half = grid.window / 2.0 - grid.pitch
    if not (0.0 < radius < half):
        raise RadiusOutOfGrid(f"radius {radius:g} outside (0, {half:g})")
    theta = 2.0 * math.pi * np.arange(samples) / samples
    center = grid.n / 2 - 0.5
    lo = max(0, math.floor(center - radius / grid.pitch) - CROP_MARGIN)
    coords = radius / grid.pitch * np.vstack([np.sin(theta), np.cos(theta)])
    crop = arr[lo:grid.n - lo, lo:grid.n - lo]
    return map_coordinates(crop, coords + (center - lo), order=order)


def azimuthal_spectrum(s, r, samples=512):
    """Azimuthal harmonic power fractions of psi on the circle of radius r.

    Returns a dict {l: fraction}; fractions sum to 1 (within roundoff) and
    are invariant under global phase.
    """
    if samples < 256:
        raise ValueError("need at least 256 samples on the circle")
    vals = _sample_circle(s.grid, s.amp, r, samples)
    c = np.fft.fft(vals) / samples
    power = np.abs(c) ** 2
    total = float(np.sum(power))
    if total <= 0.0:
        raise ZeroField("field vanishes on the sampling circle")
    ls = np.fft.fftfreq(samples, d=1.0 / samples).astype(int)
    return {int(l): float(pw) / total for l, pw in zip(ls, power)}


def _winding(angles):
    """Integer winding number of a closed sequence of angles."""
    d = wrap_angle(np.diff(np.concatenate([angles, angles[:1]])))
    return int(round(float(np.sum(d)) / (2.0 * math.pi)))


def topological_charge(s, loop_radius, samples=720):
    """Phase winding of psi around a centered circle (exact integer)."""
    vals = _sample_circle(s.grid, s.amp, loop_radius, samples)
    peak = float(np.max(np.abs(s.amp)))
    if np.min(np.abs(vals)) <= 1e-9 * peak:
        raise LoopThroughZero(
            f"loop at r={loop_radius:g} passes within 1e-9 of a field zero")
    return _winding(np.angle(vals))


def cpoint_index(f, loop_radius, samples=720):
    """Polarization-singularity index of a vector field: half the winding
    of arg(s1 + i s2)."""
    s = stokes_of(f)
    s1 = _sample_circle(f.grid, s.s1, loop_radius, samples)
    s2 = _sample_circle(f.grid, s.s2, loop_radius, samples)
    s0 = _sample_circle(f.grid, s.s0, loop_radius, samples)
    if np.min(s1 ** 2 + s2 ** 2) <= 1e-12 * np.max(s0) ** 2:
        raise LoopThroughUnpolarized(
            f"loop at r={loop_radius:g} passes through an unpolarized pixel")
    return 0.5 * _winding(np.arctan2(s2, s1))


def weighted_wavevector(rho1, rho2, k1, k2):
    """Intensity-weighted mean wave vector of two circular components."""
    w1, w2 = rho1 ** 2, rho2 ** 2
    if w1 + w2 <= 0.0:
        raise ZeroAmplitudes("both amplitudes vanish")
    k1 = np.asarray(k1, dtype=float)
    k2 = np.asarray(k2, dtype=float)
    return (w1 * k1 + w2 * k2) / (w1 + w2)


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
