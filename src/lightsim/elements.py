"""Spatially- and time-varying retarder elements.

A q-plate is a half-wave (or general-retardance) element whose fast-axis
angle varies with azimuth as alpha = q*phi + alpha0; applying it point by
point with Jones calculus converts circular polarization handedness while
imprinting an azimuthal phase exp(+-2i q phi).  The element is modeled as a
zero-thickness phase mask and alpha has no radial dependence.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .beams import (ScalarField, VectorField, azimuthal_phase,
                    circular_components, vector_field)
from .errors import DimensionMismatch, UndersampledRotation
from .polarization import JonesVector, jones_state, retard

MIN_SAMPLES_PER_PERIOD = 64


@dataclass(frozen=True)
class QPlateSpec:
    """q-plate geometry: axis pattern charge q, offset alpha0, retardance."""

    q: float
    alpha0: float = 0.0
    delta: float = math.pi

    def __post_init__(self):
        two_q = 2.0 * self.q
        if abs(two_q - round(two_q)) > 1e-12:
            raise ValueError(
                f"2q must be an integer (axis pattern single-valued mod pi), "
                f"got q={self.q}")


@dataclass(frozen=True)
class PatternedRetarder:
    """Retarder with a free fast-axis angle map (radians) and retardance."""

    alpha_map: np.ndarray
    delta: float


def _apply_retarder_map(e2, delta, f):
    """Vectorized per-pixel waveplate whose axis angle alpha is given as the
    map e2 = exp(2i alpha)."""
    return VectorField(f.grid, *retard(delta, e2, f.ex, f.ey))


def _qplate_e2(spec, grid):
    """exp(2i alpha) = exp(2i alpha0) (exp(i phi))^(2q); 2q is an integer."""
    return (cmath.exp(2j * spec.alpha0)
            * azimuthal_phase(grid, round(2.0 * spec.q)))


def apply_qplate(spec, f):
    """Apply the q-plate to every pixel of a vector field (unitary)."""
    return _apply_retarder_map(_qplate_e2(spec, f.grid), spec.delta, f)


def apply_patterned(p, f):
    """Apply a patterned retarder; the map must match the field grid."""
    if p.alpha_map.shape != f.ex.shape:
        raise DimensionMismatch(
            f"alpha_map shape {p.alpha_map.shape} does not match field shape "
            f"{f.ex.shape}")
    return _apply_retarder_map(np.exp(2j * p.alpha_map), p.delta, f)


def _check_sampling(omega, times):
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise UndersampledRotation("need at least two sample times")
    dt = np.diff(times)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise UndersampledRotation("sample times must be uniform")
    if omega != 0.0:
        period = 2.0 * math.pi / abs(omega)
        if period / dt[0] < MIN_SAMPLES_PER_PERIOD:
            raise UndersampledRotation(
                f"{period / dt[0]:.1f} samples per rotation period; need >= "
                f"{MIN_SAMPLES_PER_PERIOD}")
    return times


def rotating_waveplate_series(delta, omega, input_state, times):
    """Output of a waveplate spinning at omega, sampled at `times`: one
    JonesVector whose ex and ey are arrays over the times."""
    times = _check_sampling(omega, times)
    v = input_state
    return JonesVector(*retard(delta, np.exp(2j * (omega * times)), v.ex, v.ey))


def qplate_alpha0_decomposition(spec, f):
    """Decompose the q-plate output by its alpha0 dependence.

    The waveplate matrix is linear in {1, e^{2i alpha}, e^{-2i alpha}}, so
    the output for any offset a0 is

        out(a0) = f_c + e^{+2i a0} f_plus + e^{-2i a0} f_minus

    with the three component fields computed here once.  Used to evaluate
    long rotating-q-plate time series without reapplying the element.
    The plate flips handedness: f_plus = -i sin(d/2) e^{2i alpha} psi_L |R>
    and f_minus = -i sin(d/2) e^{-2i alpha} psi_R |L>.
    """
    ch = math.cos(spec.delta / 2.0)
    jsh = 1j * math.sin(spec.delta / 2.0)
    e2 = _qplate_e2(spec, f.grid)
    psi_l, psi_r = circular_components(f)
    f_c = VectorField(f.grid, ch * f.ex, ch * f.ey)
    f_plus = vector_field(ScalarField(f.grid, -jsh * e2 * psi_l.amp),
                          jones_state("R"))
    f_minus = vector_field(ScalarField(f.grid, -jsh * np.conj(e2) * psi_r.amp),
                           jones_state("L"))
    return f_c, f_plus, f_minus
