"""Spatially- and time-varying retarder elements.

A q-plate is a half-wave element whose fast-axis angle varies with
azimuth as alpha = q*phi + alpha0; applying it point by point with Jones
calculus converts circular polarization handedness while imprinting an
azimuthal phase exp(+-2i q phi).  The element is modeled as a
zero-thickness phase mask and alpha has no radial dependence.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .beams import MAX_L, VectorField, _by_rows, azimuthal_phase
from .errors import UndersampledRotation
from .polarization import JonesVector, half_wave

MIN_SAMPLES_PER_PERIOD = 64


@dataclass(frozen=True)
class QPlateSpec:
    """q-plate geometry: axis pattern charge q and offset alpha0."""

    q: float
    alpha0: float = 0.0

    def __post_init__(self):
        two_q = 2.0 * self.q
        if not abs(two_q) <= MAX_L:
            raise ValueError(
                f"|2q| must be at most {MAX_L}, the largest azimuthal charge "
                f"of a mode, got q={self.q}")
        if abs(two_q - round(two_q)) > 1e-12:
            raise ValueError(
                f"2q must be an integer (axis pattern single-valued mod pi), "
                f"got q={self.q}")


def apply_qplate(spec, f):
    """Apply the q-plate to every pixel of a vector field (unitary), by
    blocks of rows: a half-wave plate with axis angle alpha set by the map
    exp(2i alpha) = exp(2i alpha0) (exp(i phi))^(2q); 2q is an integer."""
    e2_alpha0 = cmath.exp(2j * spec.alpha0)
    # array first: numpy's complex product can differ in the last bit with
    # the operand order, and it took the whole-map product in place
    return VectorField(f.grid, *_by_rows(
        lambda phase, ex, ey: half_wave(phase * e2_alpha0, ex, ey),
        azimuthal_phase(f.grid, round(2.0 * spec.q)), f.ex, f.ey))


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


def rotating_waveplate_series(omega, input_state, times):
    """Output of a half-wave plate spinning at omega, sampled at `times`:
    one JonesVector whose ex and ey are arrays over the times."""
    times = _check_sampling(omega, times)
    v = input_state
    return JonesVector(*half_wave(np.exp(2j * (omega * times)), v.ex, v.ey))

