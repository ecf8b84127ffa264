"""Jones calculus for fully polarized paraxial light.

Conventions (used consistently throughout the package):

* time dependence exp(-i w t)
* left circular |L> = (1, i)/sqrt(2), which has Stokes s3 = +1
* retarders use the symmetric form R(a) diag(e^{-i d/2}, e^{+i d/2}) R(-a),
  so Pancharatnam phases between input and output are meaningful
* angles in radians; a phase arg(z) lies in (-pi, pi], an angle wrapped
  by `wrap_angle` in [-pi, pi)
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalStates, ZeroState

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class JonesVector:
    """Transverse polarization state (complex amplitudes ex, ey).

    ex and ey may also be equal-shaped arrays (pixel maps, time samples):
    `apply`, `inner`, `stokes_of` and `retard` then act element by element.
    """

    ex: complex
    ey: complex

    def as_array(self):
        return np.array([self.ex, self.ey], dtype=complex)

    def norm(self):
        return math.sqrt(abs(self.ex) ** 2 + abs(self.ey) ** 2)

    def normalized(self):
        n = self.norm()
        if n == 0.0:
            raise ZeroState("cannot normalize the zero state")
        return JonesVector(self.ex / n, self.ey / n)

    def inner(self, other):
        """Hermitian inner product <self|other>."""
        return self.ex.conjugate() * other.ex + self.ey.conjugate() * other.ey


@dataclass(frozen=True)
class JonesMatrix:
    """2x2 complex matrix acting on Jones vectors."""

    m00: complex
    m01: complex
    m10: complex
    m11: complex

    def as_array(self):
        return np.array([[self.m00, self.m01], [self.m10, self.m11]], dtype=complex)

    def compose(self, other):
        """Matrix product self @ other (other acts first)."""
        a, b = self.as_array(), other.as_array()
        c = a @ b
        return JonesMatrix(c[0, 0], c[0, 1], c[1, 0], c[1, 1])

    def __matmul__(self, other):
        return self.compose(other)

    def is_unitary(self, tol=1e-12):
        m = self.as_array()
        return bool(np.max(np.abs(m.conj().T @ m - np.eye(2))) < tol)


@dataclass(frozen=True)
class StokesVector:
    """Real Stokes 4-vector; s3/s0 is the spin helicity."""

    s0: float
    s1: float
    s2: float
    s3: float

    def as_array(self):
        return np.array([self.s0, self.s1, self.s2, self.s3])


_SQ2 = 1.0 / math.sqrt(2.0)

_STATES = {
    "H": (1.0 + 0j, 0.0 + 0j),
    "V": (0.0 + 0j, 1.0 + 0j),
    "D": (_SQ2 + 0j, _SQ2 + 0j),
    "A": (_SQ2 + 0j, -_SQ2 + 0j),
    "L": (_SQ2 + 0j, 1j * _SQ2),
    "R": (_SQ2 + 0j, -1j * _SQ2),
}


def jones_state(kind):
    """Return the unit basis state H, V, D, A, L or R."""
    try:
        ex, ey = _STATES[kind]
    except KeyError:
        raise ValueError(f"unknown polarization kind {kind!r}; expected one of "
                         f"{sorted(_STATES)}") from None
    return JonesVector(ex, ey)


def stokes_of(v):
    """Stokes parameters of a (pure) Jones state.

    Reads only `v.ex` and `v.ey`, so a vector field gives its pixelwise
    Stokes maps.
    """
    ax2 = abs(v.ex) ** 2
    ay2 = abs(v.ey) ** 2
    cross = v.ex.conjugate() * v.ey
    return StokesVector(ax2 + ay2, ax2 - ay2, 2.0 * cross.real, 2.0 * cross.imag)


def rotation(angle):
    """Real rotation of the transverse basis by `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return JonesMatrix(c, -s, s, c)


def retard(delta, e2, ex, ey):
    """Apply a linear retarder of retardance `delta` to (ex, ey).

    The fast-axis angle a enters as e2 = exp(2i a), a scalar or a map
    matching the components; returns the new (ex, ey).  This is the closed
    form of R(a) diag(e^{-i d/2}, e^{+i d/2}) R(-a).
    """
    ch = math.cos(delta / 2.0)
    jsh = 1j * math.sin(delta / 2.0)
    c2, s2 = e2.real, e2.imag
    return (ch * ex - jsh * (c2 * ex + s2 * ey),
            ch * ey - jsh * (s2 * ex - c2 * ey))


def waveplate(retardance, axis_angle):
    """Linear retarder: fast axis at `axis_angle`, retardance in radians.

    M = R(a) diag(e^{-i d/2}, e^{+i d/2}) R(-a), the columns of which are
    `retard` applied to the basis vectors.  Unitary for all arguments;
    delta = pi gives a half-wave plate.
    """
    e2 = cmath.exp(2j * axis_angle)
    m00, m10 = retard(retardance, e2, 1.0, 0.0)
    m01, m11 = retard(retardance, e2, 0.0, 1.0)
    return JonesMatrix(m00, m01, m10, m11)


def apply(m, v):
    """Apply a Jones matrix to a Jones vector."""
    return JonesVector(m.m00 * v.ex + m.m01 * v.ey,
                       m.m10 * v.ex + m.m11 * v.ey)


def pancharatnam_phase(a, b):
    """Pancharatnam connection arg<a|b> between nonorthogonal states.

    Raises OrthogonalStates when |<a|b>| is below tolerance, where the
    phase is indeterminate.
    """
    ip = a.inner(b)
    if abs(ip) <= ORTHOGONALITY_TOL:
        raise OrthogonalStates(
            f"|<a|b>| = {abs(ip):.3e} is below {ORTHOGONALITY_TOL}; "
            "phase is indeterminate")
    return cmath.phase(ip)


def wrap_angle(x):
    """Principal value of an angle (scalar or array), in [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi
