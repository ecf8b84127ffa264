"""Jones calculus for fully polarized paraxial light: Jones states, Stokes
parameters and `retard`, a retarder's closed form on a state's components.

Conventions (used consistently throughout the package):

* time dependence exp(-i w t)
* left circular |L> = (1, i)/sqrt(2), which has Stokes s3 = +1
* `retard` uses the symmetric form R(a) diag(e^{-i d/2}, e^{+i d/2}) R(-a),
  so Pancharatnam phases between input and output are meaningful
* angles in radians; a phase arg(z) lies in (-pi, pi], an angle wrapped
  by `wrap_angle` in [-pi, pi)
"""

import math
from dataclasses import dataclass

from .errors import OrthogonalStates, ZeroState

ORTHOGONALITY_TOL = 1e-12


@dataclass(frozen=True)
class JonesVector:
    """Transverse polarization state (complex amplitudes ex, ey).

    ex and ey may also be equal-shaped arrays (pixel maps, time samples):
    `inner`, `stokes_of` and `retard` then act element by element.
    """

    ex: complex
    ey: complex

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
class StokesVector:
    """Real Stokes 4-vector; s3/s0 is the spin helicity.

    The components are arrays when `stokes_of` is given array-valued ex and
    ey: a vector field then yields its pixelwise Stokes maps.
    """

    s0: float
    s1: float
    s2: float
    s3: float


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


def pancharatnam_phase(a, b):
    """Pancharatnam connection arg<a|b> between nonorthogonal states.

    Raises OrthogonalStates when |<a|b>| is at most ORTHOGONALITY_TOL
    |a| |b|, where the phase is indeterminate; the test is relative, so it
    does not depend on the states' normalization.
    """
    ip = a.inner(b)
    if abs(ip) <= ORTHOGONALITY_TOL * a.norm() * b.norm():
        raise OrthogonalStates(
            f"|<a|b>| = {abs(ip):.3e} is at most {ORTHOGONALITY_TOL} |a| |b|; "
            "phase is indeterminate")
    # math.atan2, not cmath.phase: the latter raises OverflowError when the
    # phase underflows to a subnormal
    return math.atan2(ip.imag, ip.real)


def wrap_angle(x):
    """Principal value of an angle (scalar or array), in [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi
