import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lightsim import JonesVector, jones_state, pancharatnam_phase, stokes_of
from lightsim.errors import OrthogonalStates, ZeroState
from lightsim.polarization import retard, wrap_angle

SQ2 = 1.0 / math.sqrt(2.0)


def rotation(angle):
    """Real rotation of the transverse basis by `angle`."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_basis_states_are_unit():
    for kind in "HVDALR":
        assert jones_state(kind).norm() == pytest.approx(1.0, abs=1e-15)


def test_unknown_state_kind_rejected():
    with pytest.raises(ValueError):
        jones_state("X")


def test_left_circular_has_positive_s3():
    s = stokes_of(jones_state("L"))
    assert s.s3 == pytest.approx(1.0, abs=1e-15)
    assert stokes_of(jones_state("R")).s3 == pytest.approx(-1.0, abs=1e-15)


def test_stokes_of_frozen_example():
    # (0.6, 0.8i): s0 = 1, s1 = -0.28, s2 = 0, s3 = 0.96
    s = stokes_of(JonesVector(0.6, 0.8j))
    assert s.s0 == pytest.approx(1.0, abs=1e-15)
    assert s.s1 == pytest.approx(-0.28, abs=1e-15)
    assert s.s2 == pytest.approx(0.0, abs=1e-15)
    assert s.s3 == pytest.approx(0.96, abs=1e-15)


def test_stokes_purity_random_states():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        re = rng.normal(size=4)
        v = JonesVector(complex(re[0], re[1]), complex(re[2], re[3]))
        if v.norm() < 1e-3:
            continue
        s = stokes_of(v)
        assert math.hypot(s.s1, math.hypot(s.s2, s.s3)) == pytest.approx(
            s.s0, rel=1e-12)


# retard on the basis states (1, 0) and (0, 1), the rows of np.eye(2),
# gives the retarder's 2x2 Jones matrix, its outputs (ex, ey) as rows

def test_hwp_at_zero_is_minus_i_diag():
    np.testing.assert_allclose(retard(math.pi, 1.0, *np.eye(2)),
                               -1j * np.diag([1.0, -1.0]), atol=1e-15)


def test_waveplate_unitary_random_args():
    rng = np.random.default_rng(11)
    for _ in range(200):
        delta, alpha = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
        m = np.array(retard(delta, cmath.exp(2j * alpha), *np.eye(2)))
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), rtol=0,
                                   atol=1e-12)


def test_waveplate_composition_same_axis():
    # two retarders on one axis compose to the summed retardance
    e2 = cmath.exp(2j * 0.3)
    np.testing.assert_allclose(retard(0.7, e2, *retard(0.5, e2, *np.eye(2))),
                               retard(1.2, e2, *np.eye(2)), atol=1e-14)


def test_rotated_waveplate_conjugation():
    # R(a) M(0) R(-a): the axis-0 retarder on the columns of R(-a), then R(a)
    delta, alpha = 1.1, 0.4
    m = rotation(alpha) @ np.array(retard(delta, 1.0, *rotation(-alpha)))
    np.testing.assert_allclose(
        m, retard(delta, cmath.exp(2j * alpha), *np.eye(2)), atol=1e-14)


def test_hwp_flips_helicity_with_phase():
    # HWP at angle a maps |L> to -i e^{2ia} |R>
    alpha = 0.35
    left = jones_state("L")
    out = JonesVector(*retard(math.pi, cmath.exp(2j * alpha), left.ex,
                              left.ey))
    expect = -1j * cmath.exp(2j * alpha)
    r = jones_state("R")
    assert abs(out.ex - expect * r.ex) < 1e-15
    assert abs(out.ey - expect * r.ey) < 1e-15
    assert stokes_of(out).s3 == pytest.approx(-1.0, abs=1e-15)


def test_qwp_turns_diagonal_into_circular():
    # a quarter-wave plate at 45 degrees
    h = jones_state("H")
    out = JonesVector(*retard(math.pi / 2, cmath.exp(2j * math.pi / 4), h.ex,
                              h.ey))
    s = stokes_of(out)
    assert abs(s.s3) == pytest.approx(1.0, abs=1e-12)


def test_retard_preserves_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        re = rng.normal(size=4)
        v = JonesVector(complex(re[0], re[1]), complex(re[2], re[3]))
        delta, alpha = rng.uniform(-3, 3, size=2)
        out = JonesVector(*retard(delta, cmath.exp(2j * alpha), v.ex, v.ey))
        assert out.norm() == pytest.approx(v.norm(), rel=1e-12)


def test_pancharatnam_phase_examples():
    h, d = jones_state("H"), jones_state("D")
    assert pancharatnam_phase(h, d) == pytest.approx(0.0, abs=1e-15)
    # <H|L> = 1/sqrt(2), real positive
    assert pancharatnam_phase(h, jones_state("L")) == pytest.approx(0.0,
                                                                    abs=1e-15)
    v = JonesVector(SQ2, SQ2 * cmath.exp(1j * 0.8))
    assert pancharatnam_phase(jones_state("H"), v) == pytest.approx(0.0,
                                                                    abs=1e-15)
    assert pancharatnam_phase(jones_state("V"), v) == pytest.approx(0.8,
                                                                    abs=1e-12)


def test_pancharatnam_phase_antisymmetric():
    a = jones_state("L")
    b = JonesVector(0.6, 0.8j * cmath.exp(0.3j))
    assert pancharatnam_phase(a, b) == pytest.approx(
        -pancharatnam_phase(b, a), abs=1e-12)


def scaled(v, c):
    return JonesVector(c * v.ex, c * v.ey)


def test_pancharatnam_orthogonal_raises():
    for c in (1e-8, 1.0, 1e8):
        for p, q in (("H", "V"), ("L", "R")):
            with pytest.raises(OrthogonalStates):
                pancharatnam_phase(scaled(jones_state(p), c), jones_state(q))


def test_pancharatnam_tolerance_is_relative():
    # 45 degrees apart, only small: the phase is defined
    a, b = JonesVector(1e-7, 0.0), JonesVector(1e-7, 1e-7)
    assert pancharatnam_phase(a, b) == 0.0


component = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                               allow_infinity=False)


@given(a=st.tuples(component, component), b=st.tuples(component, component),
       c=st.floats(1e-8, 1e8))
def test_pancharatnam_phase_is_scale_invariant(a, b, c):
    a, b = JonesVector(*a), JonesVector(*b)
    assume(min(a.norm(), b.norm()) >= 1e-3)
    assume(abs(a.inner(b)) >= 1e-3 * a.norm() * b.norm())
    ref = pancharatnam_phase(a, b)
    for got in (pancharatnam_phase(scaled(a, c), b),
                pancharatnam_phase(scaled(a, c), scaled(b, c))):
        assert abs(wrap_angle(got - ref)) <= 1e-12


def test_zero_state_cannot_normalize():
    with pytest.raises(ZeroState):
        JonesVector(0.0, 0.0).normalized()
