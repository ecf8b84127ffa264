import math

import numpy as np
import pytest

from lightsim import (JonesVector, QPlateSpec, am_ledger, apply_qplate,
                      gaussian, jones_state, rotating_waveplate_series,
                      vector_field)
from lightsim.analysis import topological_charge
from lightsim.beams import Grid, circular_components
from lightsim.errors import UndersampledRotation
from lightsim.polarization import stokes_of
from lightsim.scenarios import rotating_qplate_overlap_series
from test_kernels import waveplate_closed_form

WAVELENGTH = 632.8e-7


def make_field(n=256, kind="L", w0=1.0):
    g = Grid(n, 8.0 / n, WAVELENGTH)
    return vector_field(gaussian(g, w0), jones_state(kind))


def test_qplate_spec_requires_half_integer_q():
    QPlateSpec(0.5)
    QPlateSpec(-2.0)
    with pytest.raises(ValueError):
        QPlateSpec(0.3)


def test_qplate_spec_bounds_the_charge():
    # |2q| may reach MAX_L, the largest azimuthal charge of a mode
    QPlateSpec(5.0)
    QPlateSpec(-5.0)
    for q in (5.5, -5.5, 1e18, math.inf, math.nan):
        with pytest.raises(ValueError):
            QPlateSpec(q)


def test_qplate_pixels_are_axis_pattern_waveplates():
    # each output pixel is the waveplate of retardance delta and axis angle
    # q phi + alpha0 applied to the input pixel, with phi its azimuth
    f = vector_field(gaussian(Grid(64, 8.0 / 64, WAVELENGTH), 1.0),
                     JonesVector(0.6, 0.3 + 0.5j))
    spec = QPlateSpec(1.5, alpha0=0.2, delta=0.9)
    out = apply_qplate(spec, f)
    _, phi = f.grid.polar()
    for i, j in ((0, 0), (5, 40), (31, 32), (32, 31), (63, 17)):
        m = waveplate_closed_form(spec.delta, spec.q * phi[i, j] + spec.alpha0)
        ex, ey = m @ [f.ex[i, j], f.ey[i, j]]
        assert abs(out.ex[i, j] - ex) < 1e-15
        assert abs(out.ey[i, j] - ey) < 1e-15


def test_zero_retardance_is_identity():
    f = make_field()
    out = apply_qplate(QPlateSpec(1.0, delta=0.0), f)
    np.testing.assert_allclose(out.ex, f.ex, atol=1e-15)
    np.testing.assert_allclose(out.ey, f.ey, atol=1e-15)


def test_qplate_conserves_power():
    f = make_field()
    out = apply_qplate(QPlateSpec(1.5, 0.3, 0.8), f)
    assert out.power == pytest.approx(f.power, rel=1e-12)


def test_qplate_converts_l_to_vortex_r():
    f = make_field(kind="L")
    out = apply_qplate(QPlateSpec(1.0), f)
    psi_l, psi_r = circular_components(out)
    assert psi_l.power == pytest.approx(0.0, abs=1e-25)
    assert am_ledger(out).sam == pytest.approx(-1.0, abs=1e-12)
    assert topological_charge(psi_r, 1.0) == 2


def test_qplate_charge_sign_follows_helicity():
    out = apply_qplate(QPlateSpec(1.0), make_field(kind="R"))
    psi_l, _ = circular_components(out)
    assert topological_charge(psi_l, 1.0) == -2


def test_qplate_alpha0_global_phase():
    # changing alpha0 by da multiplies the converted component by e^{2i da}
    f = make_field(kind="L")
    a = circular_components(apply_qplate(QPlateSpec(1.0, 0.0), f))[1]
    b = circular_components(apply_qplate(QPlateSpec(1.0, 0.4), f))[1]
    np.testing.assert_allclose(b.amp, a.amp * np.exp(0.8j), atol=1e-12)


def test_qplate_charge_additivity():
    # cascaded plates: converted charge 2 q1 - 2 q2 (handedness flips back)
    f = make_field(kind="L")
    out = apply_qplate(QPlateSpec(2.0), apply_qplate(QPlateSpec(1.0), f))
    psi_l, _ = circular_components(out)
    assert topological_charge(psi_l, 1.0) == -2
    assert am_ledger(out).sam == pytest.approx(1.0, abs=1e-12)


def test_rotating_series_needs_uniform_dense_sampling():
    state = jones_state("L")
    omega = 1.0
    with pytest.raises(UndersampledRotation):
        rotating_waveplate_series(math.pi, omega, state, [0.0, 0.2, 0.25])
    # 32 samples over one period: too coarse
    coarse = np.arange(32) * (2 * math.pi / omega) / 32
    with pytest.raises(UndersampledRotation):
        rotating_waveplate_series(math.pi, omega, state, coarse)
    fine = np.arange(128) * (2 * math.pi / omega) / 128
    assert rotating_waveplate_series(math.pi, omega, state, fine).ex.shape \
        == (128,)


def test_rotating_waveplate_static_limit():
    times = np.linspace(0.0, 1.0, 16)
    out = rotating_waveplate_series(math.pi, 0.0, jones_state("L"), times)
    assert float(np.max(np.abs(out.ex - out.ex[0]))) < 1e-15
    assert float(np.max(np.abs(out.ey - out.ey[0]))) < 1e-15


@pytest.mark.parametrize("two_q", range(-8, 9))
@pytest.mark.parametrize("alpha0", [0.0, 0.37])
def test_rotating_qplate_series_matches_direct_overlaps(two_q, alpha0):
    # <out(0)|out(t)> against the plate applied afresh at alpha0 + omega t;
    # an L input has only the e^{2i omega t} term, R only e^{-2i omega t},
    # H both
    omega, times = 1.3, np.array([0.0, 0.1, 0.37, 1.0, 2.5])
    for delta in (math.pi, 0.9):
        spec = QPlateSpec(two_q / 2.0, alpha0, delta)
        for kind in "LRH":
            f = make_field(n=64, kind=kind, w0=0.75)
            ref = apply_qplate(spec, f)
            direct = np.array([f.grid.pitch ** 2 * sum(
                np.vdot(a, b) for a, b in zip(
                    ref.components,
                    apply_qplate(QPlateSpec(spec.q, alpha0 + omega * t, delta),
                                 f).components))
                for t in times])
            got = rotating_qplate_overlap_series(spec, f, omega, times)
            assert np.max(np.abs(got - direct)) \
                <= 1e-12 * np.max(np.abs(direct)), (delta, kind)


def test_hwp_pair_restores_input_polarization():
    # fixed HWP after a spinning HWP returns the input state at every time
    omega = 1.0
    times = np.arange(256) * (2 * 2 * math.pi / omega) / 256
    spun = rotating_waveplate_series(math.pi, omega, jones_state("L"), times)
    fixed = waveplate_closed_form(math.pi, 0.0)
    out = JonesVector(*fixed @ [spun.ex, spun.ey])
    np.testing.assert_allclose(stokes_of(out).s3, 1.0, rtol=0, atol=1e-12)
