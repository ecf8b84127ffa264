import math

import numpy as np
import pytest

from lightsim import (JonesVector, QPlateSpec, apply_patterned, apply_qplate,
                      gaussian, jones_state, rotating_waveplate_series,
                      vector_field)
from lightsim.analysis import sam_per_photon, topological_charge
from lightsim.beams import Grid, circular_components
from lightsim.elements import PatternedRetarder, qplate_alpha0_decomposition
from lightsim.errors import DimensionMismatch, UndersampledRotation
from lightsim.polarization import apply, stokes_of, waveplate

WAVELENGTH = 632.8e-7


def make_field(n=256, kind="L", w0=1.0):
    g = Grid(n, 8.0 / n, WAVELENGTH)
    return vector_field(gaussian(g, w0), jones_state(kind))


def test_qplate_spec_requires_half_integer_q():
    QPlateSpec(0.5)
    QPlateSpec(-2.0)
    with pytest.raises(ValueError):
        QPlateSpec(0.3)


def test_qplate_pixels_are_axis_pattern_waveplates():
    # each output pixel is waveplate(delta, q phi + alpha0) applied to the
    # input pixel, with phi the pixel's azimuth
    f = vector_field(gaussian(Grid(64, 8.0 / 64, WAVELENGTH), 1.0),
                     JonesVector(0.6, 0.3 + 0.5j))
    spec = QPlateSpec(1.5, alpha0=0.2, delta=0.9)
    out = apply_qplate(spec, f)
    _, phi = f.grid.polar()
    for i, j in ((0, 0), (5, 40), (31, 32), (32, 31), (63, 17)):
        m = waveplate(spec.delta, spec.q * phi[i, j] + spec.alpha0)
        v = apply(m, JonesVector(f.ex[i, j], f.ey[i, j]))
        assert abs(out.ex[i, j] - v.ex) < 1e-15
        assert abs(out.ey[i, j] - v.ey) < 1e-15


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
    assert sam_per_photon(out) == pytest.approx(-1.0, abs=1e-12)
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
    assert sam_per_photon(out) == pytest.approx(1.0, abs=1e-12)


def test_patterned_matches_qplate():
    f = make_field()
    spec = QPlateSpec(1.0, 0.1)
    _, phi = f.grid.polar()
    pat = PatternedRetarder(spec.q * phi + spec.alpha0, spec.delta)
    a = apply_qplate(spec, f)
    b = apply_patterned(pat, f)
    np.testing.assert_allclose(b.ex, a.ex, atol=1e-12)
    np.testing.assert_allclose(b.ey, a.ey, atol=1e-12)


def test_patterned_shape_mismatch():
    f = make_field(n=64)
    with pytest.raises(DimensionMismatch):
        apply_patterned(PatternedRetarder(np.zeros((32, 32)), math.pi), f)


def test_linear_ramp_pattern_is_polarization_grating():
    # alpha = kappa x deflects the converted component by phase 2 kappa x
    f = make_field(kind="L")
    X, _ = f.grid.coords()
    kappa = 2.0
    out = apply_patterned(PatternedRetarder(kappa * X, math.pi), f)
    psi_l, psi_r = circular_components(out)
    assert float(np.max(np.abs(psi_l.amp))) < 1e-14
    residual = psi_r.amp * np.exp(-2j * kappa * X)
    ref = residual.flat[0] / abs(residual.flat[0])
    assert float(np.max(np.abs(residual / np.abs(residual) - ref))) < 1e-12


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


def test_alpha0_decomposition_reconstructs_output():
    f = make_field(n=64, w0=0.75)
    spec = QPlateSpec(1.0, 0.2, 0.9)
    f_c, f_plus, f_minus = qplate_alpha0_decomposition(spec, f)
    for da in (0.0, 0.37, 1.9):
        direct = apply_qplate(QPlateSpec(spec.q, spec.alpha0 + da, spec.delta),
                              f)
        ex = f_c.ex + np.exp(2j * da) * f_plus.ex + np.exp(-2j * da) * f_minus.ex
        ey = f_c.ey + np.exp(2j * da) * f_plus.ey + np.exp(-2j * da) * f_minus.ey
        np.testing.assert_allclose(ex, direct.ex, atol=1e-13)
        np.testing.assert_allclose(ey, direct.ey, atol=1e-13)


def test_hwp_pair_restores_input_polarization():
    # fixed HWP after a spinning HWP returns the input state at every time
    omega = 1.0
    times = np.arange(256) * (2 * 2 * math.pi / omega) / 256
    out = apply(waveplate(math.pi, 0.0),
                rotating_waveplate_series(math.pi, omega, jones_state("L"),
                                          times))
    np.testing.assert_allclose(stokes_of(out).s3, 1.0, rtol=0, atol=1e-12)
