import math

import numpy as np
import pytest

from lightsim import (Grid, am_ledger, circular_components,
                      elliptical_gaussian, gaussian, jones_state,
                      laguerre_gaussian, plane_wave_em, vector_field)
from lightsim.errors import IndexOutOfRange, WaistOutOfRange

WAVELENGTH = 632.8e-7  # cm


def make_grid(n=256, window=8.0):
    return Grid(n, window / n, WAVELENGTH)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(30, 0.01, WAVELENGTH)
    with pytest.raises(ValueError):
        Grid(257, 0.01, WAVELENGTH)
    with pytest.raises(ValueError):
        Grid(64, -0.01, WAVELENGTH)


def test_grid_axes_cell_centered():
    g = make_grid(64)
    x = g.axis()
    # symmetric about zero, no sample at the origin
    np.testing.assert_allclose(x + x[::-1], 0.0, atol=1e-15)
    assert np.min(np.abs(x)) == pytest.approx(g.pitch / 2.0)
    R, _ = g.polar()
    assert float(R.min()) > 0.0


def test_waist_bounds_enforced():
    g = make_grid(64)
    with pytest.raises(WaistOutOfRange):
        gaussian(g, 4.0 * g.pitch)  # too narrow (bound is strict)
    with pytest.raises(WaistOutOfRange):
        gaussian(g, g.window / 8.0 + 1e-9)  # too wide
    gaussian(g, g.window / 8.0)  # upper bound itself is allowed


def test_gaussian_power_closed_form():
    # continuum power of exp(-r^2/w0^2) is pi w0^2 / 2
    g = make_grid(512)
    w0 = 1.0
    assert gaussian(g, w0).power == pytest.approx(math.pi * w0 ** 2 / 2.0,
                                                  rel=1e-3)


def test_gaussian_second_moment_width():
    g = make_grid(512)
    wx, wy = am_ledger(gaussian(g, 1.0)).widths
    assert wx == pytest.approx(1.0, rel=5e-3)
    assert wy == pytest.approx(1.0, rel=5e-3)


def test_elliptical_gaussian_widths_and_tilt():
    g = make_grid(512)
    wx, wy = am_ledger(elliptical_gaussian(g, 1.0, 0.5)).widths
    assert wx == pytest.approx(1.0, rel=5e-3)
    assert wy == pytest.approx(0.5, rel=5e-3)
    # 90-degree tilt swaps the principal axes
    rot = elliptical_gaussian(g, 1.0, 0.5, tilt=math.pi / 2)
    wx, wy = am_ledger(rot).widths
    assert wx == pytest.approx(0.5, rel=5e-3)
    assert wy == pytest.approx(1.0, rel=5e-3)
    # zero ellipticity reduces to the circular Gaussian
    same = elliptical_gaussian(g, 1.0, 1.0)
    np.testing.assert_allclose(same.amp, gaussian(g, 1.0).amp, atol=1e-14)


def test_lg_unit_power():
    g = make_grid(512)
    for l, p in ((0, 0), (1, 0), (-2, 1), (3, 1)):
        assert laguerre_gaussian(g, l, p, 1.0).power == pytest.approx(
            1.0, rel=1e-3)


def test_lg_orthogonality():
    g = make_grid(256)

    def ip(a, b):
        return complex(np.sum(np.conj(a.amp) * b.amp)) * g.pitch ** 2

    modes = {(l, p): laguerre_gaussian(g, l, p, 1.0)
             for l in (-1, 0, 1, 2) for p in (0, 1)}
    for ka, ma in modes.items():
        for kb, mb in modes.items():
            expect = 1.0 if ka == kb else 0.0
            assert abs(ip(ma, mb)) == pytest.approx(expect, abs=1e-3)


def test_lg_azimuthal_phase():
    g = make_grid(256)
    mode = laguerre_gaussian(g, 2, 0, 1.0)
    _, phi = g.polar()
    # remove the phase factor: what is left must be real nonnegative
    residual = mode.amp * np.exp(-2j * phi)
    assert float(np.max(np.abs(residual.imag))) < 1e-12
    assert float(residual.real.min()) > -1e-15


def test_lg_index_limits():
    g = make_grid(64)
    with pytest.raises(IndexOutOfRange):
        laguerre_gaussian(g, 11, 0, 0.5)
    with pytest.raises(IndexOutOfRange):
        laguerre_gaussian(g, 0, 6, 0.5)
    with pytest.raises(IndexOutOfRange):
        laguerre_gaussian(g, 0, -1, 0.5)


def test_beam_generation_deterministic():
    a = laguerre_gaussian(make_grid(128), 1, 1, 1.0)
    b = laguerre_gaussian(make_grid(128), 1, 1, 1.0)
    assert a.amp.tobytes() == b.amp.tobytes()


def test_vector_field_normalizes_polarization():
    g = make_grid(64)
    s = gaussian(g, 1.0)
    f = vector_field(s, jones_state("L"))
    assert f.power == pytest.approx(s.power, rel=1e-12)
    # unnormalized inputs are normalized before use
    from lightsim import JonesVector
    f2 = vector_field(s, JonesVector(2.0, 2.0j))
    np.testing.assert_allclose(f2.ex, f.ex, atol=1e-14)
    np.testing.assert_allclose(f2.ey, f.ey, atol=1e-14)


def test_circular_components_project_l_and_r():
    g = make_grid(64)
    s = gaussian(g, 1.0)
    psi_l, psi_r = circular_components(vector_field(s, jones_state("L")))
    assert psi_l.power == pytest.approx(s.power, rel=1e-12)
    assert psi_r.power == pytest.approx(0.0, abs=1e-20)
    psi_l, psi_r = circular_components(vector_field(s, jones_state("R")))
    assert psi_l.power == pytest.approx(0.0, abs=1e-20)
    assert psi_r.power == pytest.approx(s.power, rel=1e-12)


def test_plane_wave_geometry():
    for kind in ("linear", "circular", "elliptical"):
        for phase in (0.0, 0.4, 2.0):
            e, b = plane_wave_em(2.0, kind, phase)
            assert float(e @ b) == pytest.approx(0.0, abs=1e-14)
            assert np.linalg.norm(e) == pytest.approx(np.linalg.norm(b),
                                                      rel=1e-14)
            assert e[2] == 0.0 and b[2] == 0.0


def test_plane_wave_circular_constant_magnitude():
    mags = [np.linalg.norm(plane_wave_em(1.5, "circular", ph)[0])
            for ph in np.linspace(0, 2 * math.pi, 17)]
    np.testing.assert_allclose(mags, 1.5, rtol=1e-14)


def test_plane_wave_unknown_kind():
    with pytest.raises(ValueError):
        plane_wave_em(1.0, "radial", 0.0)
