import math

import numpy as np
import pytest

from lightsim import (Grid, ScalarField, conjugate_round_trip,
                      elliptical_gaussian, far_field, gaussian, jones_state,
                      laguerre_gaussian, oam_per_photon, propagate,
                      second_moment_widths, stability_metrics,
                      topological_charge, vector_field)
from lightsim.errors import WindowTooSmall

WAVELENGTH = 632.8e-7  # cm


def make_grid(n=256, window=16.0):
    return Grid(n, window / n, WAVELENGTH)


def rayleigh(w0):
    return math.pi * w0 ** 2 / WAVELENGTH


def test_zero_distance_is_identity():
    s = gaussian(make_grid(), 1.0)
    out = propagate(s, 0.0)
    np.testing.assert_allclose(out.amp, s.amp, atol=1e-12)


def test_negative_distance_rejected():
    s = gaussian(make_grid(), 1.0)
    with pytest.raises(ValueError):
        propagate(s, -1.0)


def test_propagation_conserves_power():
    s = laguerre_gaussian(make_grid(), 1, 0, 1.0)
    z = rayleigh(1.0)
    assert propagate(s, z).power == pytest.approx(s.power, rel=1e-9)


def test_gaussian_expands_by_sqrt2_at_rayleigh():
    w0 = 1.0
    s = gaussian(make_grid(512), w0)
    out = propagate(s, rayleigh(w0))
    wx, wy = second_moment_widths(out)
    expect = w0 * math.sqrt(2.0)
    assert wx == pytest.approx(expect, rel=5e-3)
    assert wy == pytest.approx(expect, rel=5e-3)


def test_lg_charge_and_oam_survive_propagation():
    s = laguerre_gaussian(make_grid(512), 2, 0, 1.0)
    for z in (rayleigh(1.0), 2.0 * rayleigh(1.0)):
        out = propagate(s, z)
        wx, wy = second_moment_widths(out)
        assert topological_charge(out, 0.5 * math.hypot(wx, wy)) == 2
        assert oam_per_photon(out) == pytest.approx(2.0, abs=2e-3)


def test_semigroup_property():
    s = laguerre_gaussian(make_grid(), 1, 0, 1.0)
    z = rayleigh(1.0)
    one = propagate(s, z)
    two = propagate(propagate(s, z / 2.0), z / 2.0)
    err = np.linalg.norm(two.amp - one.amp) / np.linalg.norm(one.amp)
    assert err < 1e-9


def test_conjugate_round_trip_recovers_input():
    s = laguerre_gaussian(make_grid(), 1, 1, 1.0)
    back = conjugate_round_trip(s, rayleigh(1.0))
    err = np.linalg.norm(back.amp - s.amp) / np.linalg.norm(s.amp)
    assert err < 1e-9


def test_vector_field_propagates_componentwise():
    f = vector_field(laguerre_gaussian(make_grid(), 1, 0, 1.0),
                     jones_state("L"))
    z = rayleigh(1.0)
    out = propagate(f, z)
    far = far_field(f)
    for amp, got, got_far in ((f.ex, out.ex, far.ex), (f.ey, out.ey, far.ey)):
        ref = propagate(ScalarField(f.grid, amp), z)
        np.testing.assert_allclose(got, ref.amp, atol=1e-14)
        np.testing.assert_array_equal(got_far,
                                      far_field(ScalarField(f.grid, amp)).amp)


def test_vector_field_widths_are_total_intensity_widths():
    s = elliptical_gaussian(make_grid(128), 1.4, 0.8, 0.3)
    widths = second_moment_widths(vector_field(s, jones_state("D")))
    assert widths == pytest.approx(second_moment_widths(s), rel=1e-12)


def test_window_too_small_raises():
    g = Grid(64, 8.0 / 64, WAVELENGTH)
    s = gaussian(g, 1.0)
    # over a long distance the beam diffracts onto the window edge
    with pytest.raises(WindowTooSmall):
        propagate(s, 50.0 * rayleigh(1.0))


def test_far_field_preserves_power_and_charge():
    s = laguerre_gaussian(make_grid(512), 1, 0, 1.0)
    ff = far_field(s)
    assert ff.power == pytest.approx(s.power, rel=1e-9)
    wx, wy = second_moment_widths(ff)
    assert topological_charge(ff, 0.5 * math.hypot(wx, wy)) == 1


def test_far_field_gaussian_divergence():
    # second-moment angular width of the Gaussian far field is
    # lambda / (pi w0), the reciprocal of the near-field width
    w0 = 1.0
    ff = far_field(gaussian(make_grid(512), w0))
    wx, wy = second_moment_widths(ff)
    expect = WAVELENGTH / (math.pi * w0)
    assert wx == pytest.approx(expect, rel=1e-2)
    assert wy == pytest.approx(expect, rel=1e-2)


def test_far_field_elliptical_aspect_transposes():
    # a 2:1 waist ratio becomes a 1:2 divergence ratio
    ff = far_field(elliptical_gaussian(make_grid(512), 1.0, 0.5))
    wx, wy = second_moment_widths(ff)
    assert wy / wx == pytest.approx(2.0, rel=1e-2)


def test_stability_metrics_records():
    s = laguerre_gaussian(make_grid(), -1, 0, 1.0)
    zs = [rayleigh(1.0), 2.0 * rayleigh(1.0)]
    records = stability_metrics(s, zs)
    assert [r["z"] for r in records] == zs
    for r in records:
        assert r["charge"] == -1
        assert r["oam"] == pytest.approx(-1.0, abs=2e-3)
        assert r["width_x"] > 0.0 and r["width_y"] > 0.0
