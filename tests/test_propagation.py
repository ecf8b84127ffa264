import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightsim import (Grid, ScalarField, am_ledger, elliptical_gaussian,
                      far_field, gaussian, jones_state, laguerre_gaussian,
                      propagate, propagations, stability_record,
                      topological_charge, vector_field)
from lightsim.beams import MAX_L, MAX_P, sum_abs2
from lightsim.config import ScenarioConfig, validate
from lightsim.errors import WindowTooSmall, ZeroField
from lightsim.scenarios import (SCENARIOS, SummaryRow, build_beam,
                                build_scalar_beam, run_scenario)

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


def test_propagations_equal_one_propagate_per_distance():
    s = laguerre_gaussian(make_grid(128), 1, 0, 1.0)
    zs = [0.0, rayleigh(1.0), 0.5 * rayleigh(1.0)]
    for field in (s, vector_field(s, jones_state("D"))):
        outs = list(propagations(field, zs))
        assert len(outs) == len(zs)
        for z, out in zip(zs, outs):
            assert type(out) is type(field)
            for got, ref in zip(out.components,
                                propagate(field, z).components):
                np.testing.assert_array_equal(got, ref)


def test_negative_distance_rejected_before_any_transform(monkeypatch):
    s = gaussian(make_grid(), 1.0)

    def no_fft(*args, **kwargs):
        raise AssertionError("FFT before the distances were checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(ValueError):
        next(propagations(s, [rayleigh(1.0), -1.0]))


def test_propagation_conserves_power():
    s = laguerre_gaussian(make_grid(), 1, 0, 1.0)
    z = rayleigh(1.0)
    assert am_ledger(propagate(s, z)).power == pytest.approx(
        am_ledger(s).power, rel=1e-9)


def test_gaussian_expands_by_sqrt2_at_rayleigh():
    w0 = 1.0
    s = gaussian(make_grid(512), w0)
    out = propagate(s, rayleigh(w0))
    wx, wy = am_ledger(out).widths
    expect = w0 * math.sqrt(2.0)
    assert wx == pytest.approx(expect, rel=5e-3)
    assert wy == pytest.approx(expect, rel=5e-3)


def test_lg_charge_and_oam_survive_propagation():
    s = laguerre_gaussian(make_grid(512), 2, 0, 1.0)
    for z in (rayleigh(1.0), 2.0 * rayleigh(1.0)):
        out = propagate(s, z)
        wx, wy = am_ledger(out).widths
        assert topological_charge(out, 0.5 * math.hypot(wx, wy)) == 2
        assert am_ledger(out).oam == pytest.approx(2.0, abs=2e-3)


def test_semigroup_property():
    s = laguerre_gaussian(make_grid(), 1, 0, 1.0)
    z = rayleigh(1.0)
    one = propagate(s, z)
    two = propagate(propagate(s, z / 2.0), z / 2.0)
    err = np.linalg.norm(two.amp - one.amp) / np.linalg.norm(one.amp)
    assert err < 1e-9


def test_conjugate_round_trip_recovers_input():
    # propagate, conjugate, propagate, conjugate: reciprocity returns the
    # input without a negative-z step
    s = laguerre_gaussian(make_grid(), 1, 1, 1.0)
    z = rayleigh(1.0)
    fwd = propagate(s, z)
    back = propagate(ScalarField(s.grid, np.conj(fwd.amp)), z)
    back = ScalarField(s.grid, np.conj(back.amp))
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
    widths = am_ledger(vector_field(s, jones_state("D"))).widths
    assert widths == pytest.approx(am_ledger(s).widths, rel=1e-12)


def test_window_too_small_raises():
    g = Grid(64, 8.0 / 64, WAVELENGTH)
    s = gaussian(g, 1.0)
    # over a long distance the beam diffracts onto the window edge
    with pytest.raises(WindowTooSmall):
        propagate(s, 50.0 * rayleigh(1.0))


def test_far_field_preserves_power_and_charge():
    s = laguerre_gaussian(make_grid(512), 1, 0, 1.0)
    ff = far_field(s)
    ledger = am_ledger(ff)
    assert ledger.power == pytest.approx(am_ledger(s).power, rel=1e-9)
    wx, wy = ledger.widths
    assert topological_charge(ff, 0.5 * math.hypot(wx, wy)) == 1


def test_far_field_gaussian_divergence():
    # second-moment angular width of the Gaussian far field is
    # lambda / (pi w0), the reciprocal of the near-field width
    w0 = 1.0
    ff = far_field(gaussian(make_grid(512), w0))
    wx, wy = am_ledger(ff).widths
    expect = WAVELENGTH / (math.pi * w0)
    assert wx == pytest.approx(expect, rel=1e-2)
    assert wy == pytest.approx(expect, rel=1e-2)


def test_far_field_elliptical_aspect_transposes():
    # a 2:1 waist ratio becomes a 1:2 divergence ratio
    ff = far_field(elliptical_gaussian(make_grid(512), 1.0, 0.5))
    wx, wy = am_ledger(ff).widths
    assert wy / wx == pytest.approx(2.0, rel=1e-2)


def test_stability_records():
    s = laguerre_gaussian(make_grid(), -1, 0, 1.0)
    zs = [rayleigh(1.0), 2.0 * rayleigh(1.0)]
    records = list(map(stability_record, zs, propagations(s, zs)))
    assert [r["z"] for r in records] == zs
    for r in records:
        assert r["charge"] == -1
        assert r["oam"] == pytest.approx(-1.0, abs=2e-3)
        assert r["width_x"] > 0.0 and r["width_y"] > 0.0


def test_zero_plane_raises_zero_field():
    # widths and OAM of a zero field are 0/0: no nan, no radius read from it
    zero = ScalarField(make_grid(64), np.zeros((64, 64), complex))
    with pytest.raises(ZeroField):
        am_ledger(zero)
    with pytest.raises(ZeroField):
        stability_record(1.0, propagate(zero, 1.0))


# --- propagation_stability: one pass over the planes ---

SI_WAVELENGTH = 632.8e-9
SI_GRID = {"n": 128, "window": 8e-3, "wavelength": SI_WAVELENGTH}
SI_W0 = 8e-3 / 16.0
SI_ZR = math.pi * SI_W0 ** 2 / SI_WAVELENGTH
STABILITY_BEAMS = {"lg": {"kind": "lg", "l": -2, "p": 0, "w0": SI_W0},
                   "gaussian": {"kind": "gaussian", "w0": SI_W0}}


def stability_sections(beam, zs):
    return {"grid": SI_GRID, "beam": STABILITY_BEAMS[beam],
            "propagation": {"z_list": [t * SI_ZR for t in zs]}}


def two_pass_rows(sections):
    """propagation_stability's rows as its two-pass form made them:
    `stability_record` over z_list, then the beam propagated afresh to z
    and z/2 and a half step from z/2."""
    name = "propagation_stability"
    cfg = validate(name, sections, SCENARIOS[name][0])
    beam, beam_cfg = build_beam(cfg), cfg["beam"]
    rows = []
    zs = cfg["propagation"]["z_list"]
    for rec in map(stability_record, zs, propagations(beam, zs)):
        tag = f"z={rec['z']:g}"
        for key in ("width_x", "width_y"):
            rows.append(SummaryRow(name, f"{key}_{tag}", rec[key], rec[key],
                                   float("inf")))
        if beam_cfg["kind"] == "lg":
            rows.append(SummaryRow(name, f"charge_{tag}", rec["charge"],
                                   float(beam_cfg["l"]), 0.0))
            rows.append(SummaryRow(name, f"oam_{tag}", rec["oam"],
                                   float(beam_cfg["l"]), 2e-3))
        else:
            w0 = beam_cfg["w0"]
            zr = math.pi * w0 ** 2 / SI_WAVELENGTH
            w_expect = w0 * math.sqrt(1.0 + (rec["z"] / zr) ** 2)
            rows.append(SummaryRow(name, f"gaussian_width_{tag}",
                                   0.5 * (rec["width_x"] + rec["width_y"]),
                                   w_expect, 0.005 * w_expect))
            rows.append(SummaryRow(name, f"oam_{tag}", rec["oam"], 0.0, 1e-9))
    z = max(cfg["propagation"]["z_list"])
    one, half = propagations(beam, [z, z / 2])
    two = propagate(half, z / 2)
    err = math.sqrt(sum_abs2(two.amp - one.amp) / sum_abs2(one.amp))
    rows.append(SummaryRow(name, "semigroup_rel_err", err, 0.0, 1e-9))
    return rows


@pytest.mark.parametrize("beam", sorted(STABILITY_BEAMS))
@pytest.mark.parametrize("zs", [
    [1.0, 2.0],        # z/2 in the list
    [0.5, 1.5],        # z/2 not in it
    [2.0],             # a single z
    [2.0, 1.0, 2.0],   # a duplicated z
])
def test_stability_rows_equal_the_two_pass_form(tmp_path, beam, zs):
    sections = stability_sections(beam, zs)
    code, rows = run_scenario(
        ScenarioConfig("propagation_stability", sections), tmp_path)
    assert code == 0
    assert list(map(repr, rows)) == list(map(repr, two_pass_rows(sections)))


def test_stability_transforms_each_plane_once(tmp_path, monkeypatch):
    # two 1-D FFTs per 2-D transform: forward of the beam and of the half
    # plane, inverse to zR (= z/2), 2 zR and the second half step
    calls = {"fft": 0, "ifft": 0}
    for fn in calls:
        def counted(a, *args, fn=fn, real=getattr(np.fft, fn), **kwargs):
            calls[fn] += np.ndim(a) == 2
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, fn, counted)
    sections = stability_sections("lg", [1.0, 2.0])
    code, _ = run_scenario(ScenarioConfig("propagation_stability", sections),
                           tmp_path)
    assert code == 0
    assert calls == {"fft": 2 * 2, "ifft": 2 * 3}


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["gaussian", "elliptical", "lg", "vortex"]),
       n=st.sampled_from([64, 128, 256]),
       waists=st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
       tilt=st.floats(0.0, math.pi),
       l=st.integers(-MAX_L, MAX_L), p=st.integers(0, MAX_P),
       reach=st.floats(0.0, 2.0))
def test_propagated_beams_are_band_limited(kind, n, waists, tilt, l, p,
                                           reach):
    # The sampled transfer phase holds below the angular-spectrum band
    # limit 1 / (lambda sqrt((2 df z)^2 + 1)) per axis, df = 1 / window
    # (Matsushima & Shimobaba, Opt. Express 17, 19662, 2009).  Both it and
    # the edge check say that the spread lambda z f fits in the window, so
    # whenever propagate returns the power beyond the limit is negligible.
    grid = make_grid(n)
    lo, hi = 4.0 * grid.pitch, grid.window / 8.0
    w0, w1 = (lo + t * (hi - lo) for t in waists)
    beam = build_scalar_beam(grid, {"kind": kind, "w0": w0, "wx": w0,
                                    "wy": w1, "tilt": tilt, "l": l, "p": p})
    # up to twice the distance at which a Gaussian of the smaller waist
    # grows to a fifth of the window, about where the edge check refuses
    w = min(w0, w1) if kind == "elliptical" else w0
    z = reach * rayleigh(w) * math.sqrt((0.2 * grid.window / w) ** 2 - 1.0)
    try:
        propagate(beam, z)
    except WindowTooSmall:
        return
    power = np.abs(np.fft.fft2(beam.amp)) ** 2
    f = np.abs(np.fft.fftfreq(n, d=grid.pitch))
    limit = 1.0 / (WAVELENGTH * math.hypot(2.0 * z / grid.window, 1.0))
    beyond = (f[None, :] > limit) | (f[:, None] > limit)
    assert power[beyond].sum() <= 1e-6 * power.sum()
