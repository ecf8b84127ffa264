import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lightsim import (Grid, QPlateSpec, ScalarField, VectorField, am_ledger,
                      apply_qplate, azimuthal_spectrum, classical_ke,
                      energy_density, gaussian, jones_state,
                      laguerre_gaussian, magnetic_energy_fraction,
                      momentum_density, photon_partition, plane_wave_em,
                      topological_charge, vector_field)
from lightsim.analysis import loop_winding
from lightsim.constants import C_LIGHT, H_PLANCK, HBAR
from lightsim.errors import (LoopThroughZero, NonpositiveFrequency,
                             RadiusOutOfGrid, ZeroField)
from lightsim.polarization import wrap_angle

WAVELENGTH = 632.8e-7


def make_grid(n=256, window=8.0):
    return Grid(n, window / n, WAVELENGTH)


def vortex(grid, l, w0=1.0):
    """Gaussian envelope with a pure exp(i l phi) winding."""
    _, phi = grid.polar()
    return ScalarField(grid, gaussian(grid, w0).amp * np.exp(1j * l * phi))


# --- SAM ---

def test_sam_of_uniform_states():
    g = make_grid(64)
    s = gaussian(g, 1.0)
    assert am_ledger(vector_field(s, jones_state("L"))).sam == pytest.approx(
        1.0, abs=1e-14)
    assert am_ledger(vector_field(s, jones_state("R"))).sam == pytest.approx(
        -1.0, abs=1e-14)
    assert am_ledger(vector_field(s, jones_state("H"))).sam == pytest.approx(
        0.0, abs=1e-14)


def test_sam_of_patched_mixture():
    # equal-power L and R halves average to zero spin
    g = make_grid(64)
    amp = np.ones((64, 64))
    left = jones_state("L")
    right = jones_state("R")
    half = g.n // 2
    ex = np.where(np.arange(g.n)[None, :] < half, left.ex, right.ex) * amp
    ey = np.where(np.arange(g.n)[None, :] < half, left.ey, right.ey) * amp
    assert am_ledger(VectorField(g, ex, ey)).sam == pytest.approx(
        0.0, abs=1e-14)


def test_sam_zero_field_raises():
    g = make_grid(64)
    with pytest.raises(ZeroField):
        am_ledger(VectorField(g, np.zeros((64, 64)), np.zeros((64, 64)))).sam


# --- OAM ---

def test_oam_of_gaussian_is_zero():
    assert am_ledger(gaussian(make_grid(), 1.0)).oam == pytest.approx(
        0.0, abs=1e-12)


def test_oam_of_lg_modes():
    g = make_grid(512)
    for l in (-3, -1, 1, 2, 3):
        for p in (0, 1):
            assert am_ledger(laguerre_gaussian(g, l, p, 1.0)).oam == \
                pytest.approx(float(l), abs=1e-3)


def test_oam_of_filled_core_vortex():
    # Gaussian x e^{2i phi} has a filled core; hardest case for the
    # finite-difference estimator
    assert am_ledger(vortex(make_grid(512), 2)).oam == pytest.approx(
        2.0, abs=1e-3)


def test_oam_of_vector_field_combines_components():
    g = make_grid(256)
    f = vector_field(laguerre_gaussian(g, 1, 0, 1.0), jones_state("L"))
    assert am_ledger(f).oam == pytest.approx(1.0, abs=1e-3)


def test_oam_superposition_additivity():
    # equal powers of l = +1 and l = -1 average to zero
    g = make_grid(256)
    a = laguerre_gaussian(g, 1, 0, 1.0)
    b = laguerre_gaussian(g, -1, 0, 1.0)
    sup = ScalarField(g, (a.amp + b.amp) / math.sqrt(2.0))
    assert am_ledger(sup).oam == pytest.approx(0.0, abs=2e-3)


# --- azimuthal spectrum ---

def test_azimuthal_spectrum_purity():
    g = make_grid(256)
    spec = azimuthal_spectrum(laguerre_gaussian(g, 2, 0, 1.0), 0.6)
    assert spec[2] > 0.999
    assert sum(spec.values()) == pytest.approx(1.0, abs=1e-9)


def test_azimuthal_spectrum_superposition_fractions():
    g = make_grid(256)
    a = laguerre_gaussian(g, 1, 0, 1.0)
    b = laguerre_gaussian(g, -1, 0, 1.0)
    spec = azimuthal_spectrum(ScalarField(g, (a.amp + b.amp) / math.sqrt(2)),
                              0.6)
    assert spec[1] == pytest.approx(0.5, abs=1e-3)
    assert spec[-1] == pytest.approx(0.5, abs=1e-3)


def test_azimuthal_spectrum_global_phase_invariant():
    g = make_grid(256)
    s = laguerre_gaussian(g, 1, 0, 1.0)
    rotated = ScalarField(g, s.amp * np.exp(0.7j))
    a = azimuthal_spectrum(s, 0.6)
    b = azimuthal_spectrum(rotated, 0.6)
    assert a[1] == pytest.approx(b[1], abs=1e-14)


def test_azimuthal_spectrum_radius_bounds():
    g = make_grid(64)
    with pytest.raises(RadiusOutOfGrid):
        azimuthal_spectrum(gaussian(g, 1.0), 10.0)
    with pytest.raises(RadiusOutOfGrid):
        azimuthal_spectrum(gaussian(g, 1.0), 0.0)


# --- topological charge ---

def test_topological_charge_integers():
    g = make_grid(256)
    for l in (-3, -1, 0, 2):
        assert topological_charge(vortex(g, l), 1.0) == l


def test_topological_charge_radius_independent():
    g = make_grid(256)
    s = laguerre_gaussian(g, 2, 0, 1.0)
    for r in (0.4, 1.0, 2.0):
        assert topological_charge(s, r) == 2


def test_topological_charge_rejects_zero_loop():
    g = make_grid(256)
    a = laguerre_gaussian(g, 1, 0, 1.0)
    b = laguerre_gaussian(g, -1, 0, 1.0)
    # the balanced superposition has nodal lines crossing every circle
    with pytest.raises(LoopThroughZero):
        topological_charge(ScalarField(g, a.amp + b.amp), 1.0)


@pytest.mark.parametrize("n", [64, 128, 256])
@pytest.mark.parametrize("l, p", [(2, 2), (-2, 2), (1, 1)])
def test_topological_charge_rejects_loop_on_radial_node(n, l, p):
    # the loop of radius w0 lies on (p = 2, |l| = 2) or near (p = 1) a
    # radial node; its samples stay above 1e-9 of the peak, but their phase
    # steps by 2-3 rad, and the sum of those steps read l = 2, p = 2 as -18
    # at n = 128 and -14 at n = 256.  At n = 64 (w0 = 8 px) the loop winds
    # round zeros of the interpolant: it steps 1.03 rad for p = 2 and
    # 1.21 rad for p = 1, and read l = 2, p = 2 as -6 under a pi/2 limit
    s = laguerre_gaussian(make_grid(n), l, p, 1.0)
    with pytest.raises(LoopThroughZero, match=r"steps [\d.]+ rad"):
        topological_charge(s, 1.0)


def test_topological_charge_checks_the_loop_against_the_given_peak():
    s = laguerre_gaussian(make_grid(128), 2, 0, 1.0)
    peak = float(np.max(np.abs(s.amp)))
    assert topological_charge(s, 1.0, peak) == 2
    # the given value is the peak the check reads, not a bound on it
    with pytest.raises(LoopThroughZero, match="within 1e-9 of a field zero"):
        topological_charge(s, 1.0, 1e12 * peak)


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.floats(-2.9, 2.9), min_size=1, max_size=63),
       start=st.floats(-math.pi, math.pi),
       mags=st.lists(st.floats(1e-3, 1e3), min_size=64, max_size=64))
@example(steps=[0.75 * math.pi] * 7, start=0.0, mags=[1.0] * 64)
@example(steps=[-2.9] * 9, start=3.0, mags=[1e-3, 1e3] * 32)
def test_loop_winding_steps_are_the_wrapped_angle_differences(steps, start,
                                                              mags):
    # a closed loop of nonzero samples whose phase steps, the closing one
    # included, stay below 3 rad: the steps and the winding are those of
    # the principal angles' wrapped differences
    phases = start + np.cumsum([0.0, *steps])
    assume(abs(wrap_angle(phases[0] - phases[-1])) < 3.0)
    vals = np.array(mags[:len(phases)]) * np.exp(1j * phases)
    angles = np.angle(vals)
    ref = wrap_angle(np.diff(np.concatenate([angles, angles[:1]])))
    charge, got = loop_winding(vals, float(np.max(np.abs(vals))), 1.0)
    assert charge == round(float(np.sum(ref)) / (2.0 * math.pi))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


# --- energy and momentum densities ---

def test_energy_density_plug_in():
    e = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert energy_density(e, b) == pytest.approx(1.0 / (4.0 * math.pi))
    assert energy_density(e, 0 * b) == pytest.approx(1.0 / (8.0 * math.pi))


def test_momentum_density_direction():
    e0 = 2.0
    e, b = plane_wave_em(e0, "linear", 0.0)
    g = momentum_density(e, b)
    np.testing.assert_allclose(
        g, [0.0, 0.0, e0 ** 2 / (4.0 * math.pi * C_LIGHT)], atol=1e-18)


def test_u_equals_gc_for_circular():
    e, b = plane_wave_em(1.0, "circular", 0.3)
    g = momentum_density(e, b)
    assert energy_density(e, b) == pytest.approx(
        float(np.linalg.norm(g)) * C_LIGHT, rel=1e-14)


def test_magnetic_energy_fraction_half():
    e, b = plane_wave_em(1.0, "circular", 1.1)
    assert magnetic_energy_fraction(e, b) == pytest.approx(0.5, abs=1e-14)


# --- photon partition ---

def test_photon_partition_halves():
    nu = 5e14
    rot, trans = photon_partition(nu)
    assert rot == trans
    assert rot + trans == pytest.approx(H_PLANCK * nu, rel=1e-15)
    assert rot == pytest.approx(HBAR * (2 * math.pi * nu) / 2.0, rel=1e-15)


def test_photon_partition_rejects_nonpositive():
    with pytest.raises(NonpositiveFrequency):
        photon_partition(0.0)


def test_classical_ke_matches_photon_partition():
    nu = 5e14
    omega = 2.0 * math.pi * nu
    rot, trans = photon_partition(nu)
    ke_rot, ke_trans = classical_ke(HBAR, omega, H_PLANCK * nu / C_LIGHT,
                                    C_LIGHT)
    assert ke_rot == pytest.approx(rot, rel=1e-15)
    assert ke_trans == pytest.approx(trans, rel=1e-15)


# --- ledger ---

def test_am_ledger_conservation_q1():
    g = make_grid(512)
    f = vector_field(gaussian(g, 1.0), jones_state("L"))
    before = am_ledger(f)
    after = am_ledger(apply_qplate(QPlateSpec(1.0), f))
    assert before.total == pytest.approx(1.0, abs=1e-6)
    assert after.sam == pytest.approx(-1.0, abs=1e-12)
    assert after.oam == pytest.approx(2.0, abs=1e-3)
    assert after.total == pytest.approx(before.total, abs=1e-3)
