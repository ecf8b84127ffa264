"""The grid kernels against the direct formulas they replace.

Each reference below is the straightforward full-grid or per-element form
(full-grid spline sampling, complex centered derivatives, arctan2 phases,
a per-triangle loop, the Stokes map, the waveplate closed form, per-pixel
and per-sample Jones calculus, the sum of squared magnitudes); the
library's kernels must agree with it to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import map_coordinates

from lightsim import (Grid, JonesVector, QPlateSpec, ScalarField, SpherePath,
                      VectorField, apply, circle_path, gaussian,
                      geodesic_path, jones_state, laguerre_gaussian,
                      oam_per_photon, rotating_waveplate_series,
                      sam_per_photon, solid_angle, stokes_field, stokes_of,
                      vector_field, waveplate)
from lightsim.analysis import _oam_scalar_sums, _sample_circle
from lightsim.elements import apply_qplate, qplate_alpha0_decomposition
from lightsim.geomphase import _fan_apex
from lightsim.scenarios import build_scalar_beam

WAVELENGTH = 632.8e-7


def make_grid(n=256, window=8.0):
    return Grid(n, window / n, WAVELENGTH)


# --- references ---

def sample_circle_full(grid, arr, radius, samples, order=3):
    theta = 2.0 * math.pi * np.arange(samples) / samples
    col = radius * np.cos(theta) / grid.pitch + grid.n / 2 - 0.5
    row = radius * np.sin(theta) / grid.pitch + grid.n / 2 - 0.5
    coords = np.vstack([row, col])
    if np.iscomplexobj(arr):
        return (map_coordinates(arr.real, coords, order=order)
                + 1j * map_coordinates(arr.imag, coords, order=order))
    return map_coordinates(arr, coords, order=order)


def centered_derivative(a, pitch, axis):
    ap = np.pad(a, 3, mode="constant")
    sl = [slice(3, -3)] * 2

    def shift(k):
        s = list(sl)
        s[axis] = slice(3 + k, ap.shape[axis] - 3 + k)
        return ap[tuple(s)]

    return (shift(3) - 9 * shift(2) + 45 * shift(1)
            - 45 * shift(-1) + 9 * shift(-2) - shift(-3)) / (60.0 * pitch)


def oam_terms(s):
    """Per-pixel Im(psi* d_phi psi) from complex derivatives."""
    X, Y = s.grid.coords()
    dy = centered_derivative(s.amp, s.grid.pitch, axis=0)
    dx = centered_derivative(s.amp, s.grid.pitch, axis=1)
    return np.imag(np.conj(s.amp) * (X * dy - Y * dx))


def polar_phase(grid, m):
    _, phi = grid.polar()
    return np.exp(1j * m * phi)


def lg_arctan2(grid, l, p, w0):
    from scipy.special import eval_genlaguerre, factorial
    R, PHI = grid.polar()
    al = abs(l)
    norm = math.sqrt(2.0 * factorial(p) / (math.pi * factorial(p + al))) / w0
    return (norm * (math.sqrt(2.0) * R / w0) ** al
            * eval_genlaguerre(p, al, 2.0 * R ** 2 / w0 ** 2)
            * np.exp(-R ** 2 / w0 ** 2) * np.exp(1j * l * PHI))


def qplate_arctan2(spec, f):
    _, phi = f.grid.polar()
    alpha = spec.q * phi + spec.alpha0
    ch, sh = math.cos(spec.delta / 2.0), math.sin(spec.delta / 2.0)
    c2, s2 = np.cos(2.0 * alpha), np.sin(2.0 * alpha)
    m00, m01, m11 = ch - 1j * sh * c2, -1j * sh * s2, ch + 1j * sh * c2
    return m00 * f.ex + m01 * f.ey, m01 * f.ex + m11 * f.ey


def stokes_map(ex, ey):
    ax2, ay2 = np.abs(ex) ** 2, np.abs(ey) ** 2
    cross = np.conj(ex) * ey
    return ax2 + ay2, ax2 - ay2, 2.0 * cross.real, 2.0 * cross.imag


def waveplate_closed_form(delta, alpha):
    ch, sh = math.cos(delta / 2.0), math.sin(delta / 2.0)
    c2, s2 = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
    return np.array([[ch - 1j * sh * c2, -1j * sh * s2],
                     [-1j * sh * s2, ch + 1j * sh * c2]])


def solid_angle_loop(path):
    pts = path.points
    a = _fan_apex(pts)
    total = 0.0
    for b, c in zip(pts[:-1], pts[1:]):
        num = float(a @ np.cross(b, c))
        den = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
        total += 2.0 * math.atan2(num, den)
    return total


# --- cropped circle sampling ---

@pytest.mark.parametrize("n", [64, 256])
def test_sample_circle_crop_matches_full_grid(n):
    g = make_grid(n)
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    cplx = real + 1j * rng.standard_normal((n, n))
    edge = g.window / 2.0 - g.pitch
    for radius in (0.5, 1.7, edge * (1.0 - 1e-9)):
        for arr in (real, cplx):
            got = _sample_circle(g, arr, radius, 720)
            ref = sample_circle_full(g, arr, radius, 720)
            assert got.dtype == ref.dtype
            assert float(np.max(np.abs(got - ref))) < 1e-12


# --- one-derivative OAM sums ---

@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_oam_sums_match_complex_derivative_form(n, seed, scale):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    amp = scale * (rng.standard_normal((n, n))
                   + 1j * rng.standard_normal((n, n)))
    s = ScalarField(g, amp)
    num, den = _oam_scalar_sums(s.grid, s.amp)
    terms = oam_terms(s)
    assert abs(num - float(np.sum(terms))) <= 1e-12 * float(
        np.sum(np.abs(terms)))
    assert den == pytest.approx(float(np.sum(np.abs(amp) ** 2)), rel=1e-12)


def test_oam_sums_of_real_field():
    s = gaussian(make_grid(64), 1.0)
    num, den = _oam_scalar_sums(s.grid, s.amp)
    assert num == 0.0
    assert den == pytest.approx(float(np.sum(s.amp ** 2)), rel=1e-14)


# --- arctan2-free azimuthal phases ---

def test_lg_matches_arctan2_form():
    g = make_grid(128)
    for l in range(-10, 11):
        for p in (0, 1, 5):
            got = laguerre_gaussian(g, l, p, 1.0).amp
            ref = lg_arctan2(g, l, p, 1.0)
            assert float(np.max(np.abs(got - ref))) < 1e-13, (l, p)


def test_vortex_beam_matches_arctan2_form():
    g = make_grid(128)
    base = gaussian(g, 1.0).amp
    for l in range(-10, 11):
        got = build_scalar_beam(g, {"kind": "vortex", "l": l, "w0": 1.0}).amp
        ref = base * polar_phase(g, l)
        assert float(np.max(np.abs(got - ref))) < 1e-13, l


@pytest.mark.parametrize("two_q", range(-8, 9))
@pytest.mark.parametrize("alpha0", [0.0, 0.37])
def test_qplate_matches_arctan2_form(two_q, alpha0):
    g = make_grid(128)
    f = vector_field(gaussian(g, 1.0), jones_state("H"))
    for delta in (math.pi, 0.9):
        spec = QPlateSpec(two_q / 2.0, alpha0, delta)
        out = apply_qplate(spec, f)
        ref_ex, ref_ey = qplate_arctan2(spec, f)
        assert float(np.max(np.abs(out.ex - ref_ex))) < 1e-13
        assert float(np.max(np.abs(out.ey - ref_ey))) < 1e-13
        # the decomposition at the plate's own offset is the plate's output
        f_c, f_plus, f_minus = qplate_alpha0_decomposition(spec, f)
        ex = f_c.ex + f_plus.ex + f_minus.ex
        ey = f_c.ey + f_plus.ey + f_minus.ey
        assert float(np.max(np.abs(ex - ref_ex))) < 1e-13
        assert float(np.max(np.abs(ey - ref_ey))) < 1e-13


# --- batched solid angle ---

def random_loop(rng, m):
    """Closed smooth loop: a tilted small circle with random ripples."""
    t = 2.0 * math.pi * np.arange(m) / m
    theta = rng.uniform(0.2, 2.9) + 0.3 * sum(
        rng.uniform(-1, 1) * np.sin(k * t + rng.uniform(0, 6.3))
        for k in range(1, 4)) / 3
    pts = np.stack([np.sin(theta) * np.cos(t), np.sin(theta) * np.sin(t),
                    np.cos(theta)], axis=1)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pts = pts @ q.T
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return SpherePath(np.vstack([pts, pts[:1]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(3, 600))
def test_solid_angle_matches_triangle_loop(seed, m):
    path = random_loop(np.random.default_rng(seed), m)
    assert solid_angle(path) == pytest.approx(solid_angle_loop(path),
                                              abs=1e-12)


def test_solid_angle_matches_loop_on_special_paths():
    great = circle_path(math.pi / 2, 256)
    assert np.linalg.norm(great.points[:-1].mean(axis=0)) < 1e-3
    paths = [great, great.reversed(), circle_path(0.4, 1024),
             geodesic_path([[0, 0, 1], [1, 0, 0], [0, 1, 0]])]
    for path in paths:
        assert solid_angle(path) == pytest.approx(solid_angle_loop(path),
                                                  abs=1e-12)


# --- one copy of each polarization formula, one field path ---

def random_vector_field(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    ex, ey = scale * (rng.standard_normal((2, n, n))
                      + 1j * rng.standard_normal((2, n, n)))
    return VectorField(make_grid(n), ex, ey)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_sam_matches_stokes_map_sums(n, seed, scale):
    f = random_vector_field(n, seed, scale)
    s0, _, _, s3 = stokes_map(f.ex, f.ey)
    assert sam_per_photon(f) == pytest.approx(
        float(np.sum(s3)) / float(np.sum(s0)), abs=1e-12)


def test_stokes_field_matches_stokes_of_per_pixel():
    f = random_vector_field(64, 5)
    sf = stokes_field(f)
    rng = np.random.default_rng(6)
    for i, j in rng.integers(0, 64, size=(20, 2)):
        ref = stokes_of(JonesVector(f.ex[i, j], f.ey[i, j]))
        got = (sf.s0[i, j], sf.s1[i, j], sf.s2[i, j], sf.s3[i, j])
        # np.abs on an array and abs() on a scalar may differ by an ulp
        np.testing.assert_allclose(got, ref.as_array(), rtol=0,
                                   atol=2e-15 * ref.s0)
    for got, ref in zip((sf.s0, sf.s1, sf.s2, sf.s3), stokes_map(f.ex, f.ey)):
        np.testing.assert_array_equal(got, ref)


def test_waveplate_matches_closed_form():
    rng = np.random.default_rng(7)
    for delta, alpha in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, (200, 2)):
        got = waveplate(delta, alpha).as_array()
        ref = waveplate_closed_form(delta, alpha)
        assert float(np.max(np.abs(got - ref))) <= 1e-15


def test_vector_oam_is_intensity_weighted_component_oam():
    g = make_grid(128)
    ex = laguerre_gaussian(g, 2, 0, 1.0).amp
    ey = 0.5j * laguerre_gaussian(g, -1, 1, 1.0).amp
    wx, wy = float(np.sum(np.abs(ex) ** 2)), float(np.sum(np.abs(ey) ** 2))
    ref = (oam_per_photon(ScalarField(g, ex)) * wx
           + oam_per_photon(ScalarField(g, ey)) * wy) / (wx + wy)
    assert oam_per_photon(VectorField(g, ex, ey)) == pytest.approx(ref,
                                                                   rel=1e-12)
    assert -1.0 < ref < 2.0


# --- array-valued Jones states, field power ---

def test_rotating_series_matches_per_sample_waveplate():
    rng = np.random.default_rng(8)
    for _ in range(200):
        delta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        v = JonesVector(*(rng.uniform(1e-3, 1e3)
                          * (rng.standard_normal(2)
                             + 1j * rng.standard_normal(2))))
        times = np.arange(128) * (2.0 * math.pi / abs(omega)) / 96
        got = rotating_waveplate_series(delta, omega, v, times)
        ref = [apply(waveplate(delta, omega * t), v) for t in times]
        err = max(float(np.max(np.abs(got.ex - [r.ex for r in ref]))),
                  float(np.max(np.abs(got.ey - [r.ey for r in ref]))))
        assert err <= 1e-15 * v.norm()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_power_matches_squared_magnitude_sum(n, seed, scale):
    f = random_vector_field(n, seed, scale)
    for field in (f, ScalarField(f.grid, f.ey)):
        ref = sum(float(np.sum(np.abs(c) ** 2)) for c in field.components)
        assert field.power == pytest.approx(ref * field.grid.pitch ** 2,
                                            rel=1e-13)
