"""The grid kernels against the direct formulas they replace.

Each reference below is the straightforward full-grid or per-element form
(full-grid spline sampling, complex centered derivatives, arctan2 phases,
a per-triangle loop, the Stokes map, the half-wave plate's closed form
applied per pixel and per sample, the sum of squared magnitudes); the library's
kernels must agree with it to roundoff.  The kernels built on one
quadrant of the grid and mirrored (vortex phases and beams, Gaussian and LG
modes, the angular-spectrum transfer phase) must agree with their full-grid
formulas bit for bit, signed zeros included, and so must the elliptical
Gaussian, evaluated against broadcast axes, with the full meshgrid.  The
pixel kernels evaluated by blocks of rows (the q-plate output, circular
components, `qplate_conversion`'s passes over its Stokes maps, the |psi|
peak, the interferogram and the image writers) must agree bit for bit with
their whole-map formulas, with blocks that end mid-grid.  A field's pixel
sums (power, SAM, OAM and the row and column sums of the widths), taken
in one pass by blocks of rows, must agree with the whole-map sums to
1e-13 of the sum of the terms' magnitudes, blocks ending mid-grid.  The
circle reader samples `loop_crop`, the centered crop around its circle.
`generalized_charge` runs its q-plate chain on that crop and checks each
loop against the input beam's peak; it must give the loop samples, rows
and errors of the chain on the whole grid, each loop checked against its
output's own peak, bit for bit.  scipy, which the library does not import,
is the reference for its numpy replacements of eval_genlaguerre,
correlate1d and map_coordinates.
"""

import cmath
import contextlib
import math
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import correlate1d, map_coordinates
from scipy.special import eval_genlaguerre, factorial

import lightsim
from lightsim import (Grid, JonesVector, QPlateSpec, ScalarField, SpherePath,
                      VectorField, am_ledger, circle_path, elliptical_gaussian,
                      gaussian, geodesic_path, interference_image, jones_state,
                      laguerre_gaussian, propagate, propagations,
                      rotating_waveplate_series, solid_angle, stokes_of,
                      vector_field)
from lightsim.analysis import (CROP_MARGIN, _pixel_sums, _sample_circle,
                               _spline_prefilter, _spline_taps,
                               loop_crop, topological_charge)
from lightsim.beams import (_genlaguerre, _mirrored, _unfold, _vortex,
                            circular_component, max_abs, overlap_imag,
                            sum_abs2)
from lightsim.config import ScenarioConfig, validate
from lightsim.elements import apply_qplate
from lightsim.errors import LightsimError
from lightsim.geomphase import _fan_apex
from lightsim.imageio import (phase_levels, write_intensity_pgm,
                              write_phase_pgm, write_stokes_ppm)
from lightsim.polarization import half_wave
from lightsim.propagation import _advance
from lightsim.scenarios import (SCENARIOS, SummaryRow,
                                _scenario_generalized_charge,
                                _scenario_qplate_conversion, beam_charge,
                                beam_waist, build_beam, build_scalar_beam,
                                build_vector_beam, execute)

from helpers import polar

WAVELENGTH = 632.8e-7


def make_grid(n=256, window=8.0):
    return Grid(n, window / n, WAVELENGTH)


# --- references ---

def same_bits(got, ref):
    """Equal dtype, shape and bit patterns: unlike np.array_equal, -0.0
    differs from 0.0."""
    return (got.dtype == ref.dtype and got.shape == ref.shape
            and np.array_equal(got.view(np.uint64), ref.view(np.uint64)))


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
    X, Y = np.meshgrid(s.grid.axis(), s.grid.axis())
    dy = centered_derivative(s.amp, s.grid.pitch, axis=0)
    dx = centered_derivative(s.amp, s.grid.pitch, axis=1)
    return np.imag(np.conj(s.amp) * (X * dy - Y * dx))


def polar_phase(grid, m):
    _, phi = polar(grid)
    return np.exp(1j * m * phi)


def lg_arctan2(grid, l, p, w0):
    R, PHI = polar(grid)
    al = abs(l)
    norm = math.sqrt(2.0 * factorial(p) / (math.pi * factorial(p + al))) / w0
    return (norm * (math.sqrt(2.0) * R / w0) ** al
            * eval_genlaguerre(p, al, 2.0 * R ** 2 / w0 ** 2)
            * np.exp(-R ** 2 / w0 ** 2) * np.exp(1j * l * PHI))


def qplate_arctan2(spec, f):
    _, phi = polar(f.grid)
    alpha = spec.q * phi + spec.alpha0
    c2, s2 = np.cos(2.0 * alpha), np.sin(2.0 * alpha)
    return -1j * (c2 * f.ex + s2 * f.ey), -1j * (s2 * f.ex - c2 * f.ey)


def stokes_map(ex, ey):
    ax2, ay2 = np.abs(ex) ** 2, np.abs(ey) ** 2
    cross = np.conj(ex) * ey
    return ax2 + ay2, ax2 - ay2, 2.0 * cross.real, 2.0 * cross.imag


def stokes_ppm_stacked(s):
    """P6 pixel bytes of normalized (s1, s2, s3), from a stacked float RGB
    array."""
    s0 = np.where(s.s0 > 0.0, s.s0, 1.0)
    rgb = np.stack([s.s1 / s0, s.s2 / s0, s.s3 / s0], axis=-1)
    return np.round((np.clip(rgb, -1.0, 1.0) + 1.0) * 127.5).astype(
        np.uint8).tobytes()


def intensity_pgm_whole(intensity):
    """P5 pixel bytes of a nonnegative map scaled to its peak, on the whole
    map."""
    peak = float(intensity.max())
    scaled = intensity / peak if peak > 0.0 else intensity
    return np.round(scaled * 65535.0).astype(">u2").tobytes()


def phase_pgm_whole(phase):
    """P5 pixel bytes of a phase map, (-pi, pi] mapped linearly, on the
    whole map."""
    frac = (phase + math.pi) / (2.0 * math.pi)
    return np.round(np.clip(frac, 0.0, 1.0) * 65535.0).astype(">u2").tobytes()


def propagate_masked_transfer(amp, grid, z):
    """Angular-spectrum step with the transfer function gathered on the
    propagating frequencies and scattered into a zero array."""
    kx = 2.0 * math.pi * np.fft.fftfreq(grid.n, d=grid.pitch)
    kz2 = grid.k ** 2 - (kx[None, :] ** 2 + kx[:, None] ** 2)
    prop = kz2 > 0.0
    h = np.zeros(kz2.shape, dtype=complex)
    h[prop] = np.exp(1j * z * np.sqrt(kz2[prop]))
    return np.fft.ifft2(np.fft.fft2(amp) * h)


def azimuthal_phase_full(grid, m, scale=None):
    """((x + i sgn(m) y)/r)^|m|, or ((x + i sgn(m) y) scale)^|m|, on the
    full grid."""
    if m == 0:
        return np.ones((grid.n, grid.n), dtype=complex)
    x = grid.axis()
    z = x[None, :] + (1j if m > 0 else -1j) * x[:, None]
    if scale is None:
        z /= np.abs(z)
    else:
        z *= scale
    return z ** abs(m)


def mirrored_phase(grid, m):
    """exp(i m phi) evaluated on one quadrant and unfolded."""
    return _mirrored(lambda x, y: _vortex(x, y, m, None), grid, m)


def gaussian_full(grid, w0):
    X, Y = np.meshgrid(grid.axis(), grid.axis())
    return np.exp(-(X ** 2 + Y ** 2) / w0 ** 2)


def laguerre_gaussian_full(grid, l, p, w0):
    x2 = (grid.axis() / w0) ** 2
    r2 = x2[None, :] + x2[:, None]
    al = abs(l)
    norm = math.sqrt(2.0 * math.factorial(p)
                     / (math.pi * math.factorial(p + al))) / w0
    return (norm * azimuthal_phase_full(grid, l, math.sqrt(2.0) / w0)
            * _genlaguerre(p, al, 2.0 * r2)
            * np.exp(-r2))


def half_wave_closed_form(alpha):
    c2, s2 = math.cos(2.0 * alpha), math.sin(2.0 * alpha)
    return -1j * np.array([[c2, s2], [s2, -c2]])


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
            got = _sample_circle(ScalarField(g, arr), radius, 720)
            ref = sample_circle_full(g, arr, radius, 720)
            assert got.dtype == ref.dtype
            assert float(np.max(np.abs(got - ref))) < 1e-12


def sample_circle_crop(grid, arr, radius, samples):
    """map_coordinates (order 3) on the crop that _sample_circle takes."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    center = grid.n / 2 - 0.5
    lo = max(0, math.floor(center - radius / grid.pitch) - CROP_MARGIN)
    coords = radius / grid.pitch * np.vstack([np.sin(theta), np.cos(theta)])
    crop = arr[lo:grid.n - lo, lo:grid.n - lo]
    return map_coordinates(crop, coords + (center - lo), order=3)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(16, 80).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       frac=st.floats(1e-3, 1.0 - 1e-9),
       samples=st.sampled_from([256, 720]),
       cplx=st.booleans(),
       scale=st.floats(1e-3, 1e3))
@example(n=64, seed=0, frac=1.0 - 1e-9, samples=720, cplx=True, scale=1.0)
def test_sample_circle_matches_map_coordinates_on_crop(n, seed, frac, samples,
                                                       cplx, scale):
    # frac near 1 puts the circle within CROP_MARGIN of the grid edge, so
    # the crop is clipped to the grid; within a pixel of the edge the outer
    # taps are mirrored
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    arr = scale * rng.standard_normal((n, n))
    if cplx:
        arr = arr + 1j * scale * rng.standard_normal((n, n))
    radius = frac * (g.window / 2.0 - g.pitch)
    got = _sample_circle(ScalarField(g, arr), radius, samples)
    ref = sample_circle_crop(g, arr, radius, samples)
    assert got.dtype == ref.dtype
    assert float(np.max(np.abs(got - ref))) <= 1e-13 * float(
        np.max(np.abs(arr)))


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
    *_, den, num, _ = _pixel_sums(s)
    terms = oam_terms(s)
    assert abs(num - float(np.sum(terms))) <= 1e-12 * float(
        np.sum(np.abs(terms)))
    assert den == pytest.approx(float(np.sum(np.abs(amp) ** 2)), rel=1e-12)


def oam_sums_correlate(grid, amp):
    """The OAM sums with the derivatives as correlate1d arrays, and the
    per-pixel terms of the numerator."""
    d1 = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    x = grid.axis()
    u, v = amp.real, amp.imag
    dy = correlate1d(v, d1, axis=0, mode="constant")
    dx = correlate1d(v, d1, axis=1, mode="constant")
    terms = 2.0 * u * (dy * x[None, :] - dx * x[:, None]) / grid.pitch
    num = 2.0 * (np.einsum("ij,ij->j", u, dy) @ x
                 - np.einsum("ij,ij->i", u, dx) @ x) / grid.pitch
    return float(num), terms


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 48).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_oam_numerator_matches_correlate1d_form(n, seed, scale):
    g = make_grid(n)
    rng = np.random.default_rng(seed)
    amp = scale * (rng.standard_normal((n, n))
                   + 1j * rng.standard_normal((n, n)))
    num = _pixel_sums(ScalarField(g, amp))[4]
    ref, terms = oam_sums_correlate(g, amp)
    assert abs(num - ref) <= 1e-13 * float(np.sum(np.abs(terms)))


def test_oam_sums_of_real_field():
    s = gaussian(make_grid(64), 1.0)
    *_, den, num, _ = _pixel_sums(s)
    assert num == 0.0
    assert den == pytest.approx(float(np.sum(s.amp ** 2)), rel=1e-14)


# --- Laguerre polynomials ---

@settings(max_examples=100, deadline=None)
@given(p=st.integers(0, 5), l=st.integers(-10, 10),
       x=arrays(np.float64, st.integers(1, 64),
                elements=st.floats(0.0, 1e4)))
def test_genlaguerre_is_bit_identical_to_scipy(p, l, x):
    ref = eval_genlaguerre(p, abs(l), x)
    got = np.broadcast_to(_genlaguerre(p, abs(l), x), ref.shape)
    assert np.array_equal(got, ref)


# --- numpy alone at import ---

def test_import_loads_no_scipy():
    src = str(Path(lightsim.__file__).resolve().parents[1])
    code = ("import sys, lightsim, lightsim.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


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
    spec = QPlateSpec(two_q / 2.0, alpha0)
    out = apply_qplate(spec, f)
    ref_ex, ref_ey = qplate_arctan2(spec, f)
    assert float(np.max(np.abs(out.ex - ref_ex))) < 1e-13
    assert float(np.max(np.abs(out.ey - ref_ey))) < 1e-13


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
    great = circle_path(math.pi / 2)
    assert np.linalg.norm(great.points[:-1].mean(axis=0)) < 1e-3
    paths = [great, SpherePath(great.points[::-1]), circle_path(0.4),
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
    sam = am_ledger(f).sam
    assert sam == pytest.approx(float(np.sum(s3)) / float(np.sum(s0)),
                                abs=1e-12)


def test_stokes_field_matches_stokes_of_per_pixel():
    f = random_vector_field(64, 5)
    sf = stokes_of(f)
    rng = np.random.default_rng(6)
    for i, j in rng.integers(0, 64, size=(20, 2)):
        ref = stokes_of(JonesVector(f.ex[i, j], f.ey[i, j]))
        got = (sf.s0[i, j], sf.s1[i, j], sf.s2[i, j], sf.s3[i, j])
        # np.abs on an array and abs() on a scalar may differ by an ulp
        np.testing.assert_allclose(got, (ref.s0, ref.s1, ref.s2, ref.s3),
                                   rtol=0, atol=2e-15 * ref.s0)
    for got, ref in zip((sf.s0, sf.s1, sf.s2, sf.s3), stokes_map(f.ex, f.ey)):
        np.testing.assert_array_equal(got, ref)


def test_waveplate_matches_closed_form():
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 200):
        # half_wave on the basis states: the Jones matrix, outputs as rows
        got = np.array(half_wave(cmath.exp(2j * alpha), *np.eye(2)))
        ref = half_wave_closed_form(alpha)
        assert float(np.max(np.abs(got - ref))) <= 1e-15


def test_vector_oam_is_intensity_weighted_component_oam():
    g = make_grid(128)
    ex = laguerre_gaussian(g, 2, 0, 1.0).amp
    ey = 0.5j * laguerre_gaussian(g, -1, 1, 1.0).amp
    wx, wy = float(np.sum(np.abs(ex) ** 2)), float(np.sum(np.abs(ey) ** 2))
    ref = (am_ledger(ScalarField(g, ex)).oam * wx
           + am_ledger(ScalarField(g, ey)).oam * wy) / (wx + wy)
    assert am_ledger(VectorField(g, ex, ey)).oam == pytest.approx(ref,
                                                                   rel=1e-12)
    assert -1.0 < ref < 2.0


# --- array-valued Jones states, field power ---

def test_rotating_series_matches_per_sample_waveplate():
    rng = np.random.default_rng(8)
    for _ in range(200):
        omega = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)
        v = JonesVector(*(rng.uniform(1e-3, 1e3)
                          * (rng.standard_normal(2)
                             + 1j * rng.standard_normal(2))))
        times = np.arange(128) * (2.0 * math.pi / abs(omega)) / 96
        got = rotating_waveplate_series(omega, v, times)
        ref = np.array([half_wave_closed_form(omega * t) @ [v.ex, v.ey]
                        for t in times])
        err = max(float(np.max(np.abs(got.ex - ref[:, 0]))),
                  float(np.max(np.abs(got.ey - ref[:, 1]))))
        assert err <= 1e-15 * v.norm()


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_power_matches_squared_magnitude_sum(n, seed, scale):
    f = random_vector_field(n, seed, scale)
    for field in (f, ScalarField(f.grid, f.ey)):
        ref = sum(float(np.sum(np.abs(c) ** 2)) for c in field.components)
        ref *= field.grid.pitch ** 2
        assert am_ledger(field).power == pytest.approx(ref, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(16, 32).map(lambda k: 2 * k),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(1e-3, 1e3))
def test_overlap_matches_vdot(n, seed, scale):
    f = random_vector_field(n, seed, scale)
    for a, b in ((f.ex, f.ey), (f.ey, f.ex), (f.ex, f.ex)):
        norm_a, norm_b = np.vdot(a, a).real, np.vdot(b, b).real
        assert sum_abs2(a) == pytest.approx(norm_a, rel=1e-13)
        # roundoff relative to the Cauchy-Schwarz bound, since <a|b> of
        # random maps cancels
        bound = math.sqrt(norm_a * norm_b)
        assert abs(overlap_imag(a, b) - np.vdot(a, b).imag) <= 1e-14 * bound


# --- channel-by-channel Stokes pixmap ---

def test_stokes_ppm_matches_stacked_form(tmp_path):
    f = random_vector_field(64, 9)
    f.ex[:8], f.ey[:8] = 0.0, 0.0                       # s0 = 0
    f.ey[8:16] = 1j * f.ex[8:16]                        # pure L: |s3/s0| ~ 1
    f.ey[16:24] = -1j * f.ex[16:24]                     # pure R
    f.ey[24:32] = f.ex[24:32]                           # pure D
    s = stokes_of(f)
    write_stokes_ppm(tmp_path / "s.ppm", s)
    header = b"P6\n64 64\n255\n"
    data = (tmp_path / "s.ppm").read_bytes()
    assert data[:len(header)] == header
    assert data[len(header):] == stokes_ppm_stacked(s)


# --- k_z built once per beam ---

@pytest.mark.parametrize("pitch", [2.0, 0.4])
def test_propagation_matches_masked_transfer(pitch):
    # pitch in wavelengths: at 0.4 half the FFT grid is evanescent, and the
    # spectrum there is ~1e-13 of its peak, not zero.  The LG mode's
    # spectrum has no mirror symmetry to hide a misplaced quarter.
    zs = (0.0, 1e-6, 1.25 * pitch, 0.625 * pitch, 1.7)
    for n in (40, 64, 250):
        g = Grid(n, pitch, 1.0)
        w0 = 1.7 * pitch / 0.4
        for s in (gaussian(g, w0), laguerre_gaussian(g, 2, 0, w0)):
            for z, out in zip(zs, propagations(s, zs)):
                ref = propagate_masked_transfer(s.amp, g, z)
                assert same_bits(out.amp, ref), (n, z)
    # at n = 2048 the widest waist goes a quarter Rayleigh range, z k_z
    # ~1e6 rad, as the scenarios' metres of propagation reach
    g = Grid(2048, pitch, 1.0)
    s = laguerre_gaussian(g, 2, 0, g.window / 8.0)
    z = math.pi * (g.window / 8.0) ** 2 / 4.0
    assert same_bits(propagate(s, z).amp,
                     propagate_masked_transfer(s.amp, g, z))


# --- moment widths and the elliptical Gaussian from broadcast axes ---

def second_moment_widths_meshgrid(s):
    """The principal widths with the moments taken against the full
    meshgrid."""
    inten = sum(np.abs(c) ** 2 for c in s.components)
    total = float(inten.sum())
    X, Y = np.meshgrid(s.grid.axis(), s.grid.axis())
    xm = float((inten * X).sum()) / total
    ym = float((inten * Y).sum()) / total
    xx = float((inten * (X - xm) ** 2).sum()) / total
    yy = float((inten * (Y - ym) ** 2).sum()) / total
    xy = float((inten * (X - xm) * (Y - ym)).sum()) / total
    evals, evecs = np.linalg.eigh(np.array([[xx, xy], [xy, yy]]))
    w = 2.0 * np.sqrt(evals)
    if abs(evecs[0, 1]) >= abs(evecs[1, 1]):
        return float(w[1]), float(w[0])
    return float(w[0]), float(w[1])


def assert_line_sums_match_meshgrid(sums, s):
    """The per-row sum_j |a|^2 and per-column sum_i |a|^2 and per-row
    sum_j |a|^2 x_j of `_pixel_sums` within 1e-13 of sum |terms| of their
    whole-map forms."""
    inten = sum(np.abs(c) ** 2 for c in s.components)
    ix = inten * s.grid.axis()[None, :]
    refs = ((inten.sum(axis=1), inten.sum(axis=1)),
            (inten.sum(axis=0), inten.sum(axis=0)),
            (ix.sum(axis=1), np.abs(ix).sum(axis=1)))
    for name, got, (ref, bound) in zip(("rows", "cols", "row_x"), sums[:3],
                                       refs):
        assert np.all(np.abs(got - ref) <= 1e-13 * bound), name


@settings(max_examples=30, deadline=None)
@given(n=st.integers(16, 96).map(lambda k: 2 * k),
       seed=st.integers(0, 2**32 - 1), vector=st.booleans())
def test_moment_widths_match_meshgrid_form(n, seed, vector):
    rng = np.random.default_rng(seed)
    g = make_grid(n)
    # noise on a tilted ridge, off center, so that no moment is near zero
    x = g.axis() - rng.uniform(-0.1, 0.1) * g.window
    ridge = np.exp(-(4.0 * (x[None, :] + rng.uniform(-2.0, 2.0) * x[:, None])
                     / g.window) ** 2)
    comps = [ridge * (rng.standard_normal((n, n))
                      + 1j * rng.standard_normal((n, n)))
             for _ in range(2 if vector else 1)]
    s = VectorField(g, *comps) if vector else ScalarField(g, *comps)
    assert_line_sums_match_meshgrid(_pixel_sums(s), s)
    # the moments are taken from sums by rows and columns, not on whole
    # maps, so the widths agree to roundoff, not bit for bit
    assert am_ledger(s).widths == pytest.approx(
        second_moment_widths_meshgrid(s), rel=1e-13)


def elliptical_gaussian_meshgrid(grid, wx, wy, tilt):
    X, Y = np.meshgrid(grid.axis(), grid.axis())
    c, s = math.cos(tilt), math.sin(tilt)
    xr = c * X + s * Y
    yr = -s * X + c * Y
    return np.exp(-xr ** 2 / wx ** 2 - yr ** 2 / wy ** 2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(17, 96).map(lambda k: 2 * k),
       fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       tilt=st.floats(-math.pi, math.pi))
def test_elliptical_gaussian_matches_meshgrid_form(n, fx, fy, tilt):
    g = make_grid(n)
    wx, wy = (waist(g, f) for f in (fx, fy))
    assert same_bits(elliptical_gaussian(g, wx, wy, tilt).amp,
                     elliptical_gaussian_meshgrid(g, wx, wy, tilt))


# --- quadrant kernels, mirrored ---

even_n = st.integers(16, 256).map(lambda k: 2 * k)
waisted_n = st.integers(17, 256).map(lambda k: 2 * k)  # n = 32 has no waist


def waist(grid, frac):
    """A waist `frac` of the way through the valid (4 pitch, window/8]."""
    lo = 4.0 * grid.pitch
    return max(lo + frac * (grid.window / 8.0 - lo), np.nextafter(lo, np.inf))


@settings(max_examples=60, deadline=None)
@given(n=even_n, m=st.integers(-10, 10))
@example(n=64, m=8)     # signed zeros on the diagonals
@example(n=64, m=-8)
@example(n=32, m=0)
@example(n=2048, m=8)
@example(n=2048, m=-3)
def test_azimuthal_phase_matches_full_grid_bits(n, m):
    g = make_grid(n)
    assert same_bits(mirrored_phase(g, m), azimuthal_phase_full(g, m))


@settings(max_examples=60, deadline=None)
@given(n=waisted_n, l=st.integers(-10, 10), frac=st.floats(0.0, 1.0))
@example(n=64, l=8, frac=0.5)
@example(n=256, l=-3, frac=0.085)  # exp(-r^2) underflows in the corners
@example(n=512, l=4, frac=0.0)     # and on most of the grid
@example(n=512, l=0, frac=1.0)
@example(n=2048, l=-7, frac=0.3)
@example(n=512, l=9, frac=0.14467293439451548)  # subnormal envelope
def test_vortex_beam_matches_gaussian_times_phase_bits(n, l, frac):
    g = make_grid(n)
    w0 = waist(g, frac)
    got = build_scalar_beam(g, {"kind": "vortex", "l": l, "w0": w0}).amp
    env, phase = gaussian(g, w0).amp, azimuthal_phase_full(g, l)
    # phase first: with the real map first, numpy's complex product may
    # fuse its multiply, so the sign of a part that underflows to zero
    # depends on where the pixel falls in the loop
    assert same_bits(got, phase * env)
    assert np.array_equal(got, env * phase)


@settings(max_examples=60, deadline=None)
@given(n=waisted_n, l=st.integers(-10, 10), p=st.integers(0, 5),
       frac=st.floats(0.0, 1.0))
@example(n=64, l=0, p=1, frac=0.5)
@example(n=256, l=-3, p=1, frac=0.085)  # exp(-r^2) underflows in the corners
@example(n=512, l=4, p=2, frac=0.0)     # and on most of the grid
@example(n=512, l=-3, p=0, frac=0.0)
@example(n=2048, l=0, p=0, frac=0.5)
@example(n=2048, l=2, p=1, frac=1.0)
def test_lg_and_gaussian_match_full_grid_bits(n, l, p, frac):
    g = make_grid(n)
    w0 = waist(g, frac)
    assert same_bits(laguerre_gaussian(g, l, p, w0).amp,
                     laguerre_gaussian_full(g, l, p, w0))
    assert same_bits(gaussian(g, w0).amp, gaussian_full(g, w0))


def unfolded(ref, m):
    """`_unfold` of the quadrant x, y > 0 of `ref`."""
    h = len(ref) // 2
    out = np.zeros_like(ref)
    out[h:, h:] = ref[h:, h:]
    _unfold(out, m)
    return out


def test_a_flipped_mirror_sign_is_caught():
    g = make_grid(64)
    for m in (1, 2, -3):
        ref = azimuthal_phase_full(g, m)
        assert same_bits(unfolded(ref, m), ref)
        assert not np.array_equal(unfolded(ref, m + 1), ref)  # x -> -x parity
        assert not np.array_equal(unfolded(ref, 0), ref)      # y -> -y conj
    # on the anti-diagonal of m = 8 conjugation alone gives -0.0 where the
    # formula gives +0.0, which only a bitwise comparison sees
    ref = azimuthal_phase_full(g, 8)
    assert np.array_equal(unfolded(ref, 8), ref)
    assert not same_bits(unfolded(ref, 8), ref)
    assert same_bits(mirrored_phase(g, 8), ref)


# --- pixel kernels by blocks of rows ---

# With blocks of 7 rows, the last block of these grids is partial.
ragged_n = even_n.filter(lambda n: n % 7)


@contextlib.contextmanager
def ragged_blocks(n):
    """Blocks of 7 n + 3 pixels, which `_blocks` rounds down to 7 rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lightsim.beams, "_BLOCK", 7 * n + 3)
        yield


def signed_zero_field(n, seed):
    """A random vector field, about a tenth of its parts +0.0 or -0.0."""
    f = random_vector_field(n, seed)
    rng = np.random.default_rng(seed)
    for c in f.components:
        parts = c.view(float)
        parts[rng.random(parts.shape) < 0.05] = 0.0
        parts[rng.random(parts.shape) < 0.05] = -0.0
    return f


def interference_image_whole(s, tilt):
    kx = s.grid.k * math.sin(tilt)
    peak = float(np.max(np.abs(s.amp)))
    img = np.abs(s.amp / peak + np.exp(1j * kx * s.grid.axis())) ** 2
    return img / img.max()


seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(n=ragged_n, seed=seeds, two_q=st.integers(-8, 8),
       alpha0=st.sampled_from([0.0, 0.37]))
@example(n=32, seed=0, two_q=8, alpha0=0.0)
@example(n=128, seed=0, two_q=1, alpha0=0.37)  # operand order
def test_blocked_qplate_matches_whole_grid_bits(n, seed, two_q, alpha0):
    f = signed_zero_field(n, seed)
    with ragged_blocks(n):
        out = apply_qplate(QPlateSpec(two_q / 2.0, alpha0), f)
    # array by scalar: numpy's complex product can differ in the last bit
    # with the operand order, and takes a temporary map's product in place
    e2 = azimuthal_phase_full(f.grid, two_q) * cmath.exp(2j * alpha0)
    ref_ex, ref_ey = half_wave(e2, f.ex, f.ey)
    assert same_bits(out.ex, ref_ex)
    assert same_bits(out.ey, ref_ey)


@settings(max_examples=40, deadline=None)
@given(n=ragged_n, seed=seeds)
def test_blocked_circular_fields_match_whole_grid_bits(n, seed):
    f = signed_zero_field(n, seed)
    with ragged_blocks(n):
        psi = {hand: circular_component(f, hand).amp for hand in "LR"}
    for hand, i in (("L", -1j), ("R", 1j)):
        ref = (f.ex + i * f.ey) * (1.0 / math.sqrt(2.0))
        assert same_bits(psi[hand], ref), hand


QC_SCHEMAS = SCENARIOS["qplate_conversion"][0]


def pnm_payload(path, header):
    data = path.read_bytes()
    assert data[:len(header)] == header
    return data[len(header):]


def qplate_conversion_whole_grid(cfg, f):
    """`qplate_conversion`'s checked values and image payloads for the input
    field f, from whole maps: the q-plate output beside its input, both
    Stokes sets, the converted component and the image formulas each on the
    whole grid."""
    el = cfg["element"]
    e2 = (azimuthal_phase_full(f.grid, round(2.0 * el["q"]))
          * cmath.exp(2j * el["alpha0"]))
    out = VectorField(f.grid, *half_wave(e2, f.ex, f.ey))
    s_in, s_out = stokes_of(f), stokes_of(out)
    mask = s_in.s0 > 1e-9 * float(np.max(s_in.s0))
    ledger_in, ledger_out = am_ledger(f), am_ledger(out)
    i = 1j if ledger_in.sam >= 0.0 else -1j
    psi = (out.ex + i * out.ey) * (1.0 / math.sqrt(2.0))
    values = {
        "sam_in": ledger_in.sam, "sam_out": ledger_out.sam,
        "s3_pointwise_flip_dev": float(np.max(np.abs(
            s_out.s3[mask] / s_out.s0[mask] + s_in.s3[mask] / s_in.s0[mask]))),
        "charge_out": topological_charge(ScalarField(f.grid, psi),
                                         beam_waist(cfg["beam"])),
        "oam_out": ledger_out.oam,
        "ledger_imbalance": ledger_out.total - ledger_in.total,
        "power_ratio": ledger_out.power / ledger_in.power}
    return values, [intensity_pgm_whole(s_out.s0),
                    phase_pgm_whole(np.angle(psi)), stokes_ppm_stacked(s_out)]


@settings(max_examples=30, deadline=None)
@given(n=waisted_n.filter(lambda n: n % 7), frac=st.floats(0.0, 1.0),
       kind=st.sampled_from(["gaussian", "lg", "vortex"]),
       l=st.integers(-3, 3), p=st.integers(0, 1),
       pol=st.one_of(st.sampled_from("LR"),
                     st.tuples(st.floats(-0.7, 0.7), st.floats(0.0, 3.2))),
       two_q=st.integers(-4, 4), alpha0=st.sampled_from([0.0, 0.37]))
@example(n=34, frac=1.0, kind="gaussian", l=0, p=0, pol="L", two_q=2,
         alpha0=0.0)
@example(n=64, frac=0.5, kind="lg", l=1, p=0, pol=(0.3, 0.4), two_q=1,
         alpha0=0.37)  # elliptical: s1 and s2 vary over the output
def test_blocked_stokes_maps_match_whole_grid_bits(n, frac, kind, l, p, pol,
                                                    two_q, alpha0):
    """`qplate_conversion` overwrites its input with the q-plate output by
    blocks of 7 rows, reading both Stokes sets on each block, then writes
    the output's Stokes maps over it for its images: the checked values,
    errors and image bytes are those of the chain on whole maps.  Besides
    the L and R inputs its configs allow, the input may be elliptical, with
    ellipticity angle chi and orientation theta, so that every Stokes map
    of the output varies."""
    g = Grid(n, 8e-3 / n, 632.8e-9)
    beam = {"kind": kind, "w0": waist(g, frac), "l": l, "p": p}
    cfg = validate("qplate_conversion", {
        "grid": {"n": n, "window": 8e-3, "wavelength": 632.8e-9},
        "beam": beam,
        "polarization": {"kind": pol if isinstance(pol, str) else "L"},
        "element": {"q": two_q / 2.0, "alpha0": alpha0}}, QC_SCHEMAS)
    state = jones_state(pol) if isinstance(pol, str) else JonesVector(
        math.cos(pol[1]) * math.cos(pol[0])
        - 1j * math.sin(pol[1]) * math.sin(pol[0]),
        math.sin(pol[1]) * math.cos(pol[0])
        + 1j * math.cos(pol[1]) * math.sin(pol[0]))

    def field(cfg):
        return vector_field(build_beam(cfg), state)

    with ragged_blocks(n), tempfile.TemporaryDirectory() as outdir, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(lightsim.scenarios, "build_vector_beam", field)
        got = recorded_loops(
            lambda: _scenario_qplate_conversion(cfg, Path(outdir), None))
        ref = recorded_loops(
            lambda: qplate_conversion_whole_grid(cfg, field(cfg)))
        assert len(got[0]) == len(ref[0])
        assert all(same_bits(a, b) for a, b in zip(got[0], ref[0]))
        assert got[2] == ref[2]
        if got[2] is not None:
            return
        values, images = ref[1]
        assert {r.quantity: r.value for r in got[1]} == values
        for name, header, payload in zip(
                ("intensity_out.pgm", "phase_converted.pgm", "stokes_out.ppm"),
                (f"P5\n{n} {n}\n65535\n", f"P5\n{n} {n}\n65535\n",
                 f"P6\n{n} {n}\n255\n"), images):
            assert pnm_payload(Path(outdir) / name,
                               header.encode()) == payload, name


@settings(max_examples=40, deadline=None)
@given(n=ragged_n, seed=seeds, zeros=st.booleans())
@example(n=32, seed=0, zeros=True)  # a zero map: its peak scales nothing
def test_blocked_image_writers_match_whole_map_bytes(n, seed, zeros):
    """The writers quantize blocks of 7 rows and write each as it is made:
    the bytes of the whole-map formulas, for maps with signed zeros.  A
    phase PGM's `levels` may overwrite each block once read, as
    `qplate_conversion`'s Stokes pass does."""
    f = signed_zero_field(n, seed)
    intensity, phase, s = np.abs(f.ex) ** 2, np.angle(f.ey), stokes_of(f)
    if zeros:
        intensity[...] = 0.0
    pgm, ppm = f"P5\n{n} {n}\n65535\n", f"P6\n{n} {n}\n255\n"

    def levels_then_zero(rows):
        levels = phase_levels(rows)
        rows[...] = 0.0
        return levels

    with ragged_blocks(n), tempfile.TemporaryDirectory() as outdir:
        path = Path(outdir) / "image"
        for write, arg, header, ref in (
                (write_intensity_pgm, intensity, pgm,
                 intensity_pgm_whole(intensity)),
                (partial(write_phase_pgm, levels=phase_levels), phase, pgm,
                 phase_pgm_whole(phase)),
                (write_stokes_ppm, s, ppm, stokes_ppm_stacked(s))):
            write(path, arg)
            assert pnm_payload(path, header.encode()) == ref, str(write)
        ref = phase_pgm_whole(phase)
        write_phase_pgm(path, phase, levels=levels_then_zero)
        assert pnm_payload(path, pgm.encode()) == ref
        assert not phase.any()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(21, 128).map(lambda k: 2 * k).filter(lambda n: n % 7),
       l=st.integers(-3, 3))  # n >= 42: 4 samples per fringe
def test_blocked_interferogram_pgm_matches_whole_map_bytes(n, l):
    """`interference_fork` builds its image by blocks of rows, normalizes it
    in place and quantizes it by blocks: the PGM bytes are the whole-map
    formulas'."""
    sections = {"grid": {"n": n, "window": 8e-3, "wavelength": 632.8e-9},
                "beam": {"kind": "lg", "l": l, "w0": 1e-3},
                "interference": {"tilt": math.asin(10.25 * 632.8e-9 / 8e-3)}}
    cfg = validate("interference_fork", sections,
                   SCENARIOS["interference_fork"][0])
    with ragged_blocks(n), tempfile.TemporaryDirectory() as outdir:
        SCENARIOS["interference_fork"][1](cfg, Path(outdir), None)
        got = pnm_payload(Path(outdir) / "interferogram.pgm",
                          f"P5\n{n} {n}\n65535\n".encode())
    image = interference_image_whole(build_beam(cfg),
                                     cfg["interference"]["tilt"])
    assert got == intensity_pgm_whole(image)


@settings(max_examples=40, deadline=None)
@given(n=ragged_n, seed=seeds, row=st.integers(0, 511),
       col=st.integers(0, 511))
@example(n=32, seed=0, row=31, col=0)    # in the partial last block
@example(n=256, seed=1, row=255, col=255)
def test_blocked_peaks_match_whole_grid_bits(n, seed, row, col):
    """The |psi| peak of `topological_charge` and `interference_image`."""
    f = signed_zero_field(n, seed)
    amp = f.ex.copy()
    amp[row % n, col % n] = 30.0 - 40.0j
    s = ScalarField(f.grid, amp)
    tilt = math.asin(8.0 * WAVELENGTH / f.grid.window)  # 8 fringes
    with ragged_blocks(n):
        peak = max_abs(amp)
        image = interference_image(s, tilt)
    assert peak == float(np.max(np.abs(amp))) == 50.0
    assert same_bits(image, interference_image_whole(s, tilt))


# --- a field's pixel sums in one pass by blocks of rows ---

# The OAM sums as they were taken on whole maps before the blocked pass:
# lagged products u_i (v_{i+k} - v_{i-k}) of the zero-padded stencil.
D1 = ((1, 45.0 / 60.0), (2, -9.0 / 60.0), (3, 1.0 / 60.0))


def stencil_dot_whole(u, v):
    return sum(c * (np.einsum("ij,ij->j", u[:-k], v[k:])
                    - np.einsum("ij,ij->j", u[k:], v[:-k])) for k, c in D1)


def oam_numerator_whole(grid, amp):
    x = grid.axis()
    u, v = amp.real, amp.imag
    along_y, along_x = stencil_dot_whole(u, v), stencil_dot_whole(u.T, v.T)
    return float(2.0 * (along_y @ x - along_x @ x) / grid.pitch)


@settings(max_examples=40, deadline=None)
@given(n=ragged_n, seed=seeds, vector=st.booleans(),
       scale=st.floats(1e-3, 1e3))
@example(n=32, seed=0, vector=True, scale=1.0)  # 4 full blocks and 4 rows
def test_blocked_pixel_sums_match_whole_map_forms(n, seed, vector, scale):
    """One pass by blocks of 7 rows, the last one partial, so the lagged
    products along y cross every block edge: the power, the OAM numerator,
    Im<ex|ey>, the row and column sums and the widths agree with their
    whole-map forms within 1e-13 of sum |terms| (the widths within 1e-13
    of their value)."""
    f = random_vector_field(n, seed, scale)
    field = f if vector else ScalarField(f.grid, f.ex)
    with ragged_blocks(n):
        sums = _pixel_sums(field)
        widths = am_ledger(field).widths
    *_, total, curl, spin = sums
    g, comps = field.grid, field.components
    ref = sum(sum_abs2(c) for c in comps)
    assert abs(total - ref) <= 1e-13 * ref
    num = sum(oam_numerator_whole(g, c) for c in comps)
    bound = sum(float(np.sum(np.abs(oam_terms(ScalarField(g, c)))))
                for c in comps)
    assert abs(curl - num) <= 1e-13 * bound
    if vector:
        bound = float(np.sum(np.abs(f.ex.real * f.ey.imag)
                             + np.abs(f.ex.imag * f.ey.real)))
        assert abs(spin - overlap_imag(f.ex, f.ey)) <= 1e-13 * bound
    else:
        assert spin == 0.0
    assert_line_sums_match_meshgrid(sums, field)
    assert widths == pytest.approx(second_moment_widths_meshgrid(field),
                                   rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(n=ragged_n, seed=seeds)
def test_circular_states_have_unit_helicity_to_the_bit(n, seed):
    """The power and Im<ex|ey> are summed alike, so L and R states read
    SAM +1 and -1 exactly, as the whole-map sums read them."""
    s = ScalarField(make_grid(n), random_vector_field(n, seed).ex)
    with ragged_blocks(n):
        for hand, sam in (("L", 1.0), ("R", -1.0)):
            f = vector_field(s, jones_state(hand))
            assert am_ledger(f).sam == sam


# --- generalized_charge on the crop its circle reader samples ---

GC_GRID = {"window": 8e-3, "wavelength": 632.8e-9}
GC_SCHEMAS = SCENARIOS["generalized_charge"][0]


@st.composite
def generalized_charge_sections(draw):
    n = draw(st.integers(32, 256).map(lambda k: 2 * k))
    g = Grid(n, GC_GRID["window"] / n, GC_GRID["wavelength"])
    kind = draw(st.sampled_from(["gaussian", "elliptical", "vortex", "lg"]))
    beam = {"kind": kind}
    if kind == "elliptical":
        beam.update(wx=waist(g, draw(st.floats(0.0, 1.0))),
                    wy=waist(g, draw(st.floats(0.0, 1.0))),
                    tilt=draw(st.floats(-math.pi, math.pi)))
    else:
        beam["w0"] = waist(g, draw(st.floats(0.0, 1.0)))
    if kind in ("vortex", "lg"):
        beam["l"] = draw(st.integers(-10, 10))
    if kind == "lg":
        beam["p"] = draw(st.integers(0, 5))
    return {"grid": dict(GC_GRID, n=n), "beam": beam}


def recorded_loops(run):
    """(the loop samples `topological_charge` read during run(), run()'s
    result, and the class and message of the LightsimError it raised)."""
    loops = []

    def sample(*args):
        loops.append(_sample_circle(*args))
        return loops[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lightsim.analysis, "_sample_circle", sample)
        try:
            return loops, run(), None
        except LightsimError as exc:
            return loops, None, f"{type(exc).__name__}: {exc}"


def generalized_charge_whole_grid(cfg):
    """The rows of `generalized_charge` with each q-plate output built on
    the whole grid and its loop checked against its own peak."""
    base = build_beam(cfg)
    l, r = beam_charge(cfg["beam"]), beam_waist(cfg["beam"])
    rows = []
    for two_q in (-4, -2, -1, 1, 2, 4):
        for kind, sign in (("L", 1.0), ("R", -1.0)):
            out = apply_qplate(QPlateSpec(two_q / 2.0),
                               vector_field(base, jones_state(kind)))
            psi = circular_component(out, "R" if sign > 0 else "L")
            rows.append(SummaryRow(cfg.name, f"charge_2q={two_q}_{kind}",
                                   topological_charge(psi, r),
                                   l + sign * two_q, 0.0))
    return rows


def lg_sections(n, l, p, w0):
    return {"grid": dict(GC_GRID, n=n),
            "beam": {"kind": "lg", "l": l, "p": p, "w0": w0}}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(sections=generalized_charge_sections())
@example(sections=lg_sections(128, 2, 2, 1e-3))   # loops on a radial node
@example(sections=lg_sections(256, 2, 2, 1e-3))
@example(sections=lg_sections(512, 1, 1, 1e-3))   # within 1e-9 of a zero
@example(sections=lg_sections(512, -10, 0, 1e-3))  # ring outside the crop
def test_generalized_charge_on_crop_matches_whole_grid_bits(sections):
    """Every 2q and hand of the scenario: the same loop samples, rows and
    error as the chain on the whole grid."""
    cfg = validate("generalized_charge", sections, GC_SCHEMAS)
    got = recorded_loops(lambda: _scenario_generalized_charge(cfg, None, None))
    ref = recorded_loops(lambda: generalized_charge_whole_grid(cfg))
    assert len(got[0]) == len(ref[0])
    assert all(same_bits(a, b) for a, b in zip(got[0], ref[0]))
    assert got[1:] == ref[1:]


# --- nothing whole beside the field ---

def advance_whole_quadrant(spec, grid, z):
    """Inverse FFT of the spectrum times the transfer function built on the
    whole (n/2 + 1)^2 quadrant, each quarter of the spectrum multiplied by
    a mirrored view of it."""
    fx = np.fft.fftfreq(grid.n, d=grid.pitch)[:grid.n // 2 + 1]
    kx = 2.0 * math.pi * fx
    kz2 = grid.k ** 2 - (kx[None, :] ** 2 + kx[:, None] ** 2)
    h = 1j * z * np.sqrt(np.maximum(kz2, 0.0))
    np.exp(h, out=h)
    h[kz2 <= 0.0] = 0.0
    half = len(h) - 1
    parts = ((slice(None, half + 1), slice(None)),
             (slice(half + 1, None), slice(half - 1, 0, -1)))
    prod = np.empty_like(spec)
    for rows, hrows in parts:
        for cols, hcols in parts:
            np.multiply(spec[rows, cols], h[hrows, hcols],
                        out=prod[rows, cols])
    np.fft.ifft(prod, axis=1, out=prod)
    np.fft.ifft(prod, axis=0, out=prod)
    return prod


@settings(max_examples=30, deadline=None)
@given(n=even_n.filter(lambda n: (n // 2 + 1) % 7), seed=seeds,
       pitch=st.sampled_from([2.0, 0.4]), z=st.floats(0.0, 1e3),
       in_place=st.booleans())
@example(n=64, seed=0, pitch=0.4, z=1.25, in_place=False)
@example(n=2048, seed=1, pitch=0.4, z=7.5, in_place=True)
def test_blocked_transfer_function_matches_whole_quadrant_bits(
        n, seed, pitch, z, in_place):
    """`_advance` makes the transfer function on blocks of 7 quadrant rows,
    the last one partial, each row mirrored to full width and multiplied
    into spectrum rows a and n - a: the bits of the whole-quadrant
    formula, on a spectrum with no symmetry.  At a pitch of 0.4 wavelengths
    half the FFT grid is evanescent."""
    g = Grid(n, pitch, 1.0)
    spec = random_vector_field(n, seed).ex
    ref = advance_whole_quadrant(spec, g, z)
    given_spec = spec.copy()
    with ragged_blocks(n), pytest.MonkeyPatch.context() as mp:
        mp.setattr(lightsim.propagation, "_check_edges", lambda *a: None)
        got = _advance(spec, g, z, in_place)
    assert same_bits(got, ref)
    assert (got is spec) == in_place
    if not in_place:
        assert same_bits(spec, given_spec)


BEAM_KINDS = {
    "gaussian": {"kind": "gaussian", "w0": 1e-3},
    "elliptical": {"kind": "elliptical", "wx": 1e-3, "wy": 6e-4,
                   "tilt": 0.3},
    "lg": {"kind": "lg", "l": 2, "p": 1, "w0": 1e-3},
    "vortex": {"kind": "vortex", "l": -3, "w0": 1e-3},
}


@pytest.mark.parametrize("n", [64, 254])
@pytest.mark.parametrize("pol", ["H", "D", "L", "R"])
@pytest.mark.parametrize("beam", sorted(BEAM_KINDS))
def test_vector_build_matches_polarization_products_bits(beam, pol, n):
    """`build_vector_beam` polarizes the beam's amplitude in place and
    `vector_field` a copy of it: both give the bits of pol.ex * amp and
    pol.ey * amp, and `vector_field` leaves the caller's map as it was.
    The schema takes L and R; H and D are set after it."""
    cfg = validate("qplate_conversion", {
        "grid": {"n": n, "window": 8e-3, "wavelength": 632.8e-9},
        "beam": BEAM_KINDS[beam], "polarization": {"kind": "L"},
        "element": {"q": 1.0}}, QC_SCHEMAS)
    cfg = ScenarioConfig(cfg.name, {**cfg.sections,
                                    "polarization": {"kind": pol}})
    s, state = build_beam(cfg), jones_state(pol).normalized()
    amp = s.amp.copy()
    ref = (state.ex * amp, state.ey * amp)
    for f in (build_vector_beam(cfg), vector_field(s, jones_state(pol))):
        assert same_bits(f.ex, ref[0]) and same_bits(f.ey, ref[1])
    assert same_bits(s.amp, amp)


def sample_circle_transposed_copy(s, radius, samples):
    """`_sample_circle` with the prefiltered crop transposed into a copy."""
    crop = loop_crop(s, radius)
    a, g = crop.amp, crop.grid
    theta = 2.0 * math.pi * np.arange(samples) / samples
    coef = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    _spline_prefilter(coef.view(float))
    coef = np.ascontiguousarray(coef.T)
    _spline_prefilter(coef.view(float))
    coords = radius / g.pitch * np.vstack([np.sin(theta), np.cos(theta)])
    (rows, cols), (wr, wc) = _spline_taps(coords + (g.n / 2 - 0.5), len(coef))
    taps = coef[cols[:, None, :], rows[:, :, None]]
    return np.einsum("sa,sab,sb->s", wr, taps, wc)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 200).map(lambda k: 2 * k), seed=seeds,
       frac=st.floats(0.02, 1.0 - 1e-9), cplx=st.booleans())
@example(n=2048, seed=0, frac=0.25, cplx=True)
def test_sample_circle_matches_transposed_copy_bits(n, seed, frac, cplx):
    """The crop's coefficients, transposed in place by 64 x 64 tiles (crops
    of up to 560 pixels: one tile, or several with the last partial), give
    the samples of the transposed copy bit for bit."""
    g = make_grid(n)
    f = random_vector_field(n, seed)
    s = ScalarField(g, f.ex if cplx else f.ex.real.copy())
    radius = frac * (g.window / 2.0 - g.pitch)
    assert same_bits(_sample_circle(s, radius, 720),
                     sample_circle_transposed_copy(s, radius, 720))


@settings(max_examples=30, deadline=None)
@given(n=ragged_n, seed=seeds, two_q=st.integers(-8, 8),
       alpha0=st.sampled_from([0.0, 0.37]))
@example(n=256, seed=0, two_q=2, alpha0=0.0)
@example(n=512, seed=1, two_q=-1, alpha0=0.37)
def test_rotating_runner_overwrites_its_beam_with_plate_output_bits(
        n, seed, two_q, alpha0):
    """The rotating q-plate runner overwrites its beam with the plate's
    output by `_blocks` of rows, and its ledger reads that field: the bits
    of `apply_qplate` (blocks of 7 rows, ending mid-grid, below n = 256;
    the default blocks from n = 256)."""
    f, spec = signed_zero_field(n, seed), QPlateSpec(two_q / 2.0, alpha0)
    ref = apply_qplate(spec, f)
    cfg = ScenarioConfig("rotating_qplate", {
        "grid": {"n": n, "window": 8.0, "wavelength": WAVELENGTH},
        "beam": {"kind": "gaussian", "w0": 1.0},
        "polarization": {"kind": "L"},
        "element": {"q": spec.q, "alpha0": alpha0}, "rotation": {"omega": 1}})
    read = []
    with contextlib.ExitStack() as stack:
        if n < 256:
            stack.enter_context(ragged_blocks(n))
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr(lightsim.scenarios, "build_vector_beam", lambda cfg: f)
        mp.setattr(lightsim.analysis, "am_ledger",
                   lambda out: read.append(out) or am_ledger(out))
        execute(cfg, None, None)
    out, = read
    assert out.ex is f.ex and out.ey is f.ey
    assert same_bits(out.ex, ref.ex) and same_bits(out.ey, ref.ey)
