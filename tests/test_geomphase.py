import math

import numpy as np
import pytest

from lightsim import (JonesVector, SpherePath, circle_path, geodesic_path,
                      jones_from_poincare, jones_state,
                      pancharatnam_cycle_phase, qplate_k_path, solid_angle,
                      srp_phase, stokes_of)
from lightsim.errors import DegenerateSegment, OpenPath, OrthogonalStates
from lightsim.scenarios import wrap_angle


def poincare_point(v):
    """Normalized Stokes vector (s1, s2, s3)/s0 of a Jones state."""
    s = stokes_of(v)
    return np.array([s.s1, s.s2, s.s3]) / s.s0


def test_path_validation():
    with pytest.raises(ValueError):
        SpherePath(np.array([[1.0, 0, 0], [0, 2.0, 0], [1.0, 0, 0]]))
    with pytest.raises(OpenPath):
        SpherePath(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]))
    with pytest.raises(DegenerateSegment):
        SpherePath(np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                             [1.0, 0, 0]]))


def test_octant_solid_angle():
    path = geodesic_path([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert solid_angle(path) == pytest.approx(math.pi / 2, abs=1e-9)


def test_octant_orientation_reversal():
    path = geodesic_path([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert solid_angle(path) == pytest.approx(-math.pi / 2, abs=1e-9)


def test_reversed_path_negates_solid_angle():
    path = geodesic_path([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    back = SpherePath(path.points[::-1])
    assert solid_angle(back) == pytest.approx(-solid_angle(path), abs=1e-12)


def test_great_circle_solid_angle():
    path = circle_path(math.pi / 2)
    assert solid_angle(path) == pytest.approx(2.0 * math.pi, abs=1e-5)


def test_polar_cap_solid_angle():
    # cap at polar angle t encloses 2 pi (1 - cos t)
    for t in (math.pi / 6, math.pi / 3):
        path = circle_path(t)
        assert solid_angle(path) == pytest.approx(
            2.0 * math.pi * (1.0 - math.cos(t)), abs=1e-6)


def test_solid_angle_rotation_invariance():
    rng = np.random.default_rng(5)
    verts = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
             np.array([0.0, 1.0, 0.0])]
    base = solid_angle(geodesic_path(verts))
    for _ in range(100):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rotated = geodesic_path([q @ v for v in verts])
        assert solid_angle(rotated) == pytest.approx(base, abs=1e-9)


def test_solid_angle_resampling_invariance():
    verts = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    path = geodesic_path(verts)  # 64 samples per edge
    a = solid_angle(path)
    b = solid_angle(SpherePath(path.points[::4]))  # 16 per edge
    assert a == pytest.approx(b, abs=1e-12)


def test_srp_signs_and_sum():
    path = qplate_k_path()
    assert solid_angle(path) == pytest.approx(2.0 * math.pi, abs=1e-6)
    plus = srp_phase(path, +1)
    minus = srp_phase(path, -1)
    assert plus == pytest.approx(-2.0 * math.pi, abs=1e-6)
    assert minus == pytest.approx(2.0 * math.pi, abs=1e-6)
    assert plus + minus == 0.0


def test_srp_rejects_other_helicities():
    with pytest.raises(ValueError):
        srp_phase(qplate_k_path(), 0)


def test_poincare_points_of_basis_states():
    np.testing.assert_allclose(poincare_point(jones_state("H")), [1, 0, 0],
                               atol=1e-15)
    np.testing.assert_allclose(poincare_point(jones_state("D")), [0, 1, 0],
                               atol=1e-15)
    np.testing.assert_allclose(poincare_point(jones_state("L")), [0, 0, 1],
                               atol=1e-15)


def test_jones_from_poincare_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(poincare_point(jones_from_poincare(v)), v,
                                   atol=1e-12)


def test_pancharatnam_cycle_zero_area():
    # out-and-back along one geodesic encloses nothing
    states = [jones_state(k) for k in ("H", "D", "H")]
    assert pancharatnam_cycle_phase(states) == pytest.approx(0.0, abs=1e-15)


def test_pancharatnam_octant_cycle():
    # H -> D -> L -> H traces the octant; phase is half its solid angle
    states = [jones_state(k) for k in ("H", "D", "L", "H")]
    assert pancharatnam_cycle_phase(states) == pytest.approx(math.pi / 4,
                                                             abs=1e-12)
    assert pancharatnam_cycle_phase(states[::-1]) == pytest.approx(
        -math.pi / 4, abs=1e-12)


def test_pancharatnam_cycle_validation():
    h, v, d = jones_state("H"), jones_state("V"), jones_state("D")
    # the closure test is relative: scaling every state changes nothing
    for c in (1e-10, 1.0, 1e8):
        open_cycle = [JonesVector(c * s.ex, c * s.ey)
                      for s in (h, d, jones_state("L"))]
        with pytest.raises(OpenPath):
            pancharatnam_cycle_phase(open_cycle)
        assert pancharatnam_cycle_phase(open_cycle + open_cycle[:1]) == \
            pytest.approx(math.pi / 4, abs=1e-12)
    with pytest.raises(OrthogonalStates):
        pancharatnam_cycle_phase([h, v, d, h])
    with pytest.raises(ValueError):
        pancharatnam_cycle_phase([h, h])


def test_half_angle_law_random_triangles():
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    while count < 100:
        pts = [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
        dots = [abs(float(a @ b)) for a, b in
                ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))]
        if max(dots) > 0.99:
            continue
        count += 1
        states = [jones_from_poincare(p) for p in pts]
        states.append(states[0])
        gamma = pancharatnam_cycle_phase(states)
        omega = solid_angle(geodesic_path(pts))
        worst = max(worst, abs(wrap_angle(gamma - omega / 2.0)))
    assert worst < 1e-6


def test_solid_angle_additivity_shared_edge():
    # splitting a triangle along a cevian preserves the total area
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    m = (b + c) / np.linalg.norm(b + c)
    whole = solid_angle(geodesic_path([a, b, c]))
    parts = (solid_angle(geodesic_path([a, b, m]))
             + solid_angle(geodesic_path([a, m, c])))
    assert parts == pytest.approx(whole, abs=1e-9)
