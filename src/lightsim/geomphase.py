"""Geometric phases on abstract unit spheres.

Solid angles of closed paths (wave-vector sphere or Poincare sphere),
spin-redirection phase, Pancharatnam cycle phase, and the model wave-vector
cycle of a q-plate.

Sign conventions: a path circulating counterclockwise (right-hand rule
about its mean direction, viewed from outside the sphere) has positive
solid angle, and positive helicity acquires spin-redirection phase equal
to minus the solid angle.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSegment, OpenPath
from .polarization import JonesVector, pancharatnam_phase, wrap_angle

POINT_NORM_TOL = 1e-12
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class SpherePath:
    """Closed path of ordered unit 3-vectors on a sphere.

    The last point must repeat the first (within 1e-9), and no two
    consecutive points may be antipodal, so every geodesic segment is well
    defined.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
            raise ValueError("need at least 3 points of dimension 3")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > POINT_NORM_TOL:
            raise ValueError("all path points must be unit vectors")
        if np.linalg.norm(pts[0] - pts[-1]) > CLOSURE_TOL:
            raise OpenPath("closed path must end at its starting point")
        dots = np.sum(pts[:-1] * pts[1:], axis=1)
        if np.min(dots) <= -1.0 + 1e-12:
            raise DegenerateSegment(
                "consecutive points are antipodal; geodesic undefined")
        object.__setattr__(self, "points", pts)


def _fan_apex(pts):
    mean = pts[:-1].mean(axis=0)
    n = np.linalg.norm(mean)
    if n > 1e-3:
        return mean / n
    # Great-circle-like path: the mean vanishes, so take the circulation
    # normal instead; its sign keeps the traversal direction unambiguous.
    normal = np.cross(pts[:-1], pts[1:]).sum(axis=0)
    n = np.linalg.norm(normal)
    if n == 0.0:
        raise DegenerateSegment("path has no resolvable orientation")
    return normal / n


def solid_angle(path):
    """Oriented solid angle enclosed by a closed sphere path [steradian].

    Computed as the sum of signed spherical excesses of geodesic triangles
    fanned from the path's mean direction (or its circulation normal when
    the mean degenerates, which disambiguates great circles).  A path that
    winds w times round a loop encloses w times the loop's solid angle:
    each wrap adds the loop's own.  Excesses use the Van Oosterom &
    Strackee (1983) form 2 atan2(a.(b x c), 1 + a.b + b.c + c.a).
    """
    pts = path.points
    apex = _fan_apex(pts)
    b, c = pts[:-1], pts[1:]
    num = np.cross(b, c) @ apex
    den = 1.0 + b @ apex + np.sum(b * c, axis=1) + c @ apex
    return float(np.sum(2.0 * np.arctan2(num, den)))


def srp_phase(path, helicity):
    """Spin-redirection phase: -helicity times the enclosed solid angle.

    Opposite circular polarizations acquire equal and opposite phases
    (geometric circular birefringence).
    """
    if helicity not in (1, -1, 1.0, -1.0):
        raise ValueError(f"helicity must be +1 or -1, got {helicity}")
    return -float(helicity) * solid_angle(path)


def qplate_k_path():
    """Model wave-vector-space cycle of the q = 1 half-wave plate: a single
    great circle (solid angle 2 pi) through 256 points."""
    theta = 2.0 * math.pi * np.arange(257) / 256
    pts = np.stack([np.cos(theta), np.sin(theta), np.zeros(257)], axis=1)
    return SpherePath(pts)


def jones_from_poincare(point):
    """Unit Jones state whose Poincare image is the given unit 3-vector.

    Inverse of the normalized Stokes vector (s1, s2, s3)/s0 up to global
    phase (the fiber the sphere cannot see).
    """
    s1, s2, s3 = (float(c) for c in point)
    half = 0.5 * math.acos(max(-1.0, min(1.0, s1)))
    phi = math.atan2(s3, s2)
    return JonesVector(math.cos(half), math.sin(half) * cmath.exp(1j * phi))


def pancharatnam_cycle_phase(states):
    """Total Pancharatnam phase around a closed cycle of states.

    Sum of `pancharatnam_phase` over consecutive states, wrapped to
    [-pi, pi), so consecutive orthogonal states raise OrthogonalStates.  The
    first and last states must coincide to CLOSURE_TOL times the larger of
    their norms, so the test does not depend on the states' normalization.
    For geodesic polygons the result
    equals half the oriented Poincare-sphere solid angle of the cycle
    (mod 2 pi).
    """
    if len(states) < 3:
        raise ValueError("cycle needs at least 3 states")
    first, last = states[0], states[-1]
    tol = CLOSURE_TOL * max(first.norm(), last.norm())
    if abs(first.ex - last.ex) > tol or abs(first.ey - last.ey) > tol:
        raise OpenPath("cycle must return to its starting state")
    return wrap_angle(sum(pancharatnam_phase(a, b)
                          for a, b in zip(states[:-1], states[1:])))


def _slerp(a, b, t):
    dot = np.clip(a @ b, -1.0, 1.0)
    ang = math.acos(dot)
    if ang < 1e-15:
        return np.outer(np.ones_like(t), a)
    return (np.outer(np.sin((1.0 - t) * ang), a)
            + np.outer(np.sin(t * ang), b)) / math.sin(ang)


def geodesic_path(vertices):
    """Closed path through `vertices` along great-circle arcs, 64 samples
    per edge."""
    verts = [np.asarray(v, dtype=float) for v in vertices]
    verts = [v / np.linalg.norm(v) for v in verts]
    if np.linalg.norm(verts[0] - verts[-1]) > CLOSURE_TOL:
        verts.append(verts[0])
    t = np.arange(64) / 64
    segs = [_slerp(a, b, t) for a, b in zip(verts[:-1], verts[1:])]
    segs.append(verts[-1][None, :])
    return SpherePath(np.vstack(segs))


def circle_path(polar_angle):
    """Closed small circle at the given polar angle from +z, traversed
    counterclockwise through 4096 points."""
    theta = 2.0 * math.pi * np.arange(4097) / 4096
    st, ct = math.sin(polar_angle), math.cos(polar_angle)
    pts = np.stack([st * np.cos(theta), st * np.sin(theta),
                    np.full(4097, ct)], axis=1)
    return SpherePath(pts)
