# A short tour of geometric phases on two spheres.
#
# 1. Wave-vector sphere: a cycle of propagation directions enclosing solid
#    angle Omega gives each circular polarization the phase -helicity*Omega
#    (spin-redirection phase).
# 2. Poincare sphere: a closed cycle of polarization states acquires the
#    Pancharatnam phase Omega/2.

import math

import numpy as np

import lightsim as ls

# --- wave-vector sphere -------------------------------------------------
great_circle = ls.qplate_k_path(q=1.0)
omega = ls.solid_angle(great_circle)
print(f"great-circle solid angle: {omega:.6f}  (2 pi = {2 * math.pi:.6f})")
print(f"srp phase, helicity +1: {ls.srp_phase(great_circle, +1):+.6f}")
print(f"srp phase, helicity -1: {ls.srp_phase(great_circle, -1):+.6f}")

cap = ls.circle_path(math.pi / 6)
print(f"\n30-degree cap solid angle: {ls.solid_angle(cap):.6f}  "
      f"(2 pi (1 - cos 30) = {2 * math.pi * (1 - math.cos(math.pi / 6)):.6f})")

# --- Poincare sphere ----------------------------------------------------
octant = [ls.jones_state(k) for k in ("H", "D", "L", "H")]
gamma = ls.pancharatnam_cycle_phase(octant)
print(f"\nPancharatnam phase of H -> D -> L -> H: {gamma:+.6f}  "
      f"(pi/4 = {math.pi / 4:.6f})")

# the half-angle law on a random spherical triangle
rng = np.random.default_rng(1)
pts = [v / np.linalg.norm(v) for v in rng.normal(size=(3, 3))]
states = [ls.jones_from_poincare(p) for p in pts]
states.append(states[0])
gamma = ls.pancharatnam_cycle_phase(states)
area = ls.solid_angle(ls.geodesic_path(pts))
print(f"\nrandom triangle: cycle phase = {gamma:+.6f}, "
      f"half solid angle = {area / 2:+.6f}")
