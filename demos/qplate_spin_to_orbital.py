# Spin-to-orbital conversion with a q = 1 half-wave plate.
#
# A left-circular Gaussian beam (+1 hbar spin per photon, no orbital part)
# passes through the plate; the output is right-circular and carries an
# exp(2 i phi) vortex, so the per-photon ledger moves from (sam, oam) =
# (+1, 0) to (-1, +2).  Total angular momentum grows by 2q - 2 = 0 ... for
# q = 1 the element exchanges spin for orbit without supplying any itself.

import math

import numpy as np

import lightsim as ls

grid = ls.Grid(512, 8e-3 / 512, 632.8e-9)
beam = ls.vector_field(ls.gaussian(grid, 1e-3), ls.jones_state("L"))
plate = ls.QPlateSpec(q=1.0)

out = ls.apply_qplate(plate, beam)

before = ls.am_ledger(beam)
after = ls.am_ledger(out)
print(f"input : sam = {before.sam:+.6f}  oam = {before.oam:+.6f}  "
      f"total = {before.total:+.6f}")
print(f"output: sam = {after.sam:+.6f}  oam = {after.oam:+.6f}  "
      f"total = {after.total:+.6f}")

psi_l, psi_r = ls.circular_components(out)
charge = ls.topological_charge(psi_r, 1e-3)
print(f"topological charge of the converted component: {charge}")
residual = np.sum(np.abs(psi_l.amp) ** 2) * grid.pitch ** 2
print(f"power in the residual left-circular component: {residual:.3e}")

# the vortex phase staircase, sampled along a circle at the waist radius
phi = np.linspace(-math.pi, math.pi, 9)[:-1]
idx = lambda v: int(round(v / grid.pitch + grid.n / 2 - 0.5))
for a in phi:
    x, y = 1e-3 * math.cos(a), 1e-3 * math.sin(a)
    val = psi_r.amp[idx(y), idx(x)]
    print(f"  phi = {a:+.2f}  arg(psi) = {np.angle(val):+.2f}")
