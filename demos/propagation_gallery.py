# Free-space propagation: diffraction of Gaussian and vortex beams.
#
# The angular-spectrum propagator advances each plane-wave component with
# its exact phase.  A Gaussian expands as w(z) = w0 sqrt(1 + (z/zR)^2); a
# Laguerre-Gaussian keeps its ring, charge and OAM while spreading.

import math

import lightsim as ls

n, window, wavelength = 512, 8e-3, 632.8e-9
grid = ls.Grid(n, window / n, wavelength)
w0 = window / 16.0
zr = math.pi * w0 ** 2 / wavelength
print(f"waist w0 = {w0 * 1e3:.2f} mm, Rayleigh range zR = {zr:.2f} m\n")

gauss = ls.gaussian(grid, w0)
print("Gaussian:")
for z in (0.0, zr, 2 * zr):
    out = ls.propagate(gauss, z)
    wx, wy = ls.am_ledger(out).widths
    expect = w0 * math.sqrt(1 + (z / zr) ** 2)
    print(f"  z = {z / zr:3.1f} zR: width = {wx * 1e3:.3f} mm "
          f"(theory {expect * 1e3:.3f} mm)")

lg = ls.laguerre_gaussian(grid, 2, 0, w0)
print("\nLG(l=2, p=0):")
zs = [zr, 2 * zr]
for rec in map(ls.stability_record, zs, ls.propagations(lg, zs)):
    print(f"  z = {rec['z'] / zr:3.1f} zR: width = {rec['width_x'] * 1e3:.3f} mm, "
          f"charge = {rec['charge']}, oam/photon = {rec['oam']:.4f} hbar")

far = ls.far_field(lg)
wx, wy = ls.am_ledger(far).widths
print(f"\nfar-field divergence (2 x rms): {wx * 1e3:.3f} mrad")
print(f"far-field power / input power: {far.power / lg.power:.6f}")
