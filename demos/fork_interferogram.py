# Fork interferograms: reading a vortex charge off a fringe pattern.
#
# Interfering a vortex beam with a tilted plane wave splits one fringe into
# |l| + 1 at the phase dislocation.  Counting fringe maxima on cuts above
# and below the fork gives the charge, including its sign.

import math

import numpy as np

import lightsim as ls

n, window, wavelength = 512, 8e-3, 632.8e-9
grid = ls.Grid(n, window / n, wavelength)
tilt = math.asin(10.25 * wavelength / window)  # ~10 fringes across the window

print(f"{'mode':>10s} {'charge':>7s} {'fork count':>11s}")
for l in range(-3, 4):
    beam = ls.laguerre_gaussian(grid, l, 0, 1e-3)
    image = ls.interference_image(beam, tilt)
    count = ls.fringe_fork_count(image)
    print(f"{'LG_' + str(l):>10s} {l:>7d} {count:>11d}")

# save one interferogram for viewing
beam = ls.laguerre_gaussian(grid, 2, 0, 1e-3)
image = ls.interference_image(beam, tilt)
from lightsim.imageio import write_intensity_pgm
write_intensity_pgm("fork_l2.pgm", image)
print("\nwrote fork_l2.pgm (16-bit P5 graymap, l = 2 fork)")
print(f"image range: [{image.min():.3f}, {image.max():.3f}]")
print(f"mean fringe contrast proxy (std): {np.std(image):.3f}")
