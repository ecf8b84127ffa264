# Fork interferograms: reading a vortex charge off a fringe pattern.
#
# Interfering a vortex beam with a tilted plane wave splits one fringe into
# |l| + 1 at the phase dislocation.  Fourier-transform fringe analysis
# turns the image back into the beam: keep the sideband around the
# reference's carrier, shift it to zero frequency, and the phase winding of
# what is left round a loop about the fork is the charge, sign included,
# for either tilt of the reference.  Exits 1 if a count differs from l.

import math
import sys

import numpy as np

import lightsim as ls

n, window, wavelength, w0 = 512, 8e-3, 632.8e-9, 1e-3
grid = ls.Grid(n, window / n, wavelength)
tilt = math.asin(10.25 * wavelength / window)  # ~10 fringes across the window

wrong = 0
print(f"{'mode':>10s} {'tilt':>6s} {'charge':>7s} {'fork count':>11s}")
for l, sign in [(l, 1) for l in range(-3, 4)] + [(-2, -1), (3, -1)]:
    beam = ls.laguerre_gaussian(grid, l, 0, w0)
    image = ls.interference_image(beam, sign * tilt)
    count = ls.fringe_fork_count(image, grid, sign * tilt, w0)
    wrong += count != l
    print(f"{'LG_' + str(l):>10s} {'+' if sign > 0 else '-':>6s} {l:>7d} "
          f"{count:>11d}")

# save one interferogram for viewing
beam = ls.laguerre_gaussian(grid, 2, 0, w0)
image = ls.interference_image(beam, tilt)
from lightsim.imageio import write_intensity_pgm
write_intensity_pgm("fork_l2.pgm", image)
print("\nwrote fork_l2.pgm (16-bit P5 graymap, l = 2 fork)")
print(f"image range: [{image.min():.3f}, {image.max():.3f}]")
print(f"mean fringe contrast proxy (std): {np.std(image):.3f}")
if wrong:
    sys.exit(f"{wrong} fork count(s) differ from the charge")
