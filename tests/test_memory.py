"""Memory budgets of the scenarios that set the peak at large n.

The traced peak (tracemalloc, which sees numpy's array allocations) of one
`run_scenario` with image output, in units of one complex n x n map; each
budget is the n = 512 measurement plus at most 0.3 map.  In the first
table, `qplate_conversion` (3.9) and `propagation_stability` (3.3) keep
budgets from before they fell by a map or more; a second table holds both
to 2.8 and 2.5.  Beside the field or the planes a check needs, no map is
whole in either: what remains is blocks of rows and the crop a loop is
read from.

- `qplate_conversion` measures 2.61 (2.17 at n = 2048, where blocks of rows
  are a smaller share of the grid): the vector beam is built by
  polarizing the beam's own amplitude in place once the scalar beam is
  let go; the q-plate output overwrites the input field by blocks of
  rows, each block's winding evaluated from its own rows, between reads
  of each block's input and output Stokes parameters; a second blocked
  pass writes each block's phase levels to the PGM before its Stokes maps
  overwrite the field, and the other images are written block by block.
  It was 2.70 when the real Gaussian envelope stood beside ex and ey and
  the image levels were whole maps, 3.61 when the plate's winding and the
  float phase image were whole maps too, 5.89 when the input's and the
  output's Stokes maps were each built whole and the output was a new
  field, 7.5 when the q-plate output, its Stokes maps and its circular
  component were each evaluated on whole maps, and 15.2 when both fields,
  both Stokes sets and both circular components were kept.
- `propagation_stability` measures 2.31 (2.14 at n = 2048): the propagator
  lets go of its input once transformed, makes the transfer function on
  blocks of quadrant rows and advances its last distance in the spectrum,
  and the semigroup row gives the z/2 plane up to a transform that runs in
  place.  It was 2.54 when the transfer function and k_z were whole on one
  quadrant, 3.03 when the half step was out of place, 4.52 when the beam
  and the z/2 plane outlived their transforms, 6.6 when the semigroup row
  propagated the beam a second time and each 2-D FFT allocated its
  intermediate, and 7.1 with one transfer function and forward FFT per
  distance.
- `generalized_charge` measures 1.52 (2.02 for LG l = 3), against 1.65
  (2.15) when the q-plate held a winding map of the crop, 8.0 when each
  q-plate output was built on the whole grid instead of the crop its loop
  is sampled from, and 9.5 on whole maps.
- `interference_fork` (LG l = -3) measures 1.76: the interferogram is built
  and its PGM quantized and written by blocks of rows.  It was 3.03 when
  the PGM's float temporaries were whole maps, and 3.7 when the fork
  reader also demodulated every row of the image instead of the rows its
  loop spans.
- `lg_oam` measures 1.25: one LG mode at a time, let go of before the
  next is built, and its ledger pass.  It was 2.26 when the previous mode
  was still held while the next was built.
- `rotating_qplate` measures 2.42 (2.02 at n = 2048): the input field, and
  the power and SAM of the plate's output read by blocks of rows as each
  block is made, so the output is never whole.  It was 4.42 with the whole
  output beside the field, 5.42 with the plate's winding map beside them
  too, and 7.61 when the plate turned by pi/3 and 2pi/3 was built as well,
  for a 3-point DFT of the overlaps.

The pixel sums of `am_ledger` (SAM, OAM, power and widths) are taken in
one pass over blocks of rows, with no whole-map temporary: on a vector and
on a scalar field it traces at most 0.1 map at n = 512 (0.088 measured, the
copy of one block and its 3 rows of halo), against 1.52 for the widths
alone when they were read from the intensity map and its moment products
on whole maps.

`far_field` builds each output component in one map and transforms it in
place: an LG l = 1 field at n = 512 traces 1.07 maps as a scalar field and
2.04 as a vector field, against 4.07 and 6.04 when the centering phase
ramps, the 2-D FFT and the scale each made a new map.

`apply_qplate` evaluates each block's winding from its own rows: on an LG
vector field at n = 512 it traces 2.41 maps, its output and one block's
temporaries, against 3.41 with the whole winding map.  `build_vector_beam`
traces 2.00 maps for a Gaussian or an LG beam, ex and ey alone, against
2.5 and 3.0 when the scalar beam stood beside both.  The image writers
trace 0.07 (PGM) and 0.12 (PPM) maps, one block's temporaries, against
0.20 and 0.31 when the levels were gathered into one array before the
file was written.  The semigroup row's
half step transforms the plane it gives up in place: 0.16 maps (one block
of the transfer function and the FFT's work space), against 0.51 when the
transfer function and k_z were whole on one quadrant; `propagate`, which
leaves the caller's map as it is, traces 1.16.
"""

import math
import tracemalloc
from functools import partial

import pytest

from lightsim import (Grid, QPlateSpec, ScalarField, am_ledger, apply_qplate,
                      far_field, jones_state, laguerre_gaussian, stokes_of,
                      vector_field)
from lightsim.config import ScenarioConfig, validate
from lightsim.imageio import (phase_levels, write_intensity_pgm,
                              write_phase_pgm, write_stokes_ppm)
from lightsim.propagation import _propagations
from lightsim.scenarios import SCENARIOS, build_vector_beam, run_scenario

N = 512
WINDOW = 8e-3
WAVELENGTH = 632.8e-9
GRID = {"n": N, "window": WINDOW, "wavelength": WAVELENGTH}
PW0 = WINDOW / 16.0
ZR = math.pi * PW0 ** 2 / WAVELENGTH


def peak_in_maps(name, sections, outdir):
    tracemalloc.start()
    try:
        code, _ = run_scenario(ScenarioConfig(name, sections), outdir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / (16 * N * N)


QPLATE_CONVERSION = {"grid": GRID,
                     "beam": {"kind": "gaussian", "w0": WINDOW / 8.0},
                     "polarization": {"kind": "L"}, "element": {"q": 1.0}}
PROPAGATION_STABILITY = {"grid": GRID,
                         "beam": {"kind": "lg", "l": 1, "w0": PW0},
                         "propagation": {"z_list": [ZR, 2.0 * ZR]}}


@pytest.mark.parametrize("name, sections, budget", [
    ("qplate_conversion", QPLATE_CONVERSION, 3.9),
    ("propagation_stability", PROPAGATION_STABILITY, 3.3),
    ("generalized_charge",
     {"grid": GRID, "beam": {"kind": "gaussian", "w0": WINDOW / 8.0}},
     1.8),
    ("interference_fork",
     {"grid": GRID, "beam": {"kind": "lg", "l": -3, "w0": WINDOW / 8.0},
      "interference": {"tilt": math.asin(10.25 * WAVELENGTH / WINDOW)}},
     2.0),
    ("lg_oam",
     {"grid": GRID, "beam": {"kind": "lg", "w0": WINDOW / 8.0}},
     1.5),
    ("rotating_qplate",
     {"grid": GRID, "beam": {"kind": "gaussian", "w0": WINDOW / 8.0},
      "polarization": {"kind": "L"}, "element": {"q": 1.0},
      "rotation": {"omega": 1.0}},
     2.6),
])
def test_peak_memory_within_budget(tmp_path, name, sections, budget):
    assert peak_in_maps(name, sections, tmp_path) <= budget


@pytest.mark.parametrize("name, sections, budget", [
    ("qplate_conversion", QPLATE_CONVERSION, 2.8),
    ("propagation_stability", PROPAGATION_STABILITY, 2.5),
])
def test_peak_memory_of_the_in_place_passes(tmp_path, name, sections,
                                            budget):
    assert peak_in_maps(name, sections, tmp_path) <= budget


def kernel_peak_in_maps(fn, field):
    tracemalloc.start()
    try:
        fn(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * N * N)


def test_pixel_sums_take_no_whole_map():
    lg = laguerre_gaussian(Grid(N, WINDOW / N, WAVELENGTH), 2, 1, PW0)
    out = apply_qplate(QPlateSpec(1.0), vector_field(lg, jones_state("L")))
    assert kernel_peak_in_maps(am_ledger, out) <= 0.1
    assert kernel_peak_in_maps(am_ledger, lg) <= 0.1


def test_far_field_transforms_in_place():
    lg = laguerre_gaussian(Grid(N, WINDOW / N, WAVELENGTH), 1, 0, PW0)
    assert kernel_peak_in_maps(far_field, lg) <= 1.5
    assert kernel_peak_in_maps(far_field,
                               vector_field(lg, jones_state("L"))) <= 2.5


def test_qplate_takes_no_winding_map():
    lg = laguerre_gaussian(Grid(N, WINDOW / N, WAVELENGTH), 1, 0, PW0)
    f = vector_field(lg, jones_state("L"))
    for q in (1.0, -0.5):
        assert kernel_peak_in_maps(lambda f: apply_qplate(QPlateSpec(q), f),
                                   f) <= 2.6


def test_given_up_plane_is_transformed_in_place():
    lg = laguerre_gaussian(Grid(N, WINDOW / N, WAVELENGTH), 1, 0, PW0)
    plane = ScalarField(lg.grid, lg.amp.copy())
    assert kernel_peak_in_maps(
        lambda s: next(_propagations(s, [ZR], True)), plane) <= 0.25


@pytest.mark.parametrize("beam", [{"kind": "gaussian", "w0": WINDOW / 8.0},
                                  {"kind": "lg", "l": 1, "w0": PW0}])
def test_vector_build_takes_no_third_map(beam):
    cfg = validate("qplate_conversion", {**QPLATE_CONVERSION, "beam": beam},
                   SCENARIOS["qplate_conversion"][0])
    assert kernel_peak_in_maps(build_vector_beam, cfg) <= 2.1


def test_image_writers_stream_their_levels(tmp_path):
    lg = laguerre_gaussian(Grid(N, WINDOW / N, WAVELENGTH), 1, 0, PW0)
    s = stokes_of(vector_field(lg, jones_state("L")))
    path = tmp_path / "image"
    for write, arg in ((write_intensity_pgm, s.s0),
                       (partial(write_phase_pgm, levels=phase_levels), s.s1),
                       (write_stokes_ppm, s)):
        assert kernel_peak_in_maps(lambda a: write(path, a), arg) <= 0.13
