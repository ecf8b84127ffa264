"""Memory budgets of the scenarios that set the peak at large n.

The traced peak (tracemalloc, which sees numpy's array allocations) of one
`run_scenario` with image output, in units of one complex n x n map; each
budget is the n = 512 measurement plus at most 0.3 map.  In the first
table, `qplate_conversion` (3.9) and `propagation_stability` (3.3) keep
budgets from before they fell by a map or half a map; a second table holds
both to 3.0 and 2.8.

- `qplate_conversion` measures 2.70 (2.50 at n = 2048, where blocks of rows
  are a smaller share of the grid): the q-plate output overwrites the
  input field by blocks of rows, each block's winding evaluated from its
  own rows, between reads of each block's input and output Stokes
  parameters; a second blocked pass quantizes each block's phase levels
  before its Stokes maps overwrite the field.  Beside the field, only the
  16-bit and 8-bit image levels are whole.  It was 3.61 when the plate's
  winding and the float phase image were whole maps, 5.89 when the input's
  and the output's Stokes maps were each built whole and the output was a
  new field, 7.5 when the q-plate output, its Stokes maps and its circular
  component were each evaluated on whole maps, and 15.2 when both fields,
  both Stokes sets and both circular components were kept.
- `propagation_stability` measures 2.54: the propagator lets go of its
  input once transformed and advances its last distance in the spectrum,
  and the semigroup row gives the z/2 plane up to a transform that runs in
  place.  It was 3.03 when that transform was out of place, 4.52 when the
  beam and the z/2 plane outlived their transforms, 6.6 when the semigroup
  row propagated the beam a second time and each 2-D FFT allocated its
  intermediate, and 7.1 with one transfer function and forward FFT per
  distance.
- `generalized_charge` measures 1.52 (2.02 for LG l = 3), against 1.65
  (2.15) when the q-plate held a winding map of the crop, 8.0 when each
  q-plate output was built on the whole grid instead of the crop its loop
  is sampled from, and 9.5 on whole maps.
- `interference_fork` (LG l = -3) measures 1.76: the interferogram is built
  and the PGM quantized by blocks of rows.  It was 3.03 when the PGM's
  float temporaries were whole maps, and 3.7 when the fork reader also
  demodulated every row of the image instead of the rows its loop spans.
- `lg_oam` measures 1.25: one LG mode at a time, let go of before the
  next is built, and its ledger pass.  It was 2.26 when the previous mode
  was still held while the next was built.
- `rotating_qplate` measures 4.42: one plate output beside the input
  field; its series is read from that output's ledger.  It was 5.42 with
  the plate's winding map beside them, and 7.61 when the plate turned by
  pi/3 and 2pi/3 was built too, for a 3-point DFT of the overlaps.

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
temporaries, against 3.41 with the whole winding map.  The semigroup row's
half step transforms the plane it gives up in place: 0.51 maps (the
transfer function on one quadrant, k_z and one block), where `propagate`,
which leaves the caller's map as it is, traces 1.54.
"""

import math
import tracemalloc

import pytest

from lightsim import (Grid, QPlateSpec, ScalarField, am_ledger, apply_qplate,
                      far_field, jones_state, laguerre_gaussian, vector_field)
from lightsim.propagation import _propagations
from lightsim.config import ScenarioConfig
from lightsim.scenarios import run_scenario

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
     4.7),
])
def test_peak_memory_within_budget(tmp_path, name, sections, budget):
    assert peak_in_maps(name, sections, tmp_path) <= budget


@pytest.mark.parametrize("name, sections, budget", [
    ("qplate_conversion", QPLATE_CONVERSION, 3.0),
    ("propagation_stability", PROPAGATION_STABILITY, 2.8),
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
        lambda s: next(_propagations(s, [ZR], True)), plane) <= 0.7
