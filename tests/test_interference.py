import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lightsim.errors
from lightsim import (Grid, ScalarField, fringe_fork_count, gaussian,
                      interference_image, laguerre_gaussian)
from lightsim.config import ScenarioConfig
from lightsim.errors import (RadiusOutOfGrid, TiltTooSmall,
                             UnresolvableFringes, ZeroField)
from lightsim.interference import MIN_CARRIER_PHASE
from lightsim.scenarios import execute

WAVELENGTH = 632.8e-7  # cm
WINDOW = 8.0
W0 = 1.0  # the loop radius of the fork reader too


def make_grid(n=256):
    return Grid(n, WINDOW / n, WAVELENGTH)


def tilt_for_fringes(fringes):
    return math.asin(fringes * WAVELENGTH / WINDOW)


def vortex(grid, l, w0=W0):
    _, phi = grid.polar()
    return ScalarField(grid, gaussian(grid, w0).amp * np.exp(1j * l * phi))


def read_fork(beam, tilt, loop_radius=W0):
    image = interference_image(beam, tilt)
    return fringe_fork_count(image, beam.grid, tilt, loop_radius)


def test_image_is_normalized():
    img = interference_image(gaussian(make_grid(), 1.0), tilt_for_fringes(10.25))
    assert img.min() >= 0.0
    assert img.max() == 1.0


def test_plain_gaussian_has_straight_fringes():
    assert read_fork(gaussian(make_grid(), W0), tilt_for_fringes(10.25)) == 0


def test_fork_counts_match_charges():
    g = make_grid()
    tilt = tilt_for_fringes(10.25)
    for l in range(-3, 4):
        assert read_fork(vortex(g, l), tilt) == l


def test_fork_counts_for_lg_modes():
    g = make_grid()
    tilt = tilt_for_fringes(10.25)
    for l in (-2, 1, 3):
        assert read_fork(laguerre_gaussian(g, l, 0, W0), tilt) == l


def test_negative_tilt_reads_the_same_charge():
    # the reference tilted the other way mirrors the fork; the signed k_x
    # of the sideband filter undoes that, with no flip by the caller
    g = make_grid()
    tilt = -tilt_for_fringes(10.25)
    for l in range(-3, 4):
        assert read_fork(laguerre_gaussian(g, l, 0, W0), tilt) == l


def test_carrier_too_slow_for_the_loop_raises():
    # 10.25 fringes over 8 cm: |k_x| * 0.4 cm = 3.2, below the limit
    beam = laguerre_gaussian(make_grid(), 2, 0, 0.4)
    tilt = tilt_for_fringes(10.25)
    assert 2 * math.pi * 10.25 / WINDOW * 0.4 < MIN_CARRIER_PHASE
    with pytest.raises(TiltTooSmall):
        read_fork(beam, tilt, loop_radius=0.4)


@pytest.mark.parametrize("radius", [0.0, -1.0, WINDOW / 2.0, 10.0])
def test_loop_outside_the_grid_raises(radius):
    beam = laguerre_gaussian(make_grid(), 1, 0, W0)
    with pytest.raises(RadiusOutOfGrid):
        read_fork(beam, tilt_for_fringes(10.25), loop_radius=radius)


def test_tilt_too_small_raises():
    with pytest.raises(TiltTooSmall):
        interference_image(gaussian(make_grid(), 1.0), tilt_for_fringes(4.0))


def test_unresolvable_fringes_raises():
    # 80 fringes across a 256-sample window: fewer than 4 samples each
    with pytest.raises(UnresolvableFringes):
        interference_image(gaussian(make_grid(256), 1.0),
                           tilt_for_fringes(80.0))


def test_zero_field_rejected():
    g = make_grid()
    with pytest.raises(ZeroField):
        interference_image(ScalarField(g, np.zeros((g.n, g.n))),
                           tilt_for_fringes(10.25))


# --- the scenario over its domain ---

FORK_WINDOW, FORK_WAVELENGTH = 8e-3, 632.8e-9  # m


def fork_rows(n, beam, tilt):
    cfg = ScenarioConfig("interference_fork", {
        "grid": {"n": n, "window": FORK_WINDOW,
                 "wavelength": FORK_WAVELENGTH},
        "beam": beam, "interference": {"tilt": tilt}})
    return execute(cfg, None, np.random.default_rng(0), log=lambda line: None)


def assert_reads(rows, l):
    assert len(rows) == 1
    row = rows[0]
    if row.quantity.startswith("error["):
        error = getattr(lightsim.errors, row.quantity[6:-1])
        assert issubclass(error, lightsim.errors.LightsimError)
        assert not issubclass(error, lightsim.errors.ConfigError)
    else:
        assert row.quantity == "fork_count"
        assert row.ok and row.value == l


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(n=st.sampled_from([64, 128, 256]), waist=st.floats(0.0, 1.0),
       spread=st.floats(0.0, 1.0), sign=st.sampled_from([1, -1]),
       kind=st.sampled_from(["gaussian", "lg", "vortex"]),
       l=st.integers(-3, 3))
def test_fork_count_is_the_charge_or_a_typed_error(n, waist, spread, sign,
                                                    kind, l):
    # the whole [beam] w0 and [interference] tilt domain: w0 in
    # (4 pitch, window/8], 8 to n/4 fringes of either sign
    lo, hi = 4.0 * FORK_WINDOW / n, FORK_WINDOW / 8.0
    w0 = max(hi - waist * (hi - lo), math.nextafter(lo, hi))
    beam = {"kind": kind, "w0": w0}
    if kind == "gaussian":
        l = 0
    else:
        beam["l"] = l
    fringes = sign * (8.0 + spread * (n / 4 - 8.0))
    tilt = math.asin(fringes * FORK_WAVELENGTH / FORK_WINDOW)
    assert_reads(fork_rows(n, beam, tilt), l)


@pytest.mark.parametrize("n", [64, 128, 192, 256, 512])
def test_gaussian_fork_reads_zero_at_every_n(n):
    # counting fringe maxima on two cuts read 2 here at n = 128 and 192
    beam = {"kind": "gaussian", "w0": 0.0005682429108046196}
    rows = fork_rows(n, beam, 0.0008897280939209439)
    assert [(r.quantity, r.value, r.ok) for r in rows] == [
        ("fork_count", 0, True)]
