import math

import numpy as np
import pytest

from lightsim import (Grid, ScalarField, fringe_fork_count, gaussian,
                      interference_image, laguerre_gaussian)
from lightsim.errors import TiltTooSmall, UnresolvableFringes, ZeroField

WAVELENGTH = 632.8e-7  # cm
WINDOW = 8.0


def make_grid(n=256):
    return Grid(n, WINDOW / n, WAVELENGTH)


def tilt_for_fringes(fringes):
    return math.asin(fringes * WAVELENGTH / WINDOW)


def vortex(grid, l, w0=1.0):
    _, phi = grid.polar()
    return ScalarField(grid, gaussian(grid, w0).amp * np.exp(1j * l * phi))


def test_image_is_normalized():
    img = interference_image(gaussian(make_grid(), 1.0), tilt_for_fringes(10.25))
    assert img.min() >= 0.0
    assert img.max() == 1.0


def test_plain_gaussian_has_straight_fringes():
    g = make_grid()
    img = interference_image(gaussian(g, 1.0), tilt_for_fringes(10.25))
    assert fringe_fork_count(img) == 0


def test_fork_counts_match_charges():
    g = make_grid()
    tilt = tilt_for_fringes(10.25)
    for l in range(-3, 4):
        img = interference_image(vortex(g, l), tilt)
        assert fringe_fork_count(img) == l


def test_fork_counts_for_lg_modes():
    g = make_grid()
    tilt = tilt_for_fringes(10.25)
    for l in (-2, 1, 3):
        img = interference_image(laguerre_gaussian(g, l, 0, 1.0), tilt)
        assert fringe_fork_count(img) == l


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
