"""Coordinates that the tests' per-pixel references are built on."""

import numpy as np


def polar(grid):
    """Meshgrid (R, PHI) of the grid's polar coordinates, PHI by arctan2."""
    X, Y = np.meshgrid(grid.axis(), grid.axis())
    return np.hypot(X, Y), np.arctan2(Y, X)
