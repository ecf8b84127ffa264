"""Free-space propagation by the angular-spectrum method.

Each component of a field (the amplitude of a scalar field, ex and ey of a
vector field) is decomposed into plane waves with the FFT, advanced with
the exact transfer phase exp(i z sqrt(k^2 - kx^2 - ky^2)) and transformed
back; evanescent components (kx^2 + ky^2 > k^2) are zeroed, which is the
physical choice for forward propagation.  Treating ex and ey alike
neglects the longitudinal field, a paraxial approximation.  The far-field
transform is a single Fraunhofer step whose output grid carries angular
coordinates with pitch lambda / (n * pitch).
"""

import math

import numpy as np

from .analysis import oam_per_photon, topological_charge
from .beams import Grid, ScalarField
from .errors import WindowTooSmall

EDGE_INTENSITY_LIMIT = 1e-6


def _check_edges(amp, where):
    peak = float(np.max(np.abs(amp) ** 2))
    if peak == 0.0:
        return
    edge = max(float(np.max(np.abs(amp[0, :]) ** 2)),
               float(np.max(np.abs(amp[-1, :]) ** 2)),
               float(np.max(np.abs(amp[:, 0]) ** 2)),
               float(np.max(np.abs(amp[:, -1]) ** 2)))
    if edge > EDGE_INTENSITY_LIMIT * peak:
        raise WindowTooSmall(
            f"edge intensity {edge / peak:.2e} of peak at the {where} plane "
            f"exceeds {EDGE_INTENSITY_LIMIT:g}; enlarge the window")


def _transfer(grid, z):
    fx = np.fft.fftfreq(grid.n, d=grid.pitch)
    kx = 2.0 * math.pi * fx
    kx2 = kx[None, :] ** 2 + kx[:, None] ** 2
    k2 = grid.k ** 2
    kz2 = k2 - kx2
    prop = kz2 > 0.0
    h = np.zeros(kz2.shape, dtype=complex)
    h[prop] = np.exp(1j * z * np.sqrt(kz2[prop]))
    return h


def propagate(field, z):
    """Propagate a scalar or vector field by distance z >= 0."""
    if z < 0.0:
        raise ValueError("propagation distance must be nonnegative")
    h = _transfer(field.grid, z)
    out = []
    for amp in field.components:
        _check_edges(amp, "input")
        amp = np.fft.ifft2(np.fft.fft2(amp) * h)
        _check_edges(amp, "output")
        out.append(amp)
    return type(field)(field.grid, *out)


def _centered_fft2(amp, n):
    """DFT with both input and output sampled on cell-centered axes.

    F[m] = sum_j a[j] exp(-2 pi i f_m x_j) with x_j = (j - n/2 + 1/2) p and
    f_m = (m - n/2 + 1/2) / (n p), evaluated with one FFT plus phase ramps.
    """
    j = np.arange(n)
    m = np.arange(n)
    # exponent: -2pi i (m - n/2 + 1/2)(j - n/2 + 1/2)/n
    pre = np.exp(-2j * math.pi * (j - n / 2 + 0.5) * (-n / 2 + 0.5) / n)
    post = np.exp(-2j * math.pi * (m - n / 2 + 0.5) * (-n / 2 + 0.5) / n
                  + 2j * math.pi * (-n / 2 + 0.5) ** 2 / n)
    a = amp * pre[None, :] * pre[:, None]
    f = np.fft.fft2(a)
    return f * post[None, :] * post[:, None]


def far_field(field):
    """Fraunhofer transform of each component; the output grid is in angle
    coordinates [rad].

    Power is preserved (Parseval with the angular pitch lambda/(n*pitch)).
    """
    grid = field.grid
    n = grid.n
    theta_pitch = grid.wavelength / (n * grid.pitch)
    out = []
    for amp in field.components:
        _check_edges(amp, "input")
        f = _centered_fft2(amp, n) * grid.pitch ** 2
        # scale so that sum |amp|^2 * theta_pitch^2 equals the input power
        out.append(f / (n * grid.pitch * theta_pitch))
    return type(field)(Grid(n, theta_pitch, grid.wavelength), *out)


def second_moment_widths(s):
    """Principal 1/e beam widths (2 x rms) from the second moments of the
    total intensity over all components."""
    inten = sum(np.abs(c) ** 2 for c in s.components)
    total = float(inten.sum())
    X, Y = s.grid.coords()
    xm = float((inten * X).sum()) / total
    ym = float((inten * Y).sum()) / total
    xx = float((inten * (X - xm) ** 2).sum()) / total
    yy = float((inten * (Y - ym) ** 2).sum()) / total
    xy = float((inten * (X - xm) * (Y - ym)).sum()) / total
    cov = np.array([[xx, xy], [xy, yy]])
    evals, evecs = np.linalg.eigh(cov)
    # report widths ordered (x-like, y-like) by dominant eigenvector axis
    w = 2.0 * np.sqrt(evals)
    if abs(evecs[0, 1]) >= abs(evecs[1, 1]):
        return float(w[1]), float(w[0])
    return float(w[0]), float(w[1])


def stability_metrics(s, zs, charge_radius_factor=1.0):
    """Propagation metrics for the LG vs elliptical-Gaussian comparison.

    Returns one record per z with second-moment widths, the topological
    charge on a circle at the rms radius, and the OAM per photon.  `s` must
    be a scalar field, since the charge is read from its `amp`.
    """
    records = []
    for z in zs:
        out = propagate(s, z)
        wx, wy = second_moment_widths(out)
        radius = charge_radius_factor * 0.5 * math.hypot(wx, wy)
        charge = topological_charge(out, radius)
        records.append({
            "z": float(z),
            "width_x": wx,
            "width_y": wy,
            "charge": charge,
            "oam": oam_per_photon(out),
        })
    return records


def conjugate_round_trip(s, z):
    """Propagate forward, conjugate, propagate forward, conjugate.

    Reproduces the input field (reciprocity check); negative-z propagation
    itself is rejected.
    """
    fwd = propagate(s, z)
    back = propagate(ScalarField(s.grid, np.conj(fwd.amp)), z)
    return ScalarField(s.grid, np.conj(back.amp))
