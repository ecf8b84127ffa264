"""Free-space propagation by the angular-spectrum method.

Each component of a field (the amplitude of a scalar field, ex and ey of a
vector field) is decomposed into plane waves with the FFT, advanced with
the exact transfer phase exp(i z sqrt(k^2 - kx^2 - ky^2)) and transformed
back; evanescent components (kx^2 + ky^2 > k^2) are zeroed, which is the
physical choice for forward propagation.  The transfer phase depends on
kx^2 and ky^2 alone, so it is computed on blocks of the rows of one
quadrant of the FFT grid (frequency indices 0...n/2), each row mirrored to
full width and applied to spectrum rows a and n - a.  Each component is
transformed forward once per beam, whatever the number of distances, as
the two 1-D passes of `fft2`/`ifft2`, in place but for the first, which
keeps a caller's maps.  Treating ex and ey alike neglects the longitudinal
field, a paraxial approximation.  The far-field transform is a single
centered FFT, in place, whose output grid carries angular coordinates with
pitch lambda / (n * pitch).
"""

import math

import numpy as np

from . import beams
from .analysis import am_ledger, topological_charge
from .errors import WindowTooSmall

EDGE_INTENSITY_LIMIT = 1e-6


def _check_edges(amp, where):
    peak = beams.max_abs(amp) ** 2
    if peak == 0.0:
        return
    edge = max(float(np.max(np.abs(line) ** 2))
               for line in (amp[0, :], amp[-1, :], amp[:, 0], amp[:, -1]))
    if edge > EDGE_INTENSITY_LIMIT * peak:
        raise WindowTooSmall(
            f"edge intensity {edge / peak:.2e} of peak at the {where} plane "
            f"exceeds {EDGE_INTENSITY_LIMIT:g}; enlarge the window")


def propagations(field, zs):
    """Yield a scalar or vector field propagated by each distance z >= 0 in
    `zs`, in order.

    Every z is checked, then the input edges, before any transform; each
    component is transformed forward once, so each output costs a transfer
    function, made by blocks, and an inverse FFT per component.  Input
    maps are let go once transformed and the last z advances in place: with
    the input and each output dropped before the next, one plane is alive.
    """
    return _propagations(field, zs, False)


def _propagations(field, zs, own):
    """`propagations`, overwriting the field's maps if the caller `own`s."""
    zs = list(zs)
    if any(z < 0.0 for z in zs):
        raise ValueError("propagation distance must be nonnegative")
    grid, make, amps = field.grid, type(field), list(field.components)
    for amp in amps:
        _check_edges(amp, "input")
    del field, amp
    for i in range(len(amps)):  # each map's spectrum takes its place
        amps[i] = np.fft.fft(amps[i], axis=1, out=amps[i] if own else None)
        np.fft.fft(amps[i], axis=0, out=amps[i])
    for i, z in enumerate(zs):
        yield make(grid, *(_advance(spec, grid, z, i == len(zs) - 1)
                           for spec in amps))


def _advance(spec, grid, z, in_place):
    """Inverse FFT of a spectrum times the transfer function, which is
    exp(i z k_z) on the propagating frequencies and 0 on the evanescent
    ones, into the spectrum if `in_place`.  Index a and index n - a square
    to the same kx^2, so the transfer function is made on blocks of the
    quadrant rows a = 0...n/2, each row [h, h[half-1:0:-1]] multiplying
    spectrum rows a and n - a."""
    n, half = grid.n, grid.n // 2
    kx = 2.0 * math.pi * np.fft.fftfreq(n, d=grid.pitch)[:half + 1]
    step = max(1, beams._BLOCK // n)
    prod = spec if in_place else np.empty_like(spec)
    h = np.empty((step, n), complex)
    for r in range(0, half + 1, step):
        e = min(r + step, half + 1)
        hb, q = h[:e - r], h[:e - r, :half + 1]
        kz2 = grid.k ** 2 - (kx[None, :] ** 2 + kx[r:e, None] ** 2)
        np.multiply(1j * z, np.sqrt(np.maximum(kz2, 0.0)), out=q)
        np.exp(q, out=q)
        q[kz2 <= 0.0] = 0.0
        hb[:, half + 1:] = q[:, half - 1:0:-1]
        np.multiply(spec[r:e], hb, out=prod[r:e])
        lo, hi = max(r, 1), min(e, half)  # rows a whose n - a is another
        mirror = slice(n - lo, n - hi, -1)
        np.multiply(spec[mirror], hb[lo - r:hi - r], out=prod[mirror])
    np.fft.ifft(prod, axis=1, out=prod)
    np.fft.ifft(prod, axis=0, out=prod)
    _check_edges(prod, "output")
    return prod


def propagate(field, z):
    """Propagate a scalar or vector field by distance z >= 0."""
    steps = propagations(field, [z])
    del field
    return next(steps)


def far_field(field):
    """Fraunhofer transform of each component; the output grid is in angle
    coordinates [rad].

    F[m] = sum_j a[j] exp(-2 pi i f_m x_j) on cell-centered axes, x_j = (j -
    c) pitch and f_m = (m - c) / (n pitch) with c = n/2 - 1/2: per axis the
    ramp exp(2 pi i c k / n) before and after one FFT, run in place, times
    exp(-2 pi i c^2 / n).  Power is preserved (Parseval with the angular
    pitch lambda/(n*pitch)).
    """
    grid = field.grid
    n = grid.n
    theta_pitch = grid.wavelength / (n * grid.pitch)
    c = n / 2 - 0.5
    ramp = np.exp(2j * math.pi * c * np.arange(n) / n)
    # exp(-2 pi i c^2 / n) of both axes, and the Parseval scale
    post = ramp * (np.exp(-4j * math.pi * c * c / n)
                   * grid.pitch / (n * theta_pitch))
    out = []
    for amp in field.components:
        _check_edges(amp, "input")
        f = amp * ramp
        f *= ramp[:, None]
        np.fft.fft(f, axis=1, out=f)
        np.fft.fft(f, axis=0, out=f)
        f *= post
        f *= ramp[:, None]
        out.append(f)
    return type(field)(beams.Grid(n, theta_pitch, grid.wavelength), *out)


def stability_record(z, out):
    """Widths, charge on the rms-radius circle and OAM per photon of the
    scalar plane `out` at distance z, the widths and OAM from one ledger."""
    ledger = am_ledger(out)
    wx, wy = ledger.widths
    return {"z": float(z), "width_x": wx, "width_y": wy,
            "charge": topological_charge(out, 0.5 * math.hypot(wx, wy)),
            "oam": ledger.oam}
