"""Binary image and CSV writers for scenario outputs.

Intensity and phase maps go to 16-bit big-endian portable graymaps (P5);
Stokes composites to 8-bit portable pixmaps (P6) with (s1, s2, s3) mapped
affinely from [-1, 1] onto the RGB channels; maps are quantized and
written by blocks of rows.  CSV files use a header row, '.' decimal
separator, 17-significant-digit scientific notation and LF line endings.
"""

import math

import numpy as np

from .beams import _blocks


def _write_pnm(path, magic, maxval, levels, *maps):
    """Binary PNM of the quantized levels(*maps), each block of rows'
    levels written to the file as it is made: no whole level array."""
    h, w = maps[0].shape
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n{maxval}\n".encode("ascii"))
        for data in _blocks(levels, *maps):
            fh.write(data)


def write_intensity_pgm(path, intensity):
    """16-bit P5 graymap of a nonnegative map, scaled to its own peak."""
    arr = np.asarray(intensity, dtype=float)
    peak = float(arr.max())
    peak = peak if peak > 0.0 else 1.0  # unscaled: x / 1.0 is x
    _write_pnm(path, "P5", 65535, lambda rows: np.round(
        rows / peak * 65535.0).astype(">u2"), arr)


def phase_levels(phase):
    """16-bit levels of a phase map, (-pi, pi] mapped linearly onto (0, 1]."""
    return np.round(np.clip((phase + math.pi) / (2.0 * math.pi), 0.0, 1.0)
                    * 65535.0).astype(">u2")


def write_phase_pgm(path, *maps, levels):
    """16-bit P5 graymap of levels(*maps) (`phase_levels` of a phase map,
    say), made block by block of rows; `levels` may overwrite each block
    of the maps once it has read it."""
    _write_pnm(path, "P5", 65535, levels, *maps)


def write_stokes_ppm(path, s):
    """8-bit P6 pixmap with normalized (s1, s2, s3) as RGB, from pixelwise
    Stokes maps such as `stokes_of(field)`.

    Each channel of a block is scaled in one float array and stored into
    the uint8 pixmap before the next, so no float RGB stack is built.
    """
    def levels(s0, *channels):
        s0 = np.where(s0 > 0.0, s0, 1.0)
        data = np.empty(s0.shape + (3,), dtype=np.uint8)
        for channel, sk in enumerate(channels):
            c = sk / s0
            np.clip(c, -1.0, 1.0, out=c)
            c += 1.0
            c *= 127.5
            data[..., channel] = np.round(c, out=c)
        return data

    _write_pnm(path, "P6", 255, levels, s.s0, s.s1, s.s2, s.s3)


def format_number(x):
    """Scientific notation with 17 significant digits."""
    return f"{float(x):.16e}"


def write_csv(path, header, rows):
    """CSV with LF line endings; numeric cells formatted scientifically."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool) or isinstance(cell, str):
                cells.append(str(cell))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(format_number(cell))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
