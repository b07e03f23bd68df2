"""Deterministic text serialization helpers.

All floating point numbers are written with 17 significant digits so that
repeated runs with identical seeds produce byte-identical artifacts.
"""

import json

import numpy as np


def fmt(x) -> str:
    """17-significant-digit decimal form of a float."""
    return format(float(x), ".17g")


def write_csv(path, header, rows) -> None:
    """Rows of mixed ints/floats; floats go through fmt()."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                str(c) if isinstance(c, (int, np.integer)) else fmt(c)
                for c in row
            ]
            fh.write(",".join(cells) + "\n")


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        # round-trip through fmt for byte-stable output
        return float(fmt(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_pgm(path, field, mask=None) -> None:
    """Plain (P2) graymap of a scalar field, 8-bit, linearly scaled.

    `field` is (nx, ny) with x as the first index; the raster is written
    row-major in image convention (top row = largest y).  Sites outside
    `mask` map to 0.
    """
    field = np.asarray(field, dtype=float)
    if mask is None:
        mask = np.isfinite(field)
    vals = field[mask]
    lo = float(vals.min()) if vals.size else 0.0
    hi = float(vals.max()) if vals.size else 1.0
    span = hi - lo if hi > lo else 1.0
    img = np.zeros(field.shape, dtype=int)
    img[mask] = np.rint(255.0 * (field[mask] - lo) / span).astype(int)
    nx, ny = field.shape
    with open(path, "w") as fh:
        fh.write(f"P2\n{nx} {ny}\n255\n")
        for j in range(ny - 1, -1, -1):
            fh.write(" ".join(str(v) for v in img[:, j]) + "\n")


def write_polylines(path, polylines) -> None:
    """One `x,y` row per point; blank line between consecutive polylines."""
    with open(path, "w") as fh:
        for n, line in enumerate(polylines):
            if n:
                fh.write("\n")
            # tolist: unpacking numpy rows into numpy scalars is slower
            for x, y in np.asarray(line).tolist():
                fh.write(f"{fmt(x)},{fmt(y)}\n")
