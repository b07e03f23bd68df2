"""Deterministic text serialization helpers.

Every CSV artifact goes through `write_csv`, which takes equal-length 1-D
columns: integer columns are written as `%d`, every other column with 17
significant digits (`FLOAT`), so repeated runs with identical seeds produce
byte-identical artifacts.  The body of a CSV, a polyline or a graymap is
formatted by one `%` on a per-row format (`_rows`).
"""

import json

import numpy as np

FLOAT = "%.17g"


def _rows(row, table) -> str:
    """The one-line format `row` applied to every row of a 2-D array."""
    return row * len(table) % tuple(table.ravel().tolist())


def write_csv(path, header, columns) -> None:
    """Header line, then one row per entry of the equal-length columns."""
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else FLOAT
                   for c in columns) + "\n"
    # object columns hold Python ints and floats side by side
    table = np.stack([c.astype(object) for c in columns], axis=1)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_rows(row, table))


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_tolist)
        fh.write("\n")


def _tolist(obj):
    """numpy scalars and arrays as the Python numbers and lists they hold."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
        fh.write(_rows(" ".join(["%d"] * nx) + "\n", img[:, ::-1].T))


def write_polylines(path, polylines) -> None:
    """One `x,y` row per point; blank line between consecutive polylines."""
    with open(path, "w") as fh:
        for n, line in enumerate(polylines):
            if n:
                fh.write("\n")
            xy = np.asarray(line, dtype=float).reshape(-1, 2)
            fh.write(_rows(f"{FLOAT},{FLOAT}\n", xy))
