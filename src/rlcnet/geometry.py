"""Billiard shapes rasterized onto the square circuit lattice.

Lattice sites live at (x, y) = a0 * (i, j).  A site is *interior* when its
center falls strictly inside the continuum region; sites outside the region
that touch an interior site through a lattice link are *boundary* sites and
carry a boundary-condition tag.
"""

from dataclasses import dataclass, replace

import numpy as np

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
MIXED = "mixed"


@dataclass(frozen=True)
class BCKind:
    """Boundary treatment for the network edge.

    ``dirichlet``: boundary sites grounded (voltage forced to zero).
    ``neumann``:   boundary sites shunted to ground through capacitors.
    ``mixed``:     boundary sites shunted through resistive inductors; the
                   shunt R and L are carried here.
    """

    kind: str = DIRICHLET
    shunt_resistance: float = 0.0
    shunt_inductance: float = 0.0

    def __post_init__(self):
        if self.kind not in (DIRICHLET, NEUMANN, MIXED):
            raise ValueError(f"unknown boundary kind: {self.kind!r}")
        if self.kind == MIXED:
            if self.shunt_inductance <= 0.0:
                raise ValueError("mixed BC requires a positive shunt inductance")
            if self.shunt_resistance < 0.0:
                raise ValueError("mixed BC shunt resistance must be >= 0")


@dataclass(frozen=True)
class GridGeometry:
    """Rasterized billiard on an nx-by-ny site lattice."""

    spacing: float
    nx: int
    ny: int
    interior: np.ndarray   # bool, shape (nx, ny)
    boundary: np.ndarray   # bool, shape (nx, ny)
    bc: BCKind

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.interior.shape != (self.nx, self.ny):
            raise ValueError("interior mask shape mismatch")
        if self.boundary.shape != (self.nx, self.ny):
            raise ValueError("boundary mask shape mismatch")
        if np.any(self.interior & self.boundary):
            raise ValueError("interior and boundary masks overlap")

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(self.interior))

    def is_interior(self, i, j):
        """True where (i, j) is on the lattice and an interior site; takes
        integer scalars (returns a bool) or integer arrays of one shape."""
        i, j = np.asarray(i), np.asarray(j)
        on = (i >= 0) & (i < self.nx) & (j >= 0) & (j < self.ny)
        # off-lattice entries read site (0, 0); the cast also takes Python
        # ints too large for int64, which numpy holds as objects
        inside = on & self.interior[np.where(on, i, 0).astype(int),
                                    np.where(on, j, 0).astype(int)]
        return bool(inside) if inside.ndim == 0 else inside

    def contains(self, x, y):
        """True where the site nearest the point (x, y) is interior; the
        nearest site rounds half to even (np.rint, as Python's round)."""
        a0 = self.spacing
        return self.is_interior(np.rint(x / a0).astype(int),
                                np.rint(y / a0).astype(int))

    @property
    def interior_sites(self) -> np.ndarray:
        """(n, 2) array of interior (i, j), row-major order."""
        return np.argwhere(self.interior)

    @property
    def boundary_sites(self) -> np.ndarray:
        return np.argwhere(self.boundary)

    @property
    def area(self) -> float:
        return self.n_interior * self.spacing ** 2


def _boundary_from_interior(interior: np.ndarray) -> np.ndarray:
    """Non-interior sites 4-adjacent to an interior site."""
    nx, ny = interior.shape
    if np.any(interior[0, :]) or np.any(interior[-1, :]) \
            or np.any(interior[:, 0]) or np.any(interior[:, -1]):
        raise ValueError("interior touches the lattice rim; enlarge the lattice")
    near = np.zeros_like(interior)
    near[1:, :] |= interior[:-1, :]
    near[:-1, :] |= interior[1:, :]
    near[:, 1:] |= interior[:, :-1]
    near[:, :-1] |= interior[:, 1:]
    return near & ~interior


def rasterize_rectangle(nx_interior: int, ny_interior: int, spacing: float) -> GridGeometry:
    """Full nx-by-ny interior block with a one-site boundary frame."""
    if nx_interior < 1 or ny_interior < 1:
        raise ValueError("rectangle extents must be >= 1")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    nx, ny = nx_interior + 2, ny_interior + 2
    interior = np.zeros((nx, ny), dtype=bool)
    interior[1:-1, 1:-1] = True
    # full one-site frame, corners included
    boundary = ~interior
    return GridGeometry(
        spacing=spacing, nx=nx, ny=ny,
        interior=interior, boundary=boundary,
        bc=BCKind(DIRICHLET),
    )


def rasterize_quarter_stadium(spacing: float) -> GridGeometry:
    """Quarter Bunimovich stadium: unit square plus a quarter disk of radius 1.

    The billiard width (square side) is the length unit; the region is
    {0 < x < 1, 0 < y < 1} united with {x >= 1, (x-1)^2 + y^2 < 1}.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    if 1.0 / spacing < 10.0:
        raise ValueError("spacing too coarse: need at least 10 sites across the width")
    nx = int(np.ceil(2.0 / spacing)) + 2
    ny = int(np.ceil(1.0 / spacing)) + 2
    i = np.arange(nx)[:, None]
    j = np.arange(ny)[None, :]
    x = spacing * i
    y = spacing * j
    in_square = (x > 0.0) & (x < 1.0) & (y > 0.0) & (y < 1.0)
    in_cap = (x >= 1.0) & (y > 0.0) & ((x - 1.0) ** 2 + y ** 2 < 1.0)
    interior = in_square | in_cap
    return GridGeometry(
        spacing=spacing, nx=nx, ny=ny,
        interior=interior, boundary=_boundary_from_interior(interior),
        bc=BCKind(DIRICHLET),
    )


def tag_boundary(geometry: GridGeometry, kind: BCKind) -> GridGeometry:
    """Return a copy of the geometry with every boundary site tagged `kind`."""
    return replace(geometry, bc=kind)
