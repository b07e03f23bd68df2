"""Billiard shapes rasterized onto the square circuit lattice.

Lattice sites live at (x, y) = a0 * (i, j).  A site is *interior* when its
center falls strictly inside the continuum region; a geometry is its
interior mask.  The network is grounded at its edge: every link with an
interior end exists, and its non-interior end holds V = 0, so the interior
sites are the unknowns and the lattice maps onto the Dirichlet Laplacian.
No interior site sits on the lattice rim, so every unknown has four links.

Each geometry builds the symbolic stencil of its lattice links once, on
first use (`GridGeometry.stencil`); every Kirchhoff operator on it shares
that stencil's pattern.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class GridGeometry:
    """Rasterized billiard on an nx-by-ny site lattice: its interior mask,
    which keeps the lattice rim free (ValueError otherwise)."""

    spacing: float
    interior: np.ndarray   # bool, shape (nx, ny)

    def __post_init__(self):
        if self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if np.any(self.interior[[0, -1], :]) \
                or np.any(self.interior[:, [0, -1]]):
            raise ValueError(
                "interior touches the lattice rim; enlarge the lattice")

    @property
    def nx(self) -> int:
        return self.interior.shape[0]

    @property
    def ny(self) -> int:
        return self.interior.shape[1]

    @property
    def n_interior(self) -> int:
        return int(np.count_nonzero(self.interior))

    def is_interior(self, i, j):
        """True where (i, j) is on the lattice and an interior site; takes
        whole-number scalars (returns a bool) or arrays of one shape, of
        integer or float dtype (NaN reads False)."""
        flat, _, lo, hi_i, hi_j, row = self._site_lookup
        # as floats, Python ints too large for int64 clip like any other; an
        # index past the lattice is clipped onto its rim, which holds no
        # interior site, and fmax and fmin send NaN there too
        i = np.fmin(np.fmax(np.asarray(i, dtype=float), lo), hi_i)
        j = np.fmin(np.fmax(np.asarray(j, dtype=float), lo), hi_j)
        inside = flat.take((i * row + j).astype(np.intp))
        return bool(inside) if inside.ndim == 0 else inside

    def contains(self, x, y):
        """True where the site nearest the point (x, y) is interior; the
        nearest site rounds half to even (np.rint, as Python's round).
        Takes float scalars (returns a bool) or float arrays of one shape."""
        a0 = self._site_lookup[1]
        return self.is_interior(np.rint(x / a0), np.rint(y / a0))

    @cached_property
    def _site_lookup(self) -> tuple:
        """What `is_interior` reads: the interior mask flattened, so that
        site (i, j) sits at i * ny + j; then a0, the lowest and the highest
        i and j and the row length, as 0-d float arrays.  The streamline
        tracer calls `contains` once a step, and numpy applies 0-d arrays
        faster than Python scalars."""
        flat = self.interior.ravel()
        flat.flags.writeable = False
        return (flat, *map(np.array, (self.spacing, 0.0, self.nx - 1.0,
                                      self.ny - 1.0, float(self.ny))))

    @property
    def interior_sites(self) -> np.ndarray:
        """(n, 2) array of interior (i, j), row-major order."""
        return np.argwhere(self.interior)

    @cached_property
    def stencil(self) -> "LatticeStencil":
        """Stencil over the network's unknowns, the interior sites.  Built
        on first use and kept with the geometry."""
        return lattice_stencil(self)


@dataclass(frozen=True)
class LatticeStencil:
    """Symbolic Kirchhoff operator of the lattice links over the interior
    sites, the unknowns.

    Links join (i,j)-(i+1,j) (x links) and (i,j)-(i,j+1) (y links); a link
    exists when at least one end is interior, so every unknown has four.
    Links are numbered x links first, then y links, each in row-major
    order of the link's lower end.  A non-interior end is grounded (V =
    0): `ends` reads n there, and the link still adds its admittance to
    the other end's diagonal.  `indptr` and `indices` hold the sorted
    CSC pattern of B^T B + I, B the oriented link incidence over the
    unknowns; `source` holds the link behind each off-diagonal entry and
    n_links + u on the diagonal of unknown u.
    """

    mask_x: np.ndarray    # bool (nx, ny): x link at its lower end exists
    mask_y: np.ndarray
    index: np.ndarray     # int32 (nx, ny): unknown number, -1 elsewhere
    ends: np.ndarray      # int32 (n_links, 2): unknowns at the lower, upper end
    indptr: np.ndarray    # int32 (n + 1,)
    indices: np.ndarray   # int32 (nnz,)
    source: np.ndarray    # int32 (nnz,)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def n_links(self) -> int:
        return len(self.ends)

    def assemble(self, w) -> sp.csc_matrix:
        """B^T diag(w) B as a CSC matrix with sorted indices, for real link
        weights `w` in link order.

        It sums as the sparse product does, so the two agree bit for bit
        wherever the product keeps an entry: an off-diagonal entry is 0 - w
        of its link, and a diagonal entry adds its links' weights to 0 in
        link order.  Entries that sum to zero stay as explicit zeros; the
        product drops them.
        """
        n = self.n
        # bincount adds in input order, so each unknown takes its links in
        # link order; grounded ends fall into the dropped bin n
        diag = np.bincount(self.ends.ravel(), np.repeat(w, 2), n + 1)[:n]
        values = np.concatenate((0.0 - w, diag))
        return sp.csc_matrix((values[self.source], self.indices, self.indptr),
                             shape=(n, n))

    def link_drops(self, values: np.ndarray) -> np.ndarray:
        """V_hi - V_lo on every link, in link order, with both ends read
        from the (nx, ny) site values whether they are unknowns or not;
        summed as the incidence product B @ V does, (0 - V_lo) + V_hi."""
        drops = []
        for mask, lo, hi in ((self.mask_x[:-1, :], np.s_[:-1, :], np.s_[1:, :]),
                             (self.mask_y[:, :-1], np.s_[:, :-1], np.s_[:, 1:])):
            drops.append((0.0 - values[lo][mask]) + values[hi][mask])
        return np.concatenate(drops)


def lattice_stencil(geometry: GridGeometry) -> LatticeStencil:
    """Stencil of the network links over the interior sites.

    Its arrays are read-only: every matrix assembled on it shares them.
    """
    inter = geometry.interior
    n = geometry.n_interior
    index = np.full(inter.shape, -1, dtype=np.int32)
    index[inter] = np.arange(n, dtype=np.int32)
    end_of = np.where(inter, index, np.int32(n))   # n marks a grounded end
    masks, ends = [], []
    for lo, hi in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        mask = np.zeros_like(inter)
        mask[lo] = inter[lo] | inter[hi]
        masks.append(mask)
        ends.append(np.stack((end_of[lo][mask[lo]], end_of[hi][mask[lo]]),
                             axis=1))
    ends = np.concatenate(ends)
    # a link between unknowns a and b holds the entries (a, b) and (b, a);
    # the COO-to-CSC conversion sorts every column
    inner = np.flatnonzero(np.all(ends < n, axis=1)).astype(np.int32)
    a, b = ends[inner].T
    diag = np.arange(n, dtype=np.int32)
    pattern = sp.csc_matrix(
        (np.concatenate((inner, inner, len(ends) + diag)),
         (np.concatenate((a, b, diag)), np.concatenate((b, a, diag)))),
        shape=(n, n))
    stencil = LatticeStencil(mask_x=masks[0], mask_y=masks[1], index=index,
                             ends=ends, indptr=pattern.indptr,
                             indices=pattern.indices, source=pattern.data)
    for array in vars(stencil).values():
        array.flags.writeable = False
    return stencil


def rasterize_rectangle(nx_interior: int, ny_interior: int, spacing: float) -> GridGeometry:
    """Full nx-by-ny interior block inside a one-site grounded frame."""
    if nx_interior < 1 or ny_interior < 1:
        raise ValueError("rectangle extents must be >= 1")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    interior = np.zeros((nx_interior + 2, ny_interior + 2), dtype=bool)
    interior[1:-1, 1:-1] = True
    return GridGeometry(spacing=spacing, interior=interior)


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
    return GridGeometry(spacing=spacing, interior=in_square | in_cap)

