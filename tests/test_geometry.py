"""Rasterization, site lookup and stencil tests."""

from math import pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from rlcnet.geometry import (GridGeometry, rasterize_quarter_stadium,
                             rasterize_rectangle)


def _area(g):
    """Billiard area of the interior sites, one a0^2 cell each."""
    return g.n_interior * g.spacing ** 2


def test_rectangle_2x2_counts():
    g = rasterize_rectangle(2, 2, 0.25)
    assert g.n_interior == 4
    assert g.nx * g.ny - g.n_interior == 12
    assert _area(g) == pytest.approx(4 * 0.25 ** 2)


def test_rectangle_smallest_case():
    g = rasterize_rectangle(1, 1, 0.5)
    assert g.n_interior == 1
    i, j = g.interior_sites[0]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert not g.interior[i + di, j + dj]
    # four links, each with a grounded end
    assert g.stencil.n_links == 4 and np.all(g.stencil.ends.max(axis=1) == 1)


def test_rectangle_area_arithmetic():
    g = rasterize_rectangle(99, 49, 0.01)
    assert _area(g) == pytest.approx(99 * 49 * 1e-4)


def test_rectangle_bad_inputs():
    with pytest.raises(ValueError):
        rasterize_rectangle(0, 3, 0.1)
    with pytest.raises(ValueError):
        rasterize_rectangle(3, 3, 0.0)


@given(nx=hst.integers(1, 30), ny=hst.integers(1, 30))
@settings(max_examples=25, deadline=None)
def test_rectangle_frame_counts(nx, ny):
    g = rasterize_rectangle(nx, ny, 0.1)
    assert g.n_interior == nx * ny
    # one-site frame around the block, corners included
    assert (g.nx, g.ny) == (nx + 2, ny + 2)
    assert g.nx * g.ny - g.n_interior == 2 * (nx + ny) + 4


def test_stadium_area_converges():
    target = 1.0 + pi / 4.0
    g1 = rasterize_quarter_stadium(0.01)
    assert abs(_area(g1) - target) / target < 0.02
    g2 = rasterize_quarter_stadium(0.005)
    assert abs(_area(g2) - target) / target < 0.01


def test_stadium_grid_span():
    g = rasterize_quarter_stadium(0.01)
    assert 200 <= g.nx <= 204
    assert 100 <= g.ny <= 104


def test_stadium_too_coarse():
    with pytest.raises(ValueError):
        rasterize_quarter_stadium(0.5)


def test_stadium_deterministic():
    a = rasterize_quarter_stadium(0.02)
    b = rasterize_quarter_stadium(0.02)
    assert np.array_equal(a.interior, b.interior)


def test_stadium_refinement_monotone():
    coarse = rasterize_quarter_stadium(0.05)
    fine = rasterize_quarter_stadium(0.025)
    for i, j in coarse.interior_sites:
        assert fine.interior[2 * i, 2 * j]


def test_stadium_interior_avoids_rim():
    g = rasterize_quarter_stadium(0.02)
    assert not np.any(g.interior[0, :]) and not np.any(g.interior[-1, :])
    assert not np.any(g.interior[:, 0]) and not np.any(g.interior[:, -1])


def test_boundary_is_adjacent_exterior():
    # the grounded link ends, the network's boundary, are exactly the
    # non-interior sites next to an interior one, and every link has one
    # interior end at least
    g = rasterize_quarter_stadium(0.05)
    s = g.stencil
    lower = np.concatenate((np.argwhere(s.mask_x), np.argwhere(s.mask_y)))
    upper = lower + np.repeat([[1, 0], [0, 1]],
                              [np.count_nonzero(s.mask_x),
                               np.count_nonzero(s.mask_y)], axis=0)
    sites = np.stack((lower, upper), axis=1)          # (n_links, 2, 2)
    grounded = s.ends == s.n
    assert np.array_equal(grounded, ~g.interior[sites[..., 0], sites[..., 1]])
    assert not np.any(grounded.all(axis=1))
    boundary = np.zeros_like(g.interior)
    boundary[tuple(sites[grounded].T)] = True
    inner = g.interior
    near = np.zeros_like(inner)
    near[1:] |= inner[:-1]
    near[:-1] |= inner[1:]
    near[:, 1:] |= inner[:, :-1]
    near[:, :-1] |= inner[:, 1:]
    assert np.array_equal(boundary, near & ~inner)
    assert boundary.any()


def test_is_interior_arrays_match_scalars():
    g = rasterize_rectangle(4, 3, 0.1)   # interior i in 1..4, j in 1..3
    off = [(-1, 2), (2, -1), (-3, -3), (6, 2), (2, 5), (100, 100)]
    rim = [(0, 2), (5, 1), (2, 0), (2, 4)]
    inner = [(1, 1), (4, 3), (2, 2)]
    sites = off + rim + inner
    expected = [False] * (len(off) + len(rim)) + [True] * len(inner)
    scalar = [g.is_interior(i, j) for i, j in sites]
    assert scalar == expected and all(type(v) is bool for v in scalar)
    assert not g.is_interior(10 ** 30, 2) and not g.is_interior(2, -10 ** 30)
    i, j = np.array(sites).T
    got = g.is_interior(i, j)
    assert got.dtype == bool and got.tolist() == expected
    assert g.is_interior(i.reshape(13, 1), j.reshape(13, 1)).shape == (13, 1)
    # whole numbers held as floats read the same; NaN reads False
    assert g.is_interior(i.astype(float), j.astype(float)).tolist() == expected
    assert not g.is_interior(float("nan"), 2) and not g.is_interior(2, np.nan)


def test_contains_rounds_half_to_even():
    g = rasterize_rectangle(4, 3, 1.0)   # unit spacing: x / a0 is exact
    # 4.5 rounds to site 4 (interior), 0.5 to site 0 and 3.5 to site 4 (rim)
    points = [(4.5, 2.0), (1.5, 2.5), (0.5, 2.0), (2.0, 3.5), (5.5, 2.0),
              (-0.6, 1.0), (2.2, 0.4)]
    expected = [True, True, False, False, False, False, False]
    assert [g.contains(x, y) for x, y in points] == expected
    assert [g.is_interior(round(x), round(y)) for x, y in points] == expected
    x, y = np.array(points).T
    assert g.contains(x, y).tolist() == expected
    assert all(type(g.contains(x, y)) is bool for x, y in points)
    # the interior sites next to the rim are inside; one site off the
    # lattice on any side, far off it or at NaN the point is outside
    big, nan = 1e300, float("nan")
    points = [(1.0, 1.0), (4.0, 3.0), (1.49, 0.51), (3.51, 3.49), (0.6, 2.0),
              (-1.0, 2.0), (6.0, 2.0), (2.0, -1.0), (2.0, 5.0), (-0.51, 1.0),
              (2.0, 4.51), (-1.0, -1.0), (6.0, 5.0), (big, 1.0), (-big, 1.0),
              (1.0, big), (1.0, -big), (nan, 1.0), (1.0, nan), (nan, nan)]
    expected = [True] * 5 + [False] * 15
    assert [g.contains(x, y) for x, y in points] == expected
    assert all(type(g.contains(x, y)) is bool for x, y in points)
    x, y = np.array(points).T
    got = g.contains(x, y)
    assert got.dtype == bool and got.tolist() == expected
    assert g.contains(x.reshape(4, 5), y.reshape(4, 5)).shape == (4, 5)


def test_interior_on_the_lattice_rim_raises():
    # the rim is the one-site frame that grounds the network's edge: an
    # interior site there would have fewer than four links
    inner = rasterize_rectangle(4, 3, 0.1).interior
    for side in (np.s_[0, 2], np.s_[-1, 2], np.s_[2, 0], np.s_[2, -1]):
        rim = inner.copy()
        rim[side] = True
        with pytest.raises(ValueError, match="lattice rim"):
            GridGeometry(spacing=0.1, interior=rim)
    with pytest.raises(ValueError, match="lattice rim"):
        GridGeometry(spacing=1.0, interior=np.ones((1, 1), bool))
    g = GridGeometry(spacing=0.1, interior=inner)
    assert (g.nx, g.ny) == inner.shape == (6, 5)


def test_area_positive():
    g = rasterize_quarter_stadium(0.02)
    assert _area(g) > 0.0


def test_geometry_builds_its_stencil_once(stencil_builds):
    g = rasterize_rectangle(6, 5, 0.1)
    assert g.stencil is g.stencil
    assert stencil_builds == [g]
    assert g.stencil.n == g.n_interior
    with pytest.raises(ValueError):
        g.stencil.ends[0, 0] = 0   # every matrix on the stencil shares it
