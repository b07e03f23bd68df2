"""Rasterization, site lookup and stencil tests."""

from math import pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from rlcnet.geometry import (GridGeometry, rasterize_quarter_stadium,
                             rasterize_rectangle, _boundary_from_interior)


def _area(g):
    """Billiard area of the interior sites, one a0^2 cell each."""
    return g.n_interior * g.spacing ** 2


def test_rectangle_2x2_counts():
    g = rasterize_rectangle(2, 2, 0.25)
    assert g.n_interior == 4
    assert np.count_nonzero(g.boundary) == 12
    assert _area(g) == pytest.approx(4 * 0.25 ** 2)


def test_rectangle_smallest_case():
    g = rasterize_rectangle(1, 1, 0.5)
    assert g.n_interior == 1
    i, j = g.interior_sites[0]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert g.boundary[i + di, j + dj]


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
    assert np.count_nonzero(g.boundary) == 2 * (nx + ny) + 4
    assert not np.any(g.interior & g.boundary)


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
    assert np.array_equal(a.boundary, b.boundary)


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
    g = rasterize_quarter_stadium(0.05)
    assert np.array_equal(g.boundary, _boundary_from_interior(g.interior))


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
    # the bounds check does not lean on an empty lattice rim
    full = GridGeometry(spacing=1.0, nx=2, ny=2,
                        interior=np.ones((2, 2), bool),
                        boundary=np.zeros((2, 2), bool))
    assert full.is_interior(np.array([-1, 0, 2]), np.zeros(3, int)).tolist() \
        == [False, True, False]


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
    # every site interior, the rim included: one site off the lattice on
    # any side, far off it or at NaN the point is outside
    full = GridGeometry(spacing=1.0, nx=3, ny=2,
                        interior=np.ones((3, 2), bool),
                        boundary=np.zeros((3, 2), bool))
    big, nan = 1e300, float("nan")
    points = [(0.0, 0.0), (2.0, 1.0), (-0.5, 0.0), (2.5, 0.5), (1.0, -0.5),
              (-1.0, 0.0), (3.0, 1.0), (1.0, -1.0), (1.0, 2.0), (-0.51, 1.0),
              (2.0, 1.51), (-1.0, -1.0), (3.0, 2.0), (big, 1.0), (-big, 1.0),
              (1.0, big), (1.0, -big), (nan, 1.0), (1.0, nan), (nan, nan)]
    expected = [True] * 5 + [False] * 15
    assert [full.contains(x, y) for x, y in points] == expected
    assert all(type(full.contains(x, y)) is bool for x, y in points)
    x, y = np.array(points).T
    got = full.contains(x, y)
    assert got.dtype == bool and got.tolist() == expected
    assert full.contains(x.reshape(4, 5), y.reshape(4, 5)).shape == (4, 5)


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
