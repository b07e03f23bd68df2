"""Rasterization and boundary-tagging tests."""

from math import pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from rlcnet.geometry import (BCKind, GridGeometry, rasterize_quarter_stadium,
                             rasterize_rectangle, tag_boundary,
                             _boundary_from_interior)


def test_rectangle_2x2_counts():
    g = rasterize_rectangle(2, 2, 0.25)
    assert g.n_interior == 4
    assert len(g.boundary_sites) == 12
    assert g.area == pytest.approx(4 * 0.25 ** 2)


def test_rectangle_smallest_case():
    g = rasterize_rectangle(1, 1, 0.5)
    assert g.n_interior == 1
    i, j = g.interior_sites[0]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert g.boundary[i + di, j + dj]


def test_rectangle_area_arithmetic():
    g = rasterize_rectangle(99, 49, 0.01)
    assert g.area == pytest.approx(99 * 49 * 1e-4)


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
    assert len(g.boundary_sites) == 2 * (nx + ny) + 4
    assert not np.any(g.interior & g.boundary)


def test_stadium_area_converges():
    target = 1.0 + pi / 4.0
    g1 = rasterize_quarter_stadium(0.01)
    assert abs(g1.area - target) / target < 0.02
    g2 = rasterize_quarter_stadium(0.005)
    assert abs(g2.area - target) / target < 0.01


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
    # the bounds check does not lean on an empty lattice rim
    full = GridGeometry(spacing=1.0, nx=2, ny=2,
                        interior=np.ones((2, 2), bool),
                        boundary=np.zeros((2, 2), bool), bc=BCKind())
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


def test_bc_kind_validation():
    BCKind("dirichlet")
    BCKind("neumann")
    BCKind("mixed", shunt_resistance=1.0, shunt_inductance=1e-4)
    with pytest.raises(ValueError):
        BCKind("periodic")
    with pytest.raises(ValueError):
        BCKind("mixed", shunt_resistance=1.0, shunt_inductance=0.0)
    with pytest.raises(ValueError):
        BCKind("mixed", shunt_resistance=-1.0, shunt_inductance=1e-4)


def test_tag_boundary_replaces_kind():
    g = rasterize_rectangle(3, 3, 0.1)
    tagged = tag_boundary(g, BCKind("neumann"))
    assert tagged.bc.kind == "neumann"
    assert g.bc.kind == "dirichlet"
    assert np.array_equal(tagged.interior, g.interior)


def test_geometry_csv_export(tmp_path):
    g = rasterize_rectangle(2, 2, 0.25)
    path = tmp_path / "geom.csv"
    g.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y,kind"
    assert len(lines) == 1 + 4 + 12


def test_perimeter_positive():
    g = rasterize_quarter_stadium(0.02)
    assert g.perimeter_length > 0.0
    assert g.area > 0.0
