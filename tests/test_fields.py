"""Derived fields: density, currents, heat, vortices, streamlines."""

import numpy as np
import pytest

from rlcnet.fields import (CurrentField, active_link_flow, heat_power,
                           link_currents, nodal_vortices, power_balance,
                           probability_density, trace_streamlines,
                           OHMIC)
from rlcnet.geometry import BCKind, rasterize_rectangle, tag_boundary
from rlcnet.network import CircuitSpec, sample_perturbation
from rlcnet.solve import ComplexField, driven_response

L, C = 1e-4, 1e-9


def make_field(geometry, values, omega=1e6, spec=None, source=None):
    return ComplexField(geometry=geometry, values=values, omega=omega,
                        spec=spec or CircuitSpec("I", L, C, 0.5),
                        source=source)


def test_density_constant_field():
    g = rasterize_rectangle(4, 4, 0.1)
    v = np.zeros((g.nx, g.ny), dtype=complex)
    v[g.interior] = 2.0 + 1.0j
    rho = probability_density(make_field(g, v))
    assert np.allclose(rho[g.interior], 1.0)
    assert np.all(rho[~g.interior] == 0.0)


def test_density_scale_invariance():
    g = rasterize_rectangle(5, 3, 0.1)
    rng = np.random.default_rng(0)
    v = np.zeros((g.nx, g.ny), dtype=complex)
    v[g.interior] = rng.normal(size=g.n_interior) + 1j * rng.normal(size=g.n_interior)
    rho1 = probability_density(make_field(g, v))
    rho2 = probability_density(make_field(g, v * (0.3 - 2.7j)))
    assert np.allclose(rho1, rho2)


def test_density_zero_field_rejected():
    g = rasterize_rectangle(3, 3, 0.1)
    with pytest.raises(ValueError):
        probability_density(make_field(g, np.zeros((g.nx, g.ny), complex)))


def test_currents_uniform_field_zero():
    g = rasterize_rectangle(4, 4, 0.1)
    v = np.full((g.nx, g.ny), 1.0 + 0.5j)   # uniform over every member site
    cur = link_currents(make_field(g, v))
    assert np.all(cur.ix == 0.0) and np.all(cur.iy == 0.0)


def test_currents_two_site_example():
    # V = (0, 1) across one link, z = 0.5 + 86.11j ohm
    g = rasterize_rectangle(2, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    omega = 0.8611e6
    v = np.zeros((g.nx, g.ny), dtype=complex)
    v[2, 1] = 1.0
    cur = link_currents(make_field(g, v, omega=omega, spec=spec))
    z = complex(0.5, omega * L)
    assert cur.ix[1, 1] == pytest.approx(1.0 / z)


def test_currents_ohmic_variant():
    g = rasterize_rectangle(2, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    v = np.zeros((g.nx, g.ny), dtype=complex)
    v[2, 1] = 1.0
    cur = link_currents(make_field(g, v, spec=spec), variant=OHMIC)
    assert cur.ix[1, 1] == pytest.approx(2.0)   # dV / R
    with pytest.raises(ValueError):
        link_currents(make_field(g, v, spec=CircuitSpec("I", L, C, 0.0)),
                      variant=OHMIC)
    with pytest.raises(ValueError):
        link_currents(make_field(g, v), variant="exotic")


def test_heat_power_arithmetic():
    g = rasterize_rectangle(1, 1, 0.1)
    ix = np.zeros((g.nx, g.ny), complex)
    iy = np.zeros_like(ix)
    ix[1, 1] = 1.0
    cur = CurrentField(geometry=g, ix=ix, iy=iy,
                       mask_x=np.ones_like(ix, bool),
                       mask_y=np.ones_like(ix, bool))
    heat = heat_power(cur, 2.0)
    assert heat.power[1, 1] == pytest.approx(1.0)
    assert heat.total == pytest.approx(1.0)
    assert np.all(heat_power(cur, 0.0).power == 0.0)
    with pytest.raises(ValueError):
        heat_power(cur, -1.0)


def test_power_balance_lossless():
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    source = ((3, 2), 1.0)
    field = driven_response(g, spec, 0.9e6, source)
    assert power_balance(field) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.02])
@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "mixed"])
@pytest.mark.parametrize("model", ["I", "II"])
def test_power_balance_lossy(model, bc, tau):
    g = tag_boundary(rasterize_rectangle(12, 9, 0.05), BCKind(bc, 0.5, 1e-4))
    spec = CircuitSpec(model, L, C, 0.4)
    source = ((5, 4), 1.0)
    pert = sample_perturbation(g, tau, 21)
    field = driven_response(g, spec, 1.1e6, source, pert=pert)
    assert power_balance(field) < 1e-8


def test_power_balance_detects_broken_field():
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("I", L, C, 0.4)
    source = ((5, 4), 1.0)
    field = driven_response(g, spec, 1.1e6, source)
    broken = field.values.copy()
    sites = np.argwhere(g.interior)
    i, j = sites[len(sites) // 3]
    broken[i, j] = 0.0
    bad = ComplexField(geometry=g, values=broken, omega=field.omega,
                       spec=spec, source=source)
    assert power_balance(bad) > 1e-8


def test_vortices_real_field_none():
    g = rasterize_rectangle(8, 8, 0.1)
    rng = np.random.default_rng(1)
    v = np.zeros((g.nx, g.ny), dtype=complex)
    v[g.interior] = rng.normal(size=g.n_interior)
    assert nodal_vortices(make_field(g, v)) == []


def test_vortex_synthetic_position_and_winding():
    g = rasterize_rectangle(10, 10, 0.1)
    a0 = g.spacing
    x0, y0 = 0.57, 0.43
    i = np.arange(g.nx)[:, None] * a0
    j = np.arange(g.ny)[None, :] * a0
    v = (i - x0) + 1j * (j - y0)
    vort = nodal_vortices(make_field(g, v + 0j))
    assert len(vort) == 1
    assert vort[0].winding == 1
    assert abs(vort[0].x - x0) < a0 and abs(vort[0].y - y0) < a0


def test_vortex_conjugate_flips_winding():
    g = rasterize_rectangle(10, 10, 0.1)
    a0 = g.spacing
    i = np.arange(g.nx)[:, None] * a0
    j = np.arange(g.ny)[None, :] * a0
    v = (i - 0.57) + 1j * (j - 0.43)
    vort = nodal_vortices(make_field(g, np.conj(v) + 0j))
    assert len(vort) == 1 and vort[0].winding == -1


def plane_wave_setup(nx=40, ny=10):
    """Rightward-travelling plane wave: uniform +x active flow."""
    g = rasterize_rectangle(nx, ny, 0.1)
    k = 2.0 * np.pi / (10 * g.spacing)
    i = np.arange(g.nx)[:, None]
    v = np.broadcast_to(np.exp(1j * k * i * g.spacing), (g.nx, g.ny)).copy()
    spec = CircuitSpec("I", L, C, 1.0)
    field = make_field(g, v, spec=spec)
    cur = link_currents(field, variant=OHMIC)
    return g, field, cur


def test_active_flow_plane_wave_is_rightward():
    g, field, cur = plane_wave_setup()
    fx, fy = active_link_flow(field, cur)
    assert np.all(fx[cur.mask_x] > 0.0)
    assert np.allclose(fy[cur.mask_y], 0.0, atol=1e-15)


def test_streamlines_plane_wave_horizontal():
    g, field, cur = plane_wave_setup()
    a0 = g.spacing
    seeds = [(5 * a0, 5 * a0), (5 * a0, 6 * a0)]
    paths = trace_streamlines(field, cur, seeds, step=a0 / 4, max_steps=500)
    for path in paths:
        xs = [p[0] for p in path]
        ys = [p[1] for p in path]
        assert len(path) > 10
        assert xs[-1] > xs[0] + 10 * a0
        assert max(ys) - min(ys) < 1e-9


def test_streamlines_zero_flow_single_point():
    g = rasterize_rectangle(8, 8, 0.1)
    v = np.full((g.nx, g.ny), 1.0 + 0.0j)   # uniform: zero currents, no flow
    spec = CircuitSpec("I", L, C, 1.0)
    field = make_field(g, v, spec=spec)
    cur = link_currents(field, variant=OHMIC)
    paths = trace_streamlines(field, cur, [(0.4, 0.4)], step=0.05,
                              max_steps=100)
    assert len(paths) == 1 and len(paths[0]) == 1


def test_streamlines_batch_matches_single_seeds():
    # rows j >= 5 carry V = 0, so no flow reaches the seed at y = 8 a0;
    # the other seeds move right: one hits the wall, one runs to max_steps
    g = rasterize_rectangle(40, 10, 0.1)
    a0 = g.spacing
    i, j = np.meshgrid(np.arange(g.nx), np.arange(g.ny), indexing="ij")
    v = np.where(j <= 4, np.exp(2j * np.pi * i / 10), 0.0)
    field = make_field(g, v, spec=CircuitSpec("I", L, C, 1.0))
    cur = link_currents(field, variant=OHMIC)
    seeds = [(38 * a0, 2 * a0), (5 * a0, 3 * a0), (20 * a0, 8 * a0)]
    paths = trace_streamlines(field, cur, seeds, step=a0 / 4, max_steps=60)
    n = [len(p) for p in paths]
    assert 1 < n[0] < 61 and n[1] == 61 and n[2] == 1
    for seed, path in zip(seeds, paths):
        alone, = trace_streamlines(field, cur, [seed], step=a0 / 4,
                                   max_steps=60)
        assert path.shape == alone.shape == (len(path), 2)
        assert np.array_equal(path, alone)


def test_streamline_preconditions():
    g, field, cur = plane_wave_setup()
    with pytest.raises(ValueError):
        trace_streamlines(field, cur, [(0.5, 0.5)], step=g.spacing,
                          max_steps=10)
    with pytest.raises(ValueError):
        trace_streamlines(field, cur, [(-1.0, -1.0)], step=g.spacing / 4,
                          max_steps=10)
