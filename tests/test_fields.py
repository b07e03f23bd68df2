"""Derived fields: density, currents, heat, vortices, streamlines."""

import numpy as np
import pytest

from rlcnet import fields
from rlcnet.experiments import centroid_site, place_source_at_maximum
from rlcnet.fields import (CurrentField, _tabulated_flow, active_link_flow,
                           heat_power, link_currents, nodal_vortices,
                           power_balance, probability_density,
                           trace_streamlines, FLOW_CUTOFF, OHMIC)
from rlcnet.geometry import rasterize_quarter_stadium, rasterize_rectangle
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
    cur = CurrentField(ix=ix, iy=iy, mask_x=np.ones_like(ix, bool),
                       mask_y=np.ones_like(ix, bool))
    heat = heat_power(cur, 2.0)
    assert heat.shape == (g.nx, g.ny)
    assert heat[1, 1] == pytest.approx(1.0)
    assert heat.sum() == pytest.approx(1.0)
    assert np.all(heat_power(cur, 0.0) == 0.0)
    with pytest.raises(ValueError):
        heat_power(cur, -1.0)


def test_power_balance_lossless():
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    source = ((3, 2), 1.0)
    field = driven_response(g, spec, 0.9e6, source)
    assert power_balance(field) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("tau", [0.0, 0.02])
@pytest.mark.parametrize("bc", ["dirichlet"])
@pytest.mark.parametrize("model", ["I", "II"])
def test_power_balance_lossy(model, bc, tau):
    g = rasterize_rectangle(12, 9, 0.05)
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
    assert paths.stop_reasons == ("cutoff",)


# Tracer cases: each returns (field, currents, seeds, step, max_steps).

def batch_case():
    # rows j >= 5 carry V = 0, so no flow reaches the seed at y = 8 a0;
    # the other seeds move right: one hits the wall, one runs to max_steps
    g = rasterize_rectangle(40, 10, 0.1)
    a0 = g.spacing
    i, j = np.meshgrid(np.arange(g.nx), np.arange(g.ny), indexing="ij")
    v = np.where(j <= 4, np.exp(2j * np.pi * i / 10), 0.0)
    field = make_field(g, v, spec=CircuitSpec("I", L, C, 1.0))
    seeds = [(38 * a0, 2 * a0), (5 * a0, 3 * a0), (20 * a0, 8 * a0)]
    return field, link_currents(field, variant=OHMIC), seeds, a0 / 4, 60


def wall_case():
    # on this drive RK4 stage points of the traces near the walls fall in
    # the grounded wall band, where the flow reads zero
    g = rasterize_rectangle(10, 8, 0.05)
    a0 = g.spacing
    field = driven_response(g, CircuitSpec("I", L, C, 0.3), 1.0e6,
                            ((5, 4), 1.0))
    ang = 2.0 * np.pi * np.arange(8) / 8
    seeds = np.stack((5 * a0 + 0.2 * np.cos(ang),
                      4 * a0 + 0.2 * np.sin(ang)), axis=1)
    seeds = seeds[g.contains(*seeds.T)]
    return field, link_currents(field), seeds, a0 / 4, 500


def stadium_case():
    # a driven stadium whose traces end at the wall, around vortex cores and
    # at max_steps
    g = rasterize_quarter_stadium(0.02)
    a0 = g.spacing
    source = centroid_site(g)
    field = driven_response(g, CircuitSpec("I", L, C, 1.0), 3.0e6,
                            (source, 1.0))
    ang = 2.0 * np.pi * np.arange(16) / 16
    seeds = np.stack((a0 * source[0] + 0.1 * np.cos(ang),
                      a0 * source[1] + 0.1 * np.sin(ang)), axis=1)
    seeds = seeds[g.contains(*seeds.T)]
    return field, link_currents(field), seeds, a0 / 4, 2000


def trap_then_stop_case():
    # the stadium at tau = 0.02: trace 16 is trapped on step 312, and trace
    # 26 leaves the billiard on the very next step
    g = rasterize_quarter_stadium(0.02)
    a0 = g.spacing
    field = place_source_at_maximum(g, CircuitSpec("I", L, C, 0.3), 861100.0,
                                    3, pert=sample_perturbation(g, 0.02, 0))
    (si, sj), _ = field.source
    ang = 2.0 * np.pi * np.arange(32) / 32
    seeds = np.stack((a0 * si + 0.05 * np.cos(ang),
                      a0 * sj + 0.05 * np.sin(ang)), axis=1)
    seeds = seeds[g.contains(*seeds.T)]
    return field, link_currents(field), seeds, a0 / 4, 500


def vortex_case():
    # V = (i - 10.3) + i (j - 10.6) has one vortex, at (1.03, 1.06); with
    # link reactance omega L equal to R the active flow spirals into it
    g = rasterize_rectangle(20, 20, 0.1)
    a0 = g.spacing
    i, j = np.meshgrid(np.arange(g.nx), np.arange(g.ny), indexing="ij")
    field = make_field(g, (i - 10.3) + 1j * (j - 10.6), omega=1.0 / L,
                       spec=CircuitSpec("I", L, C, 1.0))
    return field, link_currents(field), [(4 * a0, 4 * a0)], a0 / 4, 1000


def rim_setup(rng):
    """A random field on the 4x4 rectangle at spacing 1, whose interior
    fills its 6x6 lattice up to the rim, and its ohmic currents."""
    g = rasterize_rectangle(4, 4, 1.0)
    v = np.where(g.interior, rng.normal(size=(g.nx, g.ny))
                 + 1j * rng.normal(size=(g.nx, g.ny)), 0.0)
    field = make_field(g, v, spec=CircuitSpec("I", L, C, 1.0))
    return g, field, link_currents(field, variant=OHMIC)


def rim_case():
    # seeds over the whole billiard: stage points fall on the lattice rim,
    # where the grounded links carry the flow
    rng = np.random.default_rng(4)
    g, field, cur = rim_setup(rng)
    seeds = rng.uniform(0.51, g.nx - 1.51, size=(40, 2))
    return field, cur, seeds, 0.5, 30


def test_streamlines_batch_matches_single_seeds():
    field, cur, seeds, step, max_steps = batch_case()
    paths = trace_streamlines(field, cur, seeds, step=step,
                              max_steps=max_steps)
    n = [len(p) for p in paths]
    assert 1 < n[0] < 61 and n[1] == 61 and n[2] == 1
    assert paths.stop_reasons == ("boundary", "max_steps", "cutoff")
    for seed, path in zip(seeds, paths):
        alone, = trace_streamlines(field, cur, [seed], step=step,
                                   max_steps=max_steps)
        assert path.shape == alone.shape == (len(path), 2)
        assert np.array_equal(path, alone)


def test_streamline_reaching_the_wall_stops_at_boundary():
    # a trace whose stage point reads zero flow in the wall band ends at
    # the boundary, not at a cutoff
    field, cur, seeds, step, max_steps = wall_case()
    g = field.geometry
    paths = trace_streamlines(field, cur, seeds, step=step,
                              max_steps=max_steps)
    assert len(paths) == 7
    assert paths.stop_reasons == ("boundary",) * 7
    # every trace ends within one step of the outside of the billiard
    ring = step * np.exp(2j * np.pi * np.arange(64) / 64)
    for path in paths:
        near = path[-1, 0] + 1j * path[-1, 1] + ring
        assert not g.contains(near.real, near.imag).all()


def test_trap_stop_only_truncates_traces(monkeypatch):
    # without the trap stop every trace runs on unchanged
    field, cur, seeds, step, max_steps = stadium_case()
    paths = trace_streamlines(field, cur, seeds, step=step,
                              max_steps=max_steps)
    monkeypatch.setattr(fields, "TRAP_STEPS", max_steps + 1)
    free = trace_streamlines(field, cur, seeds, step=step,
                             max_steps=max_steps)
    counts = paths.stop_counts()
    assert counts["trapped"] and counts["boundary"] and counts["max_steps"]
    assert sum(counts.values()) == len(paths) == len(seeds)
    assert "trapped" not in free.stop_reasons
    for path, whole, why, why_free in zip(paths, free, paths.stop_reasons,
                                          free.stop_reasons):
        if why == "trapped":
            assert len(path) < len(whole)
            assert np.array_equal(path, whole[:len(path)])
        else:
            assert why == why_free
            assert np.array_equal(path, whole)


def test_streamline_trapped_by_vortex_core(monkeypatch):
    field, cur, seed, step, max_steps = vortex_case()
    a0 = field.geometry.spacing
    core = np.array([1.03, 1.06])
    path, = paths = trace_streamlines(field, cur, seed, step=step,
                                      max_steps=max_steps)
    assert paths.stop_reasons == ("trapped",)
    # about 9 a0 to the core at a0/4 per step, then TRAP_STEPS in orbit
    assert len(path) < 40 + 2 * fields.TRAP_STEPS
    assert np.hypot(*(path[-1] - core)) < a0
    monkeypatch.setattr(fields, "TRAP_STEPS", max_steps + 1)
    orbit, = paths = trace_streamlines(field, cur, seed, step=step,
                                       max_steps=max_steps)
    assert paths.stop_reasons == ("max_steps",) and len(orbit) == 1001
    assert np.array_equal(path, orbit[:len(path)])
    assert np.hypot(*(orbit[len(path):] - core).T).max() < a0


def sampled_flow(fx, fy, x, y, a0):
    """gx + i gy by direct clamped bilinear sampling of the staggered flow."""
    from scipy.ndimage import map_coordinates
    u, w = x / a0, y / a0
    return (map_coordinates(fx, (u - 0.5, w), order=1, mode="nearest")
            + 1j * map_coordinates(fy, (u, w - 0.5), order=1, mode="nearest"))


def test_tabulated_flow_matches_direct_sampling():
    # random flows, and the active flow of a random field on a rectangle,
    # which its grounded links carry onto the lattice rim.  Where a0 is a
    # power of 2 every half-cell knot below is exact and the table holds
    # the samples there bit for bit; at a0 = 0.1, as at the spacings of
    # real runs, x / a0 rounds, and the knots agree up to roundoff
    rng = np.random.default_rng(3)
    flows = [((rng.normal(size=(7, 5)), rng.normal(size=(7, 5))), 0.1)]
    _, rim_field, rim_cur = rim_setup(rng)
    flows += [((rng.normal(size=(7, 5)), rng.normal(size=(7, 5))), 0.25),
              (active_link_flow(rim_field, rim_cur), 1.0)]
    for (fx, fy), a0 in flows:
        nx, ny = fx.shape
        fmax = max(np.abs(fx).max(), np.abs(fy).max())
        flow = _tabulated_flow(fx, fy, a0)
        # every half-cell knot of the domain, which reaches one site past
        # the lattice on every side where the clamp acts
        u, w = np.meshgrid(np.arange(-2, 2 * nx + 1) / 2,
                           np.arange(-2, 2 * ny + 1) / 2, indexing="ij")
        x, y = a0 * u.ravel(), a0 * w.ravel()
        got = flow(x + 1j * y)
        want = sampled_flow(fx, fy, x, y, a0)
        if np.log2(a0).is_integer():
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-12 * fmax
        # random points over the whole domain, up to roundoff
        x = a0 * rng.uniform(-1.0, nx, 2000)
        y = a0 * rng.uniform(-1.0, ny, 2000)
        got = flow(x + 1j * y)
        want = sampled_flow(fx, fy, x, y, a0)
        assert np.abs(got - want).max() <= 1e-12 * fmax


def test_streamlines_first_step_at_lattice_rim():
    # seeds over the whole billiard: stage points fall on the lattice rim
    rng = np.random.default_rng(4)
    g, field, cur = rim_setup(rng)
    n, a0 = g.nx, g.spacing
    fx, fy = active_link_flow(field, cur)
    lo, hi = 0.51 * a0, (n - 1.51) * a0
    z = np.concatenate((rng.uniform(lo, hi, 300)
                        + 1j * rng.uniform(lo, hi, 300),
                        [complex(lo, lo), complex(lo, hi), complex(hi, lo),
                         complex(hi, hi)]))
    step = a0 / 2
    cutoff = FLOW_CUTOFF * max(np.abs(fx).max(), np.abs(fy).max())

    def direction(z):
        # the flow fades across the rim band, so some stages stop
        f = sampled_flow(fx, fy, z.real, z.imag, a0)
        return f / np.maximum(np.abs(f), cutoff), np.abs(f) > cutoff

    d1, a1 = direction(z)
    z2 = z + 0.5 * step * d1
    d2, a2 = direction(z2)
    z3 = z + 0.5 * step * d2
    d3, a3 = direction(z3)
    z4 = z + step * d3
    d4, a4 = direction(z4)
    want = z + step * ((d1 + 2 * d2 + 2 * d3 + d4) / 6.0)
    moved = a1 & a2 & a3 & a4 & g.contains(want.real, want.imag)
    paths = trace_streamlines(field, cur, np.stack((z.real, z.imag), axis=1),
                              step=step, max_steps=1)
    assert [len(p) for p in paths] == [1 + m for m in moved]
    got = np.array([p[-1, 0] + 1j * p[-1, 1] for p in paths])
    assert np.abs(got - want)[moved].max() <= 1e-12 * a0
    # the check reached the rim: seeds whose stage points there read flow,
    # whose step the flow carried out of the billiard
    stages = np.stack((z2, z3, z4))
    rim = ~g.contains(stages.real, stages.imag).all(axis=0) \
        & a1 & a2 & a3 & a4
    assert np.count_nonzero(rim) >= 20
    assert {paths.stop_reasons[k] for k in np.flatnonzero(rim)} \
        == {"boundary"}


def test_tracer_samples_the_flow_once_per_trace(monkeypatch):
    builds = []
    tabulate = fields._tabulated_flow

    def counted(*args):
        builds.append(1)
        return tabulate(*args)

    monkeypatch.setattr(fields, "_tabulated_flow", counted)
    g, field, cur = plane_wave_setup()
    seed = [(5 * g.spacing, 5 * g.spacing)]
    counts = []
    for max_steps in (10, 200):
        builds.clear()
        path, = trace_streamlines(field, cur, seed, step=g.spacing / 4,
                                  max_steps=max_steps)
        counts.append(len(builds))
    assert len(path) > 100        # the long trace did take its steps
    assert counts == [1, 1]


def reference_flow(fx, fy, a0):
    """The flow table sampled by map_coordinates, one row of the four
    coefficients per cell."""
    from scipy.ndimage import map_coordinates

    nx, ny = fx.shape
    u, w = np.meshgrid(np.arange(2 * nx + 4) / 2 - 1.0,
                       np.arange(2 * ny + 4) / 2 - 1.0, indexing="ij")
    g = (map_coordinates(fx, (u - 0.5, w), order=1, mode="nearest")
         + 1j * map_coordinates(fy, (u, w - 0.5), order=1, mode="nearest"))
    c0 = g[:-1, :-1]
    cw = g[:-1, 1:] - c0
    cu = g[1:, :-1] - c0
    cuw = g[1:, 1:] - g[1:, :-1] - cw
    table = np.stack((c0, cu, cw, cuw), axis=-1).reshape(-1, 4)
    n_w = c0.shape[1]

    def flow(z):
        frac, whole = np.modf((z * (2.0 / a0) + (2.0 + 2.0j)).view(float))
        k = whole.astype(np.intp)
        c = table.take(k[0::2] * n_w + k[1::2], axis=0)
        tu, tw = frac[0::2], frac[1::2]
        return c[:, 0] + tu * c[:, 1] + tw * (c[:, 2] + tu * c[:, 3])

    return flow


def reference_contains(geom, x, y):
    """The nearest-site interior test, by rounding to integer indices."""
    a0 = geom.spacing
    return geom.is_interior(np.rint(x / a0).astype(int),
                            np.rint(y / a0).astype(int))


def reference_direction(field, currents):
    """The reference tracer's stage function: the unit flow direction and
    whether |flow| clears the cutoff, the raw flow where it does not."""
    fx, fy = active_link_flow(field, currents)
    cutoff = FLOW_CUTOFF * max(np.abs(fx).max(), np.abs(fy).max())
    flow = reference_flow(fx, fy, field.geometry.spacing)

    def direction(z):
        g = flow(z)
        mag = np.abs(g)
        alive = mag > cutoff
        return np.divide(g, mag, out=g, where=alive), alive

    return direction


def reference_trace(field, currents, seeds, step, max_steps):
    """Oracle for trace_streamlines: every trace steps over full-width
    arrays, stopped or not, and a stopped trace keeps its position, so its
    polyline is a prefix of the stacked positions.  Returns the polylines
    and their stop reasons."""
    geom = field.geometry
    direction = reference_direction(field, currents)
    x = np.array([s[0] for s in seeds], dtype=float)
    y = np.array([s[1] for s in seeds], dtype=float)
    z = x + 1j * y
    zs = [z]
    n_points = np.ones(z.shape, dtype=int)
    active = np.ones(z.shape, dtype=bool)
    why = np.full(z.shape, "max_steps", dtype=object)
    anchor = z
    still = np.zeros(z.shape, dtype=int)
    for _ in range(max_steps):
        if not np.any(active):
            break
        d1, a1 = direction(z)
        z2 = z + 0.5 * step * d1
        d2, a2 = direction(z2)
        z3 = z + 0.5 * step * d2
        d3, a3 = direction(z3)
        z4 = z + step * d3
        d4, a4 = direction(z4)
        flowing = a1 & a2 & a3 & a4
        dz = (d1 + 2 * d2 + 2 * d3 + d4) / 6.0
        zn = np.where(active & flowing, z + step * dz, z)
        inside = reference_contains(geom, zn.real, zn.imag)
        stalled = np.flatnonzero(active & ~flowing)
        if stalled.size:
            stages = np.stack((z, z2, z3, z4))[:, stalled]
            walled = ~reference_contains(geom, stages.real,
                                         stages.imag).all(axis=0)
            why[stalled] = np.where(walled, "boundary", "cutoff")
        why[active & ~inside] = "boundary"
        active &= flowing & inside
        z = np.where(active, zn, z)
        n_points += active
        zs.append(z)
        moved = np.abs(z - anchor) > step
        anchor = np.where(moved, z, anchor)
        still = np.where(moved, 0, still + 1)
        trapped = active & (still >= fields.TRAP_STEPS)
        why[trapped] = "trapped"
        active &= ~trapped
    points = np.stack(zs).view(float).reshape(len(zs), -1, 2)
    return [points[:n, k] for k, n in enumerate(n_points)], tuple(why)


def stalls_on_last_step(field, currents, path, step):
    """True when an RK4 stage from the polyline's last point reads |flow|
    below the cutoff."""
    direction = reference_direction(field, currents)
    z = np.array([path[-1, 0] + 1j * path[-1, 1]])
    d, alive = direction(z)
    for frac in (0.5, 0.5, 1.0):
        d, a = direction(z + frac * step * d)
        alive &= a
    return not alive[0]


# each case and the stop reasons its traces reach; together, every reason
ORACLE_CASES = {
    "wall": (wall_case, {"boundary"}),
    "batch": (batch_case, {"boundary", "max_steps", "cutoff"}),
    "vortex": (vortex_case, {"trapped"}),
    "stadium": (stadium_case, {"boundary", "trapped", "max_steps"}),
    "trap_then_stop": (trap_then_stop_case,
                       {"boundary", "trapped", "max_steps"}),
    "rim": (rim_case, {"boundary"}),
}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_tracer_matches_reference(name):
    case, reasons = ORACLE_CASES[name]
    assert set().union(*(r for _, r in ORACLE_CASES.values())) \
        == set(fields.STOP_REASONS)
    field, cur, seeds, step, max_steps = case()
    want, want_why = reference_trace(field, cur, seeds, step, max_steps)
    assert set(want_why) == reasons
    got = trace_streamlines(field, cur, seeds, step=step, max_steps=max_steps)
    assert got.stop_reasons == want_why
    assert len(got) == len(want) == len(seeds)
    for path, ref in zip(got, want):
        assert path.shape == ref.shape and np.array_equal(path, ref)
    if name == "wall":
        # some trace stops at the boundary through a walled stage point
        assert any(why == "boundary"
                   and stalls_on_last_step(field, cur, path, step)
                   for path, why in zip(got, got.stop_reasons))


def test_streamline_preconditions():
    g, field, cur = plane_wave_setup()
    with pytest.raises(ValueError):
        trace_streamlines(field, cur, [(0.5, 0.5)], step=g.spacing,
                          max_steps=10)
    # a step of 0 would never move, and a negative one traces backwards
    for step in (0.0, -g.spacing / 4):
        with pytest.raises(ValueError):
            trace_streamlines(field, cur, [(0.5, 0.5)], step=step,
                              max_steps=10)
    with pytest.raises(ValueError):
        trace_streamlines(field, cur, [(-1.0, -1.0)], step=g.spacing / 4,
                          max_steps=10)
    # no seeds, no traces
    none = trace_streamlines(field, cur, [], step=g.spacing / 4,
                             max_steps=100)
    assert none == [] and none.stop_reasons == ()
