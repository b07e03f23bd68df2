"""Spectra, dispersion maps and driven solves."""

from math import cos, pi, sqrt

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from rlcnet.geometry import (BCKind, rasterize_quarter_stadium,
                             rasterize_rectangle, tag_boundary)
from rlcnet.network import (CircuitSpec, assemble_admittance, link_impedance,
                            ground_impedance, sample_perturbation)
from rlcnet.solve import (RESIDUAL_TOL, SingularSystemError, damping_length,
                          dispersion, dirichlet_laplacian, driven_response,
                          driven_solver, eigenmode_nearest, eigenmodes_lossless,
                          quality_factor, resonance_sweep, wavelength)

L, C = 1e-4, 1e-9


def closed_form_lams(nx, ny):
    return sorted(4.0 - 2.0 * cos(p * pi / (nx + 1)) - 2.0 * cos(q * pi / (ny + 1))
                  for p in range(1, nx + 1) for q in range(1, ny + 1))


def test_dispersion_model_i_lossless_real():
    spec = CircuitSpec("I", L, C, 0.0)
    d = dispersion(spec, 1.5e6)
    assert d.imag == 0.0
    assert d.real == pytest.approx((1.5e6 / spec.omega0) ** 2)


def test_dispersion_model_i_lossy():
    spec = CircuitSpec("I", L, C, 0.5)
    d = dispersion(spec, 1e6)
    g = 0.5 / L
    assert d == pytest.approx((1e6 ** 2 - 1j * g * 1e6) / spec.omega0 ** 2)


def test_dispersion_model_ii_at_omega0():
    spec = CircuitSpec("II", L, C, 0.0)
    assert dispersion(spec, spec.omega0) == pytest.approx(1.0 + 0.0j)


def test_wavelength_values():
    spec = CircuitSpec("I", L, C, 0.0)
    assert wavelength(spec, 0.01, 1.722e6) == pytest.approx(0.115, rel=5e-3)
    assert wavelength(spec, 0.005, 0.8611e6) == pytest.approx(0.1154, rel=5e-3)
    assert wavelength(spec, 0.005, 1.1623e6) == pytest.approx(0.0854, rel=5e-3)


def test_damping_length():
    spec = CircuitSpec("I", L, C, 1.0)
    assert damping_length(spec, 0.005) == pytest.approx(19.87, rel=1e-3)
    half = CircuitSpec("I", L, C, 2.0)
    assert damping_length(half, 0.005) == pytest.approx(
        damping_length(spec, 0.005) / 2.0)
    with pytest.raises(ValueError):
        damping_length(CircuitSpec("I", L, C, 0.0), 0.005)


def test_quality_factor():
    assert quality_factor(CircuitSpec("I", L, C, 0.1)) == pytest.approx(3162, rel=1e-3)
    with pytest.raises(ValueError):
        quality_factor(CircuitSpec("I", L, C, 0.0))


def test_rectangle_2x2_eigenvalues():
    g = rasterize_rectangle(2, 2, 0.25)
    spec = CircuitSpec("I", L, C, 0.0)
    modes = eigenmodes_lossless(g, spec, 4)
    lams = [m.lam_grid for m in modes]
    assert lams == pytest.approx([2.0, 4.0, 4.0, 6.0], abs=1e-10)
    assert modes[0].omega == pytest.approx(sqrt(2.0) * spec.omega0)


def test_rectangle_spectrum_matches_closed_form():
    g = rasterize_rectangle(8, 5, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    modes = eigenmodes_lossless(g, spec, 40)
    expected = closed_form_lams(8, 5)
    for m, lam in zip(modes, expected):
        assert abs(m.lam_grid - lam) < 1e-10
        assert np.linalg.norm(m.vector) == pytest.approx(1.0, abs=1e-12)


def test_duality_model_ii():
    g = rasterize_rectangle(6, 3, 0.1)
    spec1 = CircuitSpec("I", L, C, 0.0)
    spec2 = CircuitSpec("II", L, C, 0.0)
    m1 = eigenmodes_lossless(g, spec1, 18)
    m2 = eigenmodes_lossless(g, spec2, 18)
    for a, b in zip(m1, m2):
        assert a.lam_grid == pytest.approx(b.lam_grid, abs=1e-10)
        assert a.omega * b.omega == pytest.approx(spec1.omega0 ** 2, rel=1e-10)


def test_eigenmodes_bad_count():
    g = rasterize_rectangle(3, 3, 0.1)
    with pytest.raises(ValueError):
        eigenmodes_lossless(g, CircuitSpec(), 0)
    with pytest.raises(ValueError):
        eigenmodes_lossless(g, CircuitSpec(), 10)


def test_eigenmode_nearest_matches_dense():
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    modes = eigenmodes_lossless(g, spec, 5)
    target = modes[2].omega * 1.001
    near = eigenmode_nearest(g, spec, target)
    assert near.omega == pytest.approx(modes[2].omega, rel=1e-8)
    assert near.lam_grid == pytest.approx(modes[2].lam_grid, rel=1e-8)


def test_eigenmode_nearest_perturbed_shifts():
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    base = eigenmode_nearest(g, spec, 1.0e6)
    pert = sample_perturbation(g, 0.02, 21)
    shifted = eigenmode_nearest(g, spec, 1.0e6, pert=pert)
    assert shifted.omega != base.omega
    assert abs(shifted.omega - base.omega) / base.omega < 0.05


@pytest.mark.parametrize("tau", [0.0, 0.02])
@pytest.mark.parametrize("model", ["I", "II"])
def test_eigenmode_is_null_vector_of_admittance(model, tau):
    # the eigen pencil and the driven assembly describe one network
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec(model, L, C, 0.0)
    pert = sample_perturbation(g, tau, 21)
    mode = eigenmode_nearest(g, spec, spec.omega0, pert=pert)
    a = assemble_admittance(g, spec, mode.omega, pert=pert).matrix
    residual = np.linalg.norm(a @ mode.vector) \
        / (spla.norm(a, 1) * np.linalg.norm(mode.vector))
    assert residual < 1e-12


def test_laplacian_row_sums():
    g = rasterize_rectangle(5, 5, 0.1)
    lap = dirichlet_laplacian(g).toarray()
    assert np.array_equal(lap, lap.T)
    assert np.all(np.diag(lap) == 4.0)


def test_driven_single_site():
    g = rasterize_rectangle(1, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    omega = 1e6
    field = driven_response(g, spec, omega, ((1, 1), 1.0))
    z_link = link_impedance(spec, omega)
    z_c = ground_impedance(spec, omega)
    expected = 1.0 / (4.0 / z_link + 1.0 / z_c)
    assert field.values[1, 1] == pytest.approx(expected)


def test_driven_satisfies_kirchhoff_rows():
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("I", L, C, 0.3)
    omega = 1.1e6
    field = driven_response(g, spec, omega, ((4, 5), 1.0))
    sys = assemble_admittance(g, spec, omega)
    x = field.values[tuple(sys.unknown_sites.T)]
    rhs = np.zeros(len(x), dtype=complex)
    rhs[sys.index[4, 5]] = -1.0
    res = np.linalg.norm(sys.matrix @ x - rhs) / np.linalg.norm(rhs)
    assert res < 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.02])
def test_one_solver_drives_every_source(tau):
    # one factorization, several sources: bitwise the one-source solves
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("I", L, C, 0.3)
    pert = sample_perturbation(g, tau, 3) if tau else None
    solve = driven_solver(g, spec, 1.1e6, pert)
    for source in (((4, 5), 1.0), ((9, 2), 0.5 - 2.0j)):
        field = solve(source)
        alone = driven_response(g, spec, 1.1e6, source, pert=pert)
        assert np.array_equal(field.values, alone.values)
        assert field.source == source and field.perturbation is pert


def test_driven_lossless_on_resonance_rejected():
    g = rasterize_rectangle(1, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    omega = 2.0 * spec.omega0   # lam_grid = 4 resonance of the single site
    with pytest.raises(SingularSystemError):
        driven_response(g, spec, omega, ((1, 1), 1.0))


@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("geometry", ["rectangle", "stadium"])
def test_hermitian_floor_below_smallest_singular_value(geometry, model):
    g = rasterize_rectangle(9, 6, 0.1) if geometry == "rectangle" \
        else rasterize_quarter_stadium(0.1)
    # the bound is tightest on the lowest resonance of each realization:
    # sigma_min there is about v^T (-Re A) v for the mode v
    lossless = CircuitSpec(model, L, C, 0.0)
    lowest = eigenmodes_lossless(g, lossless, 1)[0].omega
    for tau in (0.0, 0.05):
        pert = sample_perturbation(g, tau, 5)
        resonance = eigenmode_nearest(g, lossless, lowest, pert=pert).omega
        for r in (1e-3, 0.1, 1.0):
            spec = CircuitSpec(model, L, C, r)
            for omega in (resonance, spec.omega0, 1.7 * spec.omega0):
                system = assemble_admittance(g, spec, omega, pert=pert)
                sv = np.linalg.svd(system.matrix.toarray(), compute_uv=False)
                # a dense SVD is accurate to a few eps * sigma_max
                assert 0.0 < system.hermitian_floor \
                    <= sv[-1] + 64 * np.finfo(float).eps * sv[0]


def test_hermitian_floor_needs_dirichlet_loss():
    g = rasterize_rectangle(5, 4, 0.1)
    assert assemble_admittance(g, CircuitSpec("I", L, C, 0.0),
                               1e6).hermitian_floor == 0.0
    neumann = tag_boundary(g, BCKind("neumann"))
    assert assemble_admittance(neumann, CircuitSpec("I", L, C, 0.3),
                               1e6).hermitian_floor == 0.0


def _count_onenormest(monkeypatch):
    calls = []
    estimate = spla.onenormest

    def counted(*args, **kwargs):
        calls.append(1)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(spla, "onenormest", counted)
    return calls


def test_condition_check_estimates_only_without_a_bound(monkeypatch):
    calls = _count_onenormest(monkeypatch)
    g = rasterize_rectangle(5, 4, 0.1)
    lossless = CircuitSpec("I", L, C, 0.0)
    lossy = CircuitSpec("I", L, C, 0.3)
    modes = eigenmodes_lossless(g, lossless, 4)
    between = 0.5 * (modes[0].omega + modes[1].omega)
    driven_response(g, lossy, modes[0].omega, ((2, 2), 1.0))
    assert len(calls) == 0
    driven_response(g, lossless, between, ((2, 2), 1.0))
    assert len(calls) == 1
    driven_response(tag_boundary(g, BCKind("neumann")), lossy, between,
                    ((2, 2), 1.0))
    assert len(calls) == 2


def test_driven_lossless_on_rectangle_modes_rejected():
    g = rasterize_rectangle(5, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    for mode in eigenmodes_lossless(g, spec, 3):
        with pytest.raises(SingularSystemError):
            driven_response(g, spec, mode.omega, ((2, 2), 1.0))


@pytest.mark.parametrize("model,resistance,tau,omega", [
    ("I", 0.0, 0.0, 861100.0),
    ("II", 0.1, 0.05, 1e13 / 861100.0)])
def test_unpivoted_factor_meets_residual_with_little_fill(
        monkeypatch, model, resistance, tau, omega):
    factors = []
    factor = spla.splu

    def kept(*args, **kwargs):
        factors.append(factor(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(spla, "splu", kept)
    g = rasterize_quarter_stadium(0.01)
    spec = CircuitSpec(model, L, C, resistance)
    pert = sample_perturbation(g, tau, 3)
    source = (tuple(g.interior_sites[len(g.interior_sites) // 3]), 1.0)
    field = driven_response(g, spec, omega, source, pert=pert)
    system = assemble_admittance(g, spec, omega, pert=pert)
    x = field.values[tuple(system.unknown_sites.T)]
    b = np.zeros(len(x), dtype=complex)
    b[system.index[source[0]]] = -1.0
    assert np.linalg.norm(system.matrix @ x - b) <= RESIDUAL_TOL
    # COLAMD leaves 1.32M entries here, the minimum-degree ordering 0.70M
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz < 1_000_000


def test_driven_needs_source():
    g = rasterize_rectangle(3, 3, 0.1)
    with pytest.raises(ValueError):
        driven_response(g, CircuitSpec("I", L, C, 0.1), 1e6, ((1, 1), 0.0))


def _sweep_case():
    """6x4 rectangle whose band holds the two lowest lossless modes."""
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.05)
    modes = eigenmodes_lossless(g, CircuitSpec("I", L, C, 0.0), 3)
    return g, spec, modes, (modes[0].omega * 0.97, modes[1].omega * 1.03)


def test_resonance_sweep_finds_lossless_modes():
    g, spec, modes, band = _sweep_case()
    peaks = resonance_sweep(g, spec, band, 220, ((2, 2), 1.0))
    gamma = spec.linewidth
    assert peaks
    for w_peak, _ in peaks:
        nearest = min(abs(w_peak - m.omega) for m in modes)
        assert nearest < 0.5 * gamma


def test_resonance_sweep_peaks_converged():
    g, spec, _, band = _sweep_case()
    coarse = resonance_sweep(g, spec, band, 220, ((2, 2), 1.0))
    fine = resonance_sweep(g, spec, band, 220, ((2, 2), 1.0), rel_tol=1e-10)
    assert len(coarse) == len(fine) == 2
    for (w, _), (w_fine, _) in zip(coarse, fine):
        assert abs(w - w_fine) <= 1e-6 * w_fine


def test_resonance_sweep_value_is_response_at_peak():
    g, spec, _, band = _sweep_case()
    for w_peak, val in resonance_sweep(g, spec, band, 220, ((2, 2), 1.0)):
        v = driven_response(g, spec, w_peak, ((2, 2), 1.0)).interior_values
        assert val == float(np.real(np.vdot(v, v)))


def test_resonance_sweep_solve_budget(monkeypatch):
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return driven_response(*args, **kwargs)

    monkeypatch.setattr("rlcnet.solve.driven_response", counted)
    g, spec, _, band = _sweep_case()
    peaks = resonance_sweep(g, spec, band, 220, ((2, 2), 1.0))
    assert peaks
    assert calls <= 220 + 15 * len(peaks)


def test_resonance_sweep_preconditions():
    g = rasterize_rectangle(4, 4, 0.1)
    lossy = CircuitSpec("I", L, C, 0.1)
    with pytest.raises(ValueError):
        resonance_sweep(g, lossy, (2e6, 1e6), 50, ((1, 1), 1.0))
    with pytest.raises(ValueError):
        resonance_sweep(g, CircuitSpec("I", L, C, 0.0), (1e6, 2e6), 50,
                        ((1, 1), 1.0))
    with pytest.raises(ValueError):
        resonance_sweep(g, lossy, (1e6, 2e6), 50, None)
