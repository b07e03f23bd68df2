"""Spectra, dispersion maps and driven solves."""

import ctypes
import json
import os
import subprocess
import sys
import warnings
import weakref
from math import cos, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rlcnet import solve
from rlcnet.experiments import centroid_site
from rlcnet.geometry import rasterize_quarter_stadium, rasterize_rectangle
from rlcnet.network import (AdmittanceFamilies, CircuitSpec, admittance_families,
                            assemble_admittance, sample_perturbation,
                            unit_admittances)
from rlcnet.solve import (RESIDUAL_TOL, SingularSystemError, damping_length,
                          dispersion, driven_response,
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


@pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("model", ["I", "II"])
def test_dispersion_is_the_shift_of_the_operator(model, ratio, incidence):
    # Dirichlet walls, no disorder: A(omega) = -(y_L K + y_S I), K the
    # Laplacian, so a lossless eigenvector v of K (K v = lam v) has the
    # Rayleigh quotient q = v^T A v = -y_L (lam - mu), and two of them give
    # mu = (q2 lam1 - q1 lam2) / (q2 - q1) from the assembled operator alone
    g = rasterize_rectangle(6, 5, 0.1)
    spec = CircuitSpec(model, L, C, 0.3)
    omega = ratio * spec.omega0
    B = incidence(g)
    lam, vec = scipy.linalg.eigh((B.T @ B).toarray())
    A = assemble_admittance(admittance_families(g, spec), omega)
    q1, q2 = (vec[:, k] @ (A @ vec[:, k]) for k in (0, -1))
    mu = (q2 * lam[0] - q1 * lam[-1]) / (q2 - q1)
    d = dispersion(spec, omega)
    assert d == pytest.approx(mu, rel=1e-12)
    # the loss term alone: model II's is omega0^2 / omega^2 times the
    # closed form i omega0^2 R C / omega that holds only at omega0
    assert d.imag == pytest.approx(mu.imag, rel=1e-9)


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


def test_lanczos_spectrum_matches_closed_form():
    # 6 modes of 4800 unknowns, below n / 10: the Lanczos path (pinned by
    # test_one_factorization_per_sparse_eigen_call); the fixed start
    # ones(n) is even under both reflections of the rectangle, so modes
    # odd under one of them are reached only through roundoff
    g = rasterize_rectangle(80, 60, 0.01)
    modes = eigenmodes_lossless(g, CircuitSpec("I", L, C, 0.0), 6)
    for m, lam in zip(modes, closed_form_lams(80, 60)):
        assert abs(m.lam_grid - lam) < 1e-12
        assert np.linalg.norm(m.vector) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("model", ["I", "II"])
def test_eigenmode_nearest_finds_odd_mode(model):
    g = rasterize_rectangle(80, 60, 0.01)
    spec = CircuitSpec(model, L, C, 0.0)
    lam21 = 4.0 - 2.0 * cos(2 * pi / 81) - 2.0 * cos(pi / 61)
    omega21 = spec.omega0 * sqrt(lam21) if model == "I" \
        else spec.omega0 / sqrt(lam21)
    near = eigenmode_nearest(g, spec, omega21 * 1.0001)
    assert abs(near.lam_grid - lam21) < 1e-12
    assert near.omega == pytest.approx(omega21, rel=1e-12)


@pytest.mark.parametrize("n_modes", [7, 8, 69, 70])
def test_spectrum_on_both_sides_of_the_lanczos_share(n_modes):
    # 70 unknowns: Lanczos serves up to 7 modes, dense the rest, up to n
    g = rasterize_rectangle(10, 7, 0.1)
    modes = eigenmodes_lossless(g, CircuitSpec("I", L, C, 0.0), n_modes)
    assert len(modes) == n_modes
    for m, lam in zip(modes, closed_form_lams(10, 7)):
        assert abs(m.lam_grid - lam) < 1e-12
    vectors = np.array([m.vector for m in modes])
    assert np.allclose(vectors @ vectors.T, np.eye(n_modes), atol=1e-10)


@pytest.mark.parametrize("n_modes", [7, 30])
@pytest.mark.parametrize("model", ["I", "II"])
def test_disordered_spectrum_solves_the_pencil(incidence, model, n_modes):
    # 70 unknowns: 7 modes take the Lanczos path, 30 the dense one; both
    # against the dense generalized eigensolve of the tau = 0.05 pencil K =
    # B^T diag(w) B, M = diag(w) of the same realization
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec(model, L, C, 0.0)
    pert = sample_perturbation(g, 0.05, 3)
    w_link, w_site = _family_weights(g, model, pert)
    B = incidence(g).toarray()
    M = np.diag(w_site)
    lams, vecs = scipy.linalg.eigh(B.T @ np.diag(w_link) @ B, M)
    modes = eigenmodes_lossless(g, spec, n_modes, pert=pert)
    lam = np.array([m.lam_grid for m in modes])
    assert np.max(np.abs(lam - lams[:n_modes]) / lams[:n_modes]) < 1e-10
    unit = eigenmodes_lossless(g, spec, n_modes)
    assert not np.any(lam == [m.lam_grid for m in unit])
    V = np.array([m.vector for m in modes]).T
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0.0, atol=1e-14)
    gram = V.T @ M @ V
    scale = np.sqrt(np.diag(gram))
    assert np.allclose(gram / np.outer(scale, scale), np.eye(n_modes),
                       rtol=0.0, atol=1e-10)
    # each vector spans its dense eigenvector (no eigenvalue is degenerate)
    overlap = np.abs(np.sum(V * (M @ vecs[:, :n_modes]), axis=0)) / scale
    assert np.all(overlap > 1.0 - 1e-10)


class _CountedFactor:
    """A SuperLU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, *args, **kwargs):
        self.solves += 1
        return self.lu.solve(*args, **kwargs)


def _count_splu(monkeypatch):
    calls = []
    factor = spla.splu

    def counted(*args, **kwargs):
        calls.append(_CountedFactor(factor(*args, **kwargs)))
        return calls[-1]

    monkeypatch.setattr(spla, "splu", counted)
    return calls


def test_one_factorization_per_sparse_eigen_call(monkeypatch):
    # ARPACK's own shift-invert factor is invisible here (scipy binds its
    # splu at import), so every factor must also drive the iteration
    calls = _count_splu(monkeypatch)
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    eigenmode_nearest(g, spec, 1.0e6, pert=sample_perturbation(g, 0.03, 4))
    assert len(calls) == 1
    eigenmodes_lossless(g, spec, 7)
    assert len(calls) == 2
    eigenmodes_lossless(g, spec, 8)
    assert len(calls) == 2
    # a disordered spectrum factors its K once on the Lanczos side only
    pert = sample_perturbation(g, 0.05, 3)
    eigenmodes_lossless(g, spec, 7, pert=pert)
    assert len(calls) == 3
    eigenmodes_lossless(g, spec, 8, pert=pert)
    assert len(calls) == 3
    # the Lanczos test above and criterion 12's spectrum run stay sparse
    for nx, ny, n_modes in ((80, 60, 6), (70, 60, 4)):
        eigenmodes_lossless(rasterize_rectangle(nx, ny, 0.02), spec, n_modes)
    assert len(calls) == 5
    assert all(lu.solves > 1 for lu in calls)


def _family_weights(g, model, pert):
    """The link and interior shunt families' weights over the interior
    sites: 1/m for an inductor, m for a capacitor (links in link order)."""
    st = g.stencil
    link = np.concatenate((pert.link_x[st.mask_x], pert.link_y[st.mask_y]))
    site = pert.site[g.interior]
    return (1.0 / link, site) if model == "I" else (link, 1.0 / site)


@pytest.mark.parametrize("model", ["I", "II"])
def test_eigenmode_nearest_solves_the_pencil(incidence, model):
    # dense generalized eigensolve of the tau = 0.03 pencil built from the
    # documented K = G_link = B^T diag(w) B, M = G_shunt = diag(w): model I
    # w = 1/m on links and m on sites, model II w = m on links and 1/m on
    # sites, so the standard form scales by M^(1/2) with non-unit weights
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec(model, L, C, 0.0)
    pert = sample_perturbation(g, 0.03, 8)
    w_link, w_site = _family_weights(g, model, pert)
    B = incidence(g).toarray()
    K = B.T @ np.diag(w_link) @ B
    M = np.diag(w_site)
    lams, vecs = scipy.linalg.eigh(K, M)
    j = 20
    gap = min(lams[j] - lams[j - 1], lams[j + 1] - lams[j]) / lams[j]
    assert gap > 1e-3
    # target just above lam_j, nearer to it than to lam_{j+1}
    lam_target = lams[j] + 0.1 * (lams[j + 1] - lams[j])
    target = spec.omega0 * (sqrt(lam_target) if model == "I"
                            else 1.0 / sqrt(lam_target))
    mode = eigenmode_nearest(g, spec, target, pert=pert)
    assert mode.lam_grid == pytest.approx(lams[j], rel=1e-12)
    v, w = mode.vector, vecs[:, j]
    overlap = abs(v @ M @ w) / sqrt((v @ M @ v) * (w @ M @ w))
    assert overlap > 1.0 - 1e-10


@pytest.mark.parametrize("tau", [0.0, 0.03])
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("shape", [(1, 2), (3, 1)])
def test_eigenmode_nearest_on_the_smallest_networks(incidence, shape, model,
                                                    tau):
    # ARPACK keeps at most n Lanczos vectors, and needs more than k = 1:
    # 2 and 3 unknowns leave it exactly that room
    g = rasterize_rectangle(*shape, 0.1)
    spec = CircuitSpec(model, L, C, 0.0)
    pert = sample_perturbation(g, tau, 8)
    w_link, w_site = _family_weights(g, model, pert)
    B = incidence(g).toarray()
    M = np.diag(w_site)
    lams, vecs = scipy.linalg.eigh(B.T @ np.diag(w_link) @ B, M)
    for j, lam in enumerate(lams):
        target = spec.omega0 * (sqrt(1.001 * lam) if model == "I"
                                else 1.0 / sqrt(1.001 * lam))
        mode = eigenmode_nearest(g, spec, target, pert=pert)
        assert mode.lam_grid == pytest.approx(lam, rel=1e-12)
        v, w = mode.vector, vecs[:, j]
        overlap = abs(v @ M @ w) / sqrt((v @ M @ v) * (w @ M @ w))
        assert overlap > 1.0 - 1e-10


def test_eigenmode_nearest_lanczos_work(monkeypatch):
    # ARPACK stops at the residual contract: one call on this 99x99
    # realization applies the operator 16 times, where its default 20
    # Lanczos vectors at tol = 0 (machine precision) took 21
    calls = _count_splu(monkeypatch)
    g = rasterize_rectangle(99, 99, 0.01)
    eigenmode_nearest(g, CircuitSpec("I", L, C, 0.0), 1.722e6,
                      pert=sample_perturbation(g, 0.03, 2))
    assert [lu.solves for lu in calls] == [16]


@pytest.mark.parametrize("model", ["I", "II"])
def test_backward_error_is_normwise_on_the_pencil(incidence, model):
    # against the dense ||K v - lam M v|| / ((||K||_1 + |lam| ||M||_1)
    # ||v||) of the pencil built from the incidence, for pairs that are not
    # eigenpairs
    g = rasterize_rectangle(10, 7, 0.05)
    pert = sample_perturbation(g, 0.03, 8)
    w_link, w_site = _family_weights(g, model, pert)
    B = incidence(g).toarray()
    K = B.T @ np.diag(w_link) @ B
    families = admittance_families(g, CircuitSpec(model, L, C, 0.0), pert)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((g.n_interior, 3))
    lam = np.array([0.5, 3.0, 7.0])
    eta = solve._backward_errors(families, lam, v)
    norm_k = np.abs(K).sum(axis=0).max()
    for j in range(3):
        want = np.linalg.norm(K @ v[:, j] - lam[j] * w_site * v[:, j]) / (
            (norm_k + lam[j] * w_site.max()) * np.linalg.norm(v[:, j]))
        assert eta[j] == pytest.approx(want, rel=1e-12)


def test_eigenpairs_that_miss_the_contract_raise(perturb_eigsh):
    # the same calls pass unperturbed; eigenvectors off by 1e-6 fail the
    # backward-error check on both eigen paths
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    pert = sample_perturbation(g, 0.03, 8)
    families = admittance_families(g, spec, pert)
    sigma = dispersion(spec, 1.0e6).real
    solve._eigsh_near(families, 1, sigma)
    eigenmodes_lossless(g, spec, 5, pert=pert)
    perturb_eigsh()
    with pytest.raises(SingularSystemError):
        solve._eigsh_near(families, 1, sigma)
    with pytest.raises(SingularSystemError):
        eigenmodes_lossless(g, spec, 5, pert=pert)


@pytest.mark.parametrize("n_modes", [8, 70])
def test_dense_spectrum_pairs_that_miss_the_contract_raise(perturb_eigh,
                                                           n_modes):
    # above n / 10 modes the spectrum solves densely; its pairs meet the
    # same backward-error check, which eigenvectors off by 1e-6 fail
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec("II", L, C, 0.0)
    pert = sample_perturbation(g, 0.03, 8)
    modes = eigenmodes_lossless(g, spec, n_modes, pert=pert)
    families = admittance_families(g, spec, pert)
    eta = solve._backward_errors(
        families, np.array([m.lam_grid for m in modes]),
        np.array([m.vector for m in modes]).T)
    assert np.all(eta <= 1e-14)
    perturb_eigh()
    with pytest.raises(SingularSystemError):
        eigenmodes_lossless(g, spec, n_modes, pert=pert)


@pytest.mark.parametrize("tau", [0.0, 0.03])
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("walls", ["dirichlet"])
def test_eigen_operators_bitwise_equal_incidence_product(
        walls, model, tau, monkeypatch, incidence, bits_equal):
    # the family pencil K = G_link, M = G_shunt, the K - sigma M that
    # eigenmode_nearest forms on the geometry's stencil and factors, and the
    # shift at sigma = 0 that the spectrum factors, which holds K's bits,
    # against the sparse products, sigma being the lossless dispersion's
    # lam; the eigen path spans the interior sites
    g = rasterize_rectangle(10, 7, 0.05)
    spec = CircuitSpec(model, L, C, 0.0)
    pert = sample_perturbation(g, tau, 8)
    factored = _count_factorizations(monkeypatch)
    B = incidence(g)
    seen = []
    eigsh_near = solve._eigsh_near

    def spy(families, k, sigma, ordering=None):
        seen.append((families, sigma))
        return eigsh_near(families, k, sigma, ordering)

    monkeypatch.setattr(solve, "_eigsh_near", spy)
    eigenmode_nearest(g, spec, 1.0e6, pert=pert)
    eigenmodes_lossless(g, spec, 3, pert=pert)
    w_link, w_site = _family_weights(g, model, pert)
    K = B.T @ sp.diags(w_link) @ B
    M = sp.diags(w_site, format="csc")
    families = admittance_families(g, spec, pert)
    assert bits_equal(families.link_matrix, K)
    (nearest, sigma), (pencil, zero) = seen
    shifted, spectrum = factored
    assert sigma == dispersion(spec, 1.0e6).real
    assert bits_equal(sp.diags(nearest.shunt_weight, format="csc"), M)
    assert bits_equal(shifted, K - sigma * M)
    assert zero == 0.0
    assert bits_equal(sp.diags(pencil.shunt_weight, format="csc"), M)
    assert bits_equal(spectrum, K)
    if tau == 0.0:
        assert bits_equal(spectrum, B.T @ B)


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


def test_eigenmode_nearest_shift_on_an_eigenvalue_is_singular():
    # the 1x2 Dirichlet Laplacian has eigenvalues 3 and 5; the shift lands
    # exactly on 5, so SuperLU finds an exactly singular factor
    g = rasterize_rectangle(1, 2, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    with pytest.raises(SingularSystemError):
        eigenmode_nearest(g, spec, 7071067.811865475)


def test_eigenmode_nearest_needs_two_unknowns():
    # ARPACK serves k < n only, so one site leaves no Lanczos problem
    g = rasterize_rectangle(1, 1, 0.1)
    with pytest.raises(ValueError):
        eigenmode_nearest(g, CircuitSpec("I", L, C, 0.0), 1.0e6)


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
    a = assemble_admittance(admittance_families(g, spec, pert), mode.omega)
    residual = np.linalg.norm(a @ mode.vector) \
        / (spla.norm(a, 1) * np.linalg.norm(mode.vector))
    assert residual < 1e-12


def test_laplacian_row_sums():
    # the spectrum's K at unit multipliers
    g = rasterize_rectangle(5, 5, 0.1)
    lap = admittance_families(g, CircuitSpec(), None).link_matrix.toarray()
    assert np.array_equal(lap, lap.T)
    assert np.all(np.diag(lap) == 4.0)


def test_driven_single_site():
    g = rasterize_rectangle(1, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    omega = 1e6
    field = driven_response(g, spec, omega, ((1, 1), 1.0))
    z_link = 1.0 / unit_admittances(spec, omega)[0]
    z_c = 1.0 / unit_admittances(spec, omega)[1]
    expected = 1.0 / (4.0 / z_link + 1.0 / z_c)
    assert field.values[1, 1] == pytest.approx(expected)


def test_driven_satisfies_kirchhoff_rows():
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("I", L, C, 0.3)
    omega = 1.1e6
    field = driven_response(g, spec, omega, ((4, 5), 1.0))
    a = assemble_admittance(admittance_families(g, spec), omega)
    x = field.values[g.interior]
    rhs = np.zeros(len(x), dtype=complex)
    rhs[g.stencil.index[4, 5]] = -1.0
    res = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
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
            families = admittance_families(g, spec, pert)
            for omega in (resonance, spec.omega0, 1.7 * spec.omega0):
                a = assemble_admittance(families, omega)
                sv = np.linalg.svd(a.toarray(), compute_uv=False)
                # a dense SVD is accurate to a few eps * sigma_max
                assert 0.0 < families.floor(families.units(omega)) \
                    <= sv[-1] + 64 * np.finfo(float).eps * sv[0]


def test_hermitian_floor_needs_dirichlet_loss():
    # no floor without loss
    g = rasterize_rectangle(5, 4, 0.1)
    families = admittance_families(g, CircuitSpec("I", L, C, 0.0))
    assert families.floor(families.units(1e6)) == 0.0


def _count_onenormest(monkeypatch):
    """The operators that onenormest is given, one per call."""
    calls = []
    estimate = spla.onenormest

    def counted(operator, *args, **kwargs):
        calls.append(operator)
        return estimate(operator, *args, **kwargs)

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
    # a loss so small that its bound exceeds COND_LIMIT also estimates
    faint = CircuitSpec("I", L, C, 1e-9)
    families = admittance_families(g, faint)
    assert solve._condition(families, families.units(between)) \
        > solve.COND_LIMIT
    driven_response(g, faint, between, ((2, 2), 1.0))
    assert len(calls) == 2
    # the estimate's operator is A^-1, and its adjoint A^-H: A is nearly
    # imaginary here, so A^-H x is about -A^-1 x
    A = assemble_admittance(families, between).toarray()
    rng = np.random.default_rng(2)
    x = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    for got, want in ((calls[-1].matvec(x), np.linalg.solve(A, x)),
                      (calls[-1].rmatvec(x),
                       np.linalg.solve(A.conj().T, x))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_factorization_inverse_and_its_adjoint():
    # A is complex symmetric, so A^-H = conj(A)^-1 differs from A^-1 = A^-T
    # only when A is lossy; onenormest needs the adjoint, not the transpose
    g = rasterize_rectangle(5, 4, 0.1)
    spec = CircuitSpec("II", L, C, 0.3)
    pert = sample_perturbation(g, 0.02, 5)
    A = assemble_admittance(admittance_families(g, spec, pert), 2.0e6)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    apply = solve.Factorization(A).apply
    forward = np.linalg.solve(A.toarray(), x)
    adjoint = np.linalg.solve(A.toarray().conj().T, x)
    assert np.linalg.norm(apply(x) - forward) \
        <= 1e-12 * np.linalg.norm(forward)
    assert np.linalg.norm(apply(x, "H") - adjoint) \
        <= 1e-12 * np.linalg.norm(adjoint)
    assert np.linalg.norm(forward - adjoint) > 1e-3 * np.linalg.norm(forward)


def test_factorization_refines_against_its_matrix():
    # solve refines the factor's unrefined inverse against `matrix`: at a
    # nearby (1 + d) A each correction shrinks the residual by d, and at
    # 3 A each one doubles it, so the contract fails after 5 corrections
    g = rasterize_rectangle(6, 5, 0.1)
    spec = CircuitSpec("I", L, C, 0.3)
    A = assemble_admittance(admittance_families(g, spec), 1.0e6)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(A.shape[0]) + 1j * rng.standard_normal(A.shape[0])
    for scale, applies in ((1.0 + 1e-6, 2), (1.0 + 1e-3, 4), (3.0, 6)):
        factor = solve.Factorization(A)
        factor.matrix = scale * A
        calls = []
        apply = factor.apply
        factor.apply = lambda v, apply=apply: calls.append(v) or apply(v)
        if scale == 3.0:
            with pytest.raises(SingularSystemError):
                factor.solve(b)
        else:
            x = factor.solve(b)
            assert np.linalg.norm(b - scale * (A @ x)) \
                <= RESIDUAL_TOL * np.linalg.norm(b)
        assert len(calls) == applies


def test_factorization_keeps_the_default_panels_fill_and_pivots(
        monkeypatch):
    # one-column panels only block SuperLU's numeric phase: the ordering,
    # the fill and the diagonal pivots (perm_r == perm_c, which an inertia
    # count of a shift needs) stay those of its default panels, and the
    # solves agree at roundoff
    shifts = _count_factorizations(monkeypatch)
    square = rasterize_rectangle(40, 40, 0.025)
    eigenmode_nearest(square, CircuitSpec("I", L, C, 0.0), 1.722e6,
                      pert=sample_perturbation(square, 0.03, 2))
    stadium = rasterize_quarter_stadium(0.02)
    driven = assemble_admittance(
        admittance_families(stadium, CircuitSpec("I", L, C, 0.3)), 861100.0)
    rng = np.random.default_rng(1)
    for A in (driven, shifts[0]):
        lu = solve.Factorization(A).lu
        default = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.array_equal(lu.perm_c, default.perm_c)
        assert lu.L.nnz + lu.U.nnz == default.L.nnz + default.U.nnz
        assert lu.nnz <= default.nnz
        b = rng.standard_normal(A.shape[0]).astype(A.dtype)
        want = default.solve(b)
        assert np.linalg.norm(lu.solve(b) - want) \
            <= 1e-12 * np.linalg.norm(want)


def _pencil_shift(geometry, seed):
    """The real pencil shift that eigenmode_nearest factors on a tau = 0.03
    realization of `geometry`, model I, at omega = 1.722e6."""
    spec = CircuitSpec("I", L, C, 0.0)
    families = admittance_families(geometry, spec,
                                   sample_perturbation(geometry, 0.03, seed))
    return families.matrix(np.array([-1.0, dispersion(spec, 1.722e6).real]))


def test_factorization_on_a_reused_ordering(monkeypatch):
    # a pencil shift of one realization factored on the minimum-degree
    # ordering of another realization's shift: the fill and the diagonal
    # pivots are those of its own minimum-degree factorization, and the
    # solves agree at roundoff
    square = rasterize_rectangle(40, 40, 0.025)
    ordering = solve.Ordering()
    first = solve.Factorization(_pencil_shift(square, 2), ordering)
    assert ordering.perm is not None
    A = _pencil_shift(square, 3)
    mmd = solve.Factorization(A)
    reused = solve.Factorization(A, ordering)
    assert np.array_equal(ordering.perm, mmd.lu.perm_c)
    assert np.array_equal(first.lu.perm_c, mmd.lu.perm_c)
    assert reused.lu.L.nnz + reused.lu.U.nnz == mmd.lu.L.nnz + mmd.lu.U.nnz
    assert np.array_equal(reused.lu.perm_r, reused.lu.perm_c)
    assert np.array_equal(mmd.lu.perm_r, mmd.lu.perm_c)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(A.shape[0])
    for got, want in ((reused.solve(b), mmd.solve(b)),
                      (reused.apply(b), mmd.apply(b)),
                      (reused.apply(b, "H"), mmd.apply(b, "H"))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # another size, and the same size (1,600 unknowns) on another pattern,
    # raise before any factorization
    calls = _count_splu(monkeypatch)
    for other in (rasterize_rectangle(30, 30, 0.025),
                  rasterize_rectangle(50, 32, 0.025)):
        with pytest.raises(ValueError):
            solve.Factorization(_pencil_shift(other, 2), ordering)
    assert calls == []


def test_ordering_holds_no_view_of_its_factor():
    # SuperLU's perm_c is a view whose base is the factor, so an ordering
    # that kept it would keep the whole factor alive (SuperLU objects take
    # no weak reference, hence the check on .base)
    ordering = solve.Ordering()
    shift = _pencil_shift(rasterize_rectangle(20, 20, 0.05), 2)
    lu = solve.Factorization(shift, ordering).lu
    assert lu.perm_c.base is lu
    held = [a for value in vars(ordering).values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert len(held) == 7
    assert not any(a.base is lu for a in held)


def _source(g, site):
    """Right-hand side of a unit current injected at `site`."""
    b = np.zeros(g.n_interior, dtype=complex)
    b[g.stencil.index[site]] = -1.0
    return b


def _count_condensed(monkeypatch):
    """List of (ndim, trans) of every apply of a condensed factorization
    made while patched; one None per factorization made."""
    calls = []
    condense = solve._condense

    def counted(*args):
        lu, apply = condense(*args)
        calls.append(None)

        def spied(b, trans="N"):
            calls.append((np.ndim(b), trans))
            return apply(b, trans)
        return lu, spied

    monkeypatch.setattr(solve, "_condense", counted)
    return calls


def test_sine_transform_matches_the_dst_matrix():
    # the FFT of the odd extension gives the orthonormal DST-I along each
    # axis asked for, of real and complex arrays, and the closed form of
    # Phi diag(g) Phi matches the dense product
    rng = np.random.default_rng(5)
    x = rng.standard_normal((7, 4, 2)) + 1j * rng.standard_normal((7, 4, 2))
    phi = {n: np.array([solve._sine_row(n, i) for i in range(n)])
           for n in (4, 7)}
    assert np.allclose(phi[7] @ phi[7], np.eye(7), atol=1e-15)
    want = np.einsum("ip,jq,pqr->ijr", phi[7], phi[4], x)
    assert np.allclose(solve._sine(x), want, rtol=0, atol=1e-14)
    assert np.allclose(solve._sine(x, (1,)),
                       np.einsum("jq,iqr->ijr", phi[4], x), rtol=0,
                       atol=1e-14)
    real = solve._sine(x.real)
    assert np.isrealobj(real) and np.allclose(real, want.real, atol=1e-14)
    g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    rows_s, rows_t = np.array([0, 3, 6]), np.array([1, 2, 3, 4, 5, 6])
    assert np.allclose(solve._sine_products(g, rows_s, rows_t),
                       (phi[7] * g @ phi[7])[np.ix_(rows_s, rows_t)],
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("model,omega", [("I", 861100.0),
                                         ("II", 1e13 / 861100.0)])
def test_condensed_factorization_matches_the_plain_one(monkeypatch, model,
                                                       omega):
    # the a0 = 0.02 stadium's rectangles are the unit square with 10
    # columns of the cap, 59 x 49, and past the separating column 60 a 29
    # x 31 block of the cap; SuperLU factors the Schur complement over the
    # other 567 of the 4,357 unknowns alone.  Sources in each rectangle
    # (corners included), in the separating column and in the rest (above
    # the second rectangle and past it) give the fields of the plain
    # factorization
    g = rasterize_quarter_stadium(0.02)
    spec = CircuitSpec(model, L, C, 0.3)
    A = assemble_admittance(admittance_families(g, spec), omega)
    assert solve._rectangles(g.stencil.index) == [(1, 1, 59, 49),
                                                  (61, 1, 29, 31)]
    condensed = solve.Factorization(A, stencil=g.stencil)
    assert condensed.lu.shape == (567, 567)
    plain = solve.Factorization(A)
    calls = _count_condensed(monkeypatch)
    solver = driven_solver(g, spec, omega)
    for site in ((10, 10), (59, 49), (60, 1), (60, 30), (60, 45), (61, 31),
                 (75, 15), (89, 1), (70, 40), (90, 20), (95, 5)):
        field = solver((site, 1.0))
        want = plain.solve(_source(g, site))
        got = field.values[g.interior]
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert calls[0] is None and len(calls) > 11


def test_full_rectangle_condenses_without_splu(monkeypatch):
    # a rectangle is all block: the sine transforms solve it, and no
    # SuperLU factor is made
    calls = _count_splu(monkeypatch)
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("II", L, C, 0.3)
    omega = 1.1 * spec.omega0
    A = assemble_admittance(admittance_families(g, spec), omega)
    assert solve.Factorization(A, stencil=g.stencil).lu is None
    field = driven_response(g, spec, omega, ((4, 5), 0.5 - 1.0j))
    want = np.linalg.solve(A.toarray(), (0.5 - 1.0j) * _source(g, (4, 5)))
    got = field.values[g.interior]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert calls == []


def test_condensed_lossless_drive_estimates_its_condition(monkeypatch):
    # at R = 0 no bound settles the check, so onenormest estimates ||A^-1||_1
    # on the condensed factor: it applies A^-1 and A^-H to blocks of
    # vectors, which agree with the dense inverses.  The a0 = 0.03
    # stadium condenses on both of its rectangles, 38 x 33 and 20 x 21
    g = rasterize_quarter_stadium(0.03)
    lossless = CircuitSpec("I", L, C, 0.0)
    modes = eigenmodes_lossless(g, lossless, 2)
    between = 0.5 * (modes[0].omega + modes[1].omega)
    A = assemble_admittance(admittance_families(g, lossless), between)
    condensed = solve.Factorization(A, stencil=g.stencil)
    assert condensed.lu.shape == ((g.n_interior - 38 * 33 - 20 * 21),) * 2
    estimates = _count_onenormest(monkeypatch)
    applied = _count_condensed(monkeypatch)
    field = driven_response(g, lossless, between, ((5, 5), 1.0))
    assert len(estimates) == 1 and applied[0] is None
    assert (2, "N") in applied and (2, "H") in applied
    A = A.toarray()
    rng = np.random.default_rng(3)
    X = rng.standard_normal((len(A), 2)) + 1j * rng.standard_normal((len(A), 2))
    for got, want in ((estimates[0].matmat(X), np.linalg.solve(A, X)),
                      (estimates[0].rmatmat(X),
                       np.linalg.solve(A.conj().T, X))):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    want = np.linalg.solve(A, _source(g, (5, 5)))
    assert np.linalg.norm(field.values[g.interior] - want) \
        <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("geometry", ["rectangle", "stadium"])
def test_shift_on_a_block_eigenvalue_is_singular(geometry):
    # K - s M on the first rectangle's lowest eigenvalue s: its mu is
    # exactly 0 (4 - s and s - 4 are exact for s in (0, 2]).  A full
    # rectangle is then singular and raises, with no warning; on the
    # stadium, whose cap shifts the spectrum off the rectangle's, that
    # rectangle is left to SuperLU with the rest, the second (29 x 31)
    # still condenses, and the solve meets the residual contract
    g = rasterize_rectangle(6, 5, 0.1) if geometry == "rectangle" \
        else rasterize_quarter_stadium(0.02)
    _, _, k, m = solve._rectangles(g.stencil.index)[0]
    s = 4.0 - (solve._cosines(k)[0] + solve._cosines(m)[0])
    families = admittance_families(g, CircuitSpec("I", L, C, 0.0))
    A = families.matrix(np.array([-1.0, s]))
    if geometry == "rectangle":
        with pytest.raises(SingularSystemError, match="uniform rectangle"):
            solve.Factorization(A, stencil=g.stencil)
    else:
        factor = solve.Factorization(A, stencil=g.stencil)
        assert factor.lu.shape == (g.n_interior - 29 * 31,) * 2
        b = np.random.default_rng(6).standard_normal(A.shape[0])
        x = factor.solve(b)
        assert np.linalg.norm(b - A @ x) <= RESIDUAL_TOL * np.linalg.norm(b)
    # nearby, the same shift factors
    solve.Factorization(families.matrix(np.array([-1.0, s * (1 + 1e-9)])),
                        stencil=g.stencil)


def test_only_uniform_drives_condense(monkeypatch):
    # disorder (tau > 0) leaves the rectangles non-uniform, and the eigen
    # solves never pass their stencil: all of these factor the whole matrix
    g = rasterize_quarter_stadium(0.05)
    spec = CircuitSpec("I", L, C, 0.3)
    lossless = CircuitSpec("I", L, C, 0.0)
    applied = _count_condensed(monkeypatch)
    shapes = []
    factor = spla.splu

    def sized(A, *args, **kwargs):
        shapes.append(A.shape[0])
        return factor(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", sized)
    for tau in (0.01, 0.05):
        driven_response(g, spec, 2.0e6, ((5, 5), 1.0),
                        pert=sample_perturbation(g, tau, 1))
    eigenmode_nearest(g, lossless, 2.0e6)
    eigenmodes_lossless(g, lossless, 3)
    assert applied == [] and shapes == [g.n_interior] * 4
    # tau = 0 draws unit multipliers: that drive condenses
    driven_response(g, spec, 2.0e6, ((5, 5), 1.0),
                    pert=sample_perturbation(g, 0.0, 1))
    assert applied[0] is None and shapes[-1] < g.n_interior


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
    a = assemble_admittance(admittance_families(g, spec, pert), omega)
    x = field.values[g.interior]
    b = np.zeros(len(x), dtype=complex)
    b[g.stencil.index[source[0]]] = -1.0
    assert np.linalg.norm(a @ x - b) <= RESIDUAL_TOL
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


def test_resonance_sweep_value_is_response_at_peak(monkeypatch):
    # each peak's value is |V|^2 of the field the sweep evaluated at
    # omega_peak, basis-served or (with a one-vector cap) direct; that
    # field meets the residual contract, as a direct solve there does
    g, spec, _, band = _sweep_case()
    served, direct = solve._ShiftedKrylov.solve, solve.driven_response
    last = {}   # omega -> V of the sweep's last evaluation there

    def record_served(self, omega):
        x = served(self, omega)
        if x is not None:
            last[omega] = x
        return x

    def record_direct(geometry, spec, omega, *args, **kwargs):
        field = direct(geometry, spec, omega, *args, **kwargs)
        last[omega] = field.interior_values
        return field

    for cap in (solve.KRYLOV_CAP, 1):
        last.clear()
        with monkeypatch.context() as patch:
            patch.setattr(solve, "KRYLOV_CAP", cap)
            patch.setattr(solve._ShiftedKrylov, "solve", record_served)
            patch.setattr(solve, "driven_response", record_direct)
            peaks = resonance_sweep(g, spec, band, 220, ((2, 2), 1.0))
        assert len(peaks) == 2
        for w_peak, val in peaks:
            v = last[w_peak]
            assert val == float(np.real(np.vdot(v, v)))
            v = driven_response(g, spec, w_peak, ((2, 2), 1.0)).interior_values
            want = float(np.real(np.vdot(v, v)))
            assert abs(val - want) <= 1e-8 * want


def _count_factorizations(monkeypatch):
    """List of the matrices of every `Factorization` built in rlcnet.solve."""
    built = []

    class Counted(solve.Factorization):
        def __init__(self, A, *args, **kwargs):
            built.append(A)
            super().__init__(A, *args, **kwargs)

    monkeypatch.setattr(solve, "Factorization", Counted)
    return built


def _count_calls(monkeypatch, name):
    """List of the keyword arguments of every call of rlcnet.solve.<name>."""
    calls = []
    function = getattr(solve, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return function(*args, **kwargs)

    monkeypatch.setattr(solve, name, counted)
    return calls


def _count_family_matrices(monkeypatch):
    """List of the matrices that every `AdmittanceFamilies.matrix` call
    forms."""
    formed = []
    matrix = AdmittanceFamilies.matrix

    def counted(self, y):
        formed.append(matrix(self, y))
        return formed[-1]

    monkeypatch.setattr(AdmittanceFamilies, "matrix", counted)
    return formed


def test_every_formed_matrix_is_factored(monkeypatch):
    # the package forms only the matrices that a Factorization factors:
    # the driven A, a sweep's window centre A_c, the A of each evaluation
    # that a sweep's basis cannot serve, and the pencil shift K - sigma M
    # of eigenmode_nearest and of a Lanczos spectrum (sigma = 0)
    g, spec, _, band = _sweep_case()
    source = ((2, 2), 1.0)
    lossless = CircuitSpec("I", L, C, 0.0)

    def capped_sweep():
        # one basis vector serves no evaluation: each factors its own A
        with monkeypatch.context() as patch:
            patch.setattr(solve, "KRYLOV_CAP", 1)
            return resonance_sweep(g, spec, band, 9, source)

    paths = {
        "driven": lambda: driven_solver(g, spec, band[0])(source),
        "Dirichlet sweep": lambda: resonance_sweep(g, spec, band, 9, source),
        "capped sweep": capped_sweep,
        "nearest mode": lambda: eigenmode_nearest(g, lossless, band[0]),
        "Lanczos spectrum": lambda: eigenmodes_lossless(
            rasterize_rectangle(10, 7, 0.05), lossless, 5),
    }
    for path, run in paths.items():
        with monkeypatch.context() as patch:
            formed = _count_family_matrices(patch)
            built = _count_factorizations(patch)
            run()
        assert len(formed) == len(built) > 0, path
        assert all(a is b for a, b in zip(formed, built)), path


def test_order_0_solver_frees_the_families_before_it_factors(monkeypatch):
    # a settled bound leaves the solve nothing to read from the families,
    # so they are gone before splu runs and stay off its peak memory; at
    # R = 0 no bound settles, and the condition estimate on the factor
    # still reads them.  On the stadium SuperLU factors the cap's Schur
    # complement; a full rectangle would call no splu at all
    refs = []
    build = solve.admittance_families

    def kept(*args, **kwargs):
        families = build(*args, **kwargs)
        refs.append(weakref.ref(families))
        return families

    alive = []
    factor = spla.splu

    def checked(*args, **kwargs):
        alive.append(refs[-1]() is not None)
        return factor(*args, **kwargs)

    monkeypatch.setattr(solve, "admittance_families", kept)
    monkeypatch.setattr(spla, "splu", checked)
    g = rasterize_quarter_stadium(0.1)
    for resistance in (0.3, 0.0):
        spec = CircuitSpec("I", L, C, resistance)
        driven_solver(g, spec, 1.1e6)(((4, 5), 1.0))
    assert alive == [False, True]


def test_resonance_sweep_solve_budget(monkeypatch):
    # the window's Krylov basis serves every grid and peak-search
    # evaluation on one factorization at the window centre, each peak's
    # value included.  On the a0 = 0.01 quarter stadium at R = 0.1, 20
    # vectors of the pencil shift-inverted at the complex centre
    # dispersion serve all 19 evaluations
    g, spec, _, band = _sweep_case()
    stadium = rasterize_quarter_stadium(0.01)
    cases = ((g, spec, band, 220, ((2, 2), 1.0)),
             (stadium, CircuitSpec("I", L, C, 0.1), (850000.0, 858000.0), 9,
              (centroid_site(stadium), 1.0)))
    for case in cases:
        with monkeypatch.context() as patch:
            built = _count_factorizations(patch)
            calls = _count_calls(patch, "driven_response")
            peaks = resonance_sweep(*case)
        assert len(peaks) == 2
        assert len(built) == 1
        assert calls == []


def test_sweep_builds_one_stencil(monkeypatch, stencil_builds):
    assemblies = _count_calls(monkeypatch, "assemble_admittance")
    g, spec, _, band = _sweep_case()
    peaks = resonance_sweep(g, spec, band, 9, ((2, 2), 1.0))
    assert peaks
    # only the window centre is assembled; every grid and peak-search
    # evaluation is checked on the element families, and the field of the
    # best evaluation gives each peak's value
    assert len(assemblies) == 1
    assert stencil_builds == [g]


@pytest.mark.parametrize("model", ["I", "II"])
def test_krylov_fields_meet_the_residual_contract(model):
    # with disorder the shunt weights are w = m (model I, capacitors) or
    # w = 1 / m (model II, inductors), so the basis, scaled by r = sqrt(w),
    # is not the fields' own; in model II the link family is C m and the
    # shunt family 1 / (m (R + i omega L)), both still one fixed matrix each
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec(model, L, C, 0.3)
    pert = sample_perturbation(g, 0.03, 7)
    source = ((4, 5), 1.0)
    modes = eigenmodes_lossless(g, CircuitSpec(model, L, C, 0.0), 4)
    band = (modes[1].omega * 0.98, modes[3].omega * 1.02)
    basis = solve._ShiftedKrylov(g, spec, band, pert, source)
    families = admittance_families(g, spec, pert)
    for omega in np.linspace(*band, 7):
        x = basis.solve(omega)
        assert x is not None
        b = np.zeros(len(x), dtype=complex)
        b[g.stencil.index[source[0]]] = -1.0
        a = assemble_admittance(families, omega)
        assert np.linalg.norm(a @ x - b) <= RESIDUAL_TOL * np.linalg.norm(b)
        want = driven_response(g, spec, omega, source,
                               pert=pert).interior_values
        assert np.linalg.norm(x - want) <= 1e-8 * np.linalg.norm(want)
    assert basis.m < g.n_interior


def test_krylov_space_that_closes_is_exact():
    # the 2x2 Laplacian has eigenvalues 2, 4, 4, 6; a corner source meets
    # one vector of the degenerate pair, so the space closes at m = 3 < n
    g = rasterize_rectangle(2, 2, 0.25)
    spec = CircuitSpec("I", L, C, 0.05)
    source = ((1, 1), 1.0)
    band = (1.3 * spec.omega0, 2.1 * spec.omega0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        basis = solve._ShiftedKrylov(g, spec, band, None, source)
        assert basis.closed and basis.m == 3
        for omega in np.linspace(*band, 5):
            x = basis.solve(omega)
            A = assemble_admittance(admittance_families(g, spec),
                                    omega).toarray()
            want = np.linalg.solve(A, [-1.0, 0.0, 0.0, 0.0])
            assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        peaks = resonance_sweep(g, spec, band, 9, source)
    assert [round(w / spec.omega0, 3) for w, _ in peaks] == [1.414, 2.0]


def _direct_sweep(monkeypatch, *args):
    """resonance_sweep with a basis that never serves: every evaluation is
    one driven_response call, as in a sweep that factors every matrix."""
    with monkeypatch.context() as patch:
        patch.setattr(solve._ShiftedKrylov, "solve", lambda *a: None)
        return resonance_sweep(*args)


def test_sweep_solves_what_the_bound_leaves_unsettled(monkeypatch):
    # on the sweep case the condition bound reads 2.9e5-4.0e5 and the
    # onenormest figure 42-360, so under a limit of 1e5 the basis refuses
    # every evaluation before it projects, and driven_response, which
    # estimates on its factor, solves each one
    g, spec, _, band = _sweep_case()
    args = (g, spec, band, 9, ((2, 2), 1.0))
    want = _direct_sweep(monkeypatch, *args)
    served = solve._ShiftedKrylov.solve
    refused = []

    def record_served(self, omega):
        x = served(self, omega)
        refused.append(x is None)
        return x

    monkeypatch.setattr(solve, "COND_LIMIT", 1e5)
    monkeypatch.setattr(solve._ShiftedKrylov, "solve", record_served)
    built = _count_factorizations(monkeypatch)
    calls = _count_calls(monkeypatch, "driven_response")
    assert resonance_sweep(*args) == want
    assert len(want) == 2
    assert all(refused) and len(refused) == len(calls) > 9
    assert len(built) == 1 + len(calls)


def test_sweep_falls_back_when_the_basis_is_capped(monkeypatch):
    g, spec, _, band = _sweep_case()
    args = (g, spec, band, 9, ((2, 2), 1.0))
    want = _direct_sweep(monkeypatch, *args)
    served = resonance_sweep(*args)
    assert len(served) == len(want) == 2
    for (w, _), (w_want, _) in zip(served, want):
        assert abs(w - w_want) <= 0.5e-6 * w_want
    # one basis vector never meets the contract here, so every evaluation
    # factors its own matrix and the peaks are those of direct solves
    monkeypatch.setattr(solve, "KRYLOV_CAP", 1)
    built = _count_factorizations(monkeypatch)
    calls = _count_calls(monkeypatch, "driven_response")
    assert resonance_sweep(*args) == want
    assert len(built) == 1 + len(calls) > 9


def test_resonance_sweep_preconditions(monkeypatch):
    g = rasterize_rectangle(4, 4, 0.1)
    lossy = CircuitSpec("I", L, C, 0.1)
    with pytest.raises(ValueError):
        resonance_sweep(g, lossy, (2e6, 1e6), 50, ((1, 1), 1.0))
    with pytest.raises(ValueError):
        resonance_sweep(g, CircuitSpec("I", L, C, 0.0), (1e6, 2e6), 50,
                        ((1, 1), 1.0))
    with pytest.raises(ValueError):
        resonance_sweep(g, lossy, (1e6, 2e6), 50, None)
    # a tolerance that is not positive is rejected before any solve

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rel_tol was checked")

    monkeypatch.setattr("rlcnet.solve.driven_response", no_solve)
    for rel_tol in (0.0, -1e-6, float("nan")):
        with pytest.raises(ValueError, match="rel_tol"):
            resonance_sweep(g, lossy, (1e6, 2e6), 50, ((1, 1), 1.0),
                            rel_tol=rel_tol)


def test_newton_stops_when_its_tolerance_underflows():
    # 0.5 * 5e-324 rounds to 0, and 1e-300 gives a tolerance far below one
    # ulp of omega; the peak search floors both at a few ulps, so it still
    # stops, at the same peaks
    g, spec, _, band = _sweep_case()
    args = (g, spec, band, 40, ((2, 2), 1.0))
    peaks = resonance_sweep(*args, rel_tol=1e-300)
    assert len(peaks) == 2
    assert resonance_sweep(*args, rel_tol=5e-324) == peaks


def _counted(f):
    """f, and the list of the omegas that it was evaluated at."""
    evaluated = []

    def response(omega):
        evaluated.append(omega)
        return f(omega)

    return response, evaluated


def _lorentzian(centre, width, height=1.0):
    """height * width^2 / ((omega - centre)^2 + width^2), whose reciprocal
    is a parabola in omega."""
    return lambda omega: height * width ** 2 / ((omega - centre) ** 2
                                                + width ** 2)


@pytest.mark.parametrize("offset", [-3.1e3, 4.4e3])
def test_peak_search_lands_on_a_lorentzian(offset):
    # 1/f of a Lorentzian is a parabola, so the first step, the vertex of
    # the parabola through the grid's three values, is the centre; two
    # steps of tol on either side of it then close the bracket
    centre, tol = 1.0e6 + offset, 0.5
    f = _lorentzian(centre, 2.0e3)
    omegas = np.array([0.99e6, 1.0e6, 1.01e6])
    response, evaluated = _counted(f)
    omega, value = solve._brent_peak(response, omegas, f(omegas), tol)
    assert abs(omega - centre) <= tol
    assert value == f(omega) and omega in evaluated
    assert len(evaluated) <= 3


def test_peak_search_finds_the_larger_of_two_lorentzians():
    # the bracket holds a weaker peak too; the search climbs the one its
    # middle grid point sits on, whose maximum the weaker one's tail moves
    f1, f2 = _lorentzian(1.002e6, 1.0e3), _lorentzian(0.993e6, 1.5e3, 0.27)

    def f(omega):
        return f1(omega) + f2(omega)

    omegas = np.array([0.99e6, 1.0e6, 1.01e6])
    fine = np.linspace(1.0019e6, 1.0021e6, 200_001)
    peak = fine[np.argmax(f(fine))]
    assert 1.0019e6 < peak < 1.0021e6
    tol = 0.5
    response, evaluated = _counted(f)
    omega, value = solve._brent_peak(response, omegas, f(omegas), tol)
    assert abs(omega - peak) <= tol
    assert value == f(omega)
    assert len(set(evaluated)) == len(evaluated)


def test_model_ii_sweep_peaks_on_the_direct_path(monkeypatch):
    # the model II a0 = 0.02 quarter stadium at R = 0.05 (Q about 40,000)
    # over a window with two sharp resonances.  With the basis refused,
    # every evaluation is a direct solve of V alone, whose roundoff floor
    # here lies below the residual contract (that of dV/domega lies above
    # it); the basis finds the same peaks
    g = rasterize_quarter_stadium(0.02)
    args = (g, CircuitSpec("II", L, C, 0.05), (20.5e6, 22.5e6), 21,
            (centroid_site(g), 1.0))
    lossless = CircuitSpec("II", L, C, 0.0)
    peaks = _direct_sweep(monkeypatch, *args)
    assert len(peaks) == 2
    for w, _ in peaks:
        mode = eigenmode_nearest(g, lossless, w)
        assert abs(w - mode.omega) <= 1e-6 * mode.omega
    assert [w for w, _ in resonance_sweep(*args)] \
        == pytest.approx([w for w, _ in peaks], rel=1e-12)


def _bundled_openblas_threads():
    """Thread count of each OpenBLAS that the numpy and scipy wheels bundle."""
    threads = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                get_threads = getattr(handle, sym, None)
                if get_threads is not None:
                    get_threads.argtypes = []
                    get_threads.restype = ctypes.c_int
                    threads[lib.name] = get_threads()
                    break
    return threads


def test_bundled_openblas_runs_one_thread():
    # rlcnet is imported above; its import pins every bundled OpenBLAS
    threads = _bundled_openblas_threads()
    if not threads:
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    assert threads == dict.fromkeys(threads, 1)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_import_leaves_one_os_thread():
    # ensemble workers are forked, and from Python 3.12 on os.fork warns in
    # a process with other OS threads.  Two BLAS threads make each bundled
    # OpenBLAS start a pool at load; the import must stop both pools
    if not _bundled_openblas_threads():
        pytest.skip("numpy and scipy bundle no OpenBLAS")
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import rlcnet\n"
            "print(*(line for line in open('/proc/self/status')\n"
            "        if line.startswith('Threads:')), end='')")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["Threads:", "1"]


def test_drive_artifacts_independent_of_blas_threads(tmp_path):
    # threaded BLAS sums in an order set by its thread count; without the
    # pin the artifacts of both runs differ between 1 and 2 BLAS threads.
    # The sweep factors once, at its window centre (one peak here); at
    # a0 = 0.02 its factors are too small for BLAS threads to move a bit,
    # so it runs at a0 = 0.01
    stadium = {"geometry": "quarter_stadium", "spacing": 0.01, "model": "I",
               "inductance": L, "capacitance": C, "resistance": 0.3}
    runs = {"drive": {**stadium, "omega": 861100.0,
                      "source_rule": "density_max"},
            "sweep": {**stadium, "omega_min": 853000.0,
                      "omega_max": 858000.0, "n_points": 5,
                      "source_rule": "site"}}
    src = str(Path(__file__).resolve().parents[1] / "src")
    for experiment, config in runs.items():
        cfg = tmp_path / f"{experiment}.json"
        cfg.write_text(json.dumps(config))
        artifacts = []
        for n_threads in ("1", "2"):
            out = tmp_path / f"{experiment}-blas{n_threads}"
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": n_threads}
            proc = subprocess.run(
                [sys.executable, "-m", "rlcnet.cli", experiment, "--config",
                 str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert artifacts[0].keys() == artifacts[1].keys()
        for name in artifacts[0]:
            assert artifacts[0][name] == artifacts[1][name], \
                f"{experiment}: {name}"
        if experiment == "sweep":
            assert json.loads(artifacts[0]["manifest.json"])["n_peaks"] == 1
