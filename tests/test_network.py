"""Impedances, tolerance sampling and admittance assembly."""

import numpy as np
import pytest
import scipy.sparse as sp

from rlcnet.geometry import rasterize_rectangle
from rlcnet.network import (CircuitSpec, admittance_families,
                            assemble_admittance, sample_perturbation,
                            unit_admittances)
from rlcnet.solve import _condition

L, C = 1e-4, 1e-9


def test_link_impedance_model_i_lossless():
    spec = CircuitSpec("I", L, C, 0.0)
    assert 1.0 / unit_admittances(spec, 1e6)[0] == pytest.approx(100j)


def test_link_impedance_model_i_lossy():
    spec = CircuitSpec("I", L, C, 0.5)
    z = 1.0 / unit_admittances(spec, 0.8611e6)[0]
    assert z == pytest.approx(0.5 + 86.11j)


def test_link_impedance_model_ii():
    spec = CircuitSpec("II", L, C, 0.0)
    assert 1.0 / unit_admittances(spec, 1e6)[0] == pytest.approx(-1000j)


def test_ground_impedance_examples():
    spec1 = CircuitSpec("I", L, C, 0.0)
    assert 1.0 / unit_admittances(spec1, 1e6)[1] == pytest.approx(-1000j)
    spec2 = CircuitSpec("II", L, C, 1.0)
    assert 1.0 / unit_admittances(spec2, 1e6)[1] == pytest.approx(1 + 100j)
    assert 1.0 / unit_admittances(spec1, spec1.omega0)[1] == pytest.approx(
        -316.23j, rel=1e-4)


def test_omega0_and_linewidth():
    spec = CircuitSpec("I", L, C, 0.5)
    assert spec.omega0 == pytest.approx(3.1623e6, rel=1e-4)
    assert spec.linewidth == pytest.approx(0.5 / L)
    assert CircuitSpec("II", L, C, 0.5).linewidth == pytest.approx(0.5 * C)


def test_circuit_spec_validation():
    with pytest.raises(ValueError):
        CircuitSpec("III", L, C, 0.0)
    with pytest.raises(ValueError):
        CircuitSpec("I", -L, C, 0.0)
    with pytest.raises(ValueError):
        CircuitSpec("I", L, C, -0.1)


def test_perturbation_zero_tolerance():
    g = rasterize_rectangle(5, 5, 0.1)
    p = sample_perturbation(g, 0.0, 3)
    assert np.all(p.link_x == 1.0) and np.all(p.link_y == 1.0)
    assert np.all(p.site == 1.0)


def test_perturbation_seeds_differ():
    g = rasterize_rectangle(5, 5, 0.1)
    a = sample_perturbation(g, 0.01, 1)
    b = sample_perturbation(g, 0.01, 2)
    assert not np.array_equal(a.link_x, b.link_x)
    # same seed reproduces the draw
    c = sample_perturbation(g, 0.01, 1)
    assert np.array_equal(a.link_x, c.link_x)


def test_perturbation_std_matches_tolerance():
    # about 1e6 multipliers: the sample std must estimate tau within 1%
    g = rasterize_rectangle(998, 998, 1.0)
    p = sample_perturbation(g, 0.01, 11)
    assert abs(p.link_x.std() - 0.01) / 0.01 < 0.01
    assert abs(p.link_x.mean() - 1.0) < 1e-4


def test_perturbation_bounds():
    g = rasterize_rectangle(50, 50, 1.0)
    for dist in ("uniform", "gaussian"):
        p = sample_perturbation(g, 0.05, 4, distribution=dist)
        for arr in (p.link_x, p.link_y, p.site):
            assert np.all(arr >= 1.0 - 3 * 0.05)
            assert np.all(arr <= 1.0 + 3 * 0.05)
    with pytest.raises(ValueError):
        sample_perturbation(g, 0.01, 0, distribution="cauchy")
    with pytest.raises(ValueError):
        sample_perturbation(g, -0.1, 0)


def test_perturbation_rejects_multipliers_that_reach_zero():
    # uniform draws reach 1 - tau sqrt(3), Gaussian ones 1 - 3 tau: a law
    # that can reach m <= 0 gives elements of no or negative value
    g = rasterize_rectangle(50, 50, 1.0)
    for dist, ok, bad in (("uniform", 0.57, 0.6),
                          ("gaussian", 0.33, 1.0 / 3.0)):
        p = sample_perturbation(g, ok, 4, distribution=dist)
        assert min(arr.min() for arr in (p.link_x, p.link_y, p.site)) > 0.0
        with pytest.raises(ValueError, match="m <= 0"):
            sample_perturbation(g, bad, 4, distribution=dist)


def test_single_site_assembly_entry():
    g = rasterize_rectangle(1, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    omega = 1e6
    a = assemble_admittance(admittance_families(g, spec), omega)
    z_link = 1.0 / unit_admittances(spec, omega)[0]
    z_c = 1.0 / unit_admittances(spec, omega)[1]
    expected = -(4.0 / z_link + 1.0 / z_c)
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(expected)


@pytest.mark.parametrize("model,resistance", [("I", 0.0), ("I", 0.7),
                                              ("II", 0.0), ("II", 0.7)])
def test_matrix_complex_symmetric(model, resistance):
    g = rasterize_rectangle(7, 5, 0.1)
    spec = CircuitSpec(model, L, C, resistance)
    pert = sample_perturbation(g, 0.02, 9)
    a = assemble_admittance(admittance_families(g, spec, pert), 1.3e6)
    diff = (a - a.T).toarray()
    assert np.max(np.abs(diff)) < 1e-15 * np.max(np.abs(a.toarray()))


def test_lossless_matrix_is_scaled_laplacian(incidence):
    # R=0 model I: A * (i omega L) = -(A_lap - omega^2 L C * Id)
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    omega = 1.1e6
    a = assemble_admittance(admittance_families(g, spec), omega).toarray()
    scaled = a * (1j * omega * L)
    B = incidence(g)
    lap = (B.T @ B).toarray()
    expected = -(lap - omega ** 2 * L * C * np.eye(lap.shape[0]))
    assert np.max(np.abs(scaled - expected)) < 1e-12
    assert np.max(np.abs(scaled.imag)) < 1e-15


def test_zero_tolerance_reproduces_matrix_exactly():
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.4)
    base = assemble_admittance(admittance_families(g, spec), 1.2e6)
    pert = sample_perturbation(g, 0.0, 5)
    again = assemble_admittance(admittance_families(g, spec, pert), 1.2e6)
    assert np.array_equal(base.toarray(), again.toarray())


def test_source_must_be_interior():
    from rlcnet.solve import driven_solver
    g = rasterize_rectangle(3, 3, 0.1)
    spec = CircuitSpec("I", L, C, 0.1)
    solve = driven_solver(g, spec, 1e6)
    # a boundary site, a negative index that would wrap onto the interior
    # site (3, 2), and a site off the lattice
    for site in ((0, 0), (-2, 2), (50, 2)):
        with pytest.raises(ValueError):
            solve((site, 1.0))
    # the injection enters the right-hand side as -I at the source row only
    a = assemble_admittance(admittance_families(g, spec), 1e6)
    field = solve(((2, 2), 1.0))
    rhs = a @ field.values[g.interior]
    expected = np.zeros_like(rhs)
    expected[g.stencil.index[2, 2]] = -1.0
    assert np.max(np.abs(rhs - expected)) < 1e-10


def _absolute(B, y_link, y_shunt):
    """B^T diag|y_link| B + diag|y_shunt| with |B|: the sum of moduli that
    bounds the roundoff of each entry of the element product."""
    B = abs(B)
    return B.T @ sp.diags(np.abs(y_link)) @ B + sp.diags(np.abs(y_shunt))


@pytest.mark.parametrize("tau", [0.0, 0.03])
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("walls", ["dirichlet"])
def test_stencil_assembly_bitwise_equals_incidence_product(
        walls, model, tau, incidence, bits_equal, element_admittances):
    # A formed from the element families holds the bits of the sparse
    # family product -(y_0 B^T diag(w_link) B + diag(shunts)), lossless and
    # lossy.  At tau = 0 (every weight 1) it also holds the bits of the
    # element product -(B^T diag(y_link) B + diag(y_shunt)).  At tau > 0 a
    # family scales y_0 by 1/m where an element computes 1/(m z), and a
    # diagonal takes y_0 times the summed weights rather than the sum of
    # y_0 w: that rounds differently.  Each entry stays within 8 eps of
    # its sum of moduli; the largest difference measured here is 1.6 eps.
    g = rasterize_rectangle(7, 5, 0.1)
    B = incidence(g)
    pert = sample_perturbation(g, tau, 6)
    for resistance in (0.0, 0.7):
        spec = CircuitSpec(model, L, C, resistance)
        families = admittance_families(g, spec, pert)
        link = B.T @ sp.diags(families.link) @ B
        y = families.units(1.3e6)
        got = assemble_admittance(families, 1.3e6)
        assert bits_equal(got, families.matrix(y))
        family = -(y[0] * link + sp.diags(families.shunts(y)))
        assert bits_equal(got, family), resistance
        y_link, y_shunt = element_admittances(g, spec, 1.3e6, pert)
        y_shunt = y_shunt[g.interior]
        element = -(B.T @ sp.diags(y_link) @ B + sp.diags(y_shunt))
        if tau == 0.0:
            assert bits_equal(got, element), resistance
        scale = _absolute(B, y_link, y_shunt).toarray()
        error = np.abs(got.toarray() - element.toarray())
        assert np.all(error <= 8 * np.finfo(float).eps * scale), resistance


@pytest.mark.parametrize("tau", [0.0, 0.03])
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("walls", ["dirichlet"])
def test_family_operator_matches_the_element_product(
        walls, model, tau, incidence, element_admittances):
    # the product that a sweep's Krylov basis checks its fields on,
    # -(y_0 G_0 x + shunts x) with no matrix formed, against A of the
    # element admittances on random vectors, within 8 eps of |A| |x|
    # (measured: 1.1 eps at tau = 0 and 1.6 eps at tau = 0.03, where the
    # families round differently)
    g = rasterize_rectangle(7, 5, 0.1)
    B = incidence(g)
    pert = sample_perturbation(g, tau, 6)
    rng = np.random.default_rng(3)
    for resistance in (0.0, 0.7):
        spec = CircuitSpec(model, L, C, resistance)
        families = admittance_families(g, spec, pert)
        y = families.units(1.3e6)
        y_link, y_shunt = element_admittances(g, spec, 1.3e6, pert)
        y_shunt = y_shunt[g.interior]
        element = -(B.T @ sp.diags(y_link) @ B + sp.diags(y_shunt))
        scale = _absolute(B, y_link, y_shunt)
        for i in range(3):
            x = rng.standard_normal(g.stencil.n) \
                + 1j * rng.standard_normal(g.stencil.n)
            error = np.abs(families.product(y, x) - element @ x)
            assert np.all(error <= 8 * np.finfo(float).eps
                          * (scale @ np.abs(x))), (resistance, i)


@pytest.mark.parametrize("tau", [0.0, 0.03])
@pytest.mark.parametrize("model", ["I", "II"])
@pytest.mark.parametrize("walls", ["dirichlet"])
def test_family_condition_figure_matches_the_assembled_one(
        walls, model, tau, element_admittances):
    # the O(n) ||A||_1 and floor that every condition check takes
    # (`_condition`), against the largest column sum of the dense |A| and
    # the floor lam_rect min Re(y_link) + min Re(y_shunt) of the element
    # admittances; both at roundoff, near a resonance and away from it
    g = rasterize_rectangle(7, 5, 0.1)
    pert = sample_perturbation(g, tau, 6)
    nx, ny = g.nx, g.ny
    lam_rect = 4.0 - 2.0 * np.cos(np.pi / (nx - 1)) \
        - 2.0 * np.cos(np.pi / (ny - 1))
    for resistance in (0.0, 0.7):
        spec = CircuitSpec(model, L, C, resistance)
        families = admittance_families(g, spec, pert)
        for omega in (0.4e6, 1.3e6, 4.1e6):
            a = assemble_admittance(families, omega).toarray()
            y = families.units(omega)
            norm = np.abs(a).sum(axis=0).max()
            assert families.norm1(y) == pytest.approx(norm, rel=1e-14)
            floor = families.floor(y)
            y_link, y_shunt = element_admittances(g, spec, omega, pert)
            want = lam_rect * y_link.real.min() \
                + y_shunt[g.interior].real.min()
            assert floor == pytest.approx(want, rel=1e-14, abs=0.0)
            bound = np.sqrt(g.stencil.n) * norm / floor if floor > 0.0 \
                else np.inf
            assert _condition(families, y) == pytest.approx(bound, rel=1e-14)
