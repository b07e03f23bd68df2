"""Impedances, tolerance sampling and admittance assembly."""

import numpy as np
import pytest

from rlcnet.geometry import BCKind, rasterize_rectangle, tag_boundary
from rlcnet.network import (CircuitSpec, assemble_admittance, ground_impedance,
                            link_impedance, sample_perturbation)

L, C = 1e-4, 1e-9


def test_link_impedance_model_i_lossless():
    spec = CircuitSpec("I", L, C, 0.0)
    assert link_impedance(spec, 1e6) == pytest.approx(100j)


def test_link_impedance_model_i_lossy():
    spec = CircuitSpec("I", L, C, 0.5)
    z = link_impedance(spec, 0.8611e6)
    assert z == pytest.approx(0.5 + 86.11j)


def test_link_impedance_model_ii():
    spec = CircuitSpec("II", L, C, 0.0)
    assert link_impedance(spec, 1e6) == pytest.approx(-1000j)


def test_ground_impedance_examples():
    spec1 = CircuitSpec("I", L, C, 0.0)
    assert ground_impedance(spec1, 1e6) == pytest.approx(-1000j)
    spec2 = CircuitSpec("II", L, C, 1.0)
    assert ground_impedance(spec2, 1e6) == pytest.approx(1 + 100j)
    assert ground_impedance(spec1, spec1.omega0) == pytest.approx(
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
    with pytest.raises(ValueError):
        link_impedance(CircuitSpec("I", L, C, 0.0), 0.0)


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


def test_single_site_assembly_entry():
    g = rasterize_rectangle(1, 1, 0.1)
    spec = CircuitSpec("I", L, C, 0.5)
    omega = 1e6
    sys = assemble_admittance(g, spec, omega)
    z_link = link_impedance(spec, omega)
    z_c = ground_impedance(spec, omega)
    expected = -(4.0 / z_link + 1.0 / z_c)
    assert sys.matrix.shape == (1, 1)
    assert sys.matrix[0, 0] == pytest.approx(expected)


@pytest.mark.parametrize("model,resistance", [("I", 0.0), ("I", 0.7),
                                              ("II", 0.0), ("II", 0.7)])
def test_matrix_complex_symmetric(model, resistance):
    g = rasterize_rectangle(7, 5, 0.1)
    spec = CircuitSpec(model, L, C, resistance)
    pert = sample_perturbation(g, 0.02, 9)
    a = assemble_admittance(g, spec, 1.3e6, pert=pert).matrix
    diff = (a - a.T).toarray()
    assert np.max(np.abs(diff)) < 1e-15 * np.max(np.abs(a.toarray()))


def test_lossless_matrix_is_scaled_laplacian():
    # R=0 model I: A * (i omega L) = -(A_lap - omega^2 L C * Id)
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.0)
    omega = 1.1e6
    a = assemble_admittance(g, spec, omega).matrix.toarray()
    scaled = a * (1j * omega * L)
    from rlcnet.solve import dirichlet_laplacian
    lap = dirichlet_laplacian(g).toarray()
    expected = -(lap - omega ** 2 * L * C * np.eye(lap.shape[0]))
    assert np.max(np.abs(scaled - expected)) < 1e-12
    assert np.max(np.abs(scaled.imag)) < 1e-15


def test_zero_tolerance_reproduces_matrix_exactly():
    g = rasterize_rectangle(6, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.4)
    base = assemble_admittance(g, spec, 1.2e6).matrix
    pert = sample_perturbation(g, 0.0, 5)
    again = assemble_admittance(g, spec, 1.2e6, pert=pert).matrix
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
    sys = assemble_admittance(g, spec, 1e6)
    field = solve(((2, 2), 1.0))
    rhs = sys.matrix @ field.values[tuple(sys.unknown_sites.T)]
    expected = np.zeros_like(rhs)
    expected[sys.index[2, 2]] = -1.0
    assert np.max(np.abs(rhs - expected)) < 1e-10


def test_neumann_and_mixed_boundary_unknowns():
    g = rasterize_rectangle(4, 4, 0.1)
    spec = CircuitSpec("I", L, C, 0.2)
    n_int = g.n_interior
    n_all = n_int + len(g.boundary_sites)
    assert assemble_admittance(g, spec, 1e6).matrix.shape == (n_int, n_int)
    gn = tag_boundary(g, BCKind("neumann"))
    assert assemble_admittance(gn, spec, 1e6).matrix.shape == (n_all, n_all)
    gm = tag_boundary(g, BCKind("mixed", 0.5, 1e-4))
    am = assemble_admittance(gm, spec, 1e6).matrix
    assert am.shape == (n_all, n_all)
    assert np.max(np.abs((am - am.T).toarray())) < 1e-15
