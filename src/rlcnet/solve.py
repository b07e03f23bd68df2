"""Resonance spectra, driven responses and dispersion maps.

The lossless network maps onto the 5-point discrete Dirichlet Laplacian:
its eigenvalues lam = a0^2 k^2 give circuit resonances omega = omega0 *
sqrt(lam) for model I and omega = omega0 / sqrt(lam) for model II.
"""

from dataclasses import dataclass, replace
from math import pi, sqrt

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar

from .geometry import GridGeometry
from .network import (MODEL_I, CircuitSpec, Perturbation, assemble_admittance,
                      element_admittances, lattice_incidence)

DENSE_EIG_LIMIT = 4000
RESIDUAL_TOL = 1e-10
COND_LIMIT = 1e13


class SingularSystemError(RuntimeError):
    """Driven system is singular or too ill-conditioned to meet the
    residual contract (e.g. a lossless drive exactly on resonance)."""


@dataclass
class Mode:
    """One lossless resonance: circuit frequency and billiard eigenvalue."""

    index: int
    omega: float          # rad/s
    lam_grid: float       # a0^2 k^2, discrete-Laplacian eigenvalue
    eps: float            # lam_grid / a0^2, billiard eigenvalue
    vector: np.ndarray    # real, unit norm, over interior sites (row-major)


@dataclass
class ComplexField:
    """Complex voltage over the lattice; the wave-function analogue.

    `values` is (nx, ny) complex with zeros outside the unknown sites, so
    Dirichlet boundaries read naturally as V = 0.
    """

    geometry: GridGeometry
    values: np.ndarray
    omega: float
    spec: CircuitSpec
    source: tuple | None = None
    perturbation: Perturbation | None = None

    @property
    def interior_values(self) -> np.ndarray:
        return self.values[self.geometry.interior]


def dispersion(spec: CircuitSpec, omega: float) -> complex:
    """Map circuit frequency to the complex billiard eigenvalue a0^2 k^2."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    w0 = spec.omega0
    g = spec.linewidth
    if spec.model == MODEL_I:
        return omega ** 2 / w0 ** 2 - 1j * g * omega / w0 ** 2
    return w0 ** 2 / omega ** 2 + 1j * g * w0 ** 2 / omega


def wavelength(spec: CircuitSpec, spacing: float, omega: float) -> float:
    """Characteristic wavelength 2*pi*a0*omega0/omega in billiard-width units."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return 2.0 * pi * spacing * spec.omega0 / omega


def damping_length(spec: CircuitSpec, spacing: float) -> float:
    """Spatial decay scale (4*pi*a0/R)*sqrt(L/C) of the damped response."""
    if spec.resistance <= 0.0:
        raise ValueError("no damping: R must be positive for a finite length")
    return (4.0 * pi * spacing / spec.resistance) \
        * sqrt(spec.inductance / spec.capacitance)


def quality_factor(spec: CircuitSpec) -> float:
    """Q = sqrt(L/C) / R of one cell."""
    if spec.resistance <= 0.0:
        raise ValueError("Q undefined for R = 0")
    return sqrt(spec.inductance / spec.capacitance) / spec.resistance


def dirichlet_laplacian(geometry: GridGeometry) -> sp.csr_matrix:
    """5-point discrete Laplacian B^T B over interior sites, Dirichlet boundary.

    Diagonal 4, off-diagonal -1 for interior neighbors; boundary neighbors
    contribute V = 0.
    """
    B = lattice_incidence(geometry, geometry.interior).matrix
    return (B.T @ B).tocsr()


def _omega_from_lam(spec: CircuitSpec, lam: float) -> float:
    if spec.model == MODEL_I:
        return spec.omega0 * sqrt(lam)
    return spec.omega0 / sqrt(lam)


def _mode(geometry: GridGeometry, spec: CircuitSpec, index: int, lam,
          vector) -> Mode:
    """Mode of billiard eigenvalue lam = a0^2 k^2, vector scaled to unit norm."""
    lam = float(lam)
    return Mode(index=index, omega=_omega_from_lam(spec, lam),
                lam_grid=lam, eps=lam / geometry.spacing ** 2,
                vector=vector / np.linalg.norm(vector))


def eigenmodes_lossless(geometry: GridGeometry, spec: CircuitSpec,
                        n_modes: int) -> list[Mode]:
    """Lowest-lam resonances of the lossless (R = 0) Dirichlet network.

    Dense symmetric solve up to DENSE_EIG_LIMIT unknowns, shift-invert
    Lanczos from the fixed start ones(n) above.  Eigenvectors are
    orthonormal and real; a degenerate eigenspace gets the basis that the
    solver (and its start) gives.
    """
    n = geometry.n_interior
    if not 1 <= n_modes <= n:
        raise ValueError(f"n_modes must be in [1, {n}]")
    lap = dirichlet_laplacian(geometry)
    if n <= DENSE_EIG_LIMIT:
        lam, vec = scipy.linalg.eigh(lap.toarray(),
                                     subset_by_index=[0, n_modes - 1])
    else:
        lam, vec = spla.eigsh(lap, k=n_modes, sigma=0.0, which="LM",
                              v0=np.ones(n))
        order = np.argsort(lam)
        lam, vec = lam[order], vec[:, order]
    return [_mode(geometry, spec, k, lam[k], vec[:, k])
            for k in range(n_modes)]


def eigenmode_nearest(geometry: GridGeometry, spec: CircuitSpec,
                      omega_target: float,
                      pert: Perturbation | None = None) -> Mode:
    """Lossless eigenmode whose frequency is nearest omega_target.

    Supports component-tolerance realizations through the pencil K v =
    lam M v with lam = a0^2 k^2: K = B^T diag|y_link| B and M = diag|y_shunt|
    at omega0 and R = 0, where every modulus shares the factor sqrt(C/L) in
    either model.  Lanczos starts from ones(n); in an exactly degenerate
    eigenspace the vector is the Ritz vector that start gives.
    """
    if omega_target <= 0.0:
        raise ValueError("omega_target must be positive")
    inter = geometry.interior
    inc = lattice_incidence(geometry, inter)
    lossless = replace(spec, resistance=0.0)
    y_link, y_shunt = element_admittances(geometry, lossless, spec.omega0,
                                          pert, inc)
    K = (inc.matrix.T @ sp.diags(np.abs(y_link)) @ inc.matrix).tocsc()
    M = sp.diags(np.abs(y_shunt[inter]), format="csc")
    lam, vec = spla.eigsh(K, k=1, M=M,
                          sigma=dispersion(lossless, omega_target).real,
                          which="LM", v0=np.ones(K.shape[0]))
    return _mode(geometry, spec, -1, lam[0], vec[:, 0])


def driven_solver(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                  pert: Perturbation | None = None):
    """Factor the driven network at frequency omega once; returns
    solve(source) -> ComplexField for a ((i, j), complex amplitude) current
    injection, refined until the relative residual is below RESIDUAL_TOL.

    A is complex symmetric, so SuperLU factors it in a minimum-degree
    ordering of A^T + A with diagonal pivots.  The system is rejected when
    its 1-norm condition number may exceed COND_LIMIT.  Where the assembly
    proves sigma_min(A) >= hermitian_floor > 0 (Dirichlet unknowns, R > 0)
    the check is the bound sqrt(n) ||A||_1 / hermitian_floor, which needs
    no solve; where that proves nothing (R = 0, Neumann or mixed unknowns,
    or a bound above COND_LIMIT) it is ||A||_1 times an estimate of
    ||A^-1||_1.  Raises SingularSystemError when the factorization, the
    check or the residual contract fails (lossless drive on resonance).
    """
    system = assemble_admittance(geometry, spec, omega, pert=pert)
    A = system.matrix
    n = A.shape[0]
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc
    # reject numerically singular systems that still factorize (an exact
    # lossless resonance).  sigma_min(A) >= hermitian_floor gives
    # ||A^-1||_1 <= sqrt(n) / hermitian_floor with no solve; without such a
    # bound below COND_LIMIT, ||A^-1||_1 is estimated on the factorization
    norm_a = spla.norm(A, 1)
    cond = np.inf
    if system.hermitian_floor > 0.0:
        cond = sqrt(n) * norm_a / system.hermitian_floor
    if cond > COND_LIMIT:
        if n >= 2:
            inv_op = spla.LinearOperator(
                (n, n), matvec=lu.solve,
                rmatvec=lambda v: lu.solve(v, trans="H"), dtype=A.dtype)
            cond = spla.onenormest(inv_op) * norm_a
        else:
            # 1x1 system: compare the surviving entry against the admittance
            # scale of its summands (cancellation to roundoff means resonance)
            from .network import ground_impedance, link_impedance
            scale = 4.0 / abs(link_impedance(spec, omega)) \
                + 1.0 / abs(ground_impedance(spec, omega))
            cond = scale / abs(A[0, 0])
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"system numerically singular (condition estimate {cond:.2e})")

    def solve(source) -> ComplexField:
        (si, sj), amplitude = source
        if amplitude == 0.0 or not geometry.is_interior(si, sj):
            raise ValueError(f"not a nonzero interior source: {source}")
        b = np.zeros(n, dtype=complex)
        b[system.index[si, sj]] = -amplitude
        bnorm = np.linalg.norm(b)
        x = lu.solve(b)
        for _ in range(5):
            r = b - A @ x
            if np.linalg.norm(r) <= RESIDUAL_TOL * bnorm:
                break
            x = x + lu.solve(r)
        r = b - A @ x
        if not np.all(np.isfinite(x)) \
                or np.linalg.norm(r) > RESIDUAL_TOL * bnorm:
            raise SingularSystemError(
                "system too ill-conditioned for the residual contract "
                "(lossless drive on resonance?)")
        values = np.zeros((geometry.nx, geometry.ny), dtype=complex)
        values[tuple(system.unknown_sites.T)] = x
        return ComplexField(geometry=geometry, values=values, omega=omega,
                            spec=spec, source=source, perturbation=pert)

    return solve


def driven_response(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                    source, pert: Perturbation | None = None) -> ComplexField:
    """Exact driven solution for one source: driven_solver(...)(source)."""
    return driven_solver(geometry, spec, omega, pert)(source)


def resonance_sweep(geometry: GridGeometry, spec: CircuitSpec, omega_range,
                    n_points: int, source,
                    pert: Perturbation | None = None,
                    rel_tol: float = 1e-6):
    """Locate resonances of the driven lossy network.

    Sweeps |V|^2 over n_points in omega_range (grid), then refines every
    local maximum by Brent's bounded search (scipy's minimize_scalar) on its
    two-step bracket to relative frequency accuracy rel_tol.
    Returns a list of (omega_peak, response_norm_sq) in ascending omega.
    """
    lo, hi = omega_range
    if not (0.0 < lo < hi):
        raise ValueError("omega_range must be positive and ordered")
    if n_points < 3:
        raise ValueError("need at least 3 sweep points")
    if spec.resistance <= 0.0:
        raise ValueError("resonance sweep requires R > 0")
    if source is None:
        raise ValueError("resonance sweep requires an interior source")

    def neg(omega):
        v = driven_response(geometry, spec, omega, source, pert=pert) \
            .interior_values
        return -float(np.real(np.vdot(v, v)))

    omegas = np.linspace(lo, hi, n_points)
    negs = np.array([neg(w) for w in omegas])
    peaks = []
    for k in range(1, n_points - 1):
        if negs[k] < negs[k - 1] and negs[k] < negs[k + 1]:
            # xatol bounds the distance to the peak, so half of rel_tol *
            # omega keeps the bracket-width meaning of rel_tol
            res = minimize_scalar(neg, bounds=(omegas[k - 1], omegas[k + 1]),
                                  method="bounded",
                                  options={"xatol": 0.5 * rel_tol * omegas[k]})
            peaks.append((float(res.x), -res.fun))
    return peaks
