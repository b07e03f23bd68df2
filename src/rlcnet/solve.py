"""Resonance spectra, driven responses and dispersion maps.

The lossless network maps onto the pencil K v = lam M v of its link and
shunt families (the discrete Dirichlet Laplacian at unit multipliers):
its eigenvalues lam = a0^2 k^2 give circuit resonances omega = omega0 *
sqrt(lam) for model I and omega = omega0 / sqrt(lam) for model II.

Importing this module sets the OpenBLAS libraries that the numpy and
scipy wheels bundle to one thread (`_pin_bundled_openblas`); other BLAS
builds are left alone.
"""

import ctypes
from dataclasses import dataclass, replace
from math import copysign, inf, pi, sqrt
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import GridGeometry
from .network import (MODEL_I, AdmittanceFamilies, CircuitSpec, Perturbation,
                      admittance_families, assemble_admittance,
                      unit_admittances)

RESIDUAL_TOL = 1e-10
COND_LIMIT = 1e13
# a sweep's shifted Krylov basis grows by KRYLOV_BLOCK vectors at a time, up
# to KRYLOV_CAP; an evaluation it cannot serve there factors its own matrix.
# On the a0 = 0.01 quarter stadium (17,650 unknowns) 40 vectors took
# 0.20-0.22 s with the factorization, about 5 factorizations of 38-47 ms,
# and 11.6 MB, below the factor's own 13.6 MB; a window of +-2.4% around
# 860,000 rad/s (21 points) needed all 40 of them, one of +-0.5% (9) 20
KRYLOV_BLOCK = 10
KRYLOV_CAP = 40


def _pin_bundled_openblas():
    """Run the OpenBLAS that numpy and scipy bundle on one thread.

    The supernodes of these 2-D lattice factors are too small for BLAS
    threads to pay: on 2 cores a sweep spent twice its wall time in CPU.
    Threaded BLAS also sums in an order that depends on the core count,
    which leaks into the artifacts through SuperLU and numpy's dot.  Set
    once for the process; the worker processes that `ensemble_average`
    forks inherit it.  Each pool's idle threads are then stopped, so the
    process forks with no other OS thread (OpenBLAS restarts a pool if a
    caller raises the thread count again).  Does nothing where neither
    wheel bundles OpenBLAS.
    """
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads"):
                set_threads = getattr(handle, sym, None)
                if set_threads is not None:
                    set_threads.argtypes = [ctypes.c_int]
                    set_threads.restype = None
                    set_threads(1)
                    break
            shutdown = getattr(handle, "blas_thread_shutdown_", None)
            if shutdown is not None:
                shutdown.argtypes = []
                shutdown.restype = ctypes.c_int
                shutdown()


_pin_bundled_openblas()


class SingularSystemError(RuntimeError):
    """A sparse system is singular or too ill-conditioned to meet the
    residual contract (e.g. a lossless drive exactly on resonance, or an
    eigen shift exactly on an eigenvalue)."""


@dataclass(eq=False)
class Mode:
    """One lossless resonance: circuit frequency and billiard eigenvalue."""

    index: int
    omega: float          # rad/s
    lam_grid: float       # a0^2 k^2, eigenvalue of the pencil K v = lam M v
    eps: float            # lam_grid / a0^2, billiard eigenvalue
    vector: np.ndarray    # real, unit norm, over interior sites (row-major)


@dataclass(eq=False)
class ComplexField:
    """Complex voltage over the lattice; the wave-function analogue.

    `values` is (nx, ny) complex with zeros outside the interior sites, so
    the grounded boundary reads naturally as V = 0.
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
    """Complex billiard eigenvalue a0^2 k^2 that resonates at omega.

    A(omega) = -(y_L K + y_S M), K the (weighted) Laplacian, so A is
    singular where K v = mu v with mu = -y_S / y_L, y_L and y_S the unit
    link and shunt admittances (`unit_admittances`).
    Model I: mu = omega^2 L C - i omega R C; model II: mu = 1 / (omega^2 L
    C - i omega R C).
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    y_link, y_shunt = unit_admittances(spec, omega)
    return -y_shunt / y_link


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


def _mode(geometry: GridGeometry, spec: CircuitSpec, index: int, lam,
          vector) -> Mode:
    """Mode of billiard eigenvalue lam = a0^2 k^2, vector scaled to unit
    norm.  Every pencil here has M > 0 and K > 0, since each connected
    part of the interior has a grounded link, so lam > 0."""
    lam = float(lam)
    omega = spec.omega0 * sqrt(lam) if spec.model == MODEL_I \
        else spec.omega0 / sqrt(lam)
    return Mode(index=index, omega=omega, lam_grid=lam,
                eps=lam / geometry.spacing ** 2,
                vector=vector / np.linalg.norm(vector))


class Ordering:
    """The symmetric ordering that factorizations of one sparsity pattern share.

    A minimum-degree ordering of A^T + A depends on the pattern alone, so
    every matrix of one pattern, such as the pencil shifts of a disorder
    ensemble, can take the ordering of the first.  An Ordering is empty
    until a `Factorization` given it computes that ordering.  It then holds
    the factor's pattern and column permutation p, and the one gather of
    A's data that forms P A P^T (row and column i of A at p[i]).  Each
    later `Factorization` given it factors P A P^T in its natural order,
    with no ordering step; a matrix of another shape or pattern raises
    ValueError.  Fill it before forking worker processes, so that each
    inherits the filled ordering instead of computing its own.
    """

    perm = None

    def record(self, A, perm):
        """Fill the ordering from CSC A and its factor's column permutation.
        scipy permutes a matrix of A's pattern that holds each entry's
        number, and the numbers of P A P^T, in sorted CSC, are the gather."""
        # a copy: SuperLU's perm_c is a view that keeps its whole factor alive
        perm = np.array(perm, dtype=np.intp)
        self.pattern = (A.shape, A.indptr.copy(), A.indices.copy())
        # p^-1: row k of P A P^T is row order[k] of A
        self.order = order = np.argsort(perm)
        # numbered from 1, so that no entry is an explicit zero
        numbers = sp.csc_matrix((np.arange(1, len(A.indices) + 1), A.indices,
                                 A.indptr), shape=A.shape)[order][:, order]
        numbers.sort_indices()
        self.gather = numbers.data - 1
        self.indices, self.indptr = numbers.indices, numbers.indptr
        self.perm = perm

    def permute(self, A):
        """P A P^T of CSC A, which must have the recorded pattern."""
        shape, indptr, indices = self.pattern
        if A.shape != shape or not (np.array_equal(A.indptr, indptr)
                                    and np.array_equal(A.indices, indices)):
            raise ValueError("the matrix does not have the pattern of the "
                             "ordering")
        return sp.csc_matrix((A.data[self.gather], self.indices, self.indptr),
                             shape=shape)


class Factorization:
    """One SuperLU factorization of a square sparse A with a symmetric pattern.

    A minimum-degree ordering of A^T + A with diagonal pivots keeps the
    symmetric structure, which halves the fill of COLAMD with partial
    pivoting on these lattice operators.  SuperLU factors one column per
    panel (`panel_size=1`; its default is 10): the supernodes of a 2-D
    five-point lattice are too small for wider panels to pay.  On one
    BLAS thread that cut a factorization by 20-30% (17,650 stadium
    unknowns: 84 -> 59 ms; 71,003: 510 -> 418 ms; the 99x99 pencil
    shift: 24.6 -> 18.5 ms) and the peak memory of a run by 9-17%, with
    the same ordering, fill and diagonal pivots.  The default `relax`
    stays: `relax=1` stores 2-4% fewer entries of the stadium factors but
    saves neither time nor fill on the pencil.  Every sparse solve in the
    package factors here, on the one BLAS thread that the import set
    (`_pin_bundled_openblas`), so the factors do not depend on the core
    count, and a SuperLU failure (an exactly singular A) raises
    SingularSystemError on every path.  The factors' roundoff depends on
    these settings, so the vector that Lanczos picks from an exactly
    degenerate eigenspace depends on them as well as on its start and its
    stopping rule (`_eigsh_near`).

    Given a filled `ordering`, A is factored on that ordering instead:
    P A P^T, formed by one gather, in its natural order with the same
    pivoting, panels and symmetric mode, which gives the fill and the
    diagonal pivots of the minimum-degree path without its ordering step.
    Given an empty one, A is factored as above and the ordering recorded
    there.  `lu` is SuperLU's factor of the matrix it factored, P A P^T
    on a filled ordering; `apply(b[, trans])` is A^-1 b (A^-H b for trans
    "H") from it, unrefined, and `solve(b)` is A^-1 b refined to the
    residual contract.  A sweep's shifted Krylov basis (`_ShiftedKrylov`)
    applies the unrefined inverse of its window-centre factor, and checks
    the fields it serves against the residual contract on the element
    families.
    """

    def __init__(self, A, ordering: Ordering | None = None):
        self.matrix = A
        A = A.tocsc()
        record = ordering is not None and ordering.perm is None
        reuse = ordering is not None and not record
        factored = ordering.permute(A) if reuse else A
        try:
            self.lu = lu = spla.splu(
                factored, permc_spec="NATURAL" if reuse else "MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, panel_size=1,
                options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SingularSystemError(f"factorization failed: {exc}") from exc
        if record:
            ordering.record(A, lu.perm_c)
        if reuse:
            order, perm = ordering.order, ordering.perm

            def apply(b, trans="N"):
                return lu.solve(b[order], trans)[perm]
        else:
            apply = lu.solve
        # apply holds lu, not self: a reference back to self would make a
        # cycle that keeps each factor alive until the garbage collector
        # runs (6 MB per 99x99 pencil factor)
        self.apply = apply

    def solve(self, b):
        """A^-1 b, refined on the factorization until the relative residual
        is below RESIDUAL_TOL, in at most 5 correction steps; raises
        SingularSystemError when it is not."""
        bnorm = np.linalg.norm(b)
        x = self.apply(b)
        # each residual is computed once; the last pass only measures the
        # residual of the fifth correction for the final check
        for step in range(6):
            r = b - self.matrix @ x
            rnorm = np.linalg.norm(r)
            if rnorm <= RESIDUAL_TOL * bnorm or step == 5:
                break
            x = x + self.apply(r)
        if not np.all(np.isfinite(x)) or rnorm > RESIDUAL_TOL * bnorm:
            raise SingularSystemError(
                "system too ill-conditioned for the residual contract")
        return x


def _eigsh_near(families: AdmittanceFamilies, k: int, sigma: float,
                ordering: Ordering | None = None):
    """k eigenpairs of the pencil K v = lam M v of `families`
    (`admittance_families`) nearest sigma, from one `Factorization` of the
    shift K - sigma M, the families' matrix at y = (-1, sigma), made on
    `ordering` when one is given.  M = diag(w), w the families' positive
    shunt weights.

    With r = sqrt(w), u = r v solves the standard problem R^-1 K R^-1 u =
    lam u, whose shift-invert operator is u -> r * A^-1 (r * u) for A the
    shift.  ARPACK runs it in standard mode 3, which makes no M products
    and runs the Lanczos iteration of generalized mode 3 (ARPACK Users'
    Guide, Lehoucq, Sorensen and Yang, SIAM 1998, sec. 3.2).  It starts
    from r, which is ones(n) in pencil coordinates, so the result does not
    depend on ARPACK's random start.  Returns (lam, v), the columns of v =
    u / r M-orthonormal.

    ARPACK stops once every Ritz estimate ||OP u - theta u|| is at most
    RESIDUAL_TOL |theta| (Users' Guide, sec. 4.6), which bounds the
    pencil residual by about RESIDUAL_TOL ||K - sigma M||; at tol = 0 it
    would iterate to machine precision.  It keeps max(2k + 1, 10) Lanczos
    vectors, at most n, where its default keeps max(2k + 1, 20): the two
    agree from k = 10 on.  A first pass builds all of them before any
    test, so below k = 10 the default never stops earlier.  On the 100
    realizations of the 99x99 ensemble (tau = 0.03, k = 1, one BLAS
    thread) this took the solves per call from a median of 21 (at most
    31) at tol = 0 to 16 (at most 21), and one call from about 21 to 12
    ms; at this tol 8, 10, 12, 14 and 20 vectors took a median of 17, 16,
    19, 15 and 21 solves.  The lowest 1, 4, 6 and 9 modes of an 80x60
    rectangle took 21, 35, 53 and 55 solves at tol = 0 and 11, 31, 48
    and 47 here.  Every pair is then checked against the contract on the
    pencil (`_checked_pairs`).  Roundoff sets its backward error, not the
    stopping rule: at most 3.3e-12 over those 100 realizations (the same
    at tol = 0), 1.5e-12 over 60 states near each of two shifts of the
    a0 = 0.005 quarter stadium and 1.1e-15 over its 200 lowest modes at
    a0 = 0.01.
    """
    factor = Factorization(families.matrix(np.array([-1.0, sigma])), ordering)
    r = np.sqrt(families.shunt_weight)
    n = len(r)
    opinv = spla.LinearOperator(
        (n, n), matvec=lambda u: r * factor.apply(r * np.ravel(u)),
        dtype=float)
    # shift-invert mode applies OPinv only; A gives eigsh its shape and dtype
    lam, u = spla.eigsh(opinv, k=k, sigma=sigma, which="LM", OPinv=opinv,
                        v0=r, tol=RESIDUAL_TOL,
                        ncv=min(n, max(2 * k + 1, 10)))
    return _checked_pairs(families, lam, u / r[:, None])


def _backward_errors(families: AdmittanceFamilies, lam, v):
    """Normwise backward error ||K v - lam M v|| / ((||K||_1 + |lam| max
    w) ||v||) of each column of v on the pencil of `families`, K = G_link
    and M = diag(w) (normwise, as in Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., SIAM 2002); ||K||_1 is the families'
    norm at y = (-1, 0), and neither K nor M is formed."""
    w = families.shunt_weight
    residual = families.link_matrix @ v - lam * (w[:, None] * v)
    norm_k = families.norm1(np.array([-1.0, 0.0]))
    return np.linalg.norm(residual, axis=0) / (
        (norm_k + abs(lam) * np.max(w)) * np.linalg.norm(v, axis=0))


def _checked_pairs(families: AdmittanceFamilies, lam, v):
    """(lam, v) once every pair's `_backward_errors` is at most
    RESIDUAL_TOL; raises SingularSystemError otherwise."""
    eta = _backward_errors(families, lam, v)
    if not np.all(eta <= RESIDUAL_TOL):
        raise SingularSystemError(
            f"eigenpair backward error {np.max(eta):.2e} misses the residual "
            "contract")
    return lam, v


def eigenmodes_lossless(geometry: GridGeometry, spec: CircuitSpec,
                        n_modes: int,
                        pert: Perturbation | None = None) -> list[Mode]:
    """The n_modes lowest-lam lossless resonances of the realization `pert`.

    Shift-invert Lanczos at sigma = 0 on the pencil of the element
    families (`admittance_families`), whose shift K - 0 M holds the bits
    of K, serves requests of at most n / 10 modes; dense
    `scipy.linalg.eigh` of the M^(1/2)-scaled R^-1 K R^-1, as in
    `_eigsh_near`, serves the rest, which covers every grid below 10
    unknowns and n_modes = n, where
    ARPACK (k < n) cannot serve.  The share is measured on one BLAS
    thread: on squares of 2,401 and 3,600 unknowns Lanczos is 10-15%
    faster at n / 10 modes, about 40x faster below it (49x49, 10 modes:
    0.03 s against 1.3 s), and dense is faster above it (49x49, 480
    modes: 1.9 s against 6.6 s).  Eigenvectors are real, M-orthogonal
    and of unit norm; a degenerate eigenspace gets the basis that the
    solver (and its start) gives.  Both paths check every pair against
    the residual contract (`_checked_pairs`).
    """
    n = geometry.n_interior
    if not 1 <= n_modes <= n:
        raise ValueError(f"n_modes must be in [1, {n}]")
    families = admittance_families(geometry, spec, pert)
    if 10 * n_modes <= n:
        lam, vec = _eigsh_near(families, n_modes, 0.0)
        order = np.argsort(lam)
        lam, vec = lam[order], vec[:, order]
    else:
        r = np.sqrt(families.shunt_weight)
        lam, u = scipy.linalg.eigh(
            families.link_matrix.toarray() / r[:, None] / r,
            subset_by_index=[0, n_modes - 1])
        lam, vec = _checked_pairs(families, lam, u / r[:, None])
    return [_mode(geometry, spec, k, lam[k], vec[:, k])
            for k in range(n_modes)]


def eigenmode_nearest(geometry: GridGeometry, spec: CircuitSpec,
                      omega_target: float,
                      pert: Perturbation | None = None,
                      ordering: Ordering | None = None) -> Mode:
    """Lossless eigenmode nearest omega_target in the realization `pert`.

    The shift sigma is the lossless `dispersion` at the target.  K -
    sigma M is the families' (`admittance_families`) operator at y = (-1,
    sigma) on the geometry's fixed stencil pattern, and one
    `Factorization` of it, on `ordering` when one is given, drives
    shift-invert Lanczos in standard form (`_eigsh_near`) from ones(n) in
    pencil coordinates.
    In an exactly degenerate eigenspace the vector is the Ritz vector
    that start gives.  Needs at least 2 unknowns (ARPACK asks for k <
    n); raises SingularSystemError when the shift is exactly an eigenvalue.
    """
    if omega_target <= 0.0:
        raise ValueError("omega_target must be positive")
    if geometry.n_interior < 2:
        raise ValueError("eigenmode_nearest needs at least 2 unknowns")
    families = admittance_families(geometry, spec, pert)
    sigma = dispersion(replace(spec, resistance=0.0), omega_target).real
    lam, vec = _eigsh_near(families, 1, sigma, ordering)
    return _mode(geometry, spec, -1, lam[0], vec[:, 0])


def _condition(families: AdmittanceFamilies, y,
               factor: Factorization | None = None) -> float:
    """The 1-norm condition figure of A = `families`.matrix(y) that the
    driven paths check against COND_LIMIT (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 15).

    Where the families prove sigma_min(A) >= floor > 0
    (`AdmittanceFamilies.floor`) it is the bound sqrt(n) ||A||_1 / floor,
    which needs no solve; where that bound is missing (R = 0) or above
    COND_LIMIT it is ||A||_1 times `onenormest`'s estimate of ||A^-1||_1
    on `factor`, the LinearOperator of its `apply` with the adjoint
    `apply(v, "H")`, and inf without one.  A 1x1 system compares its one
    entry with the moduli of its summands, ||A||_1 at |y|: cancellation
    to roundoff means resonance.  ||A||_1 is `AdmittanceFamilies.norm1`,
    exact in O(n).
    """
    n = families.stencil.n
    floor = families.floor(y)
    cond = sqrt(n) * families.norm1(y) / floor if floor > 0.0 else inf
    if cond > COND_LIMIT and factor is not None:
        if n >= 2:
            inverse = spla.LinearOperator(
                (n, n), factor.apply, rmatvec=lambda v: factor.apply(v, "H"),
                dtype=factor.matrix.dtype)
            cond = spla.onenormest(inverse) * families.norm1(y)
        else:
            cond = families.norm1(np.abs(y)) / abs(factor.matrix[0, 0])
    return cond


def _source_vector(geometry: GridGeometry, source) -> np.ndarray:
    """Right-hand side of a ((i, j), complex amplitude) current injection
    over the unknowns of the geometry's driven stencil."""
    (si, sj), amplitude = source
    if amplitude == 0.0 or not geometry.is_interior(si, sj):
        raise ValueError(f"not a nonzero interior source: {source}")
    b = np.zeros(geometry.stencil.n, dtype=complex)
    b[geometry.stencil.index[si, sj]] = -amplitude
    return b


def driven_solver(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                  pert: Perturbation | None = None):
    """Factor the driven network at frequency omega once; returns
    solve(source) -> ComplexField for a ((i, j), complex amplitude) current
    injection, refined until the relative residual is below RESIDUAL_TOL.

    A is complex symmetric and the only matrix formed; one
    `Factorization` holds it, and its `solve` refines every right-hand
    side.  The system is rejected when its 1-norm condition number may
    exceed COND_LIMIT (`_condition` on the element families): where the
    families prove sigma_min(A) >= floor > 0 (R > 0) the check is a
    bound taken before the factorization, which needs no solve; where
    that proves nothing (R = 0, or a bound above COND_LIMIT) it estimates
    ||A^-1||_1 on the factorization.  Raises SingularSystemError when the
    factorization, the check or the residual contract fails (lossless
    drive on resonance).  A settled bound leaves the families unused, and
    they are freed before the factorization so that they stay off its
    peak memory.
    """
    families = admittance_families(geometry, spec, pert)
    A = assemble_admittance(families, omega)
    cond = _condition(families, families.units(omega))
    if cond <= COND_LIMIT:
        families = None
    factor = Factorization(A)
    # reject numerically singular systems that still factorize (an exact
    # lossless resonance)
    if cond > COND_LIMIT:
        cond = _condition(families, families.units(omega), factor)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularSystemError(
            f"system numerically singular (condition estimate {cond:.2e})")

    def solve(source):
        values = np.zeros((geometry.nx, geometry.ny), dtype=complex)
        values[geometry.interior] = factor.solve(
            _source_vector(geometry, source))
        return ComplexField(geometry=geometry, values=values, omega=omega,
                            spec=spec, source=source, perturbation=pert)

    return solve


def driven_response(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                    source, pert: Perturbation | None = None) -> ComplexField:
    """Exact driven solution for one source: driven_solver(...)(source)."""
    return driven_solver(geometry, spec, omega, pert)(source)


def _brent_peak(response, omegas, f, tol: float):
    """Maximum of f = |V|^2 inside the grid bracket (omegas[0], omegas[2]),
    given f there (largest in the middle) and `response(omega)`, f at
    omega.

    Brent's minimization of h = 1/f without derivatives (Brent,
    Algorithms for Minimization without Derivatives, Prentice-Hall 1973,
    ch. 5), seeded with the three grid points, so that none is evaluated
    twice.  Across a Lorentzian peak h is a parabola in omega, so the
    first step, the vertex of the parabola through the grid's h, lands on
    the peak.  A parabolic step stands where it stays inside the bracket
    and is shorter than half the step before last; otherwise a golden
    section step into the larger part of the bracket replaces it.  No
    point is evaluated within `tol` of the best one, or of a bracket end
    it does not stay inside.  Stops once the best point lies within 2
    `tol` of both bracket ends, which a `tol` of a few ulps of omega or
    more guarantees, and returns (omega, f) at the best point evaluated.
    """
    golden = 0.5 * (3.0 - sqrt(5.0))
    a, b = omegas[0], omegas[2]
    x, hx, fx = omegas[1], 1.0 / f[1], f[1]
    # w the second best point, v the one before it
    (hw, w), (hv, v) = sorted(((1.0 / f[0], a), (1.0 / f[2], b)))
    # d is the last step and e the one before; both start as the bracket,
    # so that the first step can be the parabola
    e = d = b - a
    while True:
        mid = 0.5 * (a + b)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return float(x), float(fx)
        r = (x - w) * (hx - hv)
        q = (x - v) * (hx - hw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p, q) if q > 0.0 else (p, -q)
        before_last, e = e, d
        if abs(p) < abs(0.5 * q * before_last) \
                and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = copysign(tol, mid - x)
        else:
            e = (a if x >= mid else b) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else copysign(tol, d))
        fu = response(u)
        hu = 1.0 / fu
        if hu <= hx:
            a, b = (x, b) if u >= x else (a, x)
            (v, hv), (w, hw) = (w, hw), (x, hx)
            x, hx, fx = u, hu, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if hu <= hw or w == x:
                (v, hv), (w, hw) = (w, hw), (u, hu)
            elif hu <= hv or v == x or v == w:
                v, hv = u, hu


class _ShiftedKrylov:
    """One Krylov space that serves the driven solves of a sweep window.

    `_ShiftedKrylov(geometry, spec, omega_range, pert, source)` builds the
    element families of the network, assembles A_c at the window centre
    omega_c (`assemble_admittance`, the sweep's only assembly), factors it
    and grows the basis of the drive at `source` by one block.

    A(omega) = -(y_L K + y_S M) on the pencil K v = lam M v of the
    element families (`admittance_families`), M = diag(w), so A_c =
    A(omega_c) = -y_L(omega_c) (K - mu_c M) is the pencil shifted at the
    complex mu_c = `dispersion`(omega_c), and every A(omega) is alpha A_c
    + beta M, with alpha = y_L(omega) / y_L(omega_c) and beta = alpha
    y_S(omega_c) - y_S(omega).  In the M-scaled coordinates of
    `_eigsh_near`, r = sqrt(w), u = r V and T u = r A_c^-1 (r u), the
    pencil shift-inverted at mu_c, A V = b reads (alpha I + beta T) u =
    u0, u0 = r A_c^-1 b, so u lies in K_m(T, u0) for every omega at once
    (shifted systems: Frommer and Glaessner, SIAM J. Sci. Comput. 19
    (1998) 15; Pade via Lanczos: Feldmann and Freund, IEEE Trans. CAD 14
    (1995) 639).  The Galerkin projection onto it is in the w-weighted
    inner product on V; at unit weights that is the Euclidean one.

    Arnoldi with two passes of classical Gram-Schmidt builds T Q_m = Q_m
    H_m + h q e_m^T, each step one solve on one `Factorization` of the
    assembled A_c and two scalings by r, into a basis preallocated for
    KRYLOV_CAP vectors and grown KRYLOV_BLOCK at a time when an
    evaluation needs it.  An evaluation solves the m x m (alpha I + beta
    H_m) c = ||u0|| e1, returns V = (c^T Q_m) / r, and assembles nothing:
    the families, held for the window, give its condition bound
    (`_condition`) in O(n), and it is served only when that bound settles
    the check and V meets the residual contract on the families' product
    A V (`AdmittanceFamilies.product`).  A space that closes (h = 0, an
    invariant space) is exact and grows no further.
    """

    def __init__(self, geometry: GridGeometry, spec: CircuitSpec, omega_range,
                 pert: Perturbation | None, source):
        omega_c = 0.5 * (omega_range[0] + omega_range[1])
        self.families = families = admittance_families(geometry, spec, pert)
        self.b = _source_vector(geometry, source)
        self.apply = Factorization(assemble_admittance(families, omega_c)).apply
        self.r = np.sqrt(families.shunt_weight)
        self.y_c = families.units(omega_c)
        n = len(self.b)
        size = min(KRYLOV_CAP, n)
        # one basis vector per row, so the rows in use are contiguous
        self.Q = np.empty((size + 1, n), dtype=complex)
        self.H = np.zeros((size + 1, size), dtype=complex)
        u0 = self.r * self.apply(self.b)
        self.beta0 = np.linalg.norm(u0)
        self.Q[0] = u0 / self.beta0
        self.m = 0
        self.closed = False
        self._grow()

    def _grow(self) -> bool:
        """Add up to KRYLOV_BLOCK Arnoldi vectors, each step r A_c^-1 (r
        q_j); False when the basis is at its cap or its space has closed."""
        stop = min(self.m + KRYLOV_BLOCK, self.H.shape[1])
        if self.closed or self.m == stop:
            return False
        Q, H, r = self.Q, self.H, self.r
        for j in range(self.m, stop):
            w = r * self.apply(r * Q[j])
            scale = np.linalg.norm(w)
            for _ in range(2):
                h = (Q[:j + 1] @ w.conj()).conj()
                w -= h @ Q[:j + 1]
                H[:j + 1, j] += h
            H[j + 1, j] = norm = np.linalg.norm(w)
            self.m = j + 1
            # what two passes leave of a vector already in the space is
            # roundoff, about eps * scale
            if norm <= 1e-12 * scale:
                self.closed = True
                break
            Q[j + 1] = w / norm
        return True

    def solve(self, omega: float):
        """V over the unknowns at omega, from the projected pencil alpha I
        + beta H_m, or None when the basis cannot serve omega: the bound
        does not settle the condition check, or the residual contract
        fails at the cap."""
        families = self.families
        y = families.units(omega)
        if _condition(families, y) > COND_LIMIT:
            return None
        # A(omega) = alpha A_c + beta M
        y_l, y_s = self.y_c
        alpha, beta = y[0] / y_l, y[0] * y_s / y_l - y[1]
        bound = RESIDUAL_TOL * np.linalg.norm(self.b)
        while True:
            m = self.m
            try:
                x = np.linalg.solve(alpha * np.eye(m) + beta * self.H[:m, :m],
                                    self.beta0 * np.eye(m)[0]) \
                    @ self.Q[:m] / self.r
            except np.linalg.LinAlgError:
                x = None    # the projected pencil is exactly singular
            if x is not None and np.linalg.norm(
                    families.product(y, x) - self.b) <= bound:
                return x
            if not self._grow():
                return None


def resonance_sweep(geometry: GridGeometry, spec: CircuitSpec, omega_range,
                    n_points: int, source,
                    pert: Perturbation | None = None,
                    rel_tol: float = 1e-6):
    """Locate resonances of the driven lossy network.

    Sweeps f = |V|^2 over n_points in omega_range (grid), then refines
    every strict grid maximum of f inside its two-step bracket by Brent's
    minimization of 1/f (`_brent_peak`), seeded with the bracket's grid
    values, until the peak is located within rel_tol * omega, so rel_tol
    must be positive (ValueError otherwise); a rel_tol * omega below a
    few ulps of omega stops at those ulps.  Each evaluation needs V only.
    It comes from one Krylov basis of the billiard pencil shift-inverted
    at the window centre's complex dispersion (`_ShiftedKrylov`), on one
    factorization of A there, checked against the residual contract on
    the element families, and the centre is the sweep's only assembly;
    an evaluation the basis cannot serve (a bound that does not settle
    its condition check, or the contract unmet at the cap) is one
    `driven_response` call: one factorization.  Returns a list of
    (omega_peak, response_norm_sq) in ascending omega, omega_peak the
    best frequency the search evaluated and the value |V|^2 of that
    evaluation's field, which has met the residual contract.
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
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")

    krylov = _ShiftedKrylov(geometry, spec, omega_range, pert, source)

    def response(omega):
        """f = |V|^2 at omega."""
        v = krylov.solve(omega)
        if v is None:
            v = driven_response(geometry, spec, omega, source,
                                pert=pert).interior_values
        return float(np.real(np.vdot(v, v)))

    omegas = np.linspace(lo, hi, n_points)
    f = np.array([response(w) for w in omegas])
    # the search locates each peak within 2 tol = rel_tol * omega
    return [_brent_peak(response, omegas[k - 1:k + 2], f[k - 1:k + 2],
                        max(0.5 * rel_tol * omegas[k],
                            4.0 * np.spacing(omegas[k])))
            for k in range(1, n_points - 1)
            if f[k] > f[k - 1] and f[k] > f[k + 1]]
