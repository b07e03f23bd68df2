"""Kirchhoff admittance assembly for the two RLC network models.

Model I:  inductor links (z = i*w*L + R), capacitor shunts (z = 1/(i*w*C)).
Model II: capacitor links (z = 1/(i*w*C)), resistive-inductor shunts.

The assembled row for site s reads

    sum_links (V_nbr - V_s) / z_link  -  V_s / z_shunt  =  -I_ext(s)

so the matrix is complex symmetric for any R and any tolerance realization.
"""

from dataclasses import dataclass
from math import cos, pi, sqrt

import numpy as np
import scipy.sparse as sp

from .geometry import DIRICHLET, NEUMANN, MIXED, GridGeometry

MODEL_I = "I"
MODEL_II = "II"

_SQRT3 = sqrt(3.0)


@dataclass(frozen=True)
class CircuitSpec:
    """One resonance cell: L, C and the inductor's parasitic resistance R."""

    model: str = MODEL_I
    inductance: float = 1e-4     # henry
    capacitance: float = 1e-9    # farad
    resistance: float = 0.0      # ohm

    def __post_init__(self):
        if self.model not in (MODEL_I, MODEL_II):
            raise ValueError(f"unknown network model: {self.model!r}")
        if self.inductance <= 0.0 or self.capacitance <= 0.0:
            raise ValueError("L and C must be positive")
        if self.resistance < 0.0:
            raise ValueError("R must be >= 0")

    @property
    def omega0(self) -> float:
        """Cell resonance frequency 1/sqrt(LC), rad/s."""
        return 1.0 / sqrt(self.inductance * self.capacitance)

    @property
    def linewidth(self) -> float:
        """R/L for model I, R*C for model II."""
        if self.model == MODEL_I:
            return self.resistance / self.inductance
        return self.resistance * self.capacitance


def link_impedance(spec: CircuitSpec, omega: float) -> complex:
    """Impedance of one lattice link at frequency omega."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if spec.model == MODEL_I:
        return complex(spec.resistance, omega * spec.inductance)
    return 1.0 / (1j * omega * spec.capacitance)


def ground_impedance(spec: CircuitSpec, omega: float) -> complex:
    """Impedance of the per-site shunt to ground."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if spec.model == MODEL_I:
        return 1.0 / (1j * omega * spec.capacitance)
    return complex(spec.resistance, omega * spec.inductance)


@dataclass(frozen=True)
class Perturbation:
    """Component-tolerance multipliers for one disorder realization.

    link_x[i, j] scales the link (i,j)-(i+1,j); link_y the link (i,j)-(i,j+1);
    site[i, j] scales the shunt element at (i, j).  Which physical element a
    multiplier hits depends on the model (links are L for model I, C for
    model II; R always follows its inductor).  Functions that take a
    Perturbation read None as no disorder.
    """

    link_x: np.ndarray
    link_y: np.ndarray
    site: np.ndarray


def sample_perturbation(geometry: GridGeometry, tolerance: float, seed: int,
                        distribution: str = "uniform") -> Perturbation:
    """Independent multiplier per element, std = tolerance, mean 1.

    Uniform draws span [1 - tau*sqrt(3), 1 + tau*sqrt(3)]; Gaussian draws are
    clipped to +-3 tau so multipliers stay in [1 - 3 tau, 1 + 3 tau].
    """
    if tolerance < 0.0:
        raise ValueError("tolerance must be >= 0")
    if distribution not in ("uniform", "gaussian"):
        raise ValueError(f"unknown tolerance distribution: {distribution!r}")
    rng = np.random.default_rng(seed)
    shape = (geometry.nx, geometry.ny)

    def draw():
        if tolerance == 0.0:
            return np.ones(shape)
        if distribution == "uniform":
            return rng.uniform(1.0 - tolerance * _SQRT3, 1.0 + tolerance * _SQRT3, shape)
        return 1.0 + np.clip(rng.normal(0.0, tolerance, shape),
                             -3.0 * tolerance, 3.0 * tolerance)

    return Perturbation(draw(), draw(), draw())


@dataclass
class AdmittanceSystem:
    """Sparse complex-symmetric Kirchhoff system over the unknown sites.

    `hermitian_floor` is a proven lower bound on the smallest eigenvalue of
    the Hermitian part -Re(A), hence on the smallest singular value of A;
    0 where no positive bound is known (R = 0, Neumann or mixed unknowns).
    """

    matrix: sp.csc_matrix
    unknown_sites: np.ndarray   # (n, 2) of (i, j), row-major
    index: np.ndarray           # (nx, ny) int, -1 where not an unknown
    hermitian_floor: float


@dataclass(frozen=True)
class Incidence:
    """Oriented incidence B of the lattice links over a set of unknown sites.

    Links join (i,j)-(i+1,j) (x links) and (i,j)-(i,j+1) (y links); a link
    exists when both ends are network sites and at least one end is
    interior.  Rows of B are the x links, then the y links, each in
    row-major order of the link's lower end.  A row holds -1 at the lower
    end and +1 at the upper end; an end that is not an unknown is grounded
    (V = 0) and dropped, so B^T diag(y) B still carries its diagonal term.
    """

    mask_x: np.ndarray       # bool (nx, ny): x link at its lower end exists
    mask_y: np.ndarray
    index: np.ndarray        # (nx, ny) int, unknown number or -1
    matrix: sp.csr_matrix    # (n_links, n_unknowns)


def lattice_incidence(geometry: GridGeometry, unknown: np.ndarray) -> Incidence:
    """Incidence of the network links over the sites where `unknown` is True."""
    inter = geometry.interior
    member = inter | geometry.boundary
    n = np.count_nonzero(unknown)
    index = -np.ones((geometry.nx, geometry.ny), dtype=np.int64)
    index[unknown] = np.arange(n)
    masks, lo_ends, hi_ends = [], [], []
    for lo, hi in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        mask = np.zeros_like(inter)
        mask[lo] = member[lo] & member[hi] & (inter[lo] | inter[hi])
        masks.append(mask)
        lo_ends.append(index[lo][mask[lo]])
        hi_ends.append(index[hi][mask[lo]])
    n_links = sum(len(e) for e in lo_ends)
    rows = np.tile(np.arange(n_links), 2)
    cols = np.concatenate(lo_ends + hi_ends)
    vals = np.repeat([-1.0, 1.0], n_links)
    keep = cols >= 0
    matrix = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                           shape=(n_links, n))
    return Incidence(mask_x=masks[0], mask_y=masks[1], index=index,
                     matrix=matrix)


def element_admittances(geometry: GridGeometry, spec: CircuitSpec,
                        omega: float, pert: Perturbation | None,
                        incidence: Incidence):
    """Admittance of every link, in the incidence's row order, and of every
    site's shunt as an (nx, ny) array.

    Interior sites carry the model's shunt; boundary sites carry the
    Neumann capacitor or the mixed resistive inductor.  A Dirichlet boundary
    site is grounded, has no shunt element and reads 0.  `pert` None means
    unit multipliers.
    """
    def inductor(mult):
        return 1.0 / (1j * omega * spec.inductance * mult
                      + spec.resistance * mult)

    def capacitor(mult):
        return 1j * omega * spec.capacitance * mult

    link, shunt = (inductor, capacitor) if spec.model == MODEL_I \
        else (capacitor, inductor)
    if pert is None:
        site_mult = np.ones(geometry.interior.shape)
        link_mult = np.ones(incidence.matrix.shape[0])
    else:
        site_mult = pert.site
        link_mult = np.concatenate((pert.link_x[incidence.mask_x],
                                    pert.link_y[incidence.mask_y]))
    y_shunt = np.where(geometry.interior, shunt(site_mult), 0.0)
    bc = geometry.bc
    if bc.kind == NEUMANN:
        y_shunt[geometry.boundary] = capacitor(1.0)
    elif bc.kind == MIXED:
        y_shunt[geometry.boundary] = 1.0 / complex(
            bc.shunt_resistance, omega * bc.shunt_inductance)
    return link(link_mult), y_shunt


def assemble_admittance(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                        pert: Perturbation | None = None) -> AdmittanceSystem:
    """Build the Kirchhoff current-law matrix at frequency omega.

    For Dirichlet boundaries the unknowns are the interior sites only;
    Neumann/mixed boundary sites enter as extra unknowns shunted through
    the tagged element.  The matrix is
    A = -(B^T diag(y_link) B + diag(y_shunt)) with B the lattice incidence.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    unknown = geometry.interior
    if geometry.bc.kind != DIRICHLET:
        unknown = unknown | geometry.boundary
    inc = lattice_incidence(geometry, unknown)
    y_link, y_shunt = element_admittances(geometry, spec, omega, pert, inc)
    B = inc.matrix
    matrix = -(B.T @ sp.diags(y_link) @ B + sp.diags(y_shunt[unknown])).tocsc()
    matrix.sort_indices()   # the sparse product leaves them unsorted
    # -Re(A) = B^T diag(Re y_link) B + diag(Re y_shunt) with Re y >= 0.  When
    # every unknown has four links (in practice with Dirichlet unknowns: a
    # Neumann or mixed boundary site links only to interior sites), none
    # sits on the lattice rim and B^T B is a principal submatrix of the
    # Dirichlet Laplacian of the (nx-2)-by-(ny-2) block inside the rim, so
    # by Cauchy interlacing its eigenvalues are at least that block's lowest
    floor = 0.0
    if np.all(np.bincount(B.indices, minlength=B.shape[1]) == 4):
        lam_rect = 4.0 - 2.0 * cos(pi / (geometry.nx - 1)) \
            - 2.0 * cos(pi / (geometry.ny - 1))
        floor = float(lam_rect * y_link.real.min()
                      + y_shunt[unknown].real.min())
    return AdmittanceSystem(matrix=matrix, unknown_sites=np.argwhere(unknown),
                            index=inc.index, hermitian_floor=floor)
