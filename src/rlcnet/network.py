"""Kirchhoff admittance assembly for the two RLC network models.

Model I:  inductor links (z = i*w*L + R), capacitor shunts (z = 1/(i*w*C)).
Model II: capacitor links (z = 1/(i*w*C)), resistive-inductor shunts.

The assembled row for site s reads

    sum_links (V_nbr - V_s) / z_link  -  V_s / z_shunt  =  -I_ext(s)

so the matrix is complex symmetric for any R and any tolerance realization.
"""

from dataclasses import dataclass
from math import cos, factorial, pi, sqrt

import numpy as np
import scipy.sparse as sp

from .geometry import NEUMANN, MIXED, GridGeometry, LatticeStencil

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
    `derivatives` holds the requested d^k A / domega^k, k = 1, ..., order.
    """

    matrix: sp.csc_matrix
    stencil: LatticeStencil
    hermitian_floor: float
    derivatives: tuple = ()

    @property
    def index(self) -> np.ndarray:
        """(nx, ny) unknown number, -1 where not an unknown."""
        return self.stencil.index


def _element_forms(spec: CircuitSpec, omega: float, order: int):
    """Admittance forms of the network's elements at omega, or their
    `order`-th omega derivatives, as functions of a component multiplier:
    (link, shunt, inductor, capacitor), the model's link and interior shunt
    elements first.  `inductor` also takes its own L and R (a mixed wall's
    shunt); every element admittance in the package comes from these."""
    def inductor(mult, inductance=spec.inductance, resistance=spec.resistance):
        y = 1.0 / (1j * omega * inductance * mult + resistance * mult)
        if order == 0:
            return y
        # d^k y / d omega^k = k! (-i L m)^k y^(k+1)
        return factorial(order) * (-1j * inductance * mult) ** order \
            * y ** (order + 1)

    def capacitor(mult):
        # y = i omega C m is linear in omega
        scale = omega if order == 0 else float(order == 1)
        return 1j * scale * spec.capacitance * mult

    if spec.model == MODEL_I:
        return inductor, capacitor, inductor, capacitor
    return capacitor, inductor, inductor, capacitor


def unit_admittances(spec: CircuitSpec, omega: float,
                     order: int = 0) -> tuple[complex, complex]:
    """(y_L, y_S): the admittance of one link element and of one interior
    shunt element at unit multiplier, or their `order`-th omega
    derivatives.  Under Dirichlet walls A(omega) = -(y_L K_L + y_S K_S)
    with K_L and K_S real and independent of omega, for any Perturbation."""
    link, shunt, _, _ = _element_forms(spec, omega, order)
    return complex(link(1.0)), complex(shunt(1.0))


def element_admittances(geometry: GridGeometry, spec: CircuitSpec,
                        omega: float, pert: Perturbation | None,
                        stencil: LatticeStencil, order: int = 0):
    """Admittance of every link, in the stencil's link order, and of every
    site's shunt as an (nx, ny) array; with `order` k > 0, their k-th
    derivatives with respect to omega.

    Interior sites carry the model's shunt; boundary sites carry the
    Neumann capacitor or the mixed resistive inductor.  A Dirichlet boundary
    site is grounded, has no shunt element and reads 0.  `pert` None means
    unit multipliers.
    """
    link, shunt, inductor, capacitor = _element_forms(spec, omega, order)
    if pert is None:
        site_mult = np.ones(geometry.interior.shape)
        link_mult = np.ones(stencil.n_links)
    else:
        site_mult = pert.site
        link_mult = np.concatenate((pert.link_x[stencil.mask_x],
                                    pert.link_y[stencil.mask_y]))
    y_shunt = np.where(geometry.interior, shunt(site_mult), 0.0)
    bc = geometry.bc
    if bc.kind == NEUMANN:
        y_shunt[geometry.boundary] = capacitor(1.0)
    elif bc.kind == MIXED:
        y_shunt[geometry.boundary] = inductor(1.0, bc.shunt_inductance,
                                              bc.shunt_resistance)
    return link(link_mult), y_shunt


def assemble_admittance(geometry: GridGeometry, spec: CircuitSpec, omega: float,
                        pert: Perturbation | None = None,
                        order: int = 0) -> AdmittanceSystem:
    """Build the Kirchhoff current-law matrix at frequency omega.

    For Dirichlet boundaries the unknowns are the interior sites only;
    Neumann/mixed boundary sites enter as extra unknowns shunted through
    the tagged element.  The matrix is
    A = -(B^T diag(y_link) B + diag(y_shunt)) with B the lattice incidence,
    gathered into the geometry's stencil.  With `order` k in (1, 2) the
    same stencil also gives dA/domega, ..., d^k A/domega^k from the element
    admittances' derivatives.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0, 1 or 2, not {order!r}")
    stencil = geometry.stencil
    unknown = stencil.unknown

    def kirchhoff(y_link, y_shunt):
        matrix = stencil.assemble(y_link, y_shunt[unknown])
        # negating the sum, not the admittances, keeps the signed zeros
        np.negative(matrix.data, out=matrix.data)
        return matrix

    y_link, y_shunt = element_admittances(geometry, spec, omega, pert, stencil)
    matrix = kirchhoff(y_link, y_shunt)
    # -Re(A) = B^T diag(Re y_link) B + diag(Re y_shunt) with Re y >= 0.  When
    # every unknown has four links (in practice with Dirichlet unknowns: a
    # Neumann or mixed boundary site links only to interior sites), none
    # sits on the lattice rim and B^T B is a principal submatrix of the
    # Dirichlet Laplacian of the (nx-2)-by-(ny-2) block inside the rim, so
    # by Cauchy interlacing its eigenvalues are at least that block's lowest
    floor = 0.0
    if stencil.four_links:
        lam_rect = 4.0 - 2.0 * cos(pi / (geometry.nx - 1)) \
            - 2.0 * cos(pi / (geometry.ny - 1))
        floor = float(lam_rect * y_link.real.min()
                      + y_shunt[unknown].real.min())
    d_matrices = tuple(
        kirchhoff(*element_admittances(geometry, spec, omega, pert, stencil, k))
        for k in range(1, order + 1))
    return AdmittanceSystem(matrix=matrix, stencil=stencil,
                            hermitian_floor=floor, derivatives=d_matrices)
