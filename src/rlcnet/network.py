"""Kirchhoff admittance assembly for the two RLC network models.

Model I:  inductor links (z = i*w*L + R), capacitor shunts (z = 1/(i*w*C)).
Model II: capacitor links (z = 1/(i*w*C)), resistive-inductor shunts.

The assembled row for site s reads

    sum_links (V_nbr - V_s) / z_link  -  V_s / z_shunt  =  -I_ext(s)

so the matrix is complex symmetric for any R and any tolerance realization.
Grouped into element families it is A(omega) = -sum_f y_f(omega) G_f, with
scalar unit admittances y_f and real G_f that do not depend on omega
(`admittance_families`); every Kirchhoff operator and eigen pencil in the
package is built from them.
"""

from dataclasses import dataclass
from functools import cached_property
from math import cos, pi, sqrt

import numpy as np
import scipy.sparse as sp

from .geometry import GridGeometry, LatticeStencil

MODEL_I = "I"
MODEL_II = "II"

# the largest |m - 1| / tau that a multiplier of each tolerance law reaches
TOLERANCE_REACH = {"uniform": sqrt(3.0), "gaussian": 3.0}


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


@dataclass(frozen=True, eq=False)
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
    clipped to +-3 tau so multipliers stay in [1 - 3 tau, 1 + 3 tau]
    (`TOLERANCE_REACH`).  A tolerance whose law can reach a multiplier m
    <= 0, an element of no or negative value, raises ValueError.
    """
    if tolerance < 0.0:
        raise ValueError("tolerance must be >= 0")
    if distribution not in TOLERANCE_REACH:
        raise ValueError(f"unknown tolerance distribution: {distribution!r}")
    reach = tolerance * TOLERANCE_REACH[distribution]
    if reach >= 1.0:
        raise ValueError(f"tolerance {tolerance} lets {distribution} "
                         "multipliers reach m <= 0")
    rng = np.random.default_rng(seed)
    shape = (geometry.nx, geometry.ny)

    def draw():
        if tolerance == 0.0:
            return np.ones(shape)
        if distribution == "uniform":
            return rng.uniform(1.0 - reach, 1.0 + reach, shape)
        return 1.0 + np.clip(rng.normal(0.0, tolerance, shape), -reach, reach)

    return Perturbation(draw(), draw(), draw())


# Unit admittances, the admittance of one element at unit multiplier.  They
# are numpy scalars because numpy divides complex numbers with other
# roundoff than Python does: these have the bits of the same forms taken
# over arrays of unit multipliers.
def _inductor(inductance: float, resistance: float, omega: float):
    """1/(R + i omega L)."""
    return 1.0 / np.complex128(1j * omega * inductance + resistance)


def _capacitor(capacitance: float, omega: float):
    """i omega C."""
    return np.complex128(1j * omega * capacitance)


def unit_admittances(spec: CircuitSpec,
                     omega: float) -> tuple[complex, complex]:
    """(y_L, y_S): the admittance of one link element and of one interior
    shunt element at unit multiplier, the link and interior shunt
    families' y_f."""
    inductor = _inductor(spec.inductance, spec.resistance, omega)
    capacitor = _capacitor(spec.capacitance, omega)
    return (inductor, capacitor) if spec.model == MODEL_I \
        else (capacitor, inductor)


@dataclass(frozen=True, eq=False)
class AdmittanceFamilies:
    """The network's elements in families: A(omega) = -sum_f y_f(omega) G_f.

    A family holds the elements of one kind and one L, C and R: their
    admittances are the unit admittance y_f(omega) (`units`) times real
    weights that do not depend on omega, 1/m for an inductor and m for a
    capacitor of multiplier m.  Family 0 is the links, G_0 = B^T
    diag(link) B (`link_matrix`), the only family with off-diagonal
    entries; family 1 the shunts, G_1 = diag(shunt_weight): each unknown
    has one shunt element.
    """

    stencil: LatticeStencil
    spec: CircuitSpec
    link: np.ndarray            # family 0's weight on each link, link order
    shunt_weight: np.ndarray    # (n,)

    @cached_property
    def link_matrix(self) -> sp.csc_matrix:
        """G_0 = B^T diag(link) B, real, on the stencil's pattern."""
        return self.stencil.assemble(self.link)

    @cached_property
    def _columns(self) -> tuple:
        """Position of each unknown's diagonal entry in the pattern, G_0's
        diagonal and its off-diagonal column sums: G_0 1 is the weight of
        each unknown's grounded links, so they are diag(G_0) - G_0 1."""
        link = self.link_matrix
        diagonal = np.flatnonzero(self.stencil.source >= self.stencil.n_links)
        return (diagonal, link.data[diagonal],
                link.data[diagonal] - link @ np.ones(self.stencil.n))

    def units(self, omega: float) -> np.ndarray:
        """y_f(omega) of every family."""
        return np.array(unit_admittances(self.spec, omega))

    def shunts(self, y) -> np.ndarray:
        """Each unknown's shunt admittance, given the families' y."""
        return y[1] * self.shunt_weight

    def matrix(self, y) -> sp.csc_matrix:
        """-sum_f y_f G_f on the stencil's pattern: A(omega) for y the
        families' y_f(omega), and the eigen pencil's shift K - sigma M for
        y = (-1, sigma)."""
        link = self.link_matrix
        # the element product's sums start from 0 and it negates the sum,
        # not the admittances: both keep its signed zeros
        data = y[0] * link.data + 0.0
        data[self._columns[0]] += self.shunts(y)
        return sp.csc_matrix((np.negative(data, out=data), link.indices,
                              link.indptr), shape=link.shape)

    def product(self, y, x) -> np.ndarray:
        """A x at the families' y without forming A: -(y_0 G_0 x + shunts
        x), G_0 the real `link_matrix`."""
        return -(y[0] * (self.link_matrix @ x) + self.shunts(y) * x)

    def norm1(self, y) -> float:
        """||A||_1 in O(n) at the families' y: the largest column sum
        |y_0| o_j + |y_0 G_0[j, j] + shunt_j|, o_j the sum of column j's
        off-diagonal weights."""
        _, diagonal, off_diagonal = self._columns
        return float(np.max(abs(y[0]) * off_diagonal
                            + np.abs(y[0] * diagonal + self.shunts(y))))

    def floor(self, y) -> float:
        """A proven lower bound on the smallest eigenvalue of the Hermitian
        part -Re(A), hence on the smallest singular value of A, at the
        families' y; positive when R > 0, 0 at R = 0.

        -Re(A) = Re(y_0) G_0 + diag(Re shunts) with Re y >= 0.  No unknown
        sits on the lattice rim, so B^T B is a principal submatrix of the
        Dirichlet Laplacian of the (nx-2)-by-(ny-2) block inside the rim,
        and by Cauchy interlacing its eigenvalues are at least that block's
        lowest; G_0 >= min(link) B^T B.
        """
        nx, ny = self.stencil.index.shape
        lam_rect = 4.0 - 2.0 * cos(pi / (nx - 1)) - 2.0 * cos(pi / (ny - 1))
        return float(lam_rect * (y[0].real * self.link.min())
                     + self.shunts(y).real.min())


def admittance_families(geometry: GridGeometry, spec: CircuitSpec,
                        pert: Perturbation | None = None
                        ) -> AdmittanceFamilies:
    """The element families of the network over the interior sites, its
    unknowns; a non-interior site is grounded and has no shunt.  The same
    families are the pencil K v = lam M v of every eigen solve, K = G_0
    and M = G_1.  `pert` None means unit multipliers."""
    stencil = geometry.stencil
    if pert is None:
        pert = Perturbation(*np.ones((3, geometry.nx, geometry.ny)))
    mult = np.concatenate((pert.link_x[stencil.mask_x],
                           pert.link_y[stencil.mask_y]))
    # an inductor weighs its element by 1/m, a capacitor by m
    link, weight = (1.0 / mult, pert.site) if spec.model == MODEL_I \
        else (mult, 1.0 / pert.site)
    return AdmittanceFamilies(stencil, spec, link, weight[geometry.interior])


def assemble_admittance(families: AdmittanceFamilies,
                        omega: float) -> sp.csc_matrix:
    """The Kirchhoff current-law matrix A of the network `families` at
    frequency omega, CSC.

    The unknowns are the interior sites; the grounded non-interior sites
    hold V = 0.  A = -sum_f y_f(omega) G_f over the element families
    (`admittance_families`), formed from the families' data on their
    stencil.  Norms, floors and products A x come from the families, not
    from a matrix.
    """
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    return families.matrix(families.units(omega))
