"""Statistics of chaotic wave fields: openness, density and heat-power laws.

The density distribution is f(rho) = mu exp(-mu^2 rho) I0(mu nu rho) with
mu = (1/eps + eps)/2, nu = (1/eps - eps)/2.  The heat-power distribution is
the two-exponential family

    f(P) = (1+e2) / ((1-e2) <P>) * [exp(-(1+e2) P / <P>)
                                    - exp(-(1+e2) P / (e2 <P>))],  e2 = eps^2

which for eps -> 1 degenerates to f(P) = (4 P / <P>^2) exp(-2 P / <P>).
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from math import pi, sqrt

import numpy as np
from scipy import special, stats as sps

from .fields import CurrentField
from .solve import ComplexField

_EPS_ONE = 1e-12


@dataclass
class RotatedField:
    """Field after the phase rotation that decorrelates Re and Im."""

    theta: float
    p: np.ndarray
    q: np.ndarray
    sigma_p_sq: float
    sigma_q_sq: float

    @property
    def openness(self) -> float:
        """eps = sigma_q / sigma_p, in [0, 1]."""
        if self.sigma_p_sq == 0.0:
            raise ValueError("degenerate field: sigma_p = 0")
        return sqrt(self.sigma_q_sq / self.sigma_p_sq)


@dataclass
class HistogramFit:
    """Empirical histogram against a model law, with KS and chi^2 scores."""

    bin_edges: np.ndarray
    empirical: np.ndarray       # frequencies, sum to 1
    model: np.ndarray           # model bin probabilities
    ks_distance: float
    chi_sq: float
    n_samples: int

    @property
    def chi_sq_per_dof(self) -> float:
        dof = len(self.empirical) - 1
        return self.chi_sq / dof


def phase_rotate(sample) -> RotatedField:
    """Rotate V -> V exp(i theta) = p + i q so that <p q> = 0, sigma_q <= sigma_p.

    theta = -arg(<V^2>)/2, shifted by pi/2 when needed to keep eps <= 1.
    `sample` is an array of complex voltages (e.g. DrivenStatistics.sample).
    """
    v = np.asarray(sample, dtype=complex).ravel()
    if v.size == 0 or not np.any(v):
        raise ValueError("cannot rotate an empty or all-zero field")
    theta = -0.5 * np.angle(np.mean(v * v))
    w = v * np.exp(1j * theta)
    sp2 = float(np.mean(w.real ** 2))
    sq2 = float(np.mean(w.imag ** 2))
    if sq2 > sp2:
        theta += 0.5 * pi
        w = v * np.exp(1j * theta)
        sp2, sq2 = float(np.mean(w.real ** 2)), float(np.mean(w.imag ** 2))
    return RotatedField(theta=float(theta), p=w.real, q=w.imag,
                        sigma_p_sq=sp2, sigma_q_sq=sq2)


def source_exclusion_mask(geometry, source_site, radius: float) -> np.ndarray:
    """Sites strictly farther than `radius` from the source (near-field
    cut); radius 0 drops the source site alone."""
    i = np.arange(geometry.nx)[:, None]
    j = np.arange(geometry.ny)[None, :]
    a0 = geometry.spacing
    si, sj = source_site
    return ((i - si) * a0) ** 2 + ((j - sj) * a0) ** 2 > radius ** 2


def rotated_field(field: ComplexField, theta: float) -> ComplexField:
    """The field with the global phase rotation V -> V exp(i theta)."""
    return replace(field, values=field.values * np.exp(1j * theta))


def _check_eps(eps):
    if not 0.0 < eps <= 1.0:
        raise ValueError("openness eps must be in (0, 1]")


def density_pdf(eps: float, rho) -> np.ndarray:
    """Probability-density law f(rho) for interior-mean-normalized rho."""
    _check_eps(eps)
    rho = np.asarray(rho, dtype=float)
    mu = 0.5 * (1.0 / eps + eps)
    nu = 0.5 * (1.0 / eps - eps)
    # I0(x) = i0e(x) e^x keeps the product finite for large rho
    return mu * np.exp(-(mu * mu - mu * nu) * rho) * special.i0e(mu * nu * rho)


# Tail cutoff of the density table: f decays as exp(-mu eps rho) with
# mu eps = (1 + eps^2)/2 >= 1/2, so 1 - F(80) < 1e-16 for every eps.
_DENSITY_RHO_MAX = 80.0
_DENSITY_N = 200001


@lru_cache(maxsize=4)
def _density_table(eps: float):
    """(rho, F(rho)): density_pdf integrated once by the trapezoid rule.

    The grid is uniform in s = sqrt(rho), where the integrand 2 s f(s^2) is
    smooth: it resolves the rho ~ 1/(mu nu) scale of small eps that a grid
    uniform in rho misses.  The arrays are shared and read-only.
    """
    s = np.linspace(0.0, sqrt(_DENSITY_RHO_MAX), _DENSITY_N)
    xs = s * s
    g = 2.0 * s * density_pdf(eps, xs)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (g[1:] + g[:-1])
                                           * np.diff(s))))
    xs.flags.writeable = False
    cum.flags.writeable = False
    return xs, cum


def density_cdf(eps: float, rho) -> np.ndarray:
    """CDF of density_pdf, interpolated linearly on the per-eps table."""
    xs, cum = _density_table(eps)
    out = np.clip(np.interp(rho, xs, cum), 0.0, 1.0)
    return float(out) if np.ndim(rho) == 0 else out


def density_ppf(eps: float, p) -> np.ndarray:
    """Quantiles of density_pdf: the exact inverse of density_cdf."""
    xs, cum = _density_table(eps)
    out = np.interp(p, cum, xs)
    return float(out) if np.ndim(p) == 0 else out


def heat_pdf(eps: float, mean_power: float, power) -> np.ndarray:
    """Heat-power law f(P); eps = 1 uses the degenerate 4P e^{-2P} form."""
    _check_eps(eps)
    if mean_power <= 0.0:
        raise ValueError("mean power must be positive")
    p = np.asarray(power, dtype=float)
    e2 = eps * eps
    if 1.0 - e2 < _EPS_ONE:
        return 4.0 * p / mean_power ** 2 * np.exp(-2.0 * p / mean_power)
    a = (1.0 + e2) / mean_power
    d = 1.0 - e2
    # e^{-ap} - e^{-ap/e2} = -e^{-ap} expm1(-ap d/e2): no cancellation
    return -a * np.exp(-a * p) * np.expm1(-a * p * d / e2) / d


def heat_cdf(eps: float, mean_power: float, power) -> np.ndarray:
    """Closed-form CDF of heat_pdf (two exponentials)."""
    _check_eps(eps)
    if mean_power <= 0.0:
        raise ValueError("mean power must be positive")
    p = np.asarray(power, dtype=float)
    e2 = eps * eps
    if 1.0 - e2 < _EPS_ONE:
        t = 2.0 * p / mean_power
        return np.clip(1.0 - (1.0 + t) * np.exp(-t), 0.0, 1.0)
    a = (1.0 + e2) / mean_power
    d = 1.0 - e2
    cdf = 1.0 - np.exp(-a * p) * (1.0 - e2 * np.expm1(-a * p * d / e2) / d)
    return np.clip(cdf, 0.0, 1.0)


def sigma_p_sq(eps: float) -> float:
    """Analytic normalized heat-power variance (eps^4 + 1)/(eps^2 + 1)^2."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("openness eps must be in [0, 1]")
    e2 = eps * eps
    return (e2 * e2 + 1.0) / (e2 + 1.0) ** 2


def sigma_p_sq_empirical(power_samples) -> float:
    """Second central moment of P over its squared mean."""
    p = np.asarray(power_samples, dtype=float).ravel()
    if p.size == 0:
        raise ValueError("empty heat sample")
    mean = p.mean()
    if mean == 0.0:
        raise ValueError("zero mean heat power")
    return float(np.mean((p - mean) ** 2) / mean ** 2)


def mc_heat_oracle(sigma_r: float, sigma_i: float, n_samples: int,
                   seed: int) -> np.ndarray:
    """Monte Carlo heat samples from the Gaussian random-field model.

    Draws the four current components (Re/Im of I_x, I_y) as independent
    zero-mean normals with std sigma_r (real parts) and sigma_i (imaginary
    parts); returns P = (|I_x|^2 + |I_y|^2)/2 at unit resistance.
    """
    if sigma_r <= 0.0 or sigma_i <= 0.0:
        raise ValueError("sigma_r and sigma_i must be positive")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    re = rng.normal(0.0, sigma_r, (2, n_samples))
    im = rng.normal(0.0, sigma_i, (2, n_samples))
    return 0.5 * (re[0] ** 2 + im[0] ** 2 + re[1] ** 2 + im[1] ** 2)


def gaussianity_check(samples, n_bins: int = 50) -> HistogramFit:
    """Fit of standardized samples against the unit normal."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 1000:
        raise ValueError("need at least 1000 samples")
    std = x.std()
    if std == 0.0:
        raise ValueError("degenerate sample: zero variance")
    z = (x - x.mean()) / std
    return fit_histogram(z, sps.norm.cdf, n_bins, ppf=sps.norm.ppf)


def anisotropy_metrics(currents: CurrentField, site_mask=None) -> tuple:
    """(r_real, r_imag): normalized x/y second-moment asymmetry of currents.

    Averages run over sites whose both outgoing links exist (interior bulk),
    optionally restricted further by `site_mask`.

    r is a per-field statistic.  For one chaotic eigenstate it is not small:
    near the stadium reference frequencies a single state's r spreads with
    a std of about 0.3.  Isotropy (r -> 0) holds for the average over
    states.  A purely real field has no imaginary current and raises
    "zero current variance" on its imaginary part.
    """
    m = currents.mask_x & currents.mask_y
    if site_mask is not None:
        m = m & site_mask
    if not np.any(m):
        raise ValueError("no complete current sites")
    ix, iy = currents.ix[m], currents.iy[m]

    def ratio(ax, ay):
        num = np.mean(ax ** 2) - np.mean(ay ** 2)
        den = np.mean(ax ** 2) + np.mean(ay ** 2)
        if den == 0.0:
            raise ValueError("zero current variance")
        return float(num / den)

    return ratio(ix.real, iy.real), ratio(ix.imag, iy.imag)


def _model_quantiles(cdf, n_bins, lo, hi, ppf=None):
    """Equal-probability bin edges under the model CDF."""
    probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    if ppf is not None:
        inner = ppf(probs)
    else:
        from scipy.optimize import brentq
        # widen the bracket until the CDF straddles each target
        a, b = lo, hi
        while cdf(b) < probs[-1]:
            b = 2.0 * b if b > 0 else 1.0
        inner = np.array([brentq(lambda x, t=t: cdf(x) - t, a, b)
                          for t in probs])
    return np.concatenate(([-np.inf], inner, [np.inf]))


def fit_histogram(samples, model_cdf, n_bins: int,
                  ppf=None) -> HistogramFit:
    """Equal-probability binning under the model; KS and chi^2 scores.

    `model_cdf` is a callable of the sample value; `ppf`, when given,
    supplies exact model quantiles (otherwise they are bisected from the
    CDF).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 1000:
        raise ValueError("need at least 1000 samples")
    if n < n_bins:
        raise ValueError("fewer samples than bins")
    lo = min(x[0], 0.0)
    hi = x[-1]
    edges = _model_quantiles(model_cdf, n_bins, lo, hi, ppf=ppf)
    counts, _ = np.histogram(x, bins=edges)
    empirical = counts / n
    model = np.full(n_bins, 1.0 / n_bins)
    chi_sq = float(np.sum((counts - n / n_bins) ** 2 / (n / n_bins)))
    # exact one-sample KS against the model CDF
    cdf_vals = np.asarray(model_cdf(x), dtype=float)
    ks = float(max(np.max(np.arange(1, n + 1) / n - cdf_vals),
                   np.max(cdf_vals - np.arange(0, n) / n)))
    return HistogramFit(bin_edges=edges, empirical=empirical, model=model,
                        ks_distance=ks, chi_sq=chi_sq, n_samples=n)
