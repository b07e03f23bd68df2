"""Openness estimation, distribution laws, goodness-of-fit machinery."""

from functools import partial
from math import exp, pi

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy import integrate, special, stats as sps
from scipy.optimize import brentq

from rlcnet.stats import (_model_quantiles, anisotropy_metrics, density_cdf,
                          density_pdf, density_ppf, fit_histogram,
                          gaussianity_check, heat_cdf, heat_pdf,
                          mc_heat_oracle, phase_rotate, sigma_p_sq,
                          sigma_p_sq_empirical, source_exclusion_mask)
from rlcnet.fields import CurrentField
from rlcnet.geometry import rasterize_rectangle


def test_phase_rotate_real_field():
    rng = np.random.default_rng(0)
    v = rng.normal(size=5000).astype(complex)
    rot = phase_rotate(v)
    assert rot.openness == pytest.approx(0.0, abs=1e-10)
    assert np.allclose((v * np.exp(1j * rot.theta)).imag, 0.0, atol=1e-10)


def test_phase_rotate_recovers_construction():
    rng = np.random.default_rng(1)
    p0 = rng.normal(0.0, 2.0, 200000)
    q0 = rng.normal(0.0, 0.5, 200000)
    alpha = 0.7
    v = np.exp(-1j * alpha) * (p0 + 1j * q0)
    rot = phase_rotate(v)
    assert (rot.theta - alpha) % pi == pytest.approx(0.0, abs=1e-2) \
        or (rot.theta - alpha) % pi == pytest.approx(pi, abs=1e-2)
    assert rot.sigma_p_sq == pytest.approx(4.0, rel=0.02)
    assert rot.sigma_q_sq == pytest.approx(0.25, rel=0.02)
    assert rot.openness <= 1.0


@given(re=hst.floats(-5, 5), im=hst.floats(-5, 5))
@settings(max_examples=30, deadline=None)
def test_phase_rotate_scale_invariant(re, im):
    c = complex(re, im)
    if abs(c) < 1e-3:
        return
    rng = np.random.default_rng(7)
    v = rng.normal(0, 1, 3000) + 0.3j * rng.normal(0, 1, 3000)
    assert phase_rotate(c * v).openness == pytest.approx(
        phase_rotate(v).openness, abs=1e-10)


def test_source_exclusion_mask_keeps_sites_strictly_beyond_the_radius():
    # a0 = 1/4 makes every squared distance exact: the (3, 4) and (0, 5)
    # offsets lie exactly at the radius 5 a0, and are excluded
    g = rasterize_rectangle(11, 11, 0.25)
    source = (6, 6)
    far = source_exclusion_mask(g, source, 1.25)
    assert not far[9, 10] and not far[6, 11] and far[9, 11]
    di = np.arange(g.nx)[:, None] - 6
    dj = np.arange(g.ny)[None, :] - 6
    assert np.array_equal(far, di ** 2 + dj ** 2 > 25)
    # radius 0 drops the source site alone
    near = ~source_exclusion_mask(g, source, 0.0)
    assert np.count_nonzero(near) == 1 and near[source]
    with pytest.raises(ValueError, match="radius must be >= 0"):
        source_exclusion_mask(g, source, -1.25)


def test_phase_rotate_rejects_empty():
    with pytest.raises(ValueError):
        phase_rotate(np.zeros(10, dtype=complex))


def test_density_pdf_rayleigh_limit():
    rho = np.linspace(0.0, 30.0, 500)
    assert np.max(np.abs(density_pdf(1.0, rho) - np.exp(-rho))) < 1e-12


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 0.9, 1.0])
def test_density_pdf_normalization_and_mean(eps):
    norm, _ = integrate.quad(lambda r: float(density_pdf(eps, r)), 0, np.inf,
                             limit=200)
    mean, _ = integrate.quad(lambda r: r * float(density_pdf(eps, r)), 0,
                             np.inf, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(1.0, abs=1e-8)


def test_density_pdf_monte_carlo_oracle():
    # rho = (p^2 + q^2) / <p^2 + q^2> with sigma_q / sigma_p = 0.5
    rng = np.random.default_rng(3)
    n = 10_000_000
    p = rng.normal(0.0, 1.0, n)
    q = rng.normal(0.0, 0.5, n)
    rho = p * p + q * q
    rho /= rho.mean()
    width = 0.04
    frac = np.count_nonzero(np.abs(rho - 1.0) < width / 2) / n
    assert frac / width == pytest.approx(float(density_pdf(0.5, 1.0)),
                                         rel=0.01)


def test_density_cdf_properties():
    eps = 0.3
    x = np.linspace(0.0, 40.0, 300)
    cdf = density_cdf(eps, x)
    assert cdf[0] == pytest.approx(0.0, abs=1e-12)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.diff(cdf) >= 0.0)
    assert density_cdf(eps, 5.0) == pytest.approx(float(np.interp(
        5.0, x, cdf)), abs=1e-4)


@pytest.mark.parametrize("eps", [1e-3, 0.05, 0.19, 0.5, 1.0])
def test_density_cdf_matches_quad(eps):
    for rho in (0.01, 0.1, 1.0, 5.0, 20.0):
        want, _ = integrate.quad(lambda r: float(density_pdf(eps, r)), 0.0,
                                 rho, limit=500)
        assert density_cdf(eps, rho) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("eps", [1e-3, 0.19, 1.0])
def test_density_ppf_inverts_cdf(eps):
    p = np.linspace(0.0, 0.999, 1000)
    assert np.max(np.abs(density_cdf(eps, density_ppf(eps, p)) - p)) < 1e-12


def test_density_fit_ppf_matches_bisection():
    rng = np.random.default_rng(4)
    n = 100_000
    rho = rng.normal(0.0, 1.0, n) ** 2 + rng.normal(0.0, 0.19, n) ** 2
    rho /= rho.mean()
    cdf = partial(density_cdf, 0.19)
    exact = fit_histogram(rho, cdf, 50, ppf=partial(density_ppf, 0.19))
    bisected = fit_histogram(rho, cdf, 50)
    assert np.max(np.abs(exact.bin_edges[1:-1]
                         - bisected.bin_edges[1:-1])) < 1e-9
    assert np.array_equal(exact.empirical, bisected.empirical)
    assert exact.ks_distance == bisected.ks_distance


@pytest.mark.parametrize("eps", [1e-3, 0.5, 1.0])
def test_heat_quantiles_bisect_to_adjacent_doubles(eps):
    cdf = partial(heat_cdf, eps, 1.0)
    probs = np.linspace(0.0, 1.0, 51)[1:-1]
    # hi = 1 is below the top quantile: the bracket must widen
    edges = _model_quantiles(cdf, 50, 0.0, 1.0)
    assert edges[0] == -np.inf and edges[-1] == np.inf
    inner = edges[1:-1]
    assert np.all(cdf(np.nextafter(inner, -np.inf)) < probs)
    assert np.all(probs <= cdf(inner))
    # brentq's default xtol (2e-12 absolute) is looser than the bound
    want = np.array([brentq(lambda x, t=t: cdf(x) - t, 0.0, 8.0, xtol=1e-15)
                     for t in probs])
    assert np.max(np.abs(inner - want) / want) < 1e-12


def test_ndtr_ndtri_bitwise_equal_to_scipy_stats_norm():
    q = np.linspace(0.0, 1.0, 1001)
    z = np.random.default_rng(12).normal(size=100_000)
    for x in (q, z):
        assert np.array_equal(special.ndtr(x), sps.norm.cdf(x))
    assert np.array_equal(special.ndtri(q), sps.norm.ppf(q))
    u = special.ndtr(z)
    assert np.array_equal(special.ndtri(u), sps.norm.ppf(u))


def test_density_pdf_bad_eps():
    with pytest.raises(ValueError):
        density_pdf(0.0, 1.0)
    with pytest.raises(ValueError):
        density_pdf(1.5, 1.0)


def test_heat_pdf_degenerate_value():
    assert float(heat_pdf(1.0, 1.0, 1.0)) == pytest.approx(4.0 * exp(-2.0))


def test_heat_pdf_continuity_at_eps_one():
    p = np.linspace(0.01, 10.0, 200)
    near = heat_pdf(0.999999, 2.0, p)
    limit = heat_pdf(1.0, 2.0, p)
    assert np.max(np.abs(near - limit)) < 1e-4


@pytest.mark.parametrize("gap", [1e-8, 1e-10, 1e-11])
def test_heat_laws_continuous_near_eps_one(gap):
    # the law departs from eps = 1 only at second order in 1 - eps^2
    eps = (1.0 - gap) ** 0.5
    p = np.linspace(0.0, 12.0, 2001)
    assert np.max(np.abs(heat_pdf(eps, 1.0, p) - heat_pdf(1.0, 1.0, p))) \
        < 1e-9
    assert np.max(np.abs(heat_cdf(eps, 1.0, p) - heat_cdf(1.0, 1.0, p))) \
        < 1e-9


def test_heat_cdf_matches_pdf_integral():
    eps, mean_p = 0.4, 1.7
    for p in (0.3, 1.0, 4.0):
        val, _ = integrate.quad(lambda q: float(heat_pdf(eps, mean_p, q)),
                                0, p, limit=200)
        assert float(heat_cdf(eps, mean_p, p)) == pytest.approx(val, abs=1e-8)


def test_heat_pdf_normalization_and_mean():
    eps, mean_p = 0.25, 3.0
    norm, _ = integrate.quad(lambda q: float(heat_pdf(eps, mean_p, q)), 0,
                             np.inf, limit=200)
    mean, _ = integrate.quad(lambda q: q * float(heat_pdf(eps, mean_p, q)),
                             0, np.inf, limit=200)
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(mean_p, rel=1e-8)


def test_sigma_p_sq_values():
    assert sigma_p_sq(1.0) == pytest.approx(0.5)
    assert sigma_p_sq(0.0) == pytest.approx(1.0)
    assert sigma_p_sq(0.5) == pytest.approx(0.68)


def test_mc_heat_oracle_moments():
    samples = mc_heat_oracle(1.0, 1.0, 1_000_000, 5)
    assert samples.mean() == pytest.approx(2.0, rel=0.005)
    assert sigma_p_sq_empirical(samples) == pytest.approx(sigma_p_sq(1.0),
                                                          rel=0.02)
    again = mc_heat_oracle(1.0, 1.0, 1000, 5)
    assert np.array_equal(again, mc_heat_oracle(1.0, 1.0, 1000, 5))


def test_mc_heat_oracle_validation():
    with pytest.raises(ValueError):
        mc_heat_oracle(0.0, 1.0, 100, 0)
    with pytest.raises(ValueError):
        mc_heat_oracle(1.0, 1.0, 0, 0)


def test_gaussianity_accepts_normal_rejects_uniform():
    rng = np.random.default_rng(8)
    good = gaussianity_check(rng.normal(size=1_000_000))
    assert good.ks_distance < 0.005
    bad = gaussianity_check(rng.uniform(-1, 1, 200_000))
    assert bad.ks_distance > 0.05
    with pytest.raises(ValueError):
        gaussianity_check(np.zeros(500))


def synthetic_currents(n_side, sigma_ix, sigma_iy, seed=0):
    # the lattice of an n_side-square interior in its grounded frame
    shape = (n_side + 2, n_side + 2)
    rng = np.random.default_rng(seed)
    ix = rng.normal(0, sigma_ix, shape) + 1j * rng.normal(0, sigma_ix, shape)
    iy = rng.normal(0, sigma_iy, shape) + 1j * rng.normal(0, sigma_iy, shape)
    mask = np.zeros(shape, bool)
    mask[1:-1, 1:-1] = True
    return CurrentField(ix=ix, iy=iy), mask


def test_anisotropy_isotropic_small():
    cur, sites = synthetic_currents(1000, 1.0, 1.0)
    r_real, r_imag = anisotropy_metrics(cur, sites)
    assert abs(r_real) < 0.01 and abs(r_imag) < 0.01


def test_anisotropy_degenerate():
    cur, sites = synthetic_currents(100, 1.0, 0.0)
    r_real, r_imag = anisotropy_metrics(cur, sites)
    assert r_real == pytest.approx(1.0)
    assert r_imag == pytest.approx(1.0)


def test_fit_histogram_self_consistent():
    samples = mc_heat_oracle(1.0, 0.5, 100_000, 9)
    fit = fit_histogram(samples, lambda p: heat_cdf(0.5, 1.25, p), 50)
    assert 0.5 < fit.chi_sq_per_dof < 1.5
    assert fit.ks_distance < 0.005
    assert fit.empirical.sum() == pytest.approx(1.0)


def test_fit_histogram_discriminates():
    rng = np.random.default_rng(10)
    rayleigh = rng.exponential(1.0, 100_000)
    fit = fit_histogram(rayleigh, lambda r: density_cdf(0.25, r), 50)
    assert fit.ks_distance > 0.05


def test_fit_histogram_needs_samples():
    with pytest.raises(ValueError):
        fit_histogram(np.ones(100), lambda x: x, 10)
