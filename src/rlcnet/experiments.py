"""Experiment orchestration: configs, source placement, ensembles, artifacts.

A single flat JSON document configures every experiment kind; unknown keys
are rejected so typos in physics parameters cannot pass silently.  Every run
writes a manifest.json recording the resolved config, seeds and derived
quantities, and all floats are serialized with 17 significant digits so
reruns are byte-identical.
"""

import dataclasses
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import cos, pi, sin

import numpy as np
from scipy import stats as sps

from . import __version__
from .geometry import (DIRICHLET, BCKind, GridGeometry, rasterize_quarter_stadium,
                       rasterize_rectangle, tag_boundary)
from .io import write_csv, write_json, write_pgm, write_polylines
from .network import CircuitSpec, sample_perturbation
from .solve import (ComplexField, damping_length, driven_response,
                    driven_solver, eigenmode_nearest, eigenmodes_lossless,
                    quality_factor, resonance_sweep, wavelength)
from . import fields as fld
from . import stats as st

EXPERIMENTS = ("spectrum", "drive", "sweep", "ensemble", "stats",
               "streamlines", "oracle")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass
class ExperimentConfig:
    experiment: str = "spectrum"
    # geometry
    geometry: str = "rectangle"
    spacing: float = 0.02
    nx_interior: int = 20
    ny_interior: int = 10
    # circuit
    model: str = "I"
    inductance: float = 1e-4
    capacitance: float = 1e-9
    resistance: float = 0.0
    # boundary
    bc: str = DIRICHLET
    bc_shunt_resistance: float = 0.0
    bc_shunt_inductance: float = 0.0
    # drive / sweep
    omega: float = 0.0
    omega_min: float = 0.0
    omega_max: float = 0.0
    n_points: int = 101
    source_rule: str = "site"          # "site" | "density_max"
    source_site: list | None = None
    source_iterations: int = 3
    source_amplitude: float = 1.0
    # spectrum
    n_modes: int = 10
    write_mode_fields: bool = True
    # disorder ensemble
    tolerance: float = 0.0
    tolerance_distribution: str = "uniform"
    n_realizations: int = 1
    # statistics
    n_bins: int = 50
    exclude_wavelengths: float = 1.0   # source-exclusion radius, in lambdas
    # oracle
    sigma_r: float = 1.0
    sigma_i: float = 1.0
    n_samples: int = 1000000
    # streamlines
    n_seeds: int = 32
    seed_radius: float = 0.05
    step_fraction: float = 0.25
    max_steps: int = 20000
    # randomness
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a flat JSON object")
        return cls.from_dict(data)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown kind {self.experiment!r}")
        if self.geometry not in ("rectangle", "quarter_stadium"):
            raise ConfigError(f"geometry: unknown shape {self.geometry!r}")
        if self.spacing <= 0.0:
            raise ConfigError("spacing: must be positive")
        for name in ("inductance", "capacitance"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name}: must be positive")
        if self.resistance < 0.0:
            raise ConfigError("resistance: must be >= 0")
        if self.tolerance < 0.0:
            raise ConfigError("tolerance: must be >= 0")
        if self.tolerance_distribution not in ("uniform", "gaussian"):
            raise ConfigError("tolerance_distribution: unknown law "
                              f"{self.tolerance_distribution!r}")
        if self.source_rule not in ("site", "density_max"):
            raise ConfigError(f"source_rule: unknown rule {self.source_rule!r}")
        if self.source_site is not None and not (
                isinstance(self.source_site, list) and len(self.source_site) == 2
                and all(type(k) is int for k in self.source_site)):
            raise ConfigError("source_site: need a list of two integers [i, j]")
        if self.source_rule == "density_max" and self.source_iterations < 1:
            raise ConfigError("source_iterations: must be >= 1")
        if self.experiment in ("drive", "stats", "streamlines") and self.omega <= 0.0:
            raise ConfigError("omega: must be positive for driven experiments")
        if self.experiment == "sweep":
            if not 0.0 < self.omega_min < self.omega_max:
                raise ConfigError("omega_min/omega_max: need 0 < min < max")
            if self.n_points < 3:
                raise ConfigError("n_points: a sweep needs at least 3 points")
            if self.resistance <= 0.0:
                raise ConfigError("resistance: a sweep needs R > 0 for "
                                  "finite peaks")
            if self.source_rule == "density_max" and self.omega <= 0.0:
                raise ConfigError("omega: density_max places the source at "
                                  "omega, which must be positive")
        if self.experiment == "ensemble":
            if self.tolerance <= 0.0 and self.n_realizations > 1:
                raise ConfigError("tolerance: ensemble with tau = 0 is degenerate")
            if self.omega <= 0.0:
                raise ConfigError("omega: ensemble needs a target frequency")
            if self.n_realizations < 1:
                raise ConfigError("n_realizations: must be >= 1")
        if self.experiment in ("spectrum", "ensemble") and self.bc != DIRICHLET:
            # the eigen pencils span interior unknowns only; no boundary
            # shunt maps onto lam = a0^2 k^2 in both models
            raise ConfigError(f"bc: {self.experiment} supports only "
                              f"{DIRICHLET!r} walls")
        if self.experiment == "stats" and self.resistance <= 0.0:
            raise ConfigError("resistance: stats needs R > 0 (ohmic currents)")
        if self.experiment == "stats" and self.exclude_wavelengths < 0.0:
            raise ConfigError("exclude_wavelengths: must be >= 0")
        if self.experiment in ("ensemble", "stats", "oracle") \
                and self.n_bins < 2:
            raise ConfigError("n_bins: a histogram needs at least 2 bins")
        if self.experiment == "oracle":
            if self.sigma_r <= 0.0 or self.sigma_i <= 0.0:
                raise ConfigError("sigma_r/sigma_i: must be positive")
            if self.n_samples < 1000:
                raise ConfigError("n_samples: the fit needs at least 1000")
            if self.n_bins > self.n_samples:
                raise ConfigError("n_bins: more bins than samples")
        if self.experiment == "streamlines" \
                and not 0.0 < self.step_fraction <= 0.5:
            raise ConfigError("step_fraction: need 0 < step_fraction <= 0.5")

    def build_geometry(self) -> GridGeometry:
        if self.geometry == "rectangle":
            geom = rasterize_rectangle(self.nx_interior, self.ny_interior,
                                       self.spacing)
        else:
            geom = rasterize_quarter_stadium(self.spacing)
        if self.bc != DIRICHLET:
            geom = tag_boundary(geom, BCKind(self.bc,
                                             self.bc_shunt_resistance,
                                             self.bc_shunt_inductance))
        return geom

    def build_spec(self) -> CircuitSpec:
        return CircuitSpec(model=self.model, inductance=self.inductance,
                           capacitance=self.capacitance,
                           resistance=self.resistance)


def centroid_site(geometry: GridGeometry) -> tuple:
    """Interior site nearest the interior centroid (deterministic)."""
    sites = geometry.interior_sites
    ci, cj = sites.mean(axis=0)
    d2 = (sites[:, 0] - ci) ** 2 + (sites[:, 1] - cj) ** 2
    i, j = sites[int(np.argmin(d2))]
    return int(i), int(j)


def place_source_at_maximum(geometry: GridGeometry, spec: CircuitSpec,
                            omega: float, n_iter: int = 3,
                            start=None, amplitude: complex = 1.0,
                            pert=None):
    """Iterate the drive site to the response-density maximum.

    Each pass solves the driven system and relocates the source to the
    density argmax excluding the source's own site (row-major tie-break).
    All passes share one factorization; returns the field at the final site.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    solve = driven_solver(geometry, spec, omega, pert)
    site = centroid_site(geometry) if start is None else tuple(start)
    for _ in range(n_iter):
        field = solve((site, amplitude))
        rho = fld.probability_density(field)
        rho[site] = -1.0
        rho[~geometry.interior] = -1.0
        nxt = np.unravel_index(int(np.argmax(rho)), rho.shape)
        nxt = (int(nxt[0]), int(nxt[1]))
        if nxt == site:
            return field
        site = nxt
    return solve((site, amplitude))


def _start_source(cfg: ExperimentConfig, geometry):
    return (tuple(cfg.source_site or centroid_site(geometry)),
            complex(cfg.source_amplitude))


def _driven_field(cfg: ExperimentConfig, geometry, spec):
    """Field of the configured drive; `density_max` moves the source first."""
    pert = _maybe_pert(cfg, geometry)
    site, amp = _start_source(cfg, geometry)
    if cfg.source_rule == "density_max":
        return place_source_at_maximum(geometry, spec, cfg.omega,
                                       cfg.source_iterations, start=site,
                                       amplitude=amp, pert=pert)
    return driven_response(geometry, spec, cfg.omega, (site, amp), pert=pert)


def standardized_mode_histogram(mode_vector, bin_edges) -> np.ndarray:
    """Frequencies of the sign-fixed, standardized eigenvector amplitudes."""
    v = np.asarray(mode_vector, dtype=float)
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0.0:
        v = -v
    std = v.std()
    if std == 0.0:
        raise ValueError("degenerate eigenvector")
    z = (v - v.mean()) / std
    counts, _ = np.histogram(z, bins=bin_edges)
    return counts / v.size


def ks_binned_vs_normal(bin_edges, frequencies) -> float:
    """KS distance of a binned empirical law against the unit normal."""
    cum = np.concatenate(([0.0], np.cumsum(frequencies)))
    return float(np.max(np.abs(cum - sps.norm.cdf(bin_edges))))


def ensemble_average(geometry: GridGeometry, spec: CircuitSpec,
                     omega_target: float, tolerance: float,
                     n_realizations: int, seed: int,
                     bin_edges, distribution: str = "uniform",
                     threads: int = 1):
    """Average the standardized Re(V) histogram over disorder realizations.

    Each realization perturbs the components, recomputes the lossless mode
    nearest omega_target and histograms its standardized amplitudes on the
    shared bin edges.  Returns (averaged frequencies, KS to unit normal).
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if tolerance <= 0.0 and n_realizations > 1:
        raise ValueError("tau = 0 ensemble with several realizations is degenerate")
    root = np.random.SeedSequence(seed)
    sub_seeds = [int(s.generate_state(1)[0]) for s in root.spawn(n_realizations)]

    def one(k):
        if tolerance > 0.0:
            pert = sample_perturbation(geometry, tolerance, sub_seeds[k],
                                       distribution=distribution)
        else:
            pert = None
        mode = eigenmode_nearest(geometry, spec, omega_target, pert=pert)
        return standardized_mode_histogram(mode.vector, bin_edges)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        hists = list(pool.map(one, range(n_realizations)))
    avg = np.mean(hists, axis=0)
    return avg, ks_binned_vs_normal(bin_edges, avg)


def _field_rows(geometry, values):
    a0 = geometry.spacing
    for i, j in geometry.interior_sites:
        v = values[i, j]
        yield (int(i), int(j), a0 * i, a0 * j, v.real, v.imag)


def _scalar_rows(geometry, values):
    a0 = geometry.spacing
    for i, j in geometry.interior_sites:
        yield (int(i), int(j), a0 * i, a0 * j, float(values[i, j]))


def _manifest(cfg: ExperimentConfig, spec: CircuitSpec, extra=None) -> dict:
    man = {
        "config": dataclasses.asdict(cfg),
        "version": __version__,
        "derived": {
            "omega0": spec.omega0,
            "linewidth": spec.linewidth,
        },
        "conventions": {
            "omega_unit": "rad/s",
            "tolerance_distribution": cfg.tolerance_distribution,
            "tolerance_std_equals_tau": True,
        },
    }
    if spec.resistance > 0.0:
        man["derived"]["q_factor"] = quality_factor(spec)
        man["derived"]["damping_length"] = damping_length(spec, cfg.spacing)
    if cfg.omega > 0.0:
        man["derived"]["wavelength"] = wavelength(spec, cfg.spacing, cfg.omega)
    if extra:
        man.update(extra)
    return man


def run(cfg: ExperimentConfig, out_dir, threads: int = 1) -> str:
    """Execute one experiment; returns the artifact directory path."""
    cfg.validate()
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    try:
        geometry = cfg.build_geometry()
        spec = cfg.build_spec()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.source_site is not None \
            and not geometry.is_interior(*cfg.source_site):
        raise ConfigError(f"source_site: {cfg.source_site} is not an "
                          "interior site of the geometry")
    if cfg.experiment == "spectrum" \
            and not 1 <= cfg.n_modes <= geometry.n_interior:
        raise ConfigError(f"n_modes: must be in [1, {geometry.n_interior}]")
    os.makedirs(out_dir, exist_ok=True)
    extra = {}

    if cfg.experiment == "spectrum":
        modes = eigenmodes_lossless(geometry, spec, cfg.n_modes)
        write_csv(os.path.join(out_dir, "modes.csv"), ("n", "omega", "eps_n"),
                  ((m.index, m.omega, m.eps) for m in modes))
        if cfg.write_mode_fields:
            sites = geometry.interior_sites
            a0 = geometry.spacing
            for m in modes:
                write_csv(os.path.join(out_dir, f"mode_{m.index:04d}.csv"),
                          ("i", "j", "x", "y", "re_v", "im_v"),
                          ((int(i), int(j), a0 * i, a0 * j, m.vector[k], 0.0)
                           for k, (i, j) in enumerate(sites)))
        extra["n_modes"] = cfg.n_modes

    elif cfg.experiment == "drive":
        field = _driven_field(cfg, geometry, spec)
        rho = fld.probability_density(field)
        write_csv(os.path.join(out_dir, "field.csv"),
                  ("i", "j", "x", "y", "re_v", "im_v"),
                  _field_rows(geometry, field.values))
        write_csv(os.path.join(out_dir, "density.csv"),
                  ("i", "j", "x", "y", "value"), _scalar_rows(geometry, rho))
        write_pgm(os.path.join(out_dir, "density.pgm"), rho, geometry.interior)
        extra["source_site"] = list(field.source[0])

    elif cfg.experiment == "sweep":
        if cfg.source_rule == "density_max":
            field = _driven_field(cfg, geometry, spec)
            source, pert = field.source, field.perturbation
        else:
            source, pert = _start_source(cfg, geometry), _maybe_pert(cfg, geometry)
        peaks = resonance_sweep(geometry, spec, (cfg.omega_min, cfg.omega_max),
                                cfg.n_points, source, pert=pert)
        write_csv(os.path.join(out_dir, "peaks.csv"),
                  ("omega_peak", "response_norm_sq"), peaks)
        extra["n_peaks"] = len(peaks)

    elif cfg.experiment == "ensemble":
        bin_edges = np.linspace(-5.0, 5.0, cfg.n_bins + 1)
        baseline_mode = eigenmode_nearest(geometry, spec, cfg.omega)
        base_hist = standardized_mode_histogram(baseline_mode.vector, bin_edges)
        avg, ks = ensemble_average(geometry, spec, cfg.omega, cfg.tolerance,
                                   cfg.n_realizations, cfg.seed, bin_edges,
                                   distribution=cfg.tolerance_distribution,
                                   threads=threads)
        write_csv(os.path.join(out_dir, "histogram.csv"),
                  ("bin_lo", "bin_hi", "baseline", "averaged"),
                  ((bin_edges[k], bin_edges[k + 1], base_hist[k], avg[k])
                   for k in range(cfg.n_bins)))
        extra["ks_to_normal"] = ks
        extra["ks_to_normal_baseline"] = ks_binned_vs_normal(bin_edges, base_hist)
        extra["mode_omega"] = baseline_mode.omega

    elif cfg.experiment == "stats":
        extra = _run_stats(cfg, geometry, spec, out_dir)

    elif cfg.experiment == "streamlines":
        extra = _run_streamlines(cfg, geometry, spec, out_dir)

    elif cfg.experiment == "oracle":
        samples = st.mc_heat_oracle(cfg.sigma_r, cfg.sigma_i, cfg.n_samples,
                                    cfg.seed)
        eps = min(cfg.sigma_i, cfg.sigma_r) / max(cfg.sigma_i, cfg.sigma_r)
        mean_p = cfg.sigma_r ** 2 + cfg.sigma_i ** 2
        fit = st.fit_histogram(samples,
                               lambda p: st.heat_cdf(eps, mean_p, p),
                               cfg.n_bins)
        _write_fit(os.path.join(out_dir, "heat_histogram.csv"), fit)
        extra = {
            "openness": eps,
            "mean_power_model": mean_p,
            "mean_power_sample": float(np.mean(samples)),
            "sigma_p_sq_model": st.sigma_p_sq(eps),
            "sigma_p_sq_sample": st.sigma_p_sq_empirical(samples),
            "ks_distance": fit.ks_distance,
            "chi_sq_per_dof": fit.chi_sq_per_dof,
        }

    write_json(os.path.join(out_dir, "manifest.json"),
               _manifest(cfg, spec, extra))
    return out_dir


def _maybe_pert(cfg, geometry):
    if cfg.tolerance > 0.0:
        return sample_perturbation(geometry, cfg.tolerance, cfg.seed,
                                   distribution=cfg.tolerance_distribution)
    return None


def _write_fit(path, fit):
    write_csv(path, ("bin_lo", "bin_hi", "empirical", "model"),
              ((fit.bin_edges[k], fit.bin_edges[k + 1],
                fit.empirical[k], fit.model[k])
               for k in range(len(fit.empirical))))


@dataclass
class DrivenStatistics:
    """A driven solve and the current statistics `stats` reports on it."""

    field: ComplexField
    sample: np.ndarray      # interior voltages beyond the radius
    rotation: st.RotatedField
    currents: fld.CurrentField
    heat: fld.HeatField
    bulk: np.ndarray        # complete current sites beyond the radius
    wavelength: float
    radius: float           # source-exclusion radius
    r_real: float
    r_imag: float
    sigma_r_sq: float
    sigma_i_sq: float
    eps_current: float


def _require_fit_samples(what, n, n_bins=0):
    """Reject a sample below the 1000 points fit_histogram needs, or below
    the number of bins it is fitted with."""
    need = max(1000, n_bins)
    if n < need:
        raise ConfigError(f"stats: the {what} has {n} points; the fits "
                          f"need at least {need}")


def driven_statistics(cfg, geometry, spec) -> DrivenStatistics:
    """Driven stadium solve plus the full statistical summary.

    Every statistic reads one site set: the interior sites strictly farther
    than `exclude_wavelengths * lambda` from the source (`sample`), and for
    currents the complete current sites beyond the same radius (`bulk`).
    Current statistics use the rotated-field convention: the globally
    rotated field (the one that decorrelates Re and Im of V) differenced
    across links and divided by R.
    """
    field = _driven_field(cfg, geometry, spec)
    lam = wavelength(spec, cfg.spacing, cfg.omega)
    radius = cfg.exclude_wavelengths * lam
    far = st.source_exclusion_mask(geometry, field.source[0], radius)
    sample = field.values[geometry.interior & far]
    _require_fit_samples("density sample", sample.size, cfg.n_bins)
    rot = st.phase_rotate(sample)

    currents = fld.link_currents(st.rotated_field(field, rot.theta),
                                 variant=fld.OHMIC)
    bulk = currents.mask_x & currents.mask_y & far
    _require_fit_samples("current bulk", int(np.count_nonzero(bulk)),
                         cfg.n_bins)
    r_real, r_imag = st.anisotropy_metrics(currents, site_mask=bulk)
    sigma_r_sq = float(np.mean(currents.ix[bulk].real ** 2
                               + currents.iy[bulk].real ** 2) / 2.0)
    sigma_i_sq = float(np.mean(currents.ix[bulk].imag ** 2
                               + currents.iy[bulk].imag ** 2) / 2.0)
    eps_current = (min(sigma_i_sq, sigma_r_sq)
                   / max(sigma_i_sq, sigma_r_sq)) ** 0.5
    return DrivenStatistics(
        field=field, sample=sample, rotation=rot, currents=currents,
        heat=fld.heat_power(currents, spec.resistance), bulk=bulk,
        wavelength=lam, radius=radius, r_real=r_real, r_imag=r_imag,
        sigma_r_sq=sigma_r_sq, sigma_i_sq=sigma_i_sq,
        eps_current=eps_current)


def _run_stats(cfg, geometry, spec, out_dir):
    ds = driven_statistics(cfg, geometry, spec)
    field, rot, heat, bulk = ds.field, ds.rotation, ds.heat, ds.bulk

    # chi^2 needs approximately independent draws: thin the heat field to a
    # lambda/4 site stride (the field's spatial correlation scale)
    stride = max(1, int(round(0.25 * ds.wavelength / cfg.spacing)))
    thin = np.zeros_like(bulk)
    thin[::stride, ::stride] = True
    p = heat.power[bulk & thin]
    _require_fit_samples("thinned heat sample", p.size)

    rho = np.abs(ds.sample) ** 2
    rho = rho / rho.mean()
    eps_fit = max(min(rot.openness, 1.0), 1e-3)
    density_fit = st.fit_histogram(
        rho, lambda r: st.density_cdf(eps_fit, r), cfg.n_bins,
        ppf=lambda q: st.density_ppf(eps_fit, q))
    rayleigh_fit = st.fit_histogram(
        rho, lambda r: 1.0 - np.exp(-np.asarray(r)), cfg.n_bins)

    mean_p = float(p.mean())
    n_bins = min(cfg.n_bins, max(10, p.size // 50))
    heat_fit = st.fit_histogram(
        p, lambda q: st.heat_cdf(ds.eps_current, mean_p, q), n_bins)

    gauss = st.gaussianity_check(ds.currents.ix[bulk].real, cfg.n_bins)

    _write_fit(os.path.join(out_dir, "density_histogram.csv"), density_fit)
    _write_fit(os.path.join(out_dir, "heat_histogram.csv"), heat_fit)
    return {
        "source_site": list(field.source[0]),
        "theta": rot.theta,
        "openness_field": rot.openness,
        "openness_current": ds.eps_current,
        "sigma_p_sq_field": rot.sigma_p_sq,
        "sigma_q_sq_field": rot.sigma_q_sq,
        "sigma_r_sq": ds.sigma_r_sq,
        "sigma_i_sq": ds.sigma_i_sq,
        "mean_power": float(heat.power[bulk].mean()),
        "sigma_p_sq_heat": st.sigma_p_sq_empirical(heat.power[bulk]),
        "heat_sample_stride": stride,
        "heat_sample_size": int(p.size),
        "anisotropy_real": ds.r_real,
        "anisotropy_imag": ds.r_imag,
        "density_ks": density_fit.ks_distance,
        "density_chi_sq_per_dof": density_fit.chi_sq_per_dof,
        "rayleigh_ks": rayleigh_fit.ks_distance,
        "heat_ks": heat_fit.ks_distance,
        "heat_chi_sq_per_dof": heat_fit.chi_sq_per_dof,
        "gaussianity_ks": gauss.ks_distance,
        "power_balance_residual": fld.power_balance(field),
        "exclusion_radius": ds.radius,
    }


def _run_streamlines(cfg, geometry, spec, out_dir):
    field = _driven_field(cfg, geometry, spec)
    currents = fld.link_currents(field)
    vortices = fld.nodal_vortices(field)
    write_csv(os.path.join(out_dir, "vortices.csv"), ("x", "y", "winding"),
              ((v.x, v.y, int(v.winding)) for v in vortices))
    a0 = geometry.spacing
    (si, sj), _ = field.source
    cx, cy = a0 * si, a0 * sj
    seeds = []
    for k in range(cfg.n_seeds):
        ang = 2.0 * pi * k / cfg.n_seeds
        x, y = cx + cfg.seed_radius * cos(ang), cy + cfg.seed_radius * sin(ang)
        if geometry.contains(x, y):
            seeds.append((x, y))
    lines = fld.trace_streamlines(field, currents, seeds,
                                  step=cfg.step_fraction * a0,
                                  max_steps=cfg.max_steps)
    write_polylines(os.path.join(out_dir, "streamlines.csv"), lines)
    return {
        "source_site": list(field.source[0]),
        "n_vortices": len(vortices),
        "n_streamlines": len(lines),
        "seed_ring_radius": cfg.seed_radius,
    }
