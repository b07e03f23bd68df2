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
import shutil
from dataclasses import dataclass
from math import cos, pi, sin
from sys import float_info

import numpy as np
from scipy.sparse.linalg import ArpackError
from scipy.special import ndtr

from . import __version__
from .geometry import (GridGeometry, rasterize_quarter_stadium,
                       rasterize_rectangle)
from .io import write_csv, write_json, write_pgm, write_polylines
from .network import (MODEL_II, TOLERANCE_REACH, CircuitSpec,
                      sample_perturbation)
from .solve import (ComplexField, Ordering, damping_length, driven_response,
                    driven_solver, eigenmode_nearest, eigenmodes_lossless,
                    quality_factor, resonance_sweep, wavelength)
from . import fields as fld
from . import stats as st

EXPERIMENTS = ("spectrum", "drive", "sweep", "ensemble", "stats",
               "streamlines", "oracle")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


# JSON types a config field of each declared type takes; bools are never
# numbers here, and nothing is coerced
_ACCEPTED = {int: (int,), float: (int, float), str: (str,), bool: (bool,)}


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
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            accepted = _ACCEPTED.get(types[name])   # source_site: in validate
            if accepted and (isinstance(value, bool) != (bool in accepted)
                             or not isinstance(value, accepted)):
                raise ConfigError(f"{name}: expected {types[name].__name__}, "
                                  f"got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path,
                  experiment: str | None = None) -> "ExperimentConfig":
        """Read a flat JSON config and validate it for `experiment` when
        given (it replaces the file's own kind), else for the file's kind."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a flat JSON object")
        if experiment is not None:
            data["experiment"] = experiment
        return cls.from_dict(data)

    def validate(self) -> None:
        # JSON reads NaN, Infinity and integers too large for a float, which
        # pass every sign test below
        for field in dataclasses.fields(self):
            if field.type is float \
                    and not abs(getattr(self, field.name)) <= float_info.max:
                raise ConfigError(f"{field.name}: must be a finite number")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment: unknown kind {self.experiment!r}")
        if self.geometry not in ("rectangle", "quarter_stadium"):
            raise ConfigError(f"geometry: unknown shape {self.geometry!r}")
        for name in ("spacing", "inductance", "capacitance"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name}: must be positive")
        for name in ("resistance", "tolerance"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name}: must be >= 0")
        if self.tolerance_distribution not in TOLERANCE_REACH:
            raise ConfigError("tolerance_distribution: unknown law "
                              f"{self.tolerance_distribution!r}")
        if self.tolerance * TOLERANCE_REACH[self.tolerance_distribution] \
                >= 1.0:
            raise ConfigError(f"tolerance: {self.tolerance_distribution} "
                              "multipliers can reach m <= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.source_rule not in ("site", "density_max"):
            raise ConfigError(f"source_rule: unknown rule {self.source_rule!r}")
        if self.source_site is not None and not (
                isinstance(self.source_site, list) and len(self.source_site) == 2
                and all(type(k) is int for k in self.source_site)):
            raise ConfigError("source_site: need a list of two integers [i, j]")
        if self.source_amplitude == 0:
            raise ConfigError("source_amplitude: must be nonzero")
        if self.source_rule == "density_max" and self.source_iterations < 1:
            raise ConfigError("source_iterations: must be >= 1")
        # omega is the drive, the ensemble's target, or where density_max
        # places a sweep's source
        if self.omega <= 0.0 and (self.experiment in (
                "drive", "stats", "streamlines", "ensemble")
                or self.experiment == "sweep"
                and self.source_rule == "density_max"):
            raise ConfigError(f"omega: {self.experiment} needs omega > 0")
        if self.experiment == "sweep":
            if not 0.0 < self.omega_min < self.omega_max:
                raise ConfigError("omega_min/omega_max: need 0 < min < max")
            if self.n_points < 3:
                raise ConfigError("n_points: a sweep needs at least 3 points")
        # a sweep's peaks are finite, and the stats' ohmic currents
        # defined, only with loss
        if self.experiment in ("sweep", "stats") and self.resistance <= 0.0:
            raise ConfigError(f"resistance: {self.experiment} needs R > 0")
        if self.experiment == "stats" and self.model == MODEL_II:
            # the heat statistics read R/2 |dV/R|^2 on the links, which are
            # lossless capacitors in model II; its loss is in the shunts
            raise ConfigError("model: stats supports only model I; model II "
                              "links are capacitors and dissipate no heat")
        if self.experiment == "ensemble":
            if self.tolerance <= 0.0 and self.n_realizations > 1:
                raise ConfigError("tolerance: ensemble with tau = 0 is degenerate")
            if self.n_realizations < 1:
                raise ConfigError("n_realizations: must be >= 1")
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
        if self.experiment == "streamlines":
            if not 0.0 < self.step_fraction <= 0.5:
                raise ConfigError("step_fraction: need 0 < step_fraction <= 0.5")
            if self.n_seeds < 1:
                raise ConfigError("n_seeds: must be >= 1")
            if self.max_steps < 1:
                raise ConfigError("max_steps: must be >= 1")
            # a ring of radius 0 puts every seed on the source site
            if self.seed_radius <= 0.0:
                raise ConfigError("seed_radius: must be positive")

    def build_geometry(self) -> GridGeometry:
        if self.geometry == "rectangle":
            return rasterize_rectangle(self.nx_interior, self.ny_interior,
                                       self.spacing)
        return rasterize_quarter_stadium(self.spacing)

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

    Each of the n_iter passes solves the driven system and moves the
    source to the density argmax over the interior sites other than its
    own (row-major tie-break), so the walk always makes n_iter moves, and
    the geometry needs at least 2 interior sites.  One more solve gives
    the returned field at the final site; all n_iter + 1 solves share one
    factorization.
    """
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if geometry.n_interior < 2:
        raise ValueError("density_max needs at least 2 interior sites")
    solve = driven_solver(geometry, spec, omega, pert)
    site = centroid_site(geometry) if start is None else tuple(start)
    for _ in range(n_iter):
        field = solve((site, amplitude))
        rho = fld.probability_density(field)
        rho[site] = -1.0
        rho[~geometry.interior] = -1.0
        nxt = np.unravel_index(int(np.argmax(rho)), rho.shape)
        site = (int(nxt[0]), int(nxt[1]))
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
    """Frequencies of the sign-fixed, standardized eigenvector amplitudes.

    A constant vector has no spread to standardize by.  It is the mode
    that a config's omega selects (on a 2x2 rectangle, say), so it raises
    ConfigError naming omega."""
    v = np.asarray(mode_vector, dtype=float)
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0.0:
        v = -v
    std = v.std()
    if std == 0.0:
        raise ConfigError("omega: the mode nearest this omega is constant "
                          "over the sites; its amplitudes cannot be "
                          "standardized")
    z = (v - v.mean()) / std
    counts, _ = np.histogram(z, bins=bin_edges)
    return counts / v.size


def ks_binned_vs_normal(bin_edges, frequencies) -> float:
    """KS distance of a binned empirical law against the unit normal."""
    cum = np.concatenate(([0.0], np.cumsum(frequencies)))
    return float(np.max(np.abs(cum - ndtr(bin_edges))))


class _WorkerArpackError(ArpackError):
    """An ARPACK failure in an ensemble worker process, as its caller sees
    it.  scipy's ARPACK errors do not survive the pickle that carries a
    worker's exception back (ArpackNoConvergence cannot be rebuilt, which
    breaks the pool, and ArpackError is rebuilt with another message), so
    a worker raises this one, with the same message, instead."""

    def __init__(self, message):
        RuntimeError.__init__(self, message)


# the realization function of the ensemble that this worker process
# serves; each worker's initializer sets it, and the parent never does
_worker_realization = None


def _start_worker(realization):
    global _worker_realization
    _worker_realization = realization


def _run_realization(k):
    """Histogram of realization k, in a worker process."""
    try:
        return _worker_realization(k)
    except ArpackError as exc:
        raise _WorkerArpackError(str(exc)) from exc


def ensemble_average(geometry: GridGeometry, spec: CircuitSpec,
                     omega_target: float, tolerance: float,
                     n_realizations: int, seed: int,
                     bin_edges, distribution: str = "uniform",
                     threads: int = 1):
    """Average the standardized Re(V) histogram over disorder realizations.

    First the tau = 0 baseline: the lossless mode nearest omega_target of
    the unperturbed network, solved in this process.  Each realization
    then perturbs the components, recomputes the lossless mode nearest
    omega_target and histograms its standardized amplitudes on the shared
    bin edges.  Every pencil shift has the geometry's stencil pattern, so
    the baseline and every realization factor on one minimum-degree
    `Ordering`, which the baseline's factorization fills.  The
    realizations run on min(threads, n_realizations) worker processes,
    forked after the baseline, so that each inherits the geometry's
    stencil and the filled ordering and nothing large is pickled; with
    one worker or none they run in this process.  Each task is a
    realization index and each result one histogram, and the histograms
    are averaged in realization order, so the result is the same at any
    worker count.  A worker's solver failure reaches the caller as
    SingularSystemError or ArpackError, and no worker outlives the call.
    The fork start method needs a POSIX system.  Returns (baseline mode,
    averaged frequencies, KS of the average to the unit normal).
    """
    if n_realizations < 1:
        raise ValueError("need at least one realization")
    if tolerance <= 0.0 and n_realizations > 1:
        raise ValueError("tau = 0 ensemble with several realizations is degenerate")
    root = np.random.SeedSequence(seed)
    sub_seeds = [int(s.generate_state(1)[0]) for s in root.spawn(n_realizations)]
    ordering = Ordering()

    def one(k):
        if tolerance > 0.0:
            pert = sample_perturbation(geometry, tolerance, sub_seeds[k],
                                       distribution=distribution)
        else:
            pert = None
        mode = eigenmode_nearest(geometry, spec, omega_target, pert=pert,
                                 ordering=ordering)
        return standardized_mode_histogram(mode.vector, bin_edges)

    # the baseline builds the stencil (a cached_property of the geometry)
    # and fills the ordering here, before any fork, so every worker
    # inherits both instead of building its own
    baseline = eigenmode_nearest(geometry, spec, omega_target,
                                 ordering=ordering)
    workers = min(threads, n_realizations)
    if workers <= 1:
        hists = list(map(one, range(n_realizations)))
    else:
        # imported here: no other run needs multiprocessing (4 ms)
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # under fork the initializer's argument is inherited, not pickled,
        # so the workers can run the closure
        pool = ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(one,))
        try:
            hists = list(pool.map(_run_realization, range(n_realizations)))
        finally:
            # after a failure, the realizations not yet started are
            # dropped rather than run
            pool.shutdown(cancel_futures=True)
    avg = np.mean(hists, axis=0)
    return baseline, avg, ks_binned_vs_normal(bin_edges, avg)


def _write_sites(path, geometry, names, *values):
    """Columns i, j, x, y of the interior sites (row-major), then `names`
    over the `values`, each given over the interior sites in that order."""
    i, j = geometry.interior_sites.T
    a0 = geometry.spacing
    write_csv(path, ("i", "j", "x", "y", *names),
              (i, j, a0 * i, a0 * j, *values))


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
    """Execute one experiment; returns the artifact directory path.

    A run that raises removes the output directory if it created it.
    """
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
    if cfg.experiment == "ensemble" and geometry.n_interior < 2:
        raise ConfigError("nx_interior/ny_interior: an ensemble needs 2 sites")
    if cfg.source_rule == "density_max" and geometry.n_interior < 2 \
            and cfg.experiment in ("drive", "sweep", "stats", "streamlines"):
        raise ConfigError("source_rule: density_max needs 2 interior sites")
    # the topmost directory this run creates, which a failed run removes;
    # a directory that already existed stays
    created = None
    missing = os.path.abspath(out_dir)
    while not os.path.exists(missing):
        created, missing = missing, os.path.dirname(missing)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        # a file where the directory or one of its parents should be
        raise ConfigError(f"out: {exc}") from exc
    try:
        extra = _run_experiment(cfg, geometry, spec, out_dir, threads)
        write_json(os.path.join(out_dir, "manifest.json"),
                   _manifest(cfg, spec, extra))
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    return out_dir


def _run_experiment(cfg, geometry, spec, out_dir, threads) -> dict:
    """Write the artifacts of one experiment into out_dir; returns the
    manifest entries it adds."""
    extra = {}

    if cfg.experiment == "spectrum":
        modes = eigenmodes_lossless(geometry, spec, cfg.n_modes,
                                    _maybe_pert(cfg, geometry))
        write_csv(os.path.join(out_dir, "modes.csv"), ("n", "omega", "eps_n"),
                  ([m.index for m in modes], [m.omega for m in modes],
                   [m.eps for m in modes]))
        if cfg.write_mode_fields:
            for m in modes:
                _write_sites(os.path.join(out_dir, f"mode_{m.index:04d}.csv"),
                             geometry, ("re_v", "im_v"),
                             m.vector, np.zeros_like(m.vector))
        extra["n_modes"] = cfg.n_modes

    elif cfg.experiment == "drive":
        field = _driven_field(cfg, geometry, spec)
        rho = fld.probability_density(field)
        v = field.values[geometry.interior]
        _write_sites(os.path.join(out_dir, "field.csv"), geometry,
                     ("re_v", "im_v"), v.real, v.imag)
        _write_sites(os.path.join(out_dir, "density.csv"), geometry,
                     ("value",), rho[geometry.interior])
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
                  ("omega_peak", "response_norm_sq"),
                  np.reshape(peaks, (-1, 2)).T)
        extra = {"source_site": list(source[0]), "n_peaks": len(peaks)}

    elif cfg.experiment == "ensemble":
        bin_edges = np.linspace(-5.0, 5.0, cfg.n_bins + 1)
        baseline_mode, avg, ks = ensemble_average(
            geometry, spec, cfg.omega, cfg.tolerance, cfg.n_realizations,
            cfg.seed, bin_edges, distribution=cfg.tolerance_distribution,
            threads=threads)
        base_hist = standardized_mode_histogram(baseline_mode.vector, bin_edges)
        write_csv(os.path.join(out_dir, "histogram.csv"),
                  ("bin_lo", "bin_hi", "baseline", "averaged"),
                  (bin_edges[:-1], bin_edges[1:], base_hist, avg))
        extra["ks_to_normal"] = ks
        extra["ks_to_normal_baseline"] = ks_binned_vs_normal(bin_edges, base_hist)
        extra["mode_omega"] = baseline_mode.omega

    elif cfg.experiment == "stats":
        ds = driven_statistics(_driven_field(cfg, geometry, spec),
                               cfg.n_bins, cfg.exclude_wavelengths)
        _write_fit(os.path.join(out_dir, "density_histogram.csv"), ds.density)
        _write_fit(os.path.join(out_dir, "heat_histogram.csv"), ds.heat)
        extra = ds.scalars

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
    return extra


def _maybe_pert(cfg, geometry):
    if cfg.tolerance > 0.0:
        return sample_perturbation(geometry, cfg.tolerance, cfg.seed,
                                   distribution=cfg.tolerance_distribution)
    return None


def _write_fit(path, fit):
    write_csv(path, ("bin_lo", "bin_hi", "empirical", "model"),
              (fit.bin_edges[:-1], fit.bin_edges[1:], fit.empirical,
               fit.model))


@dataclass(eq=False)
class DrivenStatistics:
    """What the `stats` experiment reports on one driven field: the density
    and heat fits that it writes as histograms, and the manifest's scalars
    under their manifest keys, the scores of all four fits among them."""

    field: ComplexField
    density: st.HistogramFit
    heat: st.HistogramFit
    scalars: dict


def _require_fit_samples(what, n, n_bins=0):
    """Reject a sample below the 1000 points fit_histogram needs, or below
    the number of bins it is fitted with."""
    need = max(1000, n_bins)
    if n < need:
        raise ConfigError(f"stats: the {what} has {n} points; the fits "
                          f"need at least {need}")


def driven_statistics(field: ComplexField, n_bins: int = 50,
                      exclude_wavelengths: float = 1.0) -> DrivenStatistics:
    """The sample statistics of a driven field, as `stats` reports them.

    Every statistic reads one site sample: the interior sites strictly
    farther than `exclude_wavelengths` * lambda from the field's source,
    lambda being the drive's wavelength on the field's lattice.  A current
    statistic reads the two links leaving each sample site toward +x and
    +y, which exist at every interior site.  Current statistics use the
    rotated-field convention: the globally rotated field (the one that
    decorrelates Re and Im of V) differenced across links and divided by
    R.  The four fits, in the order they are made:

    - density: |V|^2 over its sample mean against the density law at the
      field's openness, in n_bins bins;
    - rayleigh: the same sample against the Rayleigh law exp(-rho);
    - heat: the sample's heat power, thinned to a lambda/4 site stride,
      against the heat law at the currents' openness and the thinned
      sample's mean, in n_bins bins but at most one per 50 samples (and
      at least 10);
    - gaussianity: Re I_x over the sample against the unit normal.

    A sample too small for its fit raises ConfigError.
    """
    geometry = field.geometry
    lam = wavelength(field.spec, geometry.spacing, field.omega)
    radius = exclude_wavelengths * lam
    sites = geometry.interior & st.source_exclusion_mask(
        geometry, field.source[0], radius)
    sample = field.values[sites]
    _require_fit_samples("density sample", sample.size, n_bins)
    rot = st.phase_rotate(sample)

    rotated = field.values * np.exp(1j * rot.theta)
    currents = fld.link_currents(dataclasses.replace(field, values=rotated),
                                 variant=fld.OHMIC)
    r_real, r_imag = st.anisotropy_metrics(currents, sites)
    sigma_r_sq = float(np.mean(currents.ix[sites].real ** 2
                               + currents.iy[sites].real ** 2) / 2.0)
    sigma_i_sq = float(np.mean(currents.ix[sites].imag ** 2
                               + currents.iy[sites].imag ** 2) / 2.0)
    eps_current = (min(sigma_i_sq, sigma_r_sq)
                   / max(sigma_i_sq, sigma_r_sq)) ** 0.5
    heat = fld.heat_power(currents, field.spec.resistance)

    # chi^2 needs approximately independent draws: thin the heat field to a
    # lambda/4 site stride (the field's spatial correlation scale)
    stride = max(1, int(round(0.25 * lam / geometry.spacing)))
    thin = np.zeros_like(sites)
    thin[::stride, ::stride] = True
    p = heat[sites & thin]
    _require_fit_samples("thinned heat sample", p.size)

    rho = np.abs(sample) ** 2
    rho = rho / rho.mean()
    # the openness is at most 1 by phase_rotate's order; the floor keeps
    # the density law defined for a real field
    eps_fit = max(rot.openness, 1e-3)
    density_fit = st.fit_histogram(
        rho, lambda r: st.density_cdf(eps_fit, r), n_bins,
        ppf=lambda q: st.density_ppf(eps_fit, q))
    rayleigh_fit = st.fit_histogram(
        rho, lambda r: 1.0 - np.exp(-np.asarray(r)), n_bins,
        ppf=lambda q: -np.log1p(-q))

    mean_p = float(p.mean())
    heat_fit = st.fit_histogram(
        p, lambda q: st.heat_cdf(eps_current, mean_p, q),
        min(n_bins, max(10, p.size // 50)))

    gauss = st.gaussianity_check(currents.ix[sites].real, n_bins)

    scalars = {
        "source_site": list(field.source[0]),
        "theta": rot.theta,
        "openness_field": rot.openness,
        "openness_current": eps_current,
        "sigma_p_sq_field": rot.sigma_p_sq,
        "sigma_q_sq_field": rot.sigma_q_sq,
        "sigma_r_sq": sigma_r_sq,
        "sigma_i_sq": sigma_i_sq,
        "mean_power": float(heat[sites].mean()),
        "sigma_p_sq_heat": st.sigma_p_sq_empirical(heat[sites]),
        "heat_sample_stride": stride,
        "heat_sample_size": int(p.size),
        "anisotropy_real": r_real,
        "anisotropy_imag": r_imag,
        "density_ks": density_fit.ks_distance,
        "density_chi_sq_per_dof": density_fit.chi_sq_per_dof,
        "rayleigh_ks": rayleigh_fit.ks_distance,
        "heat_ks": heat_fit.ks_distance,
        "heat_chi_sq_per_dof": heat_fit.chi_sq_per_dof,
        "gaussianity_ks": gauss.ks_distance,
        "power_balance_residual": fld.power_balance(field),
        "exclusion_radius": radius,
    }
    return DrivenStatistics(field, density_fit, heat_fit, scalars)


def _run_streamlines(cfg, geometry, spec, out_dir):
    field = _driven_field(cfg, geometry, spec)
    a0 = geometry.spacing
    (si, sj), _ = field.source
    cx, cy = a0 * si, a0 * sj
    angles = [2.0 * pi * k / cfg.n_seeds for k in range(cfg.n_seeds)]
    ring = [(cx + cfg.seed_radius * cos(a), cy + cfg.seed_radius * sin(a))
            for a in angles]
    # the ring is checked before any artifact is written
    seeds = [p for p in ring if geometry.contains(*p)]
    if not seeds:
        raise ConfigError(f"seed_radius: the ring of radius {cfg.seed_radius} "
                          f"around the source site ({si}, {sj}) misses the "
                          "interior")
    currents = fld.link_currents(field)
    vortices = fld.nodal_vortices(field)
    write_csv(os.path.join(out_dir, "vortices.csv"), ("x", "y", "winding"),
              ([v.x for v in vortices], [v.y for v in vortices],
               [v.winding for v in vortices]))
    lines = fld.trace_streamlines(field, currents, seeds,
                                  step=cfg.step_fraction * a0,
                                  max_steps=cfg.max_steps)
    write_polylines(os.path.join(out_dir, "streamlines.csv"), lines)
    return {
        "source_site": list(field.source[0]),
        "n_vortices": len(vortices),
        "n_streamlines": len(lines),
        "n_seeds_dropped": len(ring) - len(seeds),
        "stop_reasons": lines.stop_counts(),
        "seed_ring_radius": cfg.seed_radius,
    }
