"""The benchmark's workloads, their output checks and their references.

Each workload is one CLI run from the paper's experiments.  A check compares
the run's artifacts with a reference recorded at the seed commit
(reference/<workload>.json); tolerances follow the code's own contracts, so
a change that moves results at roundoff level passes and a wrong answer does
not.  Checks read the artifacts with the standard library only.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).parent / "reference"

STADIUM = {"geometry": "quarter_stadium", "model": "I",
           "inductance": 1e-4, "capacitance": 1e-9}


@dataclass(frozen=True)
class Workload:
    experiment: str
    config: dict
    threads: int = 1
    uses_seed: bool = False

    def cli_args(self, config_path, out_dir, seed):
        args = [self.experiment, "--config", str(config_path),
                "--out", str(out_dir), "--threads", str(self.threads)]
        if self.uses_seed:
            args += ["--seed", str(seed)]
        return args


WORKLOADS = {
    # the paper's headline statistics: half driven solve, half law quantiles
    "stadium_stats": Workload("stats", {
        **STADIUM, "spacing": 0.005, "resistance": 0.1, "omega": 861100.0,
        "source_rule": "density_max", "source_iterations": 3}),
    # the same solve path, then field tracing; the only large output
    "stadium_streamlines": Workload("streamlines", {
        **STADIUM, "spacing": 0.005, "resistance": 1.0, "omega": 861100.0,
        "source_rule": "density_max", "source_iterations": 3,
        "n_seeds": 32, "max_steps": 20000}),
    # a new matrix at every frequency: factor reuse cannot help here
    "stadium_sweep": Workload("sweep", {
        **STADIUM, "spacing": 0.01, "resistance": 0.3,
        "omega_min": 850000.0, "omega_max": 858000.0, "n_points": 9,
        "source_rule": "site"}),
    # the eigen path and worker threads; no driven solve at all
    "square_ensemble": Workload("ensemble", {
        "geometry": "rectangle", "nx_interior": 99, "ny_interior": 99,
        "spacing": 0.01, "model": "I", "inductance": 1e-4,
        "capacitance": 1e-9, "omega": 1722000.0, "tolerance": 0.03,
        "n_realizations": 100}, threads=2, uses_seed=True),
}


def artifact_digest(out_dir):
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(out_dir):
    with open(Path(out_dir) / "manifest.json") as fh:
        return json.load(fh)


def _csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(r[key]) for r in rows] for key in rows[0]} if rows else {}


def _rel_err(got, want):
    return abs(got - want) / abs(want)


# stats scalars compared at 1e-6 relative: far above roundoff of any
# factorization, far below the change of a wrong source or phase
STATS_SCALARS = ("theta", "openness_field", "openness_current",
                 "sigma_p_sq_field", "sigma_q_sq_field", "sigma_r_sq",
                 "sigma_i_sq", "mean_power", "sigma_p_sq_heat",
                 "anisotropy_real", "anisotropy_imag", "exclusion_radius")
STATS_EXACT = ("source_site", "heat_sample_stride", "heat_sample_size")
# fit_histogram call order in the stats experiment
STATS_FITS = ("density", "rayleigh", "heat", "gaussianity")


def _chi_sq_shift(frequencies, n):
    """Largest change of chi^2 per dof when one sample crosses one bin edge.

    Moving a sample from bin a to neighbouring bin b changes
    sum (c - E)^2 / E by (2 (c_b - c_a) + 2) / E, with E = n / bins.
    """
    bins = len(frequencies)
    expected = n / bins
    counts = [f * n for f in frequencies]
    worst = max(abs(counts[k + 1] - counts[k]) for k in range(bins - 1))
    return (2.0 * worst + 2.0) / expected / (bins - 1)


def _check_stats(out_dir, ref):
    man = _manifest(out_dir)
    bad = []
    if not man["power_balance_residual"] < 1e-8:
        bad.append(f"power_balance_residual {man['power_balance_residual']}")
    for key in STATS_EXACT:
        if man[key] != ref[key]:
            bad.append(f"{key} {man[key]} != {ref[key]}")
    for key in STATS_SCALARS:
        if not _rel_err(man[key], ref[key]) <= 1e-6:
            bad.append(f"{key} {man[key]} vs {ref[key]}")
    for key, tol in ref["score_tolerance"].items():
        if not abs(man[key] - ref[key]) <= tol:
            bad.append(f"{key} {man[key]} vs {ref[key]} (tolerance {tol:.3g})")
    for name in ("density_histogram.csv", "heat_histogram.csv"):
        freq = _csv_columns(Path(out_dir) / name)["empirical"]
        if not abs(sum(freq) - 1.0) < 1e-9:
            bad.append(f"{name} frequencies sum to {sum(freq)}")
    return bad


def _stats_reference(out_dir, spans):
    man = _manifest(out_dir)
    ref = {key: man[key] for key in STATS_EXACT + STATS_SCALARS}
    fits = [s for s in spans if s["name"] == "stats.fit_histogram"]
    n = {fit: s["n"] for fit, s in zip(STATS_FITS, fits)}
    density = _csv_columns(Path(out_dir) / "density_histogram.csv")["empirical"]
    heat = _csv_columns(Path(out_dir) / "heat_histogram.csv")["empirical"]
    # one sample crossing one bin edge moves the empirical CDF by 1/n
    ref["score_tolerance"] = {
        "density_ks": 1.0 / n["density"],
        "rayleigh_ks": 1.0 / n["rayleigh"],
        "heat_ks": 1.0 / n["heat"],
        "gaussianity_ks": 1.0 / n["gaussianity"],
        "density_chi_sq_per_dof": _chi_sq_shift(density, n["density"]),
        "heat_chi_sq_per_dof": _chi_sq_shift(heat, n["heat"]),
    }
    for key in ref["score_tolerance"]:
        ref[key] = man[key]
    ref["sample_sizes"] = n
    return ref


def _polyline_ends(path):
    """Last point of every blank-line separated polyline."""
    ends, last = [], None
    with open(path) as fh:
        for line in fh:
            if line.strip():
                last = line
            elif last is not None:
                ends.append(last)
                last = None
    if last is not None:
        ends.append(last)
    return [tuple(float(v) for v in e.split(",")) for e in ends]


def _check_streamlines(out_dir, ref):
    man = _manifest(out_dir)
    bad = []
    for key in ("n_vortices", "n_streamlines"):
        if man[key] != ref[key]:
            bad.append(f"{key} {man[key]} != {ref[key]}")
    vort = _csv_columns(Path(out_dir) / "vortices.csv")
    windings = vort.get("winding", [])
    if len(windings) != man["n_vortices"]:
        bad.append(f"vortices.csv has {len(windings)} rows")
    if any(abs(w) != 1 for w in windings):
        bad.append("a vortex winding is not +-1")
    ends = _polyline_ends(Path(out_dir) / "streamlines.csv")
    if len(ends) != man["n_streamlines"]:
        bad.append(f"streamlines.csv has {len(ends)} polylines")
    reach = 2.0 * ref["spacing"]
    if not any(math.dist(e, v) <= reach for e in ends
               for v in zip(vort.get("x", []), vort.get("y", []))):
        bad.append("no streamline ends within 2 a0 of a vortex")
    return bad


def _streamlines_reference(out_dir, spans):
    man = _manifest(out_dir)
    return {"n_vortices": man["n_vortices"],
            "n_streamlines": man["n_streamlines"],
            "spacing": man["config"]["spacing"]}


def _check_sweep(out_dir, ref):
    man = _manifest(out_dir)
    peaks = _csv_columns(Path(out_dir) / "peaks.csv").get("omega_peak", [])
    if man["n_peaks"] != len(ref["omega_peak"]) or len(peaks) != man["n_peaks"]:
        return [f"{man['n_peaks']} peaks ({len(peaks)} rows), "
                f"want {len(ref['omega_peak'])}"]
    # the golden-section search stops at rel_tol = 1e-6
    return [f"omega_peak {got} vs {want}"
            for got, want in zip(peaks, ref["omega_peak"])
            if not _rel_err(got, want) <= 2e-6]


def _sweep_reference(out_dir, spans):
    return {"omega_peak":
            _csv_columns(Path(out_dir) / "peaks.csv")["omega_peak"]}


def _check_ensemble(out_dir, ref):
    man = _manifest(out_dir)
    bad = []
    if not _rel_err(man["mode_omega"], ref["mode_omega"]) <= 1e-9:
        bad.append(f"mode_omega {man['mode_omega']} vs {ref['mode_omega']}")
    hist = _csv_columns(Path(out_dir) / "histogram.csv")
    for col in ("baseline", "averaged"):
        freq = hist.get(col, [])
        if any(not f >= 0.0 for f in freq):
            bad.append(f"histogram {col} has a negative bin")
        if not 0.999 <= sum(freq) <= 1.0 + 1e-12:
            bad.append(f"histogram {col} sums to {sum(freq)}")
    if len(hist.get("averaged", [])) != ref["n_bins"]:
        bad.append(f"histogram has {len(hist.get('averaged', []))} bins")
    for key in ("ks_to_normal", "ks_to_normal_baseline"):
        if not math.isfinite(man[key]):
            bad.append(f"{key} is {man[key]}")
    return bad


def _ensemble_reference(out_dir, spans):
    man = _manifest(out_dir)
    return {"mode_omega": man["mode_omega"], "n_bins": man["config"]["n_bins"]}


CHECKS = {"stats": (_check_stats, _stats_reference),
          "streamlines": (_check_streamlines, _streamlines_reference),
          "sweep": (_check_sweep, _sweep_reference),
          "ensemble": (_check_ensemble, _ensemble_reference)}


def check(workload, out_dir, ref):
    """List of check failures of one run's artifacts; empty when it passes."""
    try:
        return CHECKS[workload.experiment][0](out_dir, ref)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"artifacts unreadable: {type(exc).__name__}: {exc}"]


def make_reference(workload, out_dir, spans):
    """Reference values from one traced run's artifacts and spans."""
    return CHECKS[workload.experiment][1](out_dir, spans)


def load_reference(name):
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)
