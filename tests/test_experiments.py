"""Experiment configs, artifact generation, CLI behavior."""

import filecmp
import json
import os
from math import pi

import numpy as np
import pytest

from rlcnet.cli import main
from rlcnet.experiments import (ConfigError, ExperimentConfig, centroid_site,
                                ensemble_average, ks_binned_vs_normal,
                                place_source_at_maximum, run,
                                standardized_mode_histogram)
from rlcnet.geometry import rasterize_rectangle
from rlcnet.network import CircuitSpec
from rlcnet.solve import driven_response, eigenmodes_lossless

L, C = 1e-4, 1e-9


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "drive", "omega": 1e6,
                                    "resitance": 0.5})


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "teleport"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "drive", "omega": -1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "sweep", "omega_min": 2e6,
                                    "omega_max": 1e6})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "spectrum",
                                    "geometry": "triangle"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "ensemble", "omega": 1e6,
                                    "tolerance": 0.0, "n_realizations": 5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "drive", "omega": 1e6,
                                    "tolerance_distribution": "cauchy"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "sweep", "omega_min": 1e6,
                                    "omega_max": 2e6, "n_points": 2})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "drive", "omega": 1e6,
                                    "source_site": [1.5, 2]})


def test_config_from_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(tmp_path / "missing.json")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_file(arr)


def test_centroid_site_deterministic():
    g = rasterize_rectangle(10, 6, 0.1)
    assert centroid_site(g) == centroid_site(g)
    i, j = centroid_site(g)
    assert g.interior[i, j]


def test_place_source_converges():
    g = rasterize_rectangle(20, 10, 0.05)
    spec = CircuitSpec("I", L, C, 0.2)
    field = place_source_at_maximum(g, spec, 1.0e6, n_iter=4)
    site, amplitude = field.source
    assert g.interior[site] and amplitude == 1.0
    # the passes share one factorization: bitwise the one-source solve
    alone = driven_response(g, spec, 1.0e6, field.source)
    assert np.array_equal(field.values, alone.values)


def test_place_source_on_perturbed_network(tmp_path):
    # density_max places the source on the realization that is driven
    cfg = ExperimentConfig.from_dict({
        "experiment": "drive", "geometry": "rectangle",
        "nx_interior": 30, "ny_interior": 20, "spacing": 0.05,
        "resistance": 0.3, "omega": 1.05e6, "tolerance": 0.05, "seed": 1,
        "source_rule": "density_max", "source_iterations": 4,
    })
    run(cfg, tmp_path / "drive")
    man = json.loads((tmp_path / "drive" / "manifest.json").read_text())
    assert man["source_site"] == [16, 11]   # [15, 10] on the bare lattice


def test_standardized_histogram_sign_fix():
    rng = np.random.default_rng(2)
    v = rng.normal(size=4000)
    edges = np.linspace(-5, 5, 51)
    h1 = standardized_mode_histogram(v, edges)
    h2 = standardized_mode_histogram(-v, edges)
    assert np.array_equal(h1, h2)
    assert h1.sum() == pytest.approx(1.0, abs=1e-12)


def test_ks_binned_normal_sample_is_small():
    rng = np.random.default_rng(4)
    z = rng.normal(size=500_000)
    edges = np.linspace(-5, 5, 51)
    counts, _ = np.histogram(z, bins=edges)
    ks = ks_binned_vs_normal(edges, counts / z.size)
    assert ks < 0.01


def test_ensemble_single_realization_identity():
    g = rasterize_rectangle(12, 8, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    edges = np.linspace(-5, 5, 51)
    modes = eigenmodes_lossless(g, spec, 3)
    target = modes[1].omega
    avg, ks = ensemble_average(g, spec, target, 0.0, 1, 0, edges)
    from rlcnet.solve import eigenmode_nearest
    single = standardized_mode_histogram(
        eigenmode_nearest(g, spec, target).vector, edges)
    assert np.allclose(avg, single)
    assert ks >= 0.0


def test_run_spectrum_unit_square(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "spectrum", "geometry": "rectangle",
        "nx_interior": 49, "ny_interior": 49, "spacing": 0.02,
        "n_modes": 3, "write_mode_fields": False,
    })
    out = run(cfg, tmp_path / "spec")
    rows = (tmp_path / "spec" / "modes.csv").read_text().strip().splitlines()
    assert rows[0] == "n,omega,eps_n"
    lowest_eps = float(rows[1].split(",")[2])
    assert abs(lowest_eps - 2 * pi ** 2) / (2 * pi ** 2) < 0.01
    assert os.path.exists(os.path.join(out, "manifest.json"))


def drive_config(**over):
    data = {
        "experiment": "drive", "geometry": "rectangle",
        "nx_interior": 20, "ny_interior": 12, "spacing": 0.05,
        "resistance": 0.5, "omega": 1.05e6, "seed": 7,
    }
    data.update(over)
    return ExperimentConfig.from_dict(data)


def test_run_drive_artifacts(tmp_path):
    out = run(drive_config(), tmp_path / "drive")
    for name in ("field.csv", "density.csv", "density.pgm", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    man = json.loads((tmp_path / "drive" / "manifest.json").read_text())
    assert man["derived"]["omega0"] == pytest.approx(3.1623e6, rel=1e-4)
    assert "wavelength" in man["derived"]
    assert man["conventions"]["omega_unit"] == "rad/s"
    pgm = (tmp_path / "drive" / "density.pgm").read_text().splitlines()
    assert pgm[0] == "P2"


def test_run_drive_deterministic(tmp_path):
    a = run(drive_config(tolerance=0.02), tmp_path / "a")
    b = run(drive_config(tolerance=0.02), tmp_path / "b")
    for name in ("field.csv", "density.csv", "density.pgm", "manifest.json"):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


def test_run_sweep(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "sweep", "geometry": "rectangle",
        "nx_interior": 8, "ny_interior": 5, "spacing": 0.1,
        "resistance": 0.05, "omega_min": 0.4e6, "omega_max": 0.9e6,
        "n_points": 80, "source_site": [3, 3],
    })
    out = run(cfg, tmp_path / "sweep")
    rows = (tmp_path / "sweep" / "peaks.csv").read_text().strip().splitlines()
    assert rows[0] == "omega_peak,response_norm_sq"
    man = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    assert man["n_peaks"] == len(rows) - 1


def test_run_oracle(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "oracle", "sigma_r": 1.0, "sigma_i": 0.5,
        "n_samples": 200_000, "seed": 3,
    })
    out = run(cfg, tmp_path / "oracle")
    man = json.loads((tmp_path / "oracle" / "manifest.json").read_text())
    assert man["openness"] == pytest.approx(0.5)
    assert man["mean_power_model"] == pytest.approx(1.25)
    assert man["ks_distance"] < 0.01
    assert os.path.exists(os.path.join(out, "heat_histogram.csv"))


def test_run_ensemble_artifacts(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "ensemble", "geometry": "rectangle",
        "nx_interior": 15, "ny_interior": 10, "spacing": 0.05,
        "omega": 1.0e6, "tolerance": 0.02, "n_realizations": 4,
        "seed": 11,
    })
    run(cfg, tmp_path / "ens")
    man = json.loads((tmp_path / "ens" / "manifest.json").read_text())
    assert man["ks_to_normal"] >= 0.0
    rows = (tmp_path / "ens" / "histogram.csv").read_text().strip().splitlines()
    assert rows[0] == "bin_lo,bin_hi,baseline,averaged"
    assert len(rows) == 1 + 50


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_cli_success(tmp_path):
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
        "spacing": 0.05, "resistance": 0.3, "omega": 1.0e6,
    })
    out = str(tmp_path / "out")
    assert main(["drive", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_cli_config_error(tmp_path):
    cfg = write_cfg(tmp_path, {"spacing": -1.0})
    assert main(["spectrum", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 2
    # bad values caught by validate, by the built geometry and by the spec
    drive = {"geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
             "spacing": 0.05, "resistance": 0.3, "omega": 1.0e6}
    for experiment, bad in (("drive", {"source_site": [0, 0]}),
                            ("drive", {"source_site": [50, 2]}),
                            ("drive", {"source_site": [10 ** 30, 2]}),
                            ("drive", {"tolerance": 0.02,
                                       "tolerance_distribution": "cauchy"}),
                            ("sweep", {"omega_min": 0.9e6, "omega_max": 1.1e6,
                                       "n_points": 2}),
                            ("drive", {"model": "III"}),
                            ("drive", {"source_rule": "density_max",
                                       "source_iterations": 0}),
                            ("ensemble", {"tolerance": 0.02,
                                          "n_realizations": 0}),
                            ("spectrum", {"bc": "neumann"}),
                            ("spectrum", {"bc": "mixed",
                                          "bc_shunt_inductance": 1e-4}),
                            ("ensemble", {"bc": "neumann"}),
                            ("ensemble", {"bc": "mixed",
                                          "bc_shunt_inductance": 1e-4}),
                            ("spectrum", {"n_modes": 81}),
                            ("sweep", {"omega_min": 0.9e6, "omega_max": 1.1e6,
                                       "n_points": 5, "omega": 0.0,
                                       "source_rule": "density_max"}),
                            ("sweep", {"omega_min": 0.9e6, "omega_max": 1.1e6,
                                       "n_points": 5, "resistance": 0.0}),
                            ("stats", {"n_bins": 0}),
                            ("stats", {"n_bins": 1}),
                            ("ensemble", {"tolerance": 0.02, "n_bins": 0}),
                            ("streamlines", {"step_fraction": 0.6}),
                            ("streamlines", {"step_fraction": 0.0}),
                            ("oracle", {"n_samples": 0}),
                            ("oracle", {"n_samples": 500}),
                            ("oracle", {"sigma_r": 1.0, "sigma_i": 0.5,
                                        "n_samples": 1000, "n_bins": 2000})):
        cfg = write_cfg(tmp_path, {**drive, **bad})
        assert main([experiment, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2, bad
    # stats runs whose sample is too small for the fits, or undefined
    rect = {"geometry": "rectangle", "nx_interior": 60, "ny_interior": 60,
            "spacing": 0.02, "resistance": 0.3, "omega": 4.0e6}
    stadium = {"geometry": "quarter_stadium", "resistance": 0.3,
               "omega": 861100.0}
    for bad in ({**stadium, "spacing": 0.02},          # thinned heat sample
                {**stadium, "spacing": 0.0075},
                {**rect, "nx_interior": 30, "ny_interior": 30},  # 900 sites
                {**rect, "resistance": 0.0},
                {**rect, "exclude_wavelengths": 30.0},  # empty sample
                {**rect, "exclude_wavelengths": -1.0},
                {**rect, "n_bins": 5000}):      # more bins than samples
        cfg = write_cfg(tmp_path, bad)
        assert main(["stats", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2, bad
    cfg = write_cfg(tmp_path, {**drive, "tolerance": 0.02,
                               "n_realizations": 2})
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "0"]) == 2


def test_cli_stats_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 60, "ny_interior": 60,
        "spacing": 0.02, "resistance": 0.3, "omega": 4.0e6,
    })
    out = tmp_path / "stats"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["density_histogram.csv",
                                       "heat_histogram.csv", "manifest.json"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["power_balance_residual"] < 1e-8
    assert man["heat_sample_size"] == 3531


def test_cli_solver_failure(tmp_path):
    # lossless drive exactly on the lowest resonance of a tiny rectangle
    spec = CircuitSpec("I", L, C, 0.0)
    omega = spec.omega0 * np.sqrt(2.0)
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 2, "ny_interior": 2,
        "spacing": 0.1, "resistance": 0.0, "omega": omega,
        "source_site": [1, 1],
    })
    assert main(["drive", "--config", cfg, "--out",
                 str(tmp_path / "o")]) == 3


def test_cli_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
        "spacing": 0.05, "resistance": 0.3, "omega": 1.0e6, "seed": 1,
        "tolerance": 0.02,
    })
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["drive", "--config", cfg, "--out", a, "--seed", "9"]) == 0
    assert main(["drive", "--config", cfg, "--out", b, "--seed", "9"]) == 0
    assert filecmp.cmp(os.path.join(a, "field.csv"),
                       os.path.join(b, "field.csv"), shallow=False)
    with open(os.path.join(a, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["config"]["seed"] == 9
