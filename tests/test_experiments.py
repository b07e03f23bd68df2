"""Experiment configs, artifact generation, CLI behavior."""

import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
from math import pi
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import rlcnet.experiments
import rlcnet.fields
import rlcnet.geometry
import rlcnet.stats
from rlcnet.cli import main
from rlcnet.experiments import (ConfigError, DrivenStatistics,
                                ExperimentConfig, centroid_site,
                                driven_statistics, ensemble_average,
                                ks_binned_vs_normal, place_source_at_maximum,
                                run, standardized_mode_histogram)
from rlcnet.fields import Vortex, link_currents
from rlcnet.geometry import (GridGeometry, lattice_stencil,
                             rasterize_quarter_stadium, rasterize_rectangle)
from rlcnet.io import FLOAT, write_csv, write_polylines
from rlcnet.network import (CircuitSpec, admittance_families,
                            sample_perturbation)
from rlcnet.solve import (SingularSystemError, driven_response,
                          eigenmode_nearest, eigenmodes_lossless,
                          resonance_sweep)
from rlcnet.stats import (RotatedField, gaussianity_check, phase_rotate,
                          source_exclusion_mask)

L, C = 1e-4, 1e-9


def _array_records():
    """A factory per record that holds numpy arrays; each call makes a new
    instance from the same inputs."""
    g = rasterize_rectangle(3, 2, 0.1)
    spec = CircuitSpec("I", L, C, 0.3)
    source = ((1, 1), 1.0)
    field = driven_response(g, spec, spec.omega0, source)
    samples = np.linspace(-2.0, 2.0, 1000)
    return {
        "GridGeometry": lambda: rasterize_rectangle(3, 2, 0.1),
        "LatticeStencil": lambda: lattice_stencil(g),
        "Perturbation": lambda: sample_perturbation(g, 0.02, 1),
        "AdmittanceFamilies": lambda: admittance_families(g, spec),
        "Mode": lambda: eigenmodes_lossless(g, spec, 1)[0],
        "ComplexField": lambda: driven_response(g, spec, spec.omega0, source),
        "CurrentField": lambda: link_currents(field),
        "HistogramFit": lambda: gaussianity_check(samples),
        "DrivenStatistics": lambda: DrivenStatistics(
            field, gaussianity_check(samples), gaussianity_check(samples),
            {"theta": 0.0}),
    }


@pytest.mark.parametrize("record", [
    "GridGeometry", "LatticeStencil", "Perturbation", "AdmittanceFamilies",
    "Mode", "ComplexField", "CurrentField", "HistogramFit",
    "DrivenStatistics"])
def test_array_records_compare_by_identity(record):
    # comparing the arrays of two records would raise, and hashing them fail
    build = _array_records()[record]
    a, b = build(), build()
    assert type(a).__name__ == record
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    keyed = {a: "a", b: "b"}
    assert keyed[a] == "a" and keyed[b] == "b"


def test_arrayless_records_compare_by_value():
    assert CircuitSpec("II", L, C, 0.3) == CircuitSpec("II", L, C, 0.3)
    assert Vortex(0.1, 0.2, 1) == Vortex(0.1, 0.2, 1)
    assert RotatedField(0.5, 2.0, 1.0) == RotatedField(0.5, 2.0, 1.0)
    assert ExperimentConfig(omega=1e6) == ExperimentConfig(omega=1e6)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"experiment": "drive", "omega": 1e6,
                                    "resitance": 0.5})
    # the network is grounded at its edge: no wall kind is configurable
    for key, value in (("bc", "dirichlet"), ("bc_shunt_resistance", 0.5),
                       ("bc_shunt_inductance", 1e-4)):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "spectrum",
                                        key: value})


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
    baseline, avg, ks = ensemble_average(g, spec, target, 0.0, 1, 0, edges)
    single = standardized_mode_histogram(
        eigenmode_nearest(g, spec, target).vector, edges)
    assert np.allclose(avg, single)
    assert np.allclose(standardized_mode_histogram(baseline.vector, edges),
                       single)
    assert ks >= 0.0


def test_ensemble_workers_share_one_stencil(stencil_builds):
    # worker processes forked before the baseline built the stencil would
    # each build their own, which the log records too
    g = rasterize_rectangle(40, 40, 0.025)
    spec = CircuitSpec("I", L, C, 0.0)
    edges = np.linspace(-5, 5, 51)
    ensemble_average(g, spec, 1.0e6, 0.03, 6, 1, edges, threads=2)
    assert stencil_builds == [g]


def test_ensemble_computes_one_ordering(monkeypatch, process_log):
    # the tau = 0 baseline's minimum-degree factorization gives the
    # ordering that every realization factors on; no factorization is made
    # for the ordering alone, so each eigsh call has exactly one splu call.
    # The logs record the calls of the worker processes too
    specs, eigsh_calls = process_log("splu"), process_log("eigsh")
    splu, eigsh = spla.splu, spla.eigsh

    def spied_splu(*args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    def spied_eigsh(*args, **kwargs):
        eigsh_calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spied_splu)
    monkeypatch.setattr(spla, "eigsh", spied_eigsh)
    g = rasterize_rectangle(20, 15, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    edges = np.linspace(-5, 5, 51)
    results = []
    # more workers than cores share the filled ordering
    for threads in (1, 2, 4):
        specs.clear()
        eigsh_calls.clear()
        results.append(ensemble_average(g, spec, 1.0e6, 0.03, 8, 1, edges,
                                        threads=threads))
        assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 8
        assert len(eigsh_calls) == len(specs)
    for baseline, avg, ks in results[1:]:
        assert np.array_equal(baseline.vector, results[0][0].vector)
        assert np.array_equal(avg, results[0][1]) and ks == results[0][2]


def test_cli_ensemble_computes_one_ordering(tmp_path, monkeypatch,
                                           process_log):
    # the tau = 0 baseline fills the run's one ordering, which every
    # realization factors on: one ordering step per run, and each eigsh
    # call has exactly one splu call, in this process or a worker
    specs, eigsh_calls = process_log("splu"), process_log("eigsh")
    splu, eigsh = spla.splu, spla.eigsh

    def spied_splu(*args, **kwargs):
        specs.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    def spied_eigsh(*args, **kwargs):
        eigsh_calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spied_splu)
    monkeypatch.setattr(spla, "eigsh", spied_eigsh)
    cfg = write_cfg(tmp_path, {"geometry": "rectangle", "nx_interior": 20,
                               "ny_interior": 15, "spacing": 0.05,
                               "omega": 1.0e6, "tolerance": 0.03,
                               "n_realizations": 6, "seed": 1})
    assert main(["ensemble", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 0
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 6
    assert len(eigsh_calls) == len(specs)


def test_ensemble_workers_capped(monkeypatch, process_log):
    # never more workers than realizations, and none where one worker
    # would serve them
    started = process_log("workers")
    start = rlcnet.experiments._start_worker

    def logged(realization):
        started.append(os.getpid())
        start(realization)

    monkeypatch.setattr(rlcnet.experiments, "_start_worker", logged)
    g = rasterize_rectangle(12, 8, 0.05)
    spec = CircuitSpec("I", L, C, 0.0)
    edges = np.linspace(-5, 5, 51)
    for n_realizations, threads, n_workers in ((3, 4, 3), (1, 4, 0),
                                               (3, 1, 0)):
        started.clear()
        ensemble_average(g, spec, 1.0e6, 0.03, n_realizations, 1, edges,
                         threads=threads)
        pids = started.lines()
        assert len(set(pids)) == len(pids) == n_workers
        assert str(os.getpid()) not in pids
        assert multiprocessing.active_children() == []


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


def test_cli_sweep_drives_at_the_density_maximum(tmp_path):
    # a density_max sweep drives at the site that place_source_at_maximum
    # reaches on the run's own realization, and says so in its manifest
    cfg = {"geometry": "rectangle", "nx_interior": 12, "ny_interior": 9,
           "spacing": 0.05, "resistance": 0.3, "omega": 1.1e6,
           "tolerance": 0.02, "omega_min": 1.0e6, "omega_max": 1.3e6,
           "n_points": 15, "source_rule": "density_max"}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    g = rasterize_rectangle(12, 9, 0.05)
    spec = CircuitSpec("I", L, C, 0.3)
    field = place_source_at_maximum(g, spec, 1.1e6,
                                    pert=sample_perturbation(g, 0.02, 0))
    assert field.source[0] != centroid_site(g)
    peaks = resonance_sweep(g, spec, (1.0e6, 1.3e6), 15, field.source,
                            pert=field.perturbation)
    assert peaks
    got = np.loadtxt(out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
    assert got.tolist() == [list(p) for p in peaks]
    man = json.loads((out / "manifest.json").read_text())
    assert man["source_site"] == list(field.source[0])
    assert man["n_peaks"] == len(peaks)


def test_cli_model_ii_sweep_finds_its_sharp_peaks(tmp_path):
    # a model II sweep at Q about 40,000: each evaluation needs V alone,
    # so the run exits 0 and reports the window's two resonances
    cfg = {"geometry": "quarter_stadium", "spacing": 0.02, "model": "II",
           "resistance": 0.05, "omega_min": 20.5e6, "omega_max": 22.5e6,
           "n_points": 21}
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", write_cfg(tmp_path, cfg),
                 "--out", str(out)]) == 0
    got = np.loadtxt(out / "peaks.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(got) == 2
    g = rasterize_quarter_stadium(0.02)
    lossless = CircuitSpec("II", L, C, 0.0)
    for w in got[:, 0]:
        mode = eigenmode_nearest(g, lossless, w)
        assert abs(w - mode.omega) <= 1e-6 * mode.omega


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


def test_cli_spectrum_applies_tolerance(tmp_path):
    # the spectrum solves the realization that tolerance and seed draw,
    # and the same seed draws the same one
    spectrum = {"geometry": "rectangle", "nx_interior": 12, "ny_interior": 9,
                "spacing": 0.05, "n_modes": 5, "write_mode_fields": False}
    modes = {}
    for name, over in (("unit", {}),
                       ("a", {"tolerance": 0.05, "seed": 3}),
                       ("b", {"tolerance": 0.05, "seed": 3})):
        cfg = write_cfg(tmp_path, {**spectrum, **over})
        out = tmp_path / name
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        modes[name] = (out / "modes.csv").read_bytes()
    assert modes["a"] != modes["unit"]
    assert modes["a"] == modes["b"]


def test_cli_config_error(tmp_path, capsys):
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
                            ("spectrum", {"n_modes": 81}),
                            ("ensemble", {"nx_interior": 1, "ny_interior": 1}),
                            # the baseline mode is a constant vector, which
                            # has no spread to standardize by
                            ("ensemble", {"nx_interior": 2, "ny_interior": 2,
                                          "omega": 3.0e6}),
                            ("ensemble", {"nx_interior": 1, "ny_interior": 2,
                                          "omega": 1.0e6}),
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
                            ("streamlines", {"n_seeds": 0}),
                            ("streamlines", {"n_seeds": -3}),
                            ("streamlines", {"max_steps": 0}),
                            ("streamlines", {"max_steps": -1}),
                            ("streamlines", {"seed_radius": 0.0}),
                            ("streamlines", {"seed_radius": -0.05}),
                            ("oracle", {"n_samples": 0}),
                            ("oracle", {"n_samples": 500}),
                            ("oracle", {"sigma_r": 1.0, "sigma_i": 0.5,
                                        "n_samples": 1000, "n_bins": 2000}),
                            # mistyped values, caught before any numerics
                            ("drive", {"spacing": "0.05"}),
                            ("drive", {"nx_interior": 5.0}),
                            ("spectrum", {"n_modes": True}),
                            ("spectrum", {"n_modes": 2.5}),
                            ("drive", {"source_amplitude": [1, 2]}),
                            ("drive", {"source_amplitude": 0.0}),
                            ("stats", {"source_amplitude": 0.0})):
        cfg = write_cfg(tmp_path, {**drive, **bad})
        assert main([experiment, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2, bad
        err = capsys.readouterr().err
        assert any(f"{key}:" in err for key in bad), err
        assert not (tmp_path / "o").exists(), bad
    # the wall kinds are gone: their keys are unknown to every experiment
    for experiment in ("drive", "spectrum", "ensemble"):
        for key, value in (("bc", "neumann"), ("bc_shunt_resistance", 0.5),
                           ("bc_shunt_inductance", 1e-4)):
            cfg = write_cfg(tmp_path, {**drive, key: value})
            assert main([experiment, "--config", cfg, "--out",
                         str(tmp_path / "o")]) == 2, key
            assert f"unknown config keys: ['{key}']" \
                in capsys.readouterr().err
            assert not (tmp_path / "o").exists(), key
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


def test_cli_out_naming_a_file_is_a_config_error(tmp_path, capsys,
                                                 monkeypatch):
    # an --out that is a file, or lies under one, cannot be made a
    # directory: a config error before any solve, and the file stays
    solves = []
    monkeypatch.setattr(rlcnet.experiments, "eigenmodes_lossless",
                        lambda *args: solves.append(args))
    cfg = write_cfg(tmp_path, {"geometry": "rectangle", "nx_interior": 5,
                               "ny_interior": 4, "spacing": 0.1})
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (taken, taken / "sub"):
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and str(taken) in err
    assert taken.read_text() == "kept" and solves == []


def test_cli_rejects_a_tolerance_that_reaches_zero_multipliers(tmp_path,
                                                              capsys):
    # uniform multipliers at tau = 0.6 reach 1 - 0.6 sqrt(3) < 0: this 9x7
    # spectrum drew multipliers down to -0.039 and a link weight of -1345.6
    # in K, and still wrote modes.csv; Gaussian ones clipped at 3 tau reach
    # 0 from tau = 1/3 on
    spectrum = {"geometry": "rectangle", "nx_interior": 9, "ny_interior": 7,
                "spacing": 0.05, "seed": 5}
    for over in ({"tolerance": 0.6},
                 {"tolerance": 1.0 / 3.0,
                  "tolerance_distribution": "gaussian"}):
        cfg = write_cfg(tmp_path, {**spectrum, **over})
        out = tmp_path / "o"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert "tolerance:" in capsys.readouterr().err
        assert not out.exists()
    ExperimentConfig.from_dict({"experiment": "spectrum", "tolerance": 0.33,
                                "tolerance_distribution": "gaussian"})


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's SeedSequence takes no negative seed; the ensemble met it only
    # after its tau = 0 baseline solve, and --seed bypassed the config check
    rect = {"geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
            "spacing": 0.05, "omega": 1.0e6, "tolerance": 0.03,
            "n_realizations": 2}
    runs = (("ensemble", rect, ["--seed", "-1"]),
            ("spectrum", {**rect, "seed": -5}, []))
    for experiment, config, extra in runs:
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out),
                     *extra]) == 2
        assert "seed:" in capsys.readouterr().err
        assert not out.exists()


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    # JSON's NaN and Infinity pass every sign test; without the finiteness
    # check a NaN spacing wrote x, y = nan and a manifest that is not JSON,
    # a NaN L, R or omega failed in the solver (exit 3), and an integer
    # too large for a float raised OverflowError (exit 1)
    drive = {"geometry": "rectangle", "nx_interior": 6, "ny_interior": 5,
             "spacing": 0.05, "resistance": 0.3, "omega": 1.0e6}
    out = tmp_path / "o"
    for key in ("spacing", "inductance", "resistance", "omega"):
        for value in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
            cfg = write_cfg(tmp_path, {**drive, key: value})
            assert main(["drive", "--config", cfg, "--out", str(out)]) == 2
            assert f"{key}: must be a finite number" \
                in capsys.readouterr().err
            assert not out.exists()


def test_cli_validates_the_config_for_its_subcommand(tmp_path, capsys):
    # the file names no experiment: the subcommand's own rules apply
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
        "spacing": 0.05, "model": "II", "resistance": 0.3, "omega": 1.0e6,
    })
    assert main(["drive", "--config", cfg, "--out",
                 str(tmp_path / "drive")]) == 0
    capsys.readouterr()
    assert main(["stats", "--config", cfg, "--out",
                 str(tmp_path / "stats")]) == 2
    assert "model: stats supports only model I" in capsys.readouterr().err
    assert not (tmp_path / "stats").exists()


def test_cli_rejects_model_ii_stats(tmp_path, monkeypatch, capsys):
    # stats fits the heat law to R/2 |dV/R|^2 on the links, which are
    # lossless capacitors in model II: the run stops before any solve and
    # leaves no output directory behind
    def no_solve(*args, **kwargs):
        raise AssertionError("stats solved a model II network")

    monkeypatch.setattr(rlcnet.experiments, "driven_solver", no_solve)
    monkeypatch.setattr(rlcnet.experiments, "driven_response", no_solve)
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 60, "ny_interior": 60,
        "spacing": 0.02, "model": "II", "resistance": 0.3, "omega": 4.0e6,
        "source_rule": "density_max"})
    out = tmp_path / "new" / "o"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 2
    assert "model: stats supports only model I" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


# a 60x60 rectangle stats config: its lambda/4 stride is 1 site, so every
# fit reads the 3531 sites of the bulk
STATS_60 = {"geometry": "rectangle", "nx_interior": 60, "ny_interior": 60,
            "spacing": 0.02, "resistance": 0.3, "omega": 4.0e6}


def test_cli_stats_end_to_end(tmp_path):
    cfg = write_cfg(tmp_path, STATS_60)
    out = tmp_path / "stats"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["density_histogram.csv",
                                       "heat_histogram.csv", "manifest.json"]
    man = json.loads((out / "manifest.json").read_text())
    assert man["power_balance_residual"] < 1e-8
    assert man["heat_sample_size"] == 3531


def test_stats_run_builds_one_stencil(tmp_path, stencil_builds):
    # the assembly, both current fields and the power audit share it
    cfg = write_cfg(tmp_path, STATS_60)
    assert main(["stats", "--config", cfg, "--out",
                 str(tmp_path / "stats")]) == 0
    assert len(stencil_builds) == 1


def test_stats_fits_and_audits_through_the_module_attributes(tmp_path,
                                                              monkeypatch):
    # the benchmark times the stats layer by patching rlcnet.stats and
    # rlcnet.fields, and pairs the fit_histogram calls with the laws in
    # call order: density, rayleigh, heat, gaussianity
    samples, audits = [], []
    fit, audit = rlcnet.stats.fit_histogram, rlcnet.fields.power_balance

    def counted_fit(sample, *args, **kwargs):
        samples.append(sample)
        return fit(sample, *args, **kwargs)

    def counted_audit(field):
        audits.append(field)
        return audit(field)

    monkeypatch.setattr(rlcnet.stats, "fit_histogram", counted_fit)
    monkeypatch.setattr(rlcnet.fields, "power_balance", counted_audit)
    out = tmp_path / "stats"
    cfg = write_cfg(tmp_path, STATS_60)
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert [np.size(x) for x in samples] == [man["heat_sample_size"]] * 4
    # the sizes are equal at stride 1, so the laws are told apart by
    # their samples
    density, rayleigh, heat, gaussianity = samples
    assert rayleigh is density and np.mean(density) == pytest.approx(1.0)
    assert np.mean(heat) == man["mean_power"]
    assert np.mean(gaussianity) == pytest.approx(0.0, abs=1e-12)
    assert np.std(gaussianity) == pytest.approx(1.0)
    assert len(audits) == 1


def test_driven_statistics_returns_what_stats_writes(tmp_path):
    out = tmp_path / "stats"
    cfg = write_cfg(tmp_path, STATS_60)
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 0
    g = rasterize_rectangle(60, 60, 0.02)
    field = driven_response(g, CircuitSpec("I", L, C, 0.3), 4.0e6,
                            (centroid_site(g), 1.0 + 0j))
    ds = driven_statistics(field)
    man = json.loads((out / "manifest.json").read_text())
    for key in ("config", "version", "derived", "conventions"):
        del man[key]
    assert man == ds.scalars
    for name, fit in (("density_histogram.csv", ds.density),
                      ("heat_histogram.csv", ds.heat)):
        _, _, empirical, model = np.loadtxt(out / name, delimiter=",",
                                            skiprows=1, unpack=True)
        assert np.array_equal(empirical, fit.empirical)
        assert np.array_equal(model, fit.model)


def test_driven_statistics_read_the_interior_sample_of_a_notched_square():
    # the 60x60 square with its 20x20 lower-left corner cut away: the notch
    # corner (20, 20) is a grounded site whose +x and +y links both exist,
    # and it is not in the sample that every statistic reads
    g = rasterize_rectangle(60, 60, 0.02)
    interior = g.interior.copy()
    interior[1:21, 1:21] = False
    g = GridGeometry(spacing=0.02, interior=interior)
    stencil = g.stencil
    assert stencil.mask_x[20, 20] and stencil.mask_y[20, 20]
    spec = CircuitSpec("I", L, C, 0.3)
    omega = 4.0e6
    site = centroid_site(g)
    field = driven_response(g, spec, omega, (site, 1.0 + 0j))
    ds = driven_statistics(field)
    radius = ds.scalars["exclusion_radius"]
    sites = interior & source_exclusion_mask(g, site, radius)
    theta = phase_rotate(field.values[sites]).theta
    values = field.values * np.exp(1j * theta)
    # ohmic currents I = dV / R toward +x and +y, by hand
    ix = np.zeros_like(values)
    iy = np.zeros_like(values)
    ix[:-1, :] = (values[1:, :] - values[:-1, :]) / 0.3
    iy[:, :-1] = (values[:, 1:] - values[:, :-1]) / 0.3
    ix, iy = ix[sites], iy[sites]
    heat = 0.15 * (np.abs(ix) ** 2 + np.abs(iy) ** 2)
    assert ds.scalars["heat_sample_stride"] == 1
    assert ds.scalars["heat_sample_size"] == np.count_nonzero(sites) == 3131
    assert ds.scalars["mean_power"] == pytest.approx(heat.mean(), rel=1e-12)
    assert ds.scalars["sigma_r_sq"] == pytest.approx(
        np.mean(ix.real ** 2 + iy.real ** 2) / 2.0, rel=1e-12)


def test_cli_streamlines_seed_ring(tmp_path, capsys):
    ring = {"geometry": "rectangle", "nx_interior": 10, "ny_interior": 8,
            "spacing": 0.05, "resistance": 0.3, "omega": 1.0e6,
            "n_seeds": 8, "max_steps": 500}
    # the source is site (5, 4) at (0.25, 0.2): a ring of radius 0.2 puts
    # its lowest seed on the wall row y = 0, and one of radius 5 misses the
    # billiard altogether
    out = tmp_path / "partial"
    cfg = write_cfg(tmp_path, {**ring, "seed_radius": 0.2})
    assert main(["streamlines", "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((out / "manifest.json").read_text())
    assert man["source_site"] == [5, 4]
    assert man["n_seeds_dropped"] == 1 and man["n_streamlines"] == 7
    assert sorted(man["stop_reasons"]) == ["boundary", "cutoff", "max_steps",
                                           "trapped"]
    assert sum(man["stop_reasons"].values()) == man["n_streamlines"]
    capsys.readouterr()
    out = tmp_path / "missed"
    cfg = write_cfg(tmp_path, {**ring, "seed_radius": 5.0})
    assert main(["streamlines", "--config", cfg, "--out", str(out)]) == 2
    assert "seed_radius:" in capsys.readouterr().err
    assert not out.exists()


def test_density_max_needs_two_sites(tmp_path, capsys):
    # the walk moves the source to another interior site, which a 1x1
    # rectangle lacks: a config error before the output directory exists
    one_site = {"geometry": "rectangle", "nx_interior": 1, "ny_interior": 1,
                "spacing": 0.1, "resistance": 0.3, "omega": 1.0e6,
                "omega_min": 0.9e6, "omega_max": 1.1e6, "n_points": 5,
                "source_rule": "density_max"}
    cfg = write_cfg(tmp_path, one_site)
    for experiment in ("drive", "sweep", "stats", "streamlines"):
        out = tmp_path / "new" / experiment
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert "density_max" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()
    g = rasterize_rectangle(1, 1, 0.1)
    with pytest.raises(ValueError, match="2 interior sites"):
        place_source_at_maximum(g, CircuitSpec("I", L, C, 0.3), 1.0e6)


def test_failed_run_removes_only_the_directory_it_created(tmp_path, capsys):
    # a 30x30 rectangle has 900 sites, too few for the stats fits: the
    # error is raised inside the experiment, after the output directory
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 30, "ny_interior": 30,
        "spacing": 0.02, "resistance": 0.3, "omega": 4.0e6})
    out = tmp_path / "new" / "stats"
    assert main(["stats", "--config", cfg, "--out", str(out)]) == 2
    assert "density sample has 8" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    assert main(["stats", "--config", cfg, "--out", str(kept)]) == 2
    assert os.listdir(kept) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine"


def test_cli_solver_failure(tmp_path, perturb_eigsh):
    spec = CircuitSpec("I", L, C, 0.0)
    # a lossless drive exactly on the lowest resonance of a tiny rectangle,
    # and an eigen shift exactly on the 1x2 rectangle's eigenvalue 5
    for experiment, cfg in (
            ("drive", {"nx_interior": 2, "ny_interior": 2,
                       "omega": spec.omega0 * np.sqrt(2.0),
                       "source_site": [1, 1]}),
            ("ensemble", {"nx_interior": 1, "ny_interior": 2,
                          "omega": 7071067.811865475})):
        path = write_cfg(tmp_path, {"geometry": "rectangle", "spacing": 0.1,
                                    "resistance": 0.0, **cfg})
        assert main([experiment, "--config", path, "--out",
                     str(tmp_path / "o")]) == 3, experiment
        assert not (tmp_path / "o").exists()
    # eigenvectors off by 1e-6 miss the residual contract
    perturb_eigsh()
    path = write_cfg(tmp_path, {"geometry": "rectangle", "nx_interior": 10,
                                "ny_interior": 7, "spacing": 0.05,
                                "omega": 1.0e6, "tolerance": 0.03,
                                "n_realizations": 3})
    assert main(["ensemble", "--config", path, "--out",
                 str(tmp_path / "o")]) == 3
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("failure", [
    SingularSystemError("eigen shift on an eigenvalue"),
    spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0))),
], ids=["singular", "arpack_no_convergence"])
def test_cli_worker_failure(tmp_path, monkeypatch, capsys, failure):
    # every realization fails, each in a worker process: the run
    # still exits 3 with the solver's message, removes its output and
    # leaves no worker running (an ArpackNoConvergence that reached the
    # parent as such would break the pool)
    parent = os.getpid()
    nearest = rlcnet.experiments.eigenmode_nearest

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise failure
        return nearest(*args, **kwargs)

    monkeypatch.setattr(rlcnet.experiments, "eigenmode_nearest", failing)
    path = write_cfg(tmp_path, {"geometry": "rectangle", "nx_interior": 10,
                                "ny_interior": 7, "spacing": 0.05,
                                "omega": 1.0e6, "tolerance": 0.03,
                                "n_realizations": 6})
    out = tmp_path / "new" / "o"
    assert main(["ensemble", "--config", path, "--out", str(out),
                 "--threads", "2"]) == 3
    assert f"solver failure: {failure}" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
    assert multiprocessing.active_children() == []


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


HARD_FLOATS = [5e-324, -0.0, 1e300, -1e-300, 2.0 / 3.0, np.inf, -np.inf,
               np.nan]


def fmt(x):
    """17-significant-digit decimal form of a float."""
    return FLOAT % float(x)


def _cells(row):
    """The per-cell rule every artifact was written with: str for ints,
    fmt for floats."""
    return ",".join(str(c) if isinstance(c, (int, np.integer)) else fmt(c)
                    for c in row) + "\n"


@pytest.mark.parametrize("n_rows", [len(HARD_FLOATS), 0])
@pytest.mark.parametrize("writer", ["write_csv", "write_polylines"])
def test_writer_bytes_match_per_cell_rule(tmp_path, writer, n_rows):
    # n_rows = 0 is the peaks.csv of a sweep that finds no peak
    assert [fmt(x) for x in (2.0 / 3.0, 5e-324, -0.0, np.nan)] \
        == ["0.66666666666666663", "4.9406564584124654e-324", "-0", "nan"]
    a = np.array(HARD_FLOATS[:n_rows])
    path = tmp_path / "out.csv"
    if writer == "write_csv":
        ints = 10 ** 18 * np.arange(n_rows) - 7   # past float precision
        write_csv(path, ("k", "a", "b"), (ints, a, a[::-1]))
        want = "k,a,b\n" + "".join(map(_cells, zip(ints, a, a[::-1])))
    else:
        xy = np.column_stack((a, a[::-1]))
        lines = [xy, np.empty((0, 2)), xy[::-1]]
        write_polylines(path, lines)
        want = "\n".join("".join(map(_cells, line)) for line in lines)
    assert path.read_bytes() == want.encode()


def test_field_csv_round_trip(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "experiment": "drive", "geometry": "rectangle", "nx_interior": 10,
        "ny_interior": 8, "spacing": 0.05, "resistance": 0.3,
        "omega": 1.0e6})
    out = run(cfg, str(tmp_path / "drive"))
    geom = cfg.build_geometry()
    field = driven_response(geom, cfg.build_spec(), cfg.omega,
                            (centroid_site(geom), 1.0))
    lines = Path(out, "field.csv").read_text().splitlines()
    assert lines[0] == "i,j,x,y,re_v,im_v"
    table = np.array([[float(c) for c in line.split(",")]
                      for line in lines[1:]])
    sites = geom.interior_sites
    v = field.values[sites[:, 0], sites[:, 1]]
    assert np.array_equal(table[:, :2], sites)
    assert np.array_equal(table[:, 2:4], cfg.spacing * sites)
    assert np.array_equal(table[:, 4], v.real)
    assert np.array_equal(table[:, 5], v.imag)


def test_unused_scipy_subpackages_not_imported(tmp_path):
    # scipy.stats, scipy.optimize and scipy.ndimage cost about 0.8 s of
    # start-up, and scipy.fft 15-20 ms: neither the import nor a stats,
    # sweep or streamlines run may load them, though all three solve on
    # sine transforms (the rectangle condenses)
    cfg = write_cfg(tmp_path, {
        "geometry": "rectangle", "nx_interior": 60, "ny_interior": 60,
        "spacing": 0.02, "resistance": 0.3, "omega": 4.0e6,
        "omega_min": 3.99e6, "omega_max": 4.01e6, "n_points": 9,
        "max_steps": 200,
    })
    script = (
        "import sys, rlcnet, rlcnet.cli\n"
        "heavy = ('scipy.stats', 'scipy.optimize', 'scipy.ndimage',"
        " 'scipy.fft')\n"
        "print([m for m in heavy if m in sys.modules])\n"
        "for kind in ('stats', 'sweep', 'streamlines'):\n"
        "    assert rlcnet.cli.main([kind, '--config', sys.argv[1],"
        " '--out', sys.argv[2] + kind]) == 0\n"
        "    print([m for m in heavy if m in sys.modules])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path / "out_")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[")]
    # after import rlcnet, rlcnet.cli; after the stats, sweep and
    # streamlines runs
    assert lines == ["[]"] * 4
    man = json.loads((tmp_path / "out_sweep" / "manifest.json").read_text())
    assert man["n_peaks"] == 2     # the sweep refined peaks
    man = json.loads((tmp_path / "out_streamlines" / "manifest.json")
                     .read_text())
    assert man["n_streamlines"] == 32   # the tracer ran
