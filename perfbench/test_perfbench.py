"""Smoke tests of the benchmark itself, on tiny configs (about 40 s).

    python3 -m pytest perfbench

They run the real child processes against ./src, so they also prove the
tracer still finds every function it wraps.
"""

import io
import json
import shutil
import subprocess
import sys
import threading
import types
from contextlib import redirect_stdout

import pytest

import run
import spans
import workloads
from workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_STADIUM = {**workloads.STADIUM, "spacing": 0.05}
TINY = {
    "tiny_streamlines": Workload("streamlines", {
        **TINY_STADIUM, "resistance": 1.0, "omega": 3.0e6,
        "source_rule": "density_max", "n_seeds": 8, "max_steps": 2000}),
    "tiny_sweep": Workload("sweep", {
        **TINY_STADIUM, "resistance": 0.3, "omega_min": 2.0e6,
        "omega_max": 2.4e6, "n_points": 9, "source_rule": "site"}),
    "tiny_ensemble": Workload("ensemble", {
        "geometry": "rectangle", "nx_interior": 20, "ny_interior": 10,
        "spacing": 0.05, "model": "I", "inductance": 1e-4,
        "capacitance": 1e-9, "omega": 1.0e6, "tolerance": 0.03,
        "n_realizations": 4}, threads=2, uses_seed=True),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, wl in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, wl)
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
    return tmp_path


def _main(argv, code=0):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run.main(argv) == code
    return buf.getvalue().splitlines()


def _record_and_run(name, trace):
    _main(["--workload", name, "--record-reference"])
    lines = _main(["--workload", name, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace)])
    return lines, json.loads(lines[-1])


def _assert_metrics(lines, result, declared, name):
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in declared}
    for metric, unit in got.items():
        assert any(line.startswith(f"{name} {metric} ")
                   and line.endswith(f" {unit}") for line in lines)


def test_benchmark_json_names_the_code_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for name in workloads.WORKLOADS:
        assert (workloads.REFERENCE_DIR / f"{name}.json").is_file()


def test_end_to_end_metrics_printed_with_units(tiny):
    lines, result = _record_and_run("tiny_ensemble", trace=0)
    _assert_metrics(lines, result, BENCHMARK["end_to_end"], "tiny_ensemble")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failed_check_is_reported(tiny):
    _main(["--workload", "tiny_ensemble", "--record-reference"])
    path = workloads.REFERENCE_DIR / "tiny_ensemble.json"
    ref = json.loads(path.read_text())
    ref["mode_omega"] *= 1 + 1e-6
    path.write_text(json.dumps(ref))
    lines = _main(["--workload", "tiny_ensemble", "--seed", "7", "--seconds",
                   "0", "--trace", "0"], code=1)
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert result["attempted"] == run.SETUP_PROBES + 1
    # the one run failed, so only the set-up time was measured
    assert set(result["metrics"]) == {"setup_s"}


def test_tracer_finds_every_layer_function():
    code = ("import sys; sys.path[:0] = ['src', 'perfbench']; import spans; "
            "print(spans.Tracer().install())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_printed_and_consistent(tiny, name):
    lines, result = _record_and_run(name, trace=1)
    _assert_metrics(lines, result, BENCHMARK["per_layer"], name)
    assert result["attempted"] == run.DIGEST_RUNS
    m = {k: v["value"] for k, v in result["metrics"].items()}
    solves = m["solve.driven_response_calls"]
    # one assembly, one factorization and two norm estimates per solve
    assert m["solve.splu_calls"] == m["network.assemble_calls"] == solves
    assert m["solve.condest_calls"] == 2 * solves
    if name == "tiny_ensemble":
        wl = TINY[name]
        assert m["solve.eigsh_calls"] == wl.config["n_realizations"] + 1
        assert solves == 0 and m["experiments.ensemble_busy_s"] > 0
    else:
        assert solves > 0 and m["solve.lu_nnz"] > 0
        assert m["solve.lu_bytes_computed"] == 16 * m["solve.lu_nnz"]
    if name == "tiny_streamlines":
        assert 1 <= m["experiments.source_solves"] <= 3
        assert m["fields.streamline_points"] >= TINY[name].config["n_seeds"]


def _toy_module():
    toy = types.ModuleType("toy_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return toy.inner(x) * 2

    toy.inner, toy.outer = inner, outer
    return toy


def test_traced_counts_equal_wrapped_calls(monkeypatch):
    toy = _toy_module()
    monkeypatch.setitem(sys.modules, "toy_layer", toy)
    tracer = spans.Tracer()
    assert tracer.install((("toy.outer", "outer", ("toy_layer",), None),
                           ("toy.inner", "inner", ("toy_layer",), None),
                           ("toy.gone", "gone", ("toy_layer",), None))) \
        == ["toy_layer.gone"]

    def work(n):
        for k in range(n):
            assert toy.outer(k) == 2 * (k + 1)

    threads = [threading.Thread(target=work, args=(50,)) for _ in range(2)]
    for t in threads:
        t.start()
    work(25)
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    assert len(by_name["toy.outer"]) == len(by_name["toy.inner"]) == 125
    outer_ids = {s["id"] for s in by_name["toy.outer"]}
    assert all(s["parent"] in outer_ids for s in by_name["toy.inner"])
    assert all(s["parent"] is None for s in by_name["toy.outer"])


def _corrupt_winding(out):
    path = out / "vortices.csv"
    rows = path.read_text().splitlines()
    x, y, _ = rows[1].split(",")
    rows[1] = f"{x},{y},2"
    path.write_text("\n".join(rows) + "\n")


def _corrupt_peak(out):
    path = out / "peaks.csv"
    rows = path.read_text().splitlines()
    omega, norm = rows[1].split(",")
    rows[1] = f"{float(omega) * (1 + 1e-5)!r},{norm}"
    path.write_text("\n".join(rows) + "\n")


def _corrupt_histogram(out):
    path = out / "histogram.csv"
    rows = path.read_text().splitlines()
    cells = rows[1].split(",")
    cells[3] = "-0.01"
    rows[1] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")


CORRUPT = {"tiny_streamlines": _corrupt_winding, "tiny_sweep": _corrupt_peak,
           "tiny_ensemble": _corrupt_histogram}


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_artifact_fails_its_check(tiny, name):
    bench = run.Bench(name, 3, tiny / "work")
    report, out, error = bench.child("trace")
    assert error is None
    wl = workloads.WORKLOADS[name]
    ref = workloads.make_reference(wl, out, report["spans"])
    assert workloads.check(wl, out, ref) == []
    CORRUPT[name](out)
    assert workloads.check(wl, out, ref) != []
    (out / "manifest.json").unlink()
    assert workloads.check(wl, out, ref) != []


def _stats_artifacts(out, ref, **changes):
    """A stats artifact set carrying the reference values, then `changes`."""
    out.mkdir(exist_ok=True)
    man = {k: v for k, v in ref.items()
           if k not in ("score_tolerance", "sample_sizes")}
    man = {**man, "power_balance_residual": 1e-14, **changes}
    (out / "manifest.json").write_text(json.dumps(man))
    for name in ("density_histogram.csv", "heat_histogram.csv"):
        (out / name).write_text("bin_lo,bin_hi,empirical,model\n"
                                "0,1,0.5,0.5\n1,2,0.5,0.5\n")


def test_stats_check_tolerances(tmp_path):
    wl = workloads.WORKLOADS["stadium_stats"]
    ref = workloads.load_reference("stadium_stats")
    tol = ref["score_tolerance"]
    _stats_artifacts(tmp_path / "ok", ref,
                     density_ks=ref["density_ks"] + 0.5 * tol["density_ks"],
                     openness_field=ref["openness_field"] * (1 + 1e-7))
    assert workloads.check(wl, tmp_path / "ok", ref) == []
    cases = {"source_site": [ref["source_site"][0] + 1, ref["source_site"][1]],
             "density_ks": ref["density_ks"] + 2.0 * tol["density_ks"],
             "heat_chi_sq_per_dof": ref["heat_chi_sq_per_dof"]
             + 2.0 * tol["heat_chi_sq_per_dof"],
             "openness_field": ref["openness_field"] * (1 + 1e-5),
             "power_balance_residual": 1e-6}
    for key, value in cases.items():
        out = tmp_path / key
        _stats_artifacts(out, ref, **{key: value})
        assert workloads.check(wl, out, ref) != [], key
        shutil.rmtree(out)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "stadium_stats", "--seed", "1", "--seconds", "10",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
