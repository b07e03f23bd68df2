"""rlcnet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run of the workload is a fresh
process (perfbench/child.py) that imports rlcnet from ./src and calls
`rlcnet.cli.main`, one run after another (a closed loop with one client),
until S seconds have passed; at least one run is made.  Every run's
artifacts are checked against reference/<workload>.json.

--trace 0 reports the end-to-end metrics: the median wall_s of main(), the
median setup_s (import of rlcnet plus config parse, measured in every run
and in SETUP_PROBES extra set-up-only processes) and the median peak RSS.
--trace 1 alternates untraced and traced runs, at least DIGEST_RUNS of them,
and reports the per-layer metrics of spans.layer_metrics (medians over the
traced runs), the tracing overhead and how many distinct artifact digests
the runs produced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted counts every child process, set-up
probes included.  A metric no successful run measured is left out.  The
exit code is 1 when a run failed.  The full record, with the machine it ran
on, goes to .perfbench/BENCH_<workload>_seed<N>_trace<T>.json.
`--record-reference` instead makes one traced run and writes
reference/<workload>.json from it.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# each benchmark invocation must end within 180 s; runs are not started
# when the last one would not fit in what is left of this budget
BUDGET_S = 170.0
SETUP_PROBES = 2
# runs hashed by the determinism probe of one --trace 1 invocation
DIGEST_RUNS = 3


class Bench:
    """Starts child runs of one workload in a scratch directory."""

    def __init__(self, name, seed, work_dir):
        self.name = name
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.deadline = time.monotonic() + BUDGET_S
        self.config_path = self.work_dir / "config.json"
        self.work_dir.mkdir(parents=True, exist_ok=True)
        with open(self.config_path, "w") as fh:
            json.dump(self.workload.config, fh)
        self.runs = 0

    def child(self, mode):
        """One fresh-process run; returns (report or None, out_dir, error)."""
        self.runs += 1
        out_dir = self.work_dir / f"out{self.runs}"
        report_path = self.work_dir / f"report{self.runs}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(report_path),
               str(self.config_path), mode,
               *self.workload.cli_args(self.config_path, out_dir, self.seed)]
        timeout = self.deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, out_dir, f"{mode} run timed out"
        if proc.returncode != 0:
            return None, out_dir, (f"{mode} run exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
        with open(report_path) as fh:
            report = json.load(fh)
        if report.get("exit_code", 0) != 0:
            return report, out_dir, f"rlcnet exited {report['exit_code']}"
        return report, out_dir, None

    def fits(self, last_s):
        return time.monotonic() + last_s < self.deadline


def attempt(bench, mode, reference):
    """One child run as a record: its report, its error (a failed output
    check included) and, for a run of the workload, its artifact digest."""
    report, out_dir, error = bench.child(mode)
    record = {"mode": mode, "report": report, "error": error}
    if error is None and mode != "setup":
        record["digest"] = workloads.artifact_digest(out_dir)
        failures = workloads.check(bench.workload, out_dir, reference)
        if failures:
            record["error"] = "output check failed: " + "; ".join(failures)
    if record["error"]:
        print(f"{bench.name} run {bench.runs} failed: {record['error']}",
              file=sys.stderr)
    shutil.rmtree(out_dir, ignore_errors=True)
    return record


def measure(bench, seconds, trace, reference):
    """Runs the workload for `seconds`; returns the run records."""
    modes = itertools.cycle(("run", "trace") if trace else ("run",))
    min_runs = DIGEST_RUNS if trace else 1
    records = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        records.append(attempt(bench, next(modes), reference))
        done = time.monotonic() - start >= seconds and len(records) >= min_runs
        if done or not bench.fits(time.monotonic() - t):
            return records


def _median(values):
    return statistics.median(values) if values else None


def _passed(records, mode):
    return [r["report"] for r in records
            if r["mode"] == mode and r["error"] is None]


def end_to_end(records):
    runs = _passed(records, "run")
    return {
        "wall_s": (_median([r["wall_s"] for r in runs]), "s"),
        "setup_s":
            (_median([r["report"]["setup_s"] for r in records if r["report"]]),
             "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in runs]), "MiB"),
    }


def per_layer(records):
    traced, plain = _passed(records, "trace"), _passed(records, "run")
    layers = [spans.layer_metrics(r["spans"]) for r in traced]
    metrics = {name: (_median([m[name][0] for m in layers]), unit)
               for name, (_, unit) in spans.layer_metrics([]).items()}
    traced_wall = _median([r["wall_s"] for r in traced])
    plain_wall = _median([r["wall_s"] for r in plain])
    metrics.update({
        "experiments.artifact_digests":
            (len({r["digest"] for r in records if "digest" in r}) or None,
             "count"),
        "run.cpu_s": (_median([r["cpu_s"] for r in plain]), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s":
            (None if None in (traced_wall, plain_wall)
             else traced_wall - plain_wall, "s"),
    })
    return metrics


def _git_commit():
    """Commit of the checkout, with -dirty when it has uncommitted changes;
    None when the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(name, seed, records):
    wl = workloads.WORKLOADS[name]
    libraries = next((r["report"]["libraries"] for r in records
                      if r["report"] and "libraries" in r["report"]), None)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "libraries": libraries,
        "git_commit": _git_commit(),
        "workload": name,
        "workload_seed": seed,
        "seed_used": wl.uses_seed,
        "seed_note": ("passed to rlcnet as --seed" if wl.uses_seed else
                      "this workload has no random input; the seed is unused"),
        "threads": wl.threads,
        "load": "closed loop, one client, one run at a time",
    }


def record_reference(bench):
    report, out_dir, error = bench.child("trace")
    if error:
        raise SystemExit(error)
    ref = workloads.make_reference(bench.workload, out_dir, report["spans"])
    failures = workloads.check(bench.workload, out_dir, ref)
    if failures:
        raise SystemExit("run fails its own reference: " + "; ".join(failures))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{bench.name}.json"
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rlcnet" / "__init__.py").is_file():
        print(f"no rlcnet sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work_dir)
    try:
        if args.record_reference:
            record_reference(bench)
            return 0
        reference = workloads.load_reference(args.workload)
        records = [] if args.trace else [attempt(bench, "setup", reference)
                                         for _ in range(SETUP_PROBES)]
        records += measure(bench, args.seconds, args.trace, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for r in records:
        if r["report"] and r["report"].get("unwrapped"):
            print("not traced, missing in rlcnet: "
                  + ", ".join(r["report"]["unwrapped"]), file=sys.stderr)
    metrics = {name: (value, unit) for name, (value, unit) in
               (per_layer(records) if args.trace else end_to_end(records)).items()
               if value is not None}
    failed = sum(1 for r in records if r["error"])
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    full = {**result, "machine": machine_record(args.workload, args.seed, records),
            "runs": [{"mode": r["mode"], "error": r["error"],
                      "digest": r.get("digest"),
                      **{k: v for k, v in (r["report"] or {}).items()
                         if k != "spans"}} for r in records]}
    out = ROOT / ".perfbench" / (f"BENCH_{args.workload}_seed{args.seed}"
                                 f"_trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(full, fh, indent=2)
        fh.write("\n")
    print("machine " + json.dumps(full["machine"]))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
