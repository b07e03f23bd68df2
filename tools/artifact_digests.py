"""Print the sha256 of every artifact of the benchmark's workloads.

    python3 tools/artifact_digests.py

runs the rlcnet CLI from the `src` directory next to this script's parent
on each workload of perfbench/workloads.py at seed 1, and on
`square_ensemble` once more at one worker process, and prints one
`workload file sha256` line per artifact.  Two checkouts that print the
same lines wrote byte-identical artifacts.  It needs the standard library
only, and it writes into a temporary directory alone: no bytecode cache,
no artifact and no config lands in the checkout.
"""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _workloads() -> dict:
    """WORKLOADS of perfbench/workloads.py, read without a bytecode cache."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _runs() -> list:
    """(label, workload) of every run: each workload, then
    `square_ensemble` at one worker process."""
    workloads = _workloads()
    return [*workloads.items(),
            ("square_ensemble@threads1",
             dataclasses.replace(workloads["square_ensemble"], threads=1))]


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as tmp:
        for label, workload in _runs():
            config = Path(tmp) / f"{label}.json"
            config.write_text(json.dumps(workload.config))
            out = Path(tmp) / label
            cmd = [sys.executable, "-m", "rlcnet.cli",
                   *workload.cli_args(config, out, SEED)]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{label}: rlcnet exited {proc.returncode}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{label} {path.name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
