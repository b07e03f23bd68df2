"""Print the sha256 of every artifact of the benchmark's workloads, or
compare them with those of a second checkout.

    python3 tools/artifact_digests.py
    python3 tools/artifact_digests.py --against OTHER_CHECKOUT

runs the rlcnet CLI from the `src` directory next to this script's parent
on each workload of perfbench/workloads.py at seed 1, and on
`square_ensemble` once more at one worker process, and prints one
`workload file sha256` line per artifact.  Two checkouts that print the
same lines wrote byte-identical artifacts.

With `--against`, the same runs are made from OTHER_CHECKOUT's `src` too,
and each artifact gets one line: `workload file identical`, or `workload
file rel_diff D field` where the bytes differ, D the largest relative
difference over the artifact's numeric fields and `field` the one where
it is largest, or `workload file differs: reason` where the two do not
line up field by field.  A field is a manifest number (keyed by its JSON
path), a CSV column (by its header, or by its position in a file without
one, such as the streamline polylines) or a graymap's pixels; its
relative difference is max |a - b| over the field divided by the largest
|a| or |b| in it.  Text and non-finite numbers must match exactly.

It needs the standard library only, and it writes into a temporary
directory alone: no bytecode cache, no artifact and no config lands in a
checkout.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
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


def _run(root: Path, label, workload, tmp: Path) -> Path:
    """The artifact directory of one run of the CLI in `root`/src."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    config = tmp / f"{label}.json"
    config.write_text(json.dumps(workload.config))
    out = tmp / label
    cmd = [sys.executable, "-m", "rlcnet.cli",
           *workload.cli_args(config, out, SEED)]
    proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"{label} ({root}): rlcnet exited {proc.returncode}")
    return out


def _number(token: str):
    """The float a token spells, or None."""
    try:
        return float(token)
    except ValueError:
        return None


def _fields(path: Path) -> tuple:
    """(fields, rest) of an artifact: its numeric fields as name -> list of
    floats, and what is not a number, which two comparable artifacts
    share."""
    fields, rest = {}, []
    if path.suffix == ".json":
        def walk(node, key):
            if isinstance(node, dict):
                for name, value in node.items():
                    walk(value, f"{key}.{name}")
            elif isinstance(node, list):
                for n, value in enumerate(node):
                    walk(value, f"{key}[{n}]")
            elif isinstance(node, (int, float)) and math.isfinite(node) \
                    and not isinstance(node, bool):
                fields[key or "value"] = [float(node)]
            else:
                rest.append((key, node))
        walk(json.loads(path.read_text()), "")
        return fields, rest
    lines = path.read_text().splitlines()
    if path.suffix == ".pgm":
        # P2, the width, the height and the largest gray level, then pixels
        tokens = " ".join(lines).split()
        return {"pixels": [float(t) for t in tokens[4:]]}, tokens[:4]
    names = lines[0].split(",") if lines else []
    if any(_number(name) is None for name in names):
        lines = lines[1:]
        rest.append(names)
    else:
        names = [f"column {n}" for n in range(len(names))]
    for line in lines:
        # a blank line separates two polylines
        rest.append(len(line.split(",")) if line else "")
        for name, cell in zip(names, line.split(",") if line else ()):
            value = _number(cell)
            if value is None or not math.isfinite(value):
                rest.append(cell)
            else:
                fields.setdefault(name, []).append(value)
    return fields, rest


def _compare(ours: Path, theirs: Path) -> str:
    """The comparison line's tail for one artifact of each checkout."""
    if ours.read_bytes() == theirs.read_bytes():
        return "identical"
    if ours.suffix not in (".json", ".csv", ".pgm"):
        return "differs: not a numeric artifact"
    (a, rest_a), (b, rest_b) = _fields(ours), _fields(theirs)
    if rest_a != rest_b or a.keys() != b.keys() \
            or any(len(a[k]) != len(b[k]) for k in a):
        return "differs: the fields do not line up"
    worst, where = 0.0, ""
    for name in a:
        scale = max(max(map(abs, a[name])), max(map(abs, b[name])))
        diff = max(abs(x - y) for x, y in zip(a[name], b[name]))
        rel = diff / scale if scale > 0.0 else 0.0
        if rel >= worst:
            worst, where = rel, name
    return f"rel_diff {worst:.2e} {where}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, default=None,
                        help="a second checkout to compare the artifacts with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for n, (label, workload) in enumerate(_runs()):
            (tmp / f"ours{n}").mkdir()
            out = _run(ROOT, label, workload, tmp / f"ours{n}")
            if args.against is None:
                for path in sorted(out.iterdir()):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{label} {path.name} {digest}", flush=True)
                continue
            (tmp / f"theirs{n}").mkdir()
            other = _run(args.against.resolve(), label, workload,
                         tmp / f"theirs{n}")
            names = sorted({p.name for p in out.iterdir()}
                           | {p.name for p in other.iterdir()})
            for name in names:
                if not ((out / name).exists() and (other / name).exists()):
                    tail = "differs: written by one checkout only"
                else:
                    tail = _compare(out / name, other / name)
                print(f"{label} {name} {tail}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
