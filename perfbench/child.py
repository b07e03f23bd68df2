"""One rlcnet run in a fresh process, started the way a user starts the CLI.

    python3 perfbench/child.py REPORT CONFIG MODE [CLI ARGS...]

MODE is `setup` (import rlcnet and parse CONFIG, then stop), `run` (then call
`rlcnet.cli.main(CLI ARGS)`) or `trace` (the same with every layer wrapped by
spans.Tracer).  The report written to REPORT holds setup_s, wall_s, the exit
code of main, peak RSS, CPU time, the machine's stolen CPU time during the
run, library versions and, when traced, the spans.  rlcnet is imported from
the `src` directory next to this benchmark, never from an installed copy.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _blas_threads():
    """OpenBLAS thread counts of the libraries numpy and scipy ship."""
    import ctypes
    import numpy
    import scipy
    threads = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads[lib.name] = fn()
                    break
    return threads


def _steal_s():
    """Machine-wide CPU time stolen by the hypervisor so far, in seconds."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def _libraries():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


def main(argv):
    report_path, config_path, mode, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import rlcnet.cli
    from rlcnet.experiments import ExperimentConfig
    ExperimentConfig.from_file(config_path)
    setup_s = time.perf_counter() - T0
    where = Path(rlcnet.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"rlcnet imported from {where}, not from {ROOT}/src")
    report = {"setup_s": setup_s}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).parent))
            import spans
            tracer = spans.Tracer()
            report["unwrapped"] = tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        steal0 = _steal_s()
        t = time.perf_counter()
        code = rlcnet.cli.main(cli_args)
        wall_s = time.perf_counter() - t
        steal1 = _steal_s()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        report.update({
            "exit_code": code,
            "wall_s": wall_s,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": ru1.ru_maxrss / 1024.0,
            # summed over all CPUs; explains a slow run on a shared host
            "steal_s": None if steal0 is None else steal1 - steal0,
            "libraries": _libraries(),
        })
        if tracer is not None:
            report["spans"] = tracer.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
