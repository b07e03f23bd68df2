"""Span recorder that wraps rlcnet's layer functions from outside the package.

Nothing under src/ knows about this module.  `Tracer.install` replaces module
attributes after import, so a call is seen exactly when its caller looks the
name up in a patched namespace at call time.  Names imported with
`from .x import y` are therefore patched in every module that imported them,
and the scipy entry points are patched on `scipy.sparse.linalg`, through
which `rlcnet.solve` calls them (scipy's own internal imports are untouched).
A name that no longer exists is reported, not fatal: its layer reads 0.

Each wrapped call records one span: id, name, start, end, parent span id and
thread id, plus a few numbers taken from the result.  Spans stay in memory
and are written out when the run ends; `layer_metrics` turns them into the
per-layer metrics.
"""

import importlib
import itertools
import os
import threading
import time
from functools import wraps


def _lu_nnz(lu, args, kwargs):
    return {"nnz": int(lu.nnz)}


def _n_points(lines, args, kwargs):
    return {"points": sum(len(line) for line in lines)}


def _n_samples(fit, args, kwargs):
    return {"n": int(fit.n_samples)}


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (span name, function name, namespaces its callers look it up in, result hook)
LAYERS = (
    ("geometry.rasterize", "rasterize_quarter_stadium",
     ("rlcnet.experiments",), None),
    ("geometry.rasterize", "rasterize_rectangle", ("rlcnet.experiments",), None),
    ("network.assemble", "assemble_admittance", ("rlcnet.solve",), None),
    ("network.perturb", "sample_perturbation", ("rlcnet.experiments",), None),
    ("solve.splu", "splu", ("scipy.sparse.linalg",), _lu_nnz),
    ("solve.condest", "onenormest", ("scipy.sparse.linalg",), None),
    ("solve.eigsh", "eigsh", ("scipy.sparse.linalg",), None),
    ("solve.driven_response", "driven_response",
     ("rlcnet.experiments", "rlcnet.solve"), None),
    ("solve.resonance_sweep", "resonance_sweep", ("rlcnet.experiments",), None),
    ("solve.eigenmode_nearest", "eigenmode_nearest",
     ("rlcnet.experiments",), None),
    ("experiments.place_source", "place_source_at_maximum",
     ("rlcnet.experiments",), None),
    ("experiments.ensemble_average", "ensemble_average",
     ("rlcnet.experiments",), None),
    ("experiments.mode_histogram", "standardized_mode_histogram",
     ("rlcnet.experiments",), None),
    ("stats.phase_rotate", "phase_rotate", ("rlcnet.stats",), None),
    ("stats.density_cdf", "density_cdf", ("rlcnet.stats",), None),
    ("stats.fit_histogram", "fit_histogram", ("rlcnet.stats",), _n_samples),
    ("fields.link_currents", "link_currents", ("rlcnet.fields",), None),
    ("fields.power_balance", "power_balance", ("rlcnet.fields",), None),
    ("fields.nodal_vortices", "nodal_vortices", ("rlcnet.fields",), None),
    ("fields.trace_streamlines", "trace_streamlines", ("rlcnet.fields",),
     _n_points),
    ("io.write", "write_csv", ("rlcnet.experiments",), _file_bytes),
    ("io.write", "write_json", ("rlcnet.experiments",), _file_bytes),
    ("io.write", "write_pgm", ("rlcnet.experiments",), _file_bytes),
    ("io.write", "write_polylines", ("rlcnet.experiments",), _file_bytes),
)

# Spans that make up one ensemble realization (the worker closure itself is
# local to ensemble_average and cannot be wrapped from outside).
REALIZATION_SPANS = ("network.perturb", "solve.eigenmode_nearest",
                     "experiments.mode_histogram")


class Tracer:
    """Records one span per wrapped call; thread-safe, in memory only."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name, fn, hook=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = hook(result, args, kwargs) if hook else {}
            with self._lock:
                self.spans.append({"id": span_id, "name": name, "start": start,
                                   "end": end, "parent": parent,
                                   "thread": threading.get_ident(), **attrs})
            return result
        return traced

    def install(self, layers=LAYERS):
        """Wrap every name in `layers`; returns the names that do not exist.

        A call goes through the wrapper of its caller's namespace only, so
        wrapping one function in several namespaces counts it once.
        """
        missing = []
        for name, attr, namespaces, hook in layers:
            for ns in namespaces:
                mod = importlib.import_module(ns)
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(f"{ns}.{attr}")
                else:
                    setattr(mod, attr, self.wrap(name, fn, hook))
        return missing


def _total(spans, name, key=None):
    picked = [s for s in spans if s["name"] == name]
    if key is None:
        return sum(s["end"] - s["start"] for s in picked)
    return sum(s[key] for s in picked)


def _count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def _self_time(spans, name):
    """Summed duration of `name` spans minus the time of their child spans.

    Children run on the parent's thread (the stack is per thread), so they
    never overlap one another and their durations can simply be subtracted.
    """
    ids = {s["id"] for s in spans if s["name"] == name}
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] in ids)
    return _total(spans, name) - children


def _ensemble_busy(spans):
    """Summed time of realization spans run inside ensemble_average.

    Worker-thread spans have no parent (the span stack is per thread), so a
    realization span counts when it lies inside an ensemble_average span and
    its parent is that span or none.  The baseline mode solved before the
    ensemble lies outside every ensemble_average span.
    """
    outer = [s for s in spans if s["name"] == "experiments.ensemble_average"]
    outer_ids = {s["id"] for s in outer}
    busy = 0.0
    for s in spans:
        if s["name"] not in REALIZATION_SPANS:
            continue
        if s["parent"] is not None and s["parent"] not in outer_ids:
            continue
        if any(o["start"] <= s["start"] and s["end"] <= o["end"] for o in outer):
            busy += s["end"] - s["start"]
    return busy


def layer_metrics(spans):
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    place_ids = {s["id"] for s in spans
                 if s["name"] == "experiments.place_source"}
    lu_nnz = max((s["nnz"] for s in spans if s["name"] == "solve.splu"),
                 default=0)
    return {
        "stats.density_cdf_s": (_total(spans, "stats.density_cdf"), "s"),
        "stats.density_cdf_calls": (_count(spans, "stats.density_cdf"), "count"),
        "stats.fit_histogram_s": (_total(spans, "stats.fit_histogram"), "s"),
        "stats.fit_histogram_calls":
            (_count(spans, "stats.fit_histogram"), "count"),
        "stats.phase_rotate_s": (_total(spans, "stats.phase_rotate"), "s"),
        "solve.splu_s": (_total(spans, "solve.splu"), "s"),
        "solve.splu_calls": (_count(spans, "solve.splu"), "count"),
        "solve.lu_nnz": (lu_nnz, "count"),
        # complex128 entries of L + U of the largest factorization; computed
        # from nnz, not measured traffic
        "solve.lu_bytes_computed": (16 * lu_nnz, "B"),
        "solve.condest_s": (_total(spans, "solve.condest"), "s"),
        "solve.condest_calls": (_count(spans, "solve.condest"), "count"),
        "solve.driven_response_s":
            (_total(spans, "solve.driven_response"), "s"),
        "solve.driven_response_calls":
            (_count(spans, "solve.driven_response"), "count"),
        "solve.driven_response_self_s":
            (_self_time(spans, "solve.driven_response"), "s"),
        "solve.resonance_sweep_s":
            (_total(spans, "solve.resonance_sweep"), "s"),
        "solve.eigsh_s": (_total(spans, "solve.eigsh"), "s"),
        "solve.eigsh_calls": (_count(spans, "solve.eigsh"), "count"),
        "solve.eigenmode_nearest_self_s":
            (_self_time(spans, "solve.eigenmode_nearest"), "s"),
        "network.assemble_s": (_total(spans, "network.assemble"), "s"),
        "network.assemble_calls": (_count(spans, "network.assemble"), "count"),
        "network.perturb_s": (_total(spans, "network.perturb"), "s"),
        "experiments.place_source_s":
            (_total(spans, "experiments.place_source"), "s"),
        "experiments.source_solves":
            (sum(1 for s in spans if s["name"] == "solve.driven_response"
                 and s["parent"] in place_ids), "count"),
        "experiments.ensemble_busy_s": (_ensemble_busy(spans), "s"),
        "fields.trace_streamlines_s":
            (_total(spans, "fields.trace_streamlines"), "s"),
        "fields.streamline_points":
            (_total(spans, "fields.trace_streamlines", "points"), "count"),
        "fields.nodal_vortices_s": (_total(spans, "fields.nodal_vortices"), "s"),
        "fields.link_currents_s": (_total(spans, "fields.link_currents"), "s"),
        "fields.power_balance_s": (_total(spans, "fields.power_balance"), "s"),
        "io.write_s": (_total(spans, "io.write"), "s"),
        "io.bytes_written": (_total(spans, "io.write", "bytes"), "B"),
        "geometry.rasterize_s": (_total(spans, "geometry.rasterize"), "s"),
    }
