"""Span tracer for the traced benchmark run.

The library is not instrumented. Instead ``Tracer.install`` replaces the
public functions of each layer at the import sites that the CLI, the release
modules, the suites and this benchmark call them through (for example
``dpsketch.cli.ingest`` or ``dpsketch.countsketch.countsketch_apply``) with
wrappers that record spans, and ``Tracer.uninstall`` puts the originals back.
Functions a module calls through its own globals are patched in that module,
so nested calls such as ``private_countsketch_l2 -> draw_countsketch_plan``
are seen too. Pure arithmetic (``mechanisms``, ``as_matrix``, the bound
formulas) is left untraced and counts toward its caller's self time.

A span records its name, layer, start, end, parent span and operation id.
Spans are only recorded inside ``Tracer.operation``; calls made by the
benchmark's correctness gates run outside any operation and pass straight
through. Spans stay in memory until ``Tracer.spans`` is written out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Bytes per float64 entry; computed sizes below ignore object headers.
_F8 = 8


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: "int | None"
    op: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _shape(data) -> "tuple[int, int]":
    a = getattr(data, "A", data)
    return int(a.shape[0]), int(a.shape[1])


def _note_ingest(span, args, result):
    span.attrs["rows"] = result.data.n
    span.attrs["rescaled"] = result.rescaled_rows


def _note_gaussian(span, args, result):
    span.attrs["bytes"] = int(result.size) * _F8


def _note_countsketch_release(span, args, result):
    import dpsketch

    n, d1 = _shape(args["data"])
    r = args["r"]
    _, plan = result
    span.attrs["noise_rows"] = plan.p
    span.attrs["patched"] = plan.patched
    span.attrs["stacked_bytes"] = (n + dpsketch.noise_row_count(r)) * d1 * _F8


def _note_l1_release(span, args, result):
    ws = result
    occupancy = np.asarray(ws.data_level_counts)
    data_writes = ws.s * int(occupancy[0]) + int(occupancy[1:].sum())
    noise_writes = int(np.asarray(ws.noise_coverage).sum()) - ws.patched
    span.attrs.update(
        h_m=ws.h_m,
        occupied_levels=int((occupancy > 0).sum()),
        bucket_writes=data_writes + noise_writes,
        noise_rows=ws.noise_rows,
        patched=ws.patched,
    )


def _note_write(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args["path"])


def _note_solution(span, args, result):
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = bool(result.converged)


def _note_tail(span, args, result):
    spec, trials = args["spec"], args["trials"]
    span.attrs["normals"] = spec.rows * int(spec.beta_aug.shape[0]) * int(trials)


# (function, home layer, import sites, note). The home layer is the module
# that defines the function; the sites are the modules whose attribute of
# that name is replaced while tracing, "" being the package namespace that
# the benchmark itself calls through.
PATCHES: "list[tuple[str, str, tuple[str, ...], Callable | None]]" = [
    ("ingest", "dataset", ("cli",), _note_ingest),
    ("max_row_norm", "dataset", ("dataset", "jl", "countsketch", "l1"), None),
    ("synthetic_regression", "dataset", ("suites",), None),
    ("svd", "linalg", ("jl",), None),
    ("sample_gaussian_matrix", "linalg", ("jl",), _note_gaussian),
    ("sample_laplace", "linalg", ("jl",), None),
    ("qr_least_squares", "linalg", ("solvers",), None),
    ("private_jl_sketch", "jl", ("cli", ""), None),
    ("jl_project", "jl", ("suites",), None),
    ("private_countsketch_l2", "countsketch", ("cli", "l1", ""), _note_countsketch_release),
    ("draw_countsketch_plan", "countsketch", ("countsketch", "suites"), None),
    ("countsketch_apply", "countsketch", ("countsketch", "suites"), None),
    ("private_l1_sketch", "l1", ("cli", ""), _note_l1_release),
    ("illustration_sketch_private", "l1", ("cli", ""), None),
    ("write_sketch", "sketchfile", ("cli",), _note_write),
    ("read_sketch", "sketchfile", ("cli",), None),
    ("solve_l2_sketch", "solvers", ("cli", "suites", ""), None),
    ("solve_l1_weighted", "solvers", ("cli", "solvers", ""), _note_solution),
    ("approximation_ratio", "solvers", ("suites", ""), None),
    ("exact_l1_solution", "solvers", ("solvers",), _note_solution),
    ("exact_l2_solution", "solvers", ("solvers",), None),
    ("verify_tail_bound", "bounds", ("suites",), _note_tail),
    ("main", "cli", ("cli",), None),
]

LAYERS = (
    "dataset", "linalg", "jl", "countsketch", "l1", "sketchfile",
    "solvers", "bounds", "suites", "cli", "bench",
)


class Tracer:
    """Records spans around layer boundaries while installed."""

    def __init__(self):
        self.spans: "list[Span]" = []
        self._stack: "list[Span]" = []
        self._op: "int | None" = None
        self._ops = 0
        self._saved: "list[tuple[Any, str, Any]]" = []
        self._saved_suites: dict = {}

    def _wrap(self, fn, name: str, layer: str, note) -> Callable:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                # A note only reads counts off the call; if the library's
                # signature or result changes, the count goes missing but the
                # operation itself still stands.
                try:
                    note(span, signature.bind(*args, **kwargs).arguments, result)
                except (TypeError, KeyError, AttributeError, ValueError, OSError) as exc:
                    span.attrs["note_error"] = repr(exc)
            return result

        return traced

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), parent, self._op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for name, layer, sites, note in PATCHES:
            home = importlib.import_module(f"dpsketch.{layer}")
            original = getattr(home, name)
            for site in sites:
                module = importlib.import_module(f"dpsketch.{site}" if site else "dpsketch")
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, self._wrap(original, name, layer, note))
        suites = importlib.import_module("dpsketch.suites").SUITES
        self._saved_suites = dict(suites)
        for name, fn in self._saved_suites.items():
            suites[name] = self._wrap(fn, f"suite:{name}", "suites", None)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        importlib.import_module("dpsketch.suites").SUITES.update(self._saved_suites)

    @contextlib.contextmanager
    def operation(self, name: str):
        """One benchmark operation: the root span that its layer spans hang under."""
        self._ops += 1
        self._op = self._ops
        span = self._open(name, "bench")
        try:
            yield span
        finally:
            self._close(span)
            self._op = None


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children never overlap each other.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


SUITE_NAMES = ("jl-distortion", "cs-embedding", "thm1", "lemma1", "lemma2", "thm2", "approx-ratio")


def layer_metrics(spans: "list[Span]", cycles: int, untraced_s: float) -> "dict[str, tuple[float, str, bool]]":
    """Per-layer metrics of a traced run: name -> (value, unit, present).

    Times and counts are per traced cycle (one pass over the workload's list
    of operations) unless the name says otherwise; ``present`` is False when
    no span fed the metric, in which case the value is 0.
    """
    own = self_times(spans)
    root = {s.op: s.name for s in spans if s.parent is None}
    out: "dict[str, tuple[float, str, bool]]" = {}

    def pick(name, op_filter=None):
        return [
            s for s in spans
            if s.name == name and (op_filter is None or op_filter(root[s.op]))
        ]

    def put(metric, value, unit, present):
        out[metric] = (float(value) if present else 0.0, unit, present)

    def per_cycle_time(metric, name, op_filter=None):
        hit = pick(name, op_filter)
        put(metric, sum(s.duration for s in hit) / cycles, "s", bool(hit))

    def per_cycle_count(metric, name, attr, unit="count", op_filter=None, scale=1.0):
        hit = [s for s in pick(name, op_filter) if attr in s.attrs]
        put(metric, sum(s.attrs[attr] for s in hit) * scale / cycles, unit, bool(hit))

    def per_call_max(metric, name, attr, unit="count", scale=1.0):
        hit = [s for s in pick(name) if attr in s.attrs]
        put(metric, max((s.attrs[attr] for s in hit), default=0) * scale, unit, bool(hit))

    def in_solve(op_name):
        return op_name.startswith("solve_")

    ingests = [s for s in pick("ingest") if "rows" in s.attrs]
    per_cycle_time("dataset.ingest_s", "ingest")
    ingest_time = sum(s.duration for s in ingests)
    put("dataset.ingest_rows_per_s",
        sum(s.attrs["rows"] for s in ingests) / ingest_time if ingest_time else 0.0,
        "1/s", bool(ingests))
    per_call_max("dataset.rescaled_rows", "ingest", "rescaled")
    per_cycle_time("dataset.certify_s", "max_row_norm")

    per_cycle_time("linalg.gaussian_s", "sample_gaussian_matrix")
    per_cycle_count("linalg.gaussian_mb", "sample_gaussian_matrix", "bytes", "MB", scale=1e-6)
    per_cycle_time("linalg.svd_s", "svd")
    svds = pick("svd")
    put("linalg.svd_calls", len(svds) / cycles, "count", bool(svds))
    per_cycle_time("linalg.qr_s", "qr_least_squares")
    qrs = pick("qr_least_squares")
    put("linalg.qr_calls", len(qrs) / cycles, "count", bool(qrs))

    per_cycle_time("countsketch.plan_s", "draw_countsketch_plan")
    per_cycle_time("countsketch.apply_s", "countsketch_apply")
    per_call_max("countsketch.stacked_mb", "private_countsketch_l2", "stacked_bytes", "MB", 1e-6)
    per_cycle_count("countsketch.noise_rows", "private_countsketch_l2", "noise_rows")
    per_cycle_count("countsketch.patched", "private_countsketch_l2", "patched")

    per_call_max("l1.h_m", "private_l1_sketch", "h_m")
    per_call_max("l1.occupied_levels", "private_l1_sketch", "occupied_levels")
    per_cycle_count("l1.bucket_writes", "private_l1_sketch", "bucket_writes")
    per_cycle_count("l1.noise_rows", "private_l1_sketch", "noise_rows")
    per_cycle_count("l1.patched", "private_l1_sketch", "patched")

    per_cycle_time("sketchfile.write_s", "write_sketch")
    per_cycle_time("sketchfile.read_s", "read_sketch")
    writes = [s for s in pick("write_sketch") if "bytes" in s.attrs]
    put("sketchfile.kb",
        sum(s.attrs["bytes"] for s in writes) / len(writes) / 1e3 if writes else 0.0,
        "kB", bool(writes))

    per_cycle_time("solvers.l2_s", "solve_l2_sketch", in_solve)
    per_cycle_time("solvers.irls_s", "solve_l1_weighted", in_solve)
    per_cycle_count("solvers.irls_iterations", "solve_l1_weighted", "iterations", op_filter=in_solve)
    irls = [s for s in pick("solve_l1_weighted", in_solve) if "converged" in s.attrs]
    put("solvers.irls_converged_share",
        sum(s.attrs["converged"] for s in irls) / len(irls) if irls else 0.0,
        "fraction", bool(irls))
    per_cycle_time("solvers.exact_l1_s", "exact_l1_solution")
    per_cycle_count("solvers.exact_l1_iterations", "exact_l1_solution", "iterations")
    per_cycle_time("solvers.exact_l2_s", "exact_l2_solution")

    per_cycle_time("bounds.verify_tail_s", "verify_tail_bound")
    per_cycle_count("bounds.normals_drawn", "verify_tail_bound", "normals")

    for name in SUITE_NAMES:
        per_cycle_time(f"suites.{name}_s", f"suite:{name}")

    for layer in LAYERS:
        hit = [i for i, s in enumerate(spans) if s.layer == layer]
        put(f"{layer}.self_s", sum(own[i] for i in hit) / cycles, "s", bool(hit))

    traced_s = sum(s.duration for s in spans if s.parent is None)
    put("trace.cycle_s", traced_s / cycles, "s", True)
    put("trace.untraced_cycle_s", untraced_s / cycles, "s", True)
    put("trace.overhead_share", traced_s / untraced_s - 1.0, "fraction", True)
    put("trace.spans", len(spans) / cycles, "count", True)
    return out
