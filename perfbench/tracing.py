"""Spans around calls into pellel's layers, recorded from the benchmark.

``instrument(tracer)`` replaces public names of the library where their
callers look them up (``pellel.pipeline.solve_min_norm`` and so on) with
wrappers that record one span per call, and wraps the callables of every
``LinearMap`` that ``weighted_first_order_map`` returns.  The library's
files are unchanged, and every name is restored on exit.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer busy time, self time
and counts per traced operation.  At module level this file imports only
the standard library, so the benchmark's set-up timer sees numpy's import.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
from dataclasses import dataclass
from time import perf_counter

SETUP = -1  # operation id of spans recorded during set-up


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    attrs: dict | None = None


class Tracer:
    """In-memory span recorder for one single-threaded client."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = SETUP

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._open(name, None)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name, attrs):
        s = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = perf_counter()
        return s

    def _close(self, s):
        s.end = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, attrs: dict | None = None, after=None):
        """fn recording a span per call; after(span, args, kwargs, result)
        may add attributes once the call has returned."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if after is not None:
                out = after(s, args, kwargs, out)
            return out
        return traced


def no_span(name: str):
    """Stand-in for Tracer.span when tracing is off."""
    return contextlib.nullcontext()


# (module, attribute looked up by the caller, span name)
PATCHES = (
    ("pellel.cli", "main", "cli.main"),
    ("pellel.cli", "build_grid", "domain.build_grid"),
    ("pellel.cli", "estimate_c", "domain.estimate_c"),
    ("pellel.pipeline", "estimate_c", "domain.estimate_c"),
    ("pellel.verify", "estimate_c", "domain.estimate_c"),
    ("pellel.pipeline", "solve_poincare_lelong", "pipeline.solve_poincare_lelong"),
    ("pellel.pipeline", "solve_poincare", "pipeline.stage.poincare"),
    ("pellel.pipeline", "solve_dbar", "pipeline.stage.dbar"),
    ("pellel.pipeline", "solve_min_norm", "minnorm.solve_min_norm"),
    ("pellel.pipeline", "weighted_first_order_map", "minnorm.map_setup"),
    ("pellel.calculus", "d", "calculus.d"),
    ("pellel.calculus", "dbar", "calculus.dbar"),
    ("pellel.calculus", "partial", "calculus.partial"),
    ("pellel.calculus", "diff_axis", "calculus.diff_axis"),
    ("pellel.calculus", "diff_axis_t", "calculus.diff_axis_t"),
    ("pellel.bridge", "real11_to_real2", "bridge.real11_to_real2"),
    ("pellel.bridge", "split_1form", "bridge.split_1form"),
    ("pellel.forms", "norm2", "forms.norm2"),
    ("pellel.forms", "to_csv", "forms.to_csv"),
    ("pellel.forms", "from_csv", "forms.from_csv"),
    ("pellel.verify", "check_dalpha_identity", "verify.dalpha"),
    ("pellel.verify", "check_boundary_identity", "verify.boundary"),
    ("pellel.verify", "check_bochner_identity", "verify.bochner"),
    ("pellel.verify", "check_basic_estimate", "verify.basic"),
)


def _after_solve(span, args, kwargs, result):
    _, report = result
    span.attrs = {"iterations": report.iterations, "residual": report.relative_residual}
    return result


def _after_to_csv(span, args, kwargs, result):
    span.attrs = {"rows": int(args[0].coeffs.size)}
    return result


def _after_map(tracer):
    import numpy as np
    from pellel.minnorm import weighted_first_order_map

    signature = inspect.signature(weighted_first_order_map)

    def after(span, args, kwargs, lmap):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        dof_mask = call.arguments["dof_mask"]
        box = int(dof_mask.size)
        # computed, not measured: the source and target coefficient arrays of one matvec
        operand_bytes = ((lmap.source_shape[0] + lmap.target_shape[0]) * box
                         * np.dtype(call.arguments["dtype"]).itemsize)
        span.attrs = {"dof_nodes": int(dof_mask.sum()), "box_nodes": box}
        shared = {"bytes": operand_bytes}
        return dataclasses.replace(
            lmap,
            apply=tracer.wrap(lmap.apply, "minnorm.apply", shared),
            adjoint=tracer.wrap(lmap.adjoint, "minnorm.adjoint", shared),
            dot_source=tracer.wrap(lmap.dot_source, "minnorm.dot_source"),
            dot_target=tracer.wrap(lmap.dot_target, "minnorm.dot_target"))
    return after


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the library's layer boundaries through tracer for the duration."""
    after = {"minnorm.solve_min_norm": _after_solve, "forms.to_csv": _after_to_csv,
             "minnorm.map_setup": _after_map(tracer)}
    saved = []
    try:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, after=after.get(name)))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# per-layer metric names and units, in the order they are reported
PER_LAYER_UNITS = {
    "minnorm.iterations.poincare": "count",
    "minnorm.iterations.dbar": "count",
    "minnorm.cgls_self.s": "s",
    "minnorm.apply.calls": "count",
    "minnorm.apply.s": "s",
    "minnorm.adjoint.calls": "count",
    "minnorm.adjoint.s": "s",
    "minnorm.dot.s": "s",
    "minnorm.dof_fraction": "ratio",
    "minnorm.bytes_per_matvec": "B",
    "minnorm.map_setup.s": "s",
    "minnorm.residual.poincare": "ratio",
    "minnorm.residual.dbar": "ratio",
    "calculus.diff_axis.calls": "count",
    "calculus.diff_axis.s": "s",
    "calculus.diff_axis_t.calls": "count",
    "calculus.diff_axis_t.s": "s",
    "calculus.ops.s": "s",
    "forms.norm2.calls": "count",
    "forms.norm2.s": "s",
    "forms.to_csv.s": "s",
    "forms.to_csv.rows": "count",
    "domain.build_grid.s": "s",
    "domain.estimate_c.calls": "count",
    "domain.estimate_c.s": "s",
    "bridge.s": "s",
    "pipeline.stage.poincare.s": "s",
    "pipeline.stage.dbar.s": "s",
    "pipeline.self.s": "s",
    "verify.dalpha.s": "s",
    "verify.boundary.s": "s",
    "verify.bochner.s": "s",
    "verify.basic.s": "s",
    "cli.self.s": "s",
    "bench.self.s": "s",
    "trace.op_s": "s",
    "mem.traced_peak_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its children.  One
    client thread runs the spans, so children never overlap each other."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values per traced operation (set-up spans count only
    toward domain.build_grid.s, which covers set-up plus one operation).
    Leaves out the two memory and overhead metrics measured separately."""
    own = self_times(spans)
    ops = {s.op for s in spans if s.op != SETUP}
    n_ops = max(len(ops), 1)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    iterations = {"poincare": 0, "dbar": 0}
    residual = {"poincare": 0.0, "dbar": 0.0}
    dof = box = 0
    matvec_bytes = matvecs = 0
    csv_rows = 0
    setup_grid_s = 0.0
    for s, t_self in zip(spans, own):
        if s.op == SETUP:
            if s.name == "domain.build_grid":
                setup_grid_s += s.end - s.start
            continue
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        self_s[s.name] = self_s.get(s.name, 0.0) + t_self
        if s.name == "minnorm.solve_min_norm":
            stage = spans[s.parent].name.rsplit(".", 1)[-1] if s.parent >= 0 else ""
            if stage in iterations:
                iterations[stage] += s.attrs["iterations"]
                residual[stage] = max(residual[stage], s.attrs["residual"])
        elif s.name == "minnorm.map_setup":
            dof += s.attrs["dof_nodes"]
            box += s.attrs["box_nodes"]
        elif s.name in ("minnorm.apply", "minnorm.adjoint"):
            matvec_bytes += s.attrs["bytes"]
            matvecs += 1
        elif s.name == "forms.to_csv":
            csv_rows += s.attrs["rows"]

    def per_op(table, *names):
        return sum(table.get(n, 0) for n in names) / n_ops

    return {
        "minnorm.iterations.poincare": iterations["poincare"] / n_ops,
        "minnorm.iterations.dbar": iterations["dbar"] / n_ops,
        "minnorm.cgls_self.s": per_op(self_s, "minnorm.solve_min_norm"),
        "minnorm.apply.calls": per_op(calls, "minnorm.apply"),
        "minnorm.apply.s": per_op(busy, "minnorm.apply"),
        "minnorm.adjoint.calls": per_op(calls, "minnorm.adjoint"),
        "minnorm.adjoint.s": per_op(busy, "minnorm.adjoint"),
        "minnorm.dot.s": per_op(busy, "minnorm.dot_source", "minnorm.dot_target"),
        "minnorm.dof_fraction": dof / box if box else 0.0,
        "minnorm.bytes_per_matvec": matvec_bytes / matvecs if matvecs else 0.0,
        "minnorm.map_setup.s": per_op(busy, "minnorm.map_setup"),
        "minnorm.residual.poincare": residual["poincare"],
        "minnorm.residual.dbar": residual["dbar"],
        "calculus.diff_axis.calls": per_op(calls, "calculus.diff_axis"),
        "calculus.diff_axis.s": per_op(busy, "calculus.diff_axis"),
        "calculus.diff_axis_t.calls": per_op(calls, "calculus.diff_axis_t"),
        "calculus.diff_axis_t.s": per_op(busy, "calculus.diff_axis_t"),
        "calculus.ops.s": per_op(busy, "calculus.d", "calculus.dbar", "calculus.partial"),
        "forms.norm2.calls": per_op(calls, "forms.norm2"),
        "forms.norm2.s": per_op(busy, "forms.norm2"),
        "forms.to_csv.s": per_op(busy, "forms.to_csv"),
        "forms.to_csv.rows": csv_rows / n_ops,
        "domain.build_grid.s": setup_grid_s + per_op(busy, "domain.build_grid"),
        "domain.estimate_c.calls": per_op(calls, "domain.estimate_c"),
        "domain.estimate_c.s": per_op(busy, "domain.estimate_c"),
        "bridge.s": per_op(busy, "bridge.real11_to_real2", "bridge.split_1form"),
        "pipeline.stage.poincare.s": per_op(busy, "pipeline.stage.poincare"),
        "pipeline.stage.dbar.s": per_op(busy, "pipeline.stage.dbar"),
        "pipeline.self.s": per_op(self_s, "pipeline.solve_poincare_lelong"),
        "verify.dalpha.s": per_op(busy, "verify.dalpha"),
        "verify.boundary.s": per_op(busy, "verify.boundary"),
        "verify.bochner.s": per_op(busy, "verify.bochner"),
        "verify.basic.s": per_op(busy, "verify.basic"),
        "cli.self.s": per_op(self_s, "cli.main"),
        "bench.self.s": per_op(self_s, "bench.op"),
        "trace.op_s": per_op(busy, "bench.op"),
    }
