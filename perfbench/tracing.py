"""Spans around the library's public functions, installed from the benchmark.

``Tracer.install`` replaces public functions of ``privbound`` with wrappers
in every ``privbound`` module that holds them (so the name ``oracle``
imports as ``validate`` is traced too). Each call that crosses into a layer
records a span ``(name, start, end, parent, op)``; a call made from inside
a span of the same name stays inside that layer and records nothing. Spans
stay in memory and are written out as JSON at the end of the run.

The library itself is not changed, and no private helper is wrapped.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

import numpy as np

PROBCORE = ("entropy", "joint_entropy", "marginal_entropy", "conditional_entropy",
            "mutual_information", "mi_between", "conditional_mi", "product_join")

# span name -> public functions, as (module, attribute)
LAYERS = {
    "probcore": [("probcore", f) for f in PROBCORE],
    "model.validate": [("model", "validate")],
    "bounds.compute_bounds": [("bounds", "compute_bounds")],
    "bounds.allocate_epsilon": [("bounds", "allocate_epsilon")],
    "mechanisms.construct": [("mechanisms", "frl_construct"), ("mechanisms", "efrl_construct")],
    "mechanisms.compose_multiuser": [("mechanisms", "compose_multiuser")],
    "mechanisms.evaluate_composed": [("mechanisms", "evaluate_composed")],
    "mechanisms.monolithic": [("mechanisms", "materialize_monolithic"),
                              ("mechanisms", "monolithic_joint"),
                              ("mechanisms", "evaluate_monolithic")],
    "mechanisms.transforms": [("mechanisms", "decompose_transform"),
                              ("mechanisms", "refine_transform")],
    "oracle.search": [("oracle", "search")],
    "oracle.sandwich_check": [("oracle", "sandwich_check")],
    "cli.bounds": [("cli", "cmd_bounds")],
    "cli.mechanize": [("cli", "cmd_mechanize")],
    "cli.verify": [("cli", "cmd_verify")],
    "cli.sweep": [("cli", "cmd_sweep")],
    # reading problem and mechanism files, and assembling the printed reports
    "cli.parse": [("cli", "load_problem"), ("cli", "parse_problem"),
                  ("mechanisms", "mechanism_from_dict")],
    "cli.report": [("cli", "bounds_report"), ("cli", "mechanism_report"),
                   ("mechanisms", "mechanism_to_dict")],
}

RESTART_MATCH_TOL = 1e-9  # a restart is useful when its objective is this close to the best

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("oracle.search.calls", "count/op", "lower"),
    ("oracle.search.self_s", "s/op", "lower"),
    ("oracle.search.kernel_entries", "count/op", "lower"),
    ("oracle.search.useful_restart_frac", "frac", "higher"),
    ("oracle.sandwich_check.self_s", "s/op", "lower"),
    ("probcore.calls", "count/op", "lower"),
    ("probcore.self_s", "s/op", "lower"),
    ("probcore.entries", "count/op", "lower"),
    ("model.validate.calls", "count/op", "lower"),
    ("model.validate.self_s", "s/op", "lower"),
    ("bounds.compute_bounds.calls", "count/op", "lower"),
    ("bounds.compute_bounds.self_s", "s/op", "lower"),
    ("bounds.allocate_epsilon.calls", "count/op", "lower"),
    ("bounds.inverted_frac", "frac", "lower"),
    ("mechanisms.construct.calls", "count/op", "lower"),
    ("mechanisms.construct.self_s", "s/op", "lower"),
    ("mechanisms.compose_multiuser.calls", "count/op", "lower"),
    ("mechanisms.evaluate_composed.self_s", "s/op", "lower"),
    ("mechanisms.monolithic.self_s", "s/op", "lower"),
    ("mechanisms.transforms.self_s", "s/op", "lower"),
    ("cli.bounds.ms_p50", "ms", "lower"),
    ("cli.mechanize.ms_p50", "ms", "lower"),
    ("cli.verify.ms_p50", "ms", "lower"),
    ("cli.sweep.ms_p50", "ms", "lower"),
    ("cli.parse.self_s", "s/op", "lower"),
    ("cli.report.self_s", "s/op", "lower"),
    ("trace.op_s", "s/op", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def _table_entries(obj) -> int:
    """Entries of a probcore argument: a distribution, a joint or a list of joints."""
    if isinstance(obj, (list, tuple)):
        return sum(_table_entries(o) for o in obj)
    for attr in ("table", "probs"):
        if hasattr(obj, attr):
            return int(getattr(obj, attr).size)
    return int(obj.size) if isinstance(obj, np.ndarray) else 0


def _probcore_attrs(args, result) -> dict:
    return {"entries": _table_entries(args[0]) if args else 0}


def _search_attrs(args, result) -> dict:
    restarts = len(result.trace)
    useful = sum(1 for v in result.trace if abs(v - result.best_objective) <= RESTART_MATCH_TOL)
    return {"kernel_entries": result.best_kernel.table.size * restarts,
            "restarts": restarts, "useful_restarts": useful}


ATTRS = {"probcore": _probcore_attrs, "oracle.search": _search_attrs}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and self.spans[parent][0] == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self.stack.pop()
        attrs = ATTRS.get(name)
        if attrs is not None:
            rec[5] = attrs(args, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "privbound" or k.startswith("privbound.")]
        for name, targets in LAYERS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[f"privbound.{mod_name}"], attr)
                wrapper = self._wrap(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-op self time and counts per span name, plus CLI command medians.

    Self time is a span's duration minus that of its direct children.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _op, _a in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    sums = {"entries": 0, "kernel_entries": 0, "restarts": 0, "useful_restarts": 0}
    for k, (name, start, end, _p, _op, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - child[k])
        durations.setdefault(name, []).append(end - start)
        for key, val in (attrs or {}).items():
            sums[key] += val
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0) / ops
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / ops
    for cmd in ("bounds", "mechanize", "verify", "sweep"):
        d = durations.get(f"cli.{cmd}")
        out[f"cli.{cmd}.ms_p50"] = 1000.0 * statistics.median(d) if d else 0.0
    out["probcore.entries"] = sums["entries"] / ops
    out["oracle.search.kernel_entries"] = sums["kernel_entries"] / ops
    out["oracle.search.useful_restart_frac"] = (
        sums["useful_restarts"] / sums["restarts"] if sums["restarts"] else 0.0)
    out["trace.op_s"] = sum(end - start for name, start, end, *_ in spans if name == "op") / ops
    return out
