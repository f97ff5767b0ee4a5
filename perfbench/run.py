"""privbound benchmark: one workload, one seed, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory. One client issues one op at a time and the next op when
the previous one returns. Every op's output is checked; an op that raises,
exits nonzero or fails its check is a failed op and the run goes on.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` is a separate
run: it alternates untraced and traced passes over the workload's ops and
reports the per-layer metrics, with the spans written to ``.perfbench-out/``.
Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

# one client in one process: keep BLAS to one thread unless the caller set it
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_REPS = 5   # set-up is repeated and its median reported
MIN_PASSES = 3   # whole passes over the ops in every timed run

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("search_value", "nats"),
)


def _import_library() -> None:
    """Import privbound from this checkout's ``src``, or exit 2 if it is absent."""
    if not os.path.isfile(os.path.join(SRC, "privbound", "__init__.py")):
        sys.stderr.write(f"perfbench: no privbound sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (timed as part of the import)
    import privbound

    if os.path.dirname(os.path.abspath(privbound.__file__)) != os.path.join(SRC, "privbound"):
        sys.stderr.write(f"perfbench: imported privbound from {privbound.__file__}, not {SRC}\n")
        sys.exit(2)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` values above its rank."""
    return max(0, math.floor(100.0 * (n - 10) / n)) if n > 10 else 0


def run_op(op, tracer=None) -> tuple[float, bool]:
    """Run and check one op; returns (seconds, ok). Exceptions count as failures."""
    t0 = perf_counter()
    try:
        out = op.run() if tracer is None else tracer.span("op", op.run)
    except Exception as e:  # a failing op is counted, never fatal
        sys.stderr.write(f"op {op.kind} raised {type(e).__name__}: {e}\n")
        return perf_counter() - t0, False
    dt = perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception as e:
        sys.stderr.write(f"check of {op.kind} raised {type(e).__name__}: {e}\n")
        ok = False
    if not ok:
        sys.stderr.write(f"op {op.kind} failed its output check\n")
    return dt, ok


def setup(name: str, seed: int, scale: float):
    """Build the workload and run one untimed warm-up op of each kind."""
    import workloads

    workdir = os.path.join(OUT, f"{name}-s{seed}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[name](seed, workdir, scale)
    warm = wl.warmup()
    return wl, len(warm), sum(not run_op(op)[1] for op in warm)


def timed_phase(wl, seconds: float) -> tuple[list[tuple[str, float, bool]], float]:
    """Whole passes over the ops: at least MIN_PASSES, then more while the
    next one is expected to end within ``seconds``.

    Whole passes weigh every op equally in every run. Returns one
    (kind, seconds, ok) record per op run and the phase's duration.
    """
    records = []
    t0 = perf_counter()
    passes = 0
    while True:
        tp = perf_counter()
        for op in wl.ops:
            dt, ok = run_op(op)
            records.append((op.kind, dt, ok))
        passes += 1
        now = perf_counter()
        if passes >= MIN_PASSES and now - t0 + (now - tp) > seconds:
            return records, now - t0


def traced_phase(wl, seconds: float, trace_path: str) -> tuple[dict, int, int]:
    """Alternate untraced and traced passes over the ops until ``seconds`` pass."""
    import tracing

    tracer = tracing.Tracer()
    plain = traced = 0.0
    failed = passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for op in wl.ops:
            dt, ok = run_op(op)
            plain += dt
            failed += not ok
        tracer.install()
        try:
            for op in wl.ops:
                tracer.op += 1
                dt, ok = run_op(op, tracer)
                traced += dt
                failed += not ok
        finally:
            tracer.uninstall()
        passes += 1
    metrics = tracing.layer_metrics(tracer, passes * len(wl.ops))
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    tracer.write(trace_path)
    return metrics, 2 * passes * len(wl.ops), failed


def _print_inverted(summary: dict) -> None:
    print(f"bound rows {summary['bounds_rows']}, inverted (lower > upper): {len(summary['inverted'])}")
    by_file: dict[str, list[dict]] = {}
    for row in summary["inverted"]:
        by_file.setdefault(row["file"], []).append(row)
    for tag, rows in by_file.items():
        worst = max(rows, key=lambda r: r["lower"] - r["upper"])
        print(f"  inverted {tag}: {len(rows)} rows, eps {min(r['epsilon'] for r in rows):.6g}"
              f"..{max(r['epsilon'] for r in rows):.6g}; worst at eps {worst['epsilon']:.6g}:"
              f" lower {worst['lower']:.6g} > upper {worst['upper']:.6g} ({worst['source']})")


def main(argv: list[str] | None = None, scale: float = 1.0) -> int:
    """Run one workload; ``scale`` < 1 keeps a prefix of its ops (self-tests)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = perf_counter()
    _import_library()
    import workloads

    import_s = perf_counter() - t_import
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_facts(), sort_keys=True))
    rep_s = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl, attempted, failed = setup(args.workload, args.seed, scale)
        rep_s.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(rep_s)
    print(f"setup: import {import_s:.4f} s, builds with warm-up " + " ".join(f"{r:.4f}" for r in rep_s) + " s")

    if args.trace:
        import tracing

        trace_path = os.path.join(OUT, f"trace-{args.workload}-s{args.seed}.json")
        layer, n, bad = traced_phase(wl, args.seconds, trace_path)
        summary = wl.summary()
        layer["bounds.inverted_frac"] = summary.get("bounds_inverted_frac", 0.0)
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit, _ in tracing.PER_LAYER}
        print(f"spans {trace_path}")
    else:
        records, wall = timed_phase(wl, args.seconds)
        n = len(records)
        bad = sum(not ok for _, _, ok in records)
        good_ms = [1000.0 * dt for _, dt, ok in records if ok]
        if not good_ms:
            sys.stderr.write("perfbench: every op failed\n")
            return 1
        # fixed per workload: the fewest records a run makes still leave ten above it
        level = tail_level(MIN_PASSES * len(wl.ops))
        summary = wl.summary()
        values = {
            "ops_per_s": len(good_ms) / wall,
            "op_ms_p50": percentile(good_ms, 50),
            "op_ms_tail": percentile(good_ms, level),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "search_value": summary["search_value"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        above = sum(v > values["op_ms_tail"] for v in good_ms)
        print(f"{n // len(wl.ops)} passes over {len(wl.ops)} ops in {wall:.3f} s;"
              f" op_ms_tail is p{level} of {len(good_ms)} ops ({above} above it)")
        for kind in dict.fromkeys(k for k, _, _ in records):
            ms = [1000.0 * dt for k, dt, ok in records if k == kind and ok]
            if ms:
                print(f"  {kind:<20} ops {len(ms):>5}  p50 {percentile(ms, 50):10.3f} ms")
    attempted += n
    failed += bad
    if "bounds_inverted_frac" in summary:
        _print_inverted(summary)
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric fail_frac {failed / attempted!r} frac")
    if "bounds_inverted_frac" in summary:
        print(f"metric bounds_inverted_frac {summary['bounds_inverted_frac']!r} frac")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
