"""Before/after bench of the closed-form layers: writes BENCH_closed_form.json.

    python3 bench/closed_form.py --before REV [--out BENCH_closed_form.json]

The before side is the git revision REV, exported with ``git archive`` into
a temporary directory; the after side is this checkout's working tree. Both
sides run the same ops, built from this checkout's ``perfbench`` files: the
``closed_form`` workload (CLI ``bounds``/``mechanize``/``verify``/``sweep`` on
40 problem files, then ``evaluate_monolithic``, ``decompose_transform`` and
``refine_transform`` on 80 random full-joint kernels), relabeled by each of
BANK_SEEDS. Every measurement runs in a fresh subprocess with BLAS at one
thread, and REPS runs per side alternate which side goes first.

- **Pass** (per side, rep and bank seed): one timed pass over the workload
  after one warm-up op of each kind, with every op's output checked; the
  seconds are summed per op kind. The worker's peak RSS is recorded.
- **Decompose** (per side and rep): ``decompose_transform`` alone on the
  bank's cases whose decomposition joint has more than DECOMPOSE_BIG
  entries (eight per seed), with the worker's peak RSS.
- **Checks** (one run per side): the four ``DecompositionChecks`` fields on
  every transform case of every bank seed; the JSON reports the largest
  |difference| between the sides.

The JSON holds medians with quartiles and all runs, and the machine (nproc,
Python, numpy, CPU).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from time import perf_counter

from oracle import BLAS_VARS, ROOT, export_rev, machine_facts, summarize  # bench/oracle.py

BANK_SEEDS = (301, 302, 303)
REPS = 3
DECOMPOSE_BIG = 5_000_000
CHECK_FIELDS = ("leakage_original", "leakage_bar", "markov_residual", "independence_residual")


# -- worker: runs inside one side's source tree ------------------------------------


def _import_side(src: str) -> None:
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _decomposition_entries(p, k) -> int:
    """Entries of the joint over (x's, y's, u, b's) that decompose_transform builds."""
    dims_x = [c.card_x for c in p.components]
    bars = [math.prod(dims_x[:i]) * k.alphabet_u for i in range(len(dims_x))]
    return k.table.size * math.prod(bars)


def worker_pass(seed: int) -> dict:
    """Seconds per op kind of one checked pass over the closed_form workload."""
    import workloads

    with tempfile.TemporaryDirectory() as workdir:
        wl = workloads.build_closed_form(seed, workdir, 1.0)
        for op in wl.warmup():
            op.check(op.run())
        seconds: dict = {}
        for op in wl.ops:
            t0 = perf_counter()
            out = op.run()
            dt = perf_counter() - t0
            if not op.check(out):
                raise SystemExit(f"op {op.kind} failed its output check")
            seconds[op.kind] = seconds.get(op.kind, 0.0) + dt
    seconds["total"] = math.fsum(seconds.values())
    return {"seconds": seconds, "peak_rss_mb": _peak_rss_mb()}


def _big_cases(seed: int):
    import inputs

    cases = (inputs.transform_case(seed, i) for i in range(inputs.TRANSFORM_CASES))
    return [(p, k) for p, k in cases if _decomposition_entries(p, k) > DECOMPOSE_BIG]


def worker_decompose() -> dict:
    """Seconds of decompose_transform on every large case of every bank seed."""
    from privbound import mechanisms

    runs = []
    for seed in BANK_SEEDS:
        cases = _big_cases(seed)
        for p, k in cases:
            t0 = perf_counter()
            mechanisms.decompose_transform(p, k)
            runs.append(perf_counter() - t0)
    return {"seconds": runs, "peak_rss_mb": _peak_rss_mb()}


def worker_checks() -> dict:
    """The four decomposition checks on every transform case of every bank seed."""
    import inputs
    from privbound import mechanisms

    out = {}
    for seed in BANK_SEEDS:
        for i in range(inputs.TRANSFORM_CASES):
            _, checks = mechanisms.decompose_transform(*inputs.transform_case(seed, i))
            out[f"{seed}/{i}"] = [getattr(checks, f) for f in CHECK_FIELDS]
    return out


def worker_main(args: argparse.Namespace) -> None:
    _import_side(os.path.join(args.side, "src"))
    if args.worker == "pass":
        result = worker_pass(args.seed)
    elif args.worker == "decompose":
        result = worker_decompose()
    else:
        result = worker_checks()
    json.dump(result, sys.stdout)


# -- coordinator ---------------------------------------------------------------------


def run_worker(side: str, worker: str, seed: int = 0) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", worker, "--side", side,
           "--seed", str(seed)]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_closed_form.json"))
    ap.add_argument("--worker", choices=("pass", "decompose", "checks"), help=argparse.SUPPRESS)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker_main(args)
        return
    if not args.before:
        ap.error("--before is required")

    sides = ("before", "after")
    passes: dict = {name: {} for name in sides}     # op kind -> seconds per pass
    pass_rss: dict = {name: [] for name in sides}
    decompose: dict = {name: [] for name in sides}  # seconds per large case
    decompose_rss: dict = {name: [] for name in sides}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"before": os.path.join(tmp, "before"), "after": ROOT}
        revs = {"before": export_rev(args.before, roots["before"]), "after": "working tree"}

        checks = {}
        for name in sides:
            print(f"checks: {name}", file=sys.stderr)
            checks[name] = run_worker(roots[name], "checks")
        for rep in range(REPS):
            for name in sides if rep % 2 == 0 else reversed(sides):
                print(f"rep {rep}: {name}", file=sys.stderr)
                for seed in BANK_SEEDS:
                    res = run_worker(roots[name], "pass", seed)
                    for kind, sec in res["seconds"].items():
                        passes[name].setdefault(kind, []).append(sec)
                    pass_rss[name].append(res["peak_rss_mb"])
                res = run_worker(roots[name], "decompose")
                decompose[name] += res["seconds"]
                decompose_rss[name].append(res["peak_rss_mb"])

    diffs = {f: max(abs(a[k] - b[k]) for a, b in zip(checks["before"].values(), checks["after"].values()))
             for k, f in enumerate(CHECK_FIELDS)}
    doc = {
        "topic": "closed-form layers: probcore marginals, decomposition checks, sweep",
        "machine": machine_facts(),
        "revisions": revs,
        "settings": {"reps": REPS, "bank_seeds": list(BANK_SEEDS), "decompose_big_entries": DECOMPOSE_BIG},
        "pass_s_per_kind": {kind: {name: summarize(passes[name][kind]) for name in sides}
                            for kind in passes["after"]},
        "decompose_big_s": {name: summarize(decompose[name]) for name in sides},
        "peak_rss_mb": {"pass": {name: summarize(pass_rss[name]) for name in sides},
                        "decompose": {name: summarize(decompose_rss[name]) for name in sides}},
        "decomposition_checks_max_abs_diff": diffs,
        "decomposition_cases_compared": len(checks["after"]),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for kind, row in doc["pass_s_per_kind"].items():
        b, a = row["before"]["median"], row["after"]["median"]
        print(f"{kind:<20} before {b:7.3f} s  after {a:7.3f} s  ({b / a:.2f}x)")
    b, a = doc["decompose_big_s"]["before"]["median"], doc["decompose_big_s"]["after"]["median"]
    print(f"{'decompose (large)':<20} before {b:7.3f} s  after {a:7.3f} s  ({b / a:.2f}x)")
    for what, row in doc["peak_rss_mb"].items():
        print(f"peak RSS {what:<11} before {row['before']['median']:7.1f} MB  "
              f"after {row['after']['median']:7.1f} MB")
    print(f"largest check difference {max(diffs.values()):.3g} over {len(checks['after'])} cases")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
