"""Before/after bench of the oracle search: writes a BENCH_oracle*.json file.

    python3 bench/oracle.py --before REV [--out BENCH_oracle.json]

The before side is the git revision REV, exported with ``git archive`` into
a temporary directory; the after side is this checkout's working tree. Both
sides run on the same inputs, taken from this checkout: the benchmark's
sandwich banks (``perfbench/inputs.py``, relabeled by each of BANK_SEEDS)
and the CRITERION_SEEDS seeded problems of acceptance criterion 1
(``tests/helpers.py``). Every measurement runs in a fresh subprocess with
BLAS at one thread.

- **Counts** (one run per side and bank seed; they repeat exactly): the
  search counters of ``OracleResult``, summed over each bank, for the
  search each sandwich check runs: ``projections`` (infeasible candidates
  repaired), ``leakage_evals`` (leakage evaluations those repairs spent)
  and, on revisions that have them, ``candidates`` (candidates scored),
  ``accepted``, ``sweeps`` (batched scoring passes) and ``groups``
  (restart groups run in lockstep). Beside them, outside COUNTERS (it
  depends on how restarts are grouped, so it is not compared):
  ``swept_entries``, the kernel entries the sweeps' marginals and vertex
  choices formed, on revisions that count it, against
  ``full_width_entries``, what they form when every u-column is read
  (rows x |X||Y||U| twice per sweep row, from ``candidates``).
- **Wall clocks** (REPS runs per side, alternating which side goes
  first): one pass over each bank per seed, and criterion 1. On revisions
  whose ``SandwichReport`` has ``stage_s``, the bank passes also sum each
  stage's seconds over their checks, to show which stage a change sped up.

The JSON holds medians and all runs, the largest |difference| in the value
each sandwich check's search found, and the machine (nproc, Python, numpy,
CPU).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BANKS = {"sandwich_small": False, "sandwich_large": True}
BANK_SEEDS = (301, 302, 303)
CRITERION_SEEDS = 200
REPS = 3
COUNTERS = ("projections", "leakage_evals", "candidates", "accepted", "sweeps", "groups")


# -- worker: runs inside one side's source tree ------------------------------------


def _import_side(src: str):
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]
    from privbound import oracle

    return oracle


def _sandwich_all(oracle, problems) -> list:
    reports = []
    for p in problems:
        report = oracle.sandwich_check(p, oracle.OracleConfig(seed=0))
        if not report.ok:
            raise SystemExit(f"sandwich check failed: {report}")
        reports.append(report)
    return reports


def _bank(seed: int, large: bool):
    import inputs

    return inputs.sandwich_problems(seed, large)


def _criterion_problems(n: int):
    from helpers import random_problem

    return [random_problem(s) for s in range(n)]


def _search_result(oracle, p, report):
    """The ``OracleResult`` of a sandwich check's search. Revisions whose
    ``SandwichReport`` does not carry it rerun the search with the check's
    configuration, which must find the check's ``oracle_best``."""
    res = getattr(report, "search", None)
    if res is None:
        from privbound.model import validate

        cfg = oracle._sandwich_config(p, validate(p), oracle.OracleConfig(seed=0))
        res = oracle.search(p, cfg)
        if res.best_objective != report.oracle_best:
            raise SystemExit(f"counted search found {res.best_objective}, sandwich check {report.oracle_best}")
    return res


def worker_counts(oracle, seed: int) -> dict:
    """Search counters and values over both banks for one seed, read from
    each sandwich check's own search."""
    out = {}
    for bank, large in BANKS.items():
        tally: dict = {"values": []}
        problems = _bank(seed, large)
        for p, report in zip(problems, _sandwich_all(oracle, problems)):
            res = _search_result(oracle, p, report)
            tally["values"].append(res.best_objective)
            for name in COUNTERS + ("swept_entries",):
                if hasattr(res, name):
                    tally[name] = tally.get(name, 0) + getattr(res, name)
            if hasattr(res, "candidates"):
                full = 2 * res.best_kernel.table.size * res.candidates // oracle.BATCH
                tally["full_width_entries"] = tally.get("full_width_entries", 0) + full
        out[bank] = tally
    return out


def worker_wall(oracle, what: str) -> dict:
    """Wall clock of one pass per bank and seed, or of criterion 1, and the
    seconds per sandwich-check stage summed over each bank's passes."""
    if what == "criterion_1":
        problems = _criterion_problems(CRITERION_SEEDS)
        _sandwich_all(oracle, problems[:1])  # warm-up
        t0 = perf_counter()
        _sandwich_all(oracle, problems)
        return {"wall": {"criterion_1": perf_counter() - t0}, "stage_s": {}}
    out: dict = {"wall": {}, "stage_s": {}}
    for bank, large in BANKS.items():
        stages = out["stage_s"].setdefault(bank, {})
        for seed in BANK_SEEDS:
            problems = _bank(seed, large)
            _sandwich_all(oracle, problems[:1])
            t0 = perf_counter()
            reports = _sandwich_all(oracle, problems)
            out["wall"][f"{bank}/{seed}"] = perf_counter() - t0
            for report in reports:
                for name, sec in getattr(report, "stage_s", {}).items():
                    stages[name] = stages.get(name, 0.0) + sec
    return out


def worker_main(args: argparse.Namespace) -> None:
    oracle = _import_side(os.path.join(args.side, "src"))
    if args.worker == "counts":
        result = {str(s): worker_counts(oracle, s) for s in BANK_SEEDS}
    else:
        result = worker_wall(oracle, args.worker)
    json.dump(result, sys.stdout)


# -- coordinator ---------------------------------------------------------------------


def export_rev(rev: str, dest: str) -> str:
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "-C", ROOT, "archive", sha, "src"], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_worker(side: str, worker: str, script: str = __file__) -> dict:
    """Run ``script --worker WORKER --side SIDE`` with BLAS at one thread
    and return the JSON it prints."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    cmd = [sys.executable, os.path.abspath(script), "--worker", worker, "--side", side]
    proc = subprocess.run(cmd, check=True, capture_output=True, text=True, env=env)
    return json.loads(proc.stdout)


def machine_facts() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "blas_threads": 1}


def summarize(runs: list[float]) -> dict:
    q = statistics.quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3
    return {"median": statistics.median(runs), "q1": q[0], "q3": q[2], "runs": runs}


def count_summary(per_seed: dict) -> dict:
    """Medians over bank seeds of the per-seed counters and their ratios."""
    out = {}
    for bank in BANKS:
        rows = [per_seed[s][bank] for s in per_seed]
        summary = {name: statistics.median(r[name] for r in rows)
                   for name in COUNTERS + ("swept_entries", "full_width_entries") if name in rows[0]}
        summary["leakage_evals_per_repair"] = statistics.median(
            r["leakage_evals"] / r["projections"] for r in rows)
        if "accepted" in rows[0]:
            summary["accepted_per_candidate"] = statistics.median(
                r["accepted"] / r["candidates"] for r in rows)
        if "sweeps" in rows[0]:
            summary["candidates_per_sweep"] = statistics.median(
                r["candidates"] / r["sweeps"] for r in rows)
        if "swept_entries" in rows[0]:
            summary["swept_frac"] = statistics.median(
                r["swept_entries"] / r["full_width_entries"] for r in rows)
        out[bank] = summary
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_oracle.json"))
    ap.add_argument("--worker", choices=("counts", "banks", "criterion_1"), help=argparse.SUPPRESS)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker_main(args)
        return
    if not args.before:
        ap.error("--before is required")

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"before": os.path.join(tmp, "before"), "after": ROOT}
        revs = {"before": export_rev(args.before, sides["before"]), "after": "working tree"}

        counts = {}
        for name, side in sides.items():
            print(f"counts: {name}", file=sys.stderr)
            counts[name] = run_worker(side, "counts")
        walls: dict = {"before": {}, "after": {}}
        stages: dict = {"before": {}, "after": {}}
        for rep in range(REPS):
            order = ("before", "after") if rep % 2 == 0 else ("after", "before")
            for name in order:
                for worker in ("banks", "criterion_1"):
                    print(f"rep {rep}: {name} {worker}", file=sys.stderr)
                    result = run_worker(sides[name], worker)
                    for key, sec in result["wall"].items():
                        walls[name].setdefault(key, []).append(sec)
                    for bank, per_stage in result["stage_s"].items():
                        for stage, sec in per_stage.items():
                            stages[name].setdefault(bank, {}).setdefault(stage, []).append(sec)

    diffs = [
        abs(a - b)
        for seed in counts["before"]
        for bank in BANKS
        for a, b in zip(counts["before"][seed][bank]["values"], counts["after"][seed][bank]["values"])
    ]
    wall_keys = ["criterion_1", *BANKS]

    def wall(name: str, key: str) -> dict:
        runs = [v for k, vs in walls[name].items() if k == key or k.startswith(key + "/") for v in vs]
        return summarize(runs)

    doc = {
        "topic": "oracle search",
        "machine": machine_facts(),
        "revisions": revs,
        "settings": {"reps": REPS, "bank_seeds": list(BANK_SEEDS),
                     "criterion_seeds": CRITERION_SEEDS},
        "counts": {name: count_summary(counts[name]) for name in sides},
        "wall_s": {key: {name: wall(name, key) for name in sides} for key in wall_keys},
        "wall_s_per_bank_seed": {name: walls[name] for name in sides},
        # per bank: seconds per sandwich-check stage over one pass of every
        # bank seed, median over reps (empty for a side without stage_s)
        "stage_s": {name: {bank: {stage: statistics.median(v) for stage, v in per.items()}
                           for bank, per in stages[name].items()} for name in sides},
        "search_value_max_abs_diff": max(diffs),
        # every search counter equal, per bank seed and bank, on both sides
        "counters_equal": all(
            counts["before"][seed][bank].get(name) == counts["after"][seed][bank].get(name)
            for seed in counts["before"] for bank in BANKS for name in COUNTERS),
        "sandwich_checks_compared": len(diffs),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for key in wall_keys:
        b, a = doc["wall_s"][key]["before"]["median"], doc["wall_s"][key]["after"]["median"]
        print(f"{key:<16} before {b:8.2f} s  after {a:8.2f} s  ({b / a:.2f}x)")
    for bank in BANKS:
        b, a = doc["counts"]["before"][bank], doc["counts"]["after"][bank]
        print(f"{bank:<16} leakage evals/repair {b['leakage_evals_per_repair']:.2f} -> "
              f"{a['leakage_evals_per_repair']:.2f}, repairs {b['projections']:.0f} -> "
              f"{a['projections']:.0f}, candidates {b.get('candidates', '-')} -> {a.get('candidates', '-')}, "
              f"sweeps {b.get('sweeps', '-')} -> {a.get('sweeps', '-')}, "
              f"swept entries {b.get('swept_entries', b.get('full_width_entries', '-'))} -> "
              f"{a.get('swept_entries', '-')}")
    print(f"counters equal: {doc['counters_equal']}, largest |search value change| "
          f"{doc['search_value_max_abs_diff']:.3g}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
