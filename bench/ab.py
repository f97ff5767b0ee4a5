"""In-process A/B bench of the oracle search: a revision against the working tree.

    python3 bench/ab.py --before REV --workload {small,large,criterion} [...]
                        [--pairs N] [--seed S] [--out PATH]

The before side is the git revision REV's ``src``, exported with ``git
archive`` into a temporary directory; the after side is this checkout's
``src``. Both load into this one process as separately named packages
(``importlib.util.spec_from_file_location``; the package imports itself
only relatively), so both run on the same CPU, in the same state, a check
apart. REV's ``SandwichReport`` must carry its search (``search``). BLAS
runs at one thread unless the caller set its variables.

Workloads, whose inputs are built once, from this checkout, and handed to
each side as plain arrays (each side builds its own ``Problem`` from them,
since the two sides' classes differ):

- ``small`` and ``large``: the benchmark's sandwich banks
  (``perfbench/inputs.py``), relabeled by ``--seed``;
- ``criterion``: the CRITERION_SEEDS problems of acceptance criterion 1
  (``tests/helpers.py``).

A pass runs ``sandwich_check`` with ``OracleConfig(seed=0)`` on every
problem of a workload. A pair is one pass of each side, interleaved check
by check: each check runs on both sides back to back, and which side goes
first alternates from check to check and from pair to pair, so a drift in
the host's speed over a pass falls on both sides alike. Each side's
process CPU time and wall time is summed over its checks. After one
untimed pair, ``--pairs`` pairs are timed. Per workload it reports each
side's median and quartiles, the per-pair CPU ratio after / before (median
and quartiles) and the pairs the after side won. From the untimed pair
it compares, check by check, the checks' numbers (every restart's value,
the best one's leakage, the lower, constructed and upper values) to
NUMBER_TOL, and counts the checks whose search counters differ, per
counter.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import os
import sys
import tempfile
from time import perf_counter, process_time

from oracle import (  # bench/oracle.py
    BLAS_VARS,
    COUNTERS,
    CRITERION_SEEDS,
    ROOT,
    export_rev,
    machine_facts,
    summarize,
)

# one process, one client: keep BLAS to one thread unless the caller set it
# (numpy is first imported after this)
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

WORKLOADS = ("small", "large", "criterion")
NUMBER_TOL = 1e-12


def load_side(name: str, src: str):
    """The package under ``src``/privbound, imported as ``name``."""
    pkg = os.path.join(src, "privbound")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg, "__init__.py"),
                                                  submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload_specs(workload: str, seed: int) -> list[dict]:
    """Plain-array specs of a workload's problems, built with this checkout's
    generators."""
    if workload == "criterion":
        from helpers import random_problem

        problems = [random_problem(s) for s in range(CRITERION_SEEDS)]
    else:
        import inputs

        problems = inputs.sandwich_problems(seed, workload == "large")
    return [{"components": [(c.name, c.joint.table.copy()) for c in p.components],
             "users": [(tuple(u.demands), u.weight) for u in p.users],
             "epsilon": p.epsilon, "sfrl_constant": p.sfrl_constant} for p in problems]


def build_problems(side, specs: list[dict]) -> list:
    """One side's ``Problem`` of every spec, from that side's own classes."""
    model = importlib.import_module(f"{side.__name__}.model")
    probcore = importlib.import_module(f"{side.__name__}.probcore")
    return [model.Problem(tuple(model.Component(name, probcore.Joint2(t)) for name, t in s["components"]),
                          tuple(model.User(d, w) for d, w in s["users"]), s["epsilon"], s["sfrl_constant"])
            for s in specs]


def run_pair(sides: dict, problems: dict, k: int) -> dict:
    """One pass of each side over the workload, check by check: each check
    runs on both sides back to back, and the side that goes first
    alternates from check to check and, for each check, from pair to
    pair. Per side: CPU seconds, wall seconds and reports."""
    oracles = {name: importlib.import_module(f"{side.__name__}.oracle") for name, side in sides.items()}
    out = {name: [0.0, 0.0, []] for name in sides}
    gc.collect()
    for i in range(len(problems["before"])):
        for name in (("before", "after") if (k + i) % 2 == 0 else ("after", "before")):
            oracle = oracles[name]
            c0, w0 = process_time(), perf_counter()
            report = oracle.sandwich_check(problems[name][i], oracle.OracleConfig(seed=0))
            out[name][0] += process_time() - c0
            out[name][1] += perf_counter() - w0
            out[name][2].append(report)
    return out


def numbers(report) -> tuple[float, ...]:
    """The numbers of a sandwich check that must agree between the sides:
    every restart's value, the best one's leakage, and the check's lower,
    constructed and upper values."""
    return (*report.search.trace, report.search.leakage_at_best, report.lower, report.mech_objective, report.upper)


def compare(before: list, after: list) -> dict:
    """Check-by-check agreement of two passes' reports."""
    gaps, differ, failed = [], 0, {"before": 0, "after": 0}
    counters = {name: 0 for name in COUNTERS}
    for a, b in zip(before, after):
        failed["before"] += not a.ok
        failed["after"] += not b.ok
        out = False
        for x, y in zip(numbers(a), numbers(b), strict=True):
            gaps.append(abs(x - y))
            out = out or abs(x - y) > NUMBER_TOL * max(1.0, abs(x), abs(y))
        differ += out
        for name in COUNTERS:
            counters[name] += getattr(a.search, name) != getattr(b.search, name)
    return {"checks": len(before), "failed_checks": failed, "values_max_abs_diff": max(gaps),
            "checks_with_values_differing": differ, "checks_with_counter_differing": counters}


def ab(sides: dict, workload: str, pairs: int, seed: int) -> dict:
    specs = workload_specs(workload, seed)
    problems = {name: build_problems(side, specs) for name, side in sides.items()}
    warm = run_pair(sides, problems, 0)
    runs: dict = {name: {"cpu": [], "wall": []} for name in sides}
    for k in range(pairs):
        for name, (cpu, wall, _) in run_pair(sides, problems, k).items():
            runs[name]["cpu"].append(cpu)
            runs[name]["wall"].append(wall)
        print(f"{workload} pair {k}: before {runs['before']['cpu'][-1]:.3f} s, "
              f"after {runs['after']['cpu'][-1]:.3f} s CPU", file=sys.stderr)
    ratios = [a / b for a, b in zip(runs["after"]["cpu"], runs["before"]["cpu"])]
    return {
        "cpu_s": {name: summarize(r["cpu"]) for name, r in runs.items()},
        "wall_s": {name: summarize(r["wall"]) for name, r in runs.items()},
        # per pair, after / before process CPU time
        "cpu_ratio": summarize(ratios),
        "after_wins": sum(a < b for a, b in zip(runs["after"]["cpu"], runs["before"]["cpu"])),
        "pairs": pairs,
        **compare(warm["before"][2], warm["after"][2]),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=301, help="bank relabeling seed (small, large)")
    ap.add_argument("--out", help="write the results as JSON here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        sha = export_rev(args.before, tmp)
        sides = {"before": load_side("ab_before", os.path.join(tmp, "src")),
                 "after": load_side("ab_after", os.path.join(ROOT, "src"))}
        results = {w: ab(sides, w, args.pairs, args.seed) for w in args.workload}

    for w, r in results.items():
        b, a, q = r["cpu_s"]["before"], r["cpu_s"]["after"], r["cpu_ratio"]
        counters = ", ".join(f"{n} {c}" for n, c in r["checks_with_counter_differing"].items() if c) or "none"
        print(f"{w:<10} CPU before {b['median']:.3f} s (IQR {b['q1']:.3f}-{b['q3']:.3f}), "
              f"after {a['median']:.3f} s (IQR {a['q1']:.3f}-{a['q3']:.3f}); ratio {q['median']:.3f} "
              f"(IQR {q['q1']:.3f}-{q['q3']:.3f}), after faster in {r['after_wins']} of {r['pairs']}")
        print(f"{'':<10} {r['checks']} checks: values differ in {r['checks_with_values_differing']} "
              f"(largest |diff| {r['values_max_abs_diff']:.3g}); counters differ: {counters}")
    if args.out:
        doc = {"topic": "in-process A/B of the oracle search", "machine": machine_facts(),
               "revisions": {"before": sha, "after": "working tree"},
               "settings": {"pairs": args.pairs, "bank_seed": args.seed, "criterion_seeds": CRITERION_SEEDS,
                            "timer": "process CPU time, summed per side over its checks"},
               "workloads": results}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
