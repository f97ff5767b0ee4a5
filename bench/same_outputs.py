"""Check that a revision and this working tree give the same outputs.

    python3 bench/same_outputs.py --before REV

The before side is the git revision REV, exported with ``git archive`` into
a temporary directory; the after side is this checkout's working tree. Each
side runs in its own subprocess, on inputs taken from this checkout, with
BLAS at one thread.

- **CLI** (``privbound.cli.main`` in-process, in a scratch directory): on
  each of SEED's benchmark problem files (``perfbench/inputs.py``), in
  nats and in bits, ``bounds``; ``mechanize`` for each of VARIANTS, with
  the mechanism file it writes; ``verify`` on that file, with and without
  ``--decompose``; and ``sweep`` on the benchmark's grid, with its CSV.
  Exit codes, stderr, report keys and their order, and written files must
  be equal; report numbers may differ by NUMBER_TOL (relative to their size
  where that exceeds 1).
- **Search**: the sandwich check of every problem of both benchmark banks
  at SEED, of the small bank again with each budget raised to the trivial
  boundary eps = sum_i I(X_i;Y_i), and of the CRITERION_SEEDS problems of
  acceptance criterion 1 (``tests/helpers.py``). The search's counters and
  best-kernel shape must be equal; its trace, best objective, leakage, a
  fingerprint of its best kernel (the entries' dot product with fixed
  random weights) and the check's other numbers may differ by NUMBER_TOL,
  so a change that only reorders the scoring's floating-point sums passes.
  Where several restarts end within NUMBER_TOL of the best, rounding picks
  which kernel is returned, and no fingerprint is compared.

Prints, per part, the outputs compared and those that differ, with the
first differences; exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from oracle import (  # bench/oracle.py
    BANKS,
    COUNTERS,
    CRITERION_SEEDS,
    ROOT,
    _bank,
    _criterion_problems,
    _import_side,
    export_rev,
    run_worker,
)

SEED = 301  # benchmark bank seed
VARIANTS = ("frl", "esfrl")
NUMBER_TOL = 1e-12
SHOW = 10  # differences printed per part


# -- worker: runs inside one side's source tree ------------------------------------


def _cli(argv: list[str], written: str | None) -> dict:
    """One CLI run: exit code, stderr, the report (JSON when it parses) and
    the text of the file it was asked to write."""
    from privbound import cli

    if written is not None and os.path.exists(written):
        os.remove(written)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    try:
        report = json.loads(out.getvalue())
    except json.JSONDecodeError:
        report = out.getvalue()
    text = None
    if written is not None and os.path.exists(written):
        with open(written, encoding="utf-8") as fh:
            text = fh.read()
    return {"exit": code, "stderr": err.getvalue(), "report": report, "file": text}


def worker_cli() -> dict:
    import inputs

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)  # relative paths: both sides print the same names
        for i in range(inputs.CLI_FILES):
            regime, spec = inputs.cli_problem(SEED, i)
            grid, _ = inputs.sweep_spec(spec)
            for units in ("nats", "bits"):
                doc = inputs.problem_document(spec)
                doc["options"]["log_display"] = units
                with open("problem.json", "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                runs = {"bounds": (["bounds", "problem.json"], None)}
                for v in VARIANTS:
                    mech = f"{v}.mech.json"
                    runs[f"mechanize {v}"] = (["mechanize", "problem.json", "--out", mech, "--variant", v], mech)
                    runs[f"verify {v}"] = (["verify", "problem.json", mech], None)
                    runs[f"verify --decompose {v}"] = (["verify", "problem.json", mech, "--decompose"], None)
                runs["sweep"] = (["sweep", "problem.json", "--eps", grid, "--csv", "sweep.csv"], "sweep.csv")
                for name, (argv, written) in runs.items():
                    out[f"{i:02d}-{regime} {units} {name}"] = _cli(argv, written)
    return out


def _search_record(report) -> dict:
    """A sandwich check: its search's numbers, kernel fingerprint and
    counters, and the check's other numbers."""
    res = report.search
    table = res.best_kernel.table
    weights = np.random.default_rng(0).random(table.size)
    tol = NUMBER_TOL * max(1.0, abs(res.best_objective))
    tied = sum(abs(v - res.best_objective) <= tol for v in res.trace) > 1
    return {
        "search": {
            "trace": list(res.trace),
            "best_objective": res.best_objective,
            "leakage_at_best": res.leakage_at_best,
            "kernel_shape": list(table.shape),
            "kernel_fingerprint": None if tied else float(table.ravel() @ weights),
            **{name: getattr(res, name) for name in COUNTERS if hasattr(res, name)},
        },
        "lower": report.lower,
        "mech_objective": report.mech_objective,
        "upper": report.upper,
        "ok": report.ok,
    }


def worker_search(oracle) -> dict:
    from privbound.model import Problem, validate

    banks = {bank: _bank(SEED, large) for bank, large in BANKS.items()}
    banks["sandwich_small_trivial"] = [Problem(p.components, p.users, validate(p).total_mi, p.sfrl_constant)
                                       for p in banks["sandwich_small"]]
    banks["criterion_1"] = _criterion_problems(CRITERION_SEEDS)
    return {f"{bank} {i}": _search_record(oracle.sandwich_check(p, oracle.OracleConfig(seed=0)))
            for bank, problems in banks.items() for i, p in enumerate(problems)}


def worker_main(args: argparse.Namespace) -> None:
    oracle = _import_side(os.path.join(args.side, "src"))
    result = worker_cli() if args.worker == "cli" else worker_search(oracle)
    json.dump(result, sys.stdout)


# -- coordinator ---------------------------------------------------------------------


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def differences(a, b, where: str = "", moved: list | None = None) -> list[str]:
    """Where two outputs differ; ``moved`` collects |a - b| of the report
    numbers that differ within NUMBER_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [f"{where}: keys {list(a)} != {list(b)}"]
        return [d for k in a for d in differences(a[k], b[k], f"{where}.{k}", moved)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} != {len(b)} entries"]
        return [d for k, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{where}[{k}]", moved)]
    if _is_number(a) and _is_number(b) and (isinstance(a, float) or isinstance(b, float)):
        gap = abs(a - b)
        if not gap <= NUMBER_TOL * max(1.0, abs(a), abs(b)) and a != b:
            return [f"{where}: {a!r} != {b!r}"]
        if gap and moved is not None:
            moved.append(gap)
        return []
    if a != b or type(a) is not type(b):
        return [f"{where}: {str(a)[:60]!r} != {str(b)[:60]!r}"]
    return []


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before")
    ap.add_argument("--worker", choices=("cli", "search"), help=argparse.SUPPRESS)
    ap.add_argument("--side", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker_main(args)
        return
    if not args.before:
        ap.error("--before is required")

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"before": os.path.join(tmp, "before"), "after": ROOT}
        sha = export_rev(args.before, roots["before"])
        outputs = {part: {name: run_worker(root, part, __file__) for name, root in roots.items()}
                   for part in ("cli", "search")}

    print(f"before {sha[:12]}, after the working tree, seed {SEED}")
    failed = False
    for part, sides in outputs.items():
        before, after = sides["before"], sides["after"]
        moved: list[float] = []
        found = []
        for item in sorted(before.keys() | after.keys()):
            if item not in before or item not in after:
                found.append(f"{item}: only on the {'after' if item in after else 'before'} side")
                continue
            diffs = differences(before[item], after[item], item, moved)
            if diffs:
                found.append(diffs[0])
        largest = f", largest {max(moved):.3g}" if moved else ""
        print(f"{part}: {len(after)} outputs compared, {len(found)} differ; "
              f"{len(moved)} numbers moved within tolerance{largest}")
        for line in found[:SHOW]:
            print(f"  {line}")
        failed = failed or bool(found)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
