"""Check that a revision and this working tree give the same outputs.

    python3 bench/same_outputs.py --before REV

Both sides load into this one process with ``ab.load_side``: REV's ``src``,
exported with ``git archive``, and this checkout's. Each runs the same
inputs, taken from this checkout and handed to it as plain arrays, and
every output is compared with ``ab.differences``: exit codes, stderr,
report keys and their order, counters and written files must be equal;
numbers may differ by ``ab.NUMBER_TOL`` (relative to their size where that
exceeds 1), so a change that only reorders floating-point sums passes.

- **CLI** (``cli.main``, each side in its own scratch directory): on each of
  ``ab.SEED``'s benchmark problem files (``perfbench/inputs.py``), in nats
  and in bits, ``bounds``; ``mechanize`` for each of ``ab.VARIANTS``, with
  the mechanism file it writes; ``verify`` on that file, with and without
  ``--decompose``; and ``sweep`` on the benchmark's grid, with its CSV.
- **Search**: the sandwich check (``ab.search_record``) of every problem of
  both benchmark banks at ``ab.SEED``, of the small bank again with each
  budget raised to the trivial boundary eps = sum_i I(X_i;Y_i), and of the
  ``ab.CRITERION_SEEDS`` problems of acceptance criterion 1
  (``tests/helpers.py``).
- **Transforms**: on every transform case at each of BANK_SEEDS,
  ``evaluate_monolithic``'s report, the four ``DecompositionChecks`` fields
  of ``decompose_transform`` and the ``RefinementChecks`` of
  ``refine_transform``.
- **Sweeps**: the ``sweep`` CSV of every problem file at each of BANK_SEEDS,
  as numbers, with the largest difference per column.

Prints, per part, the outputs compared and those that differ, with the
first differences; exits 1 on any difference. ``--by-design COUNTER ...``
(``ab.add_by_design``, shared with ``bench/ab.py``) names search counters
(``ab.COUNTERS``) that the change moves on purpose: they are left out of
the comparison (``ab.set_aside``), and their totals are printed per bank
and side instead.
"""

from __future__ import annotations

import argparse
import collections
import csv
import os
import sys
import tempfile

import ab  # bench/ab.py
import inputs  # perfbench/inputs.py

BANK_SEEDS = (301, 302, 303)
SWEEP_COLUMNS = ("epsilon", "upper", "lower_frl", "lower_sfrl", "lower", "mech_objective")


def op_outputs(sides: dict, dirs: dict, specs: list[dict], prefix: str = "") -> list:
    """(item, {side: record}) of every op of ``specs``, from ``ab``'s
    untimed pair."""
    ops = {name: ab.side_ops(side, specs, dirs[name]) for name, side in sides.items()}
    _, recs = ab.first_pair(ops, dirs)
    return [(prefix + op.label, {"before": a, "after": b})
            for op, a, b in zip(ops["after"], recs["before"], recs["after"])]


def search_outputs(sides: dict, dirs: dict):
    """Both banks, the small bank at its trivial boundary eps = sum_i
    I(X_i;Y_i) (taken from the after side), and criterion 1."""
    after = sides["after"]
    validate = ab.module(after, "model").validate
    banks = {"sandwich_small": ab.workload_specs("small", ab.SEED),
             "sandwich_large": ab.workload_specs("large", ab.SEED)}
    banks["sandwich_small_trivial"] = [
        {"problem": {**s["problem"], "epsilon": validate(ab.build_problem(after, s["problem"])).total_mi}}
        for s in banks["sandwich_small"]]
    banks["criterion_1"] = ab.workload_specs("criterion", ab.SEED)
    for bank, specs in banks.items():
        yield from op_outputs(sides, dirs, specs, f"{bank} ")


def cli_outputs(sides: dict, dirs: dict):
    """The benchmark's commands on every problem file, in nats and in bits,
    and ``verify --decompose`` on each mechanism file."""
    for units in ("nats", "bits"):
        specs = ab.workload_specs("closed_form", ab.SEED)[: inputs.CLI_FILES]
        for s in specs:
            s["doc"]["options"]["log_display"] = units
            s["commands"] += [(argv + ["--decompose"], None) for argv, _ in s["commands"] if argv[0] == "verify"]
        yield from op_outputs(sides, dirs, specs, f"{units} ")


def transform_outputs(sides: dict, dirs: dict):
    for seed in BANK_SEEDS:
        yield from op_outputs(sides, dirs, ab.workload_specs("closed_form", seed)[inputs.CLI_FILES:], f"{seed} ")


def sweep_outputs(sides: dict, dirs: dict, largest: dict):
    """Each sweep's exit code, stderr, stdout and rows as numbers;
    ``largest`` collects the largest |difference| per column."""
    for seed in BANK_SEEDS:
        files = ab.workload_specs("closed_form", seed)[: inputs.CLI_FILES]
        specs = [{**s, "commands": s["commands"][-1:]} for s in files]
        for item, recs in op_outputs(sides, dirs, specs, f"{seed} "):
            for rec in recs.values():
                rows = list(csv.reader((rec["file"] or "").splitlines()))[1:]
                rec["file"] = [[float(v) for v in row] for row in rows]
            for k, col in enumerate(SWEEP_COLUMNS):
                gaps = [abs(a[k] - b[k]) for a, b in zip(recs["before"]["file"], recs["after"]["file"])]
                largest[col] = max([largest.get(col, 0.0), *gaps])
            yield item, recs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ab.add_by_design(ap)
    args = ap.parse_args()

    failed = False
    largest: dict = {}
    totals: dict = collections.defaultdict(collections.Counter)
    with tempfile.TemporaryDirectory() as tmp:
        sha, sides = ab.load_sides(args.before, tmp)
        dirs = {name: os.path.join(tmp, name) for name in sides}
        for d in dirs.values():
            os.makedirs(d)
        print(f"before {sha[:12]}, after the working tree")
        parts = {"cli": cli_outputs(sides, dirs), "search": search_outputs(sides, dirs),
                 "transforms": transform_outputs(sides, dirs), "sweeps": sweep_outputs(sides, dirs, largest)}
        for part, items in parts.items():
            compared, found, moved = 0, [], []
            for item, recs in items:
                compared += 1
                for side, rec in recs.items():
                    totals[f"{item.split()[0]} {side}"].update(ab.set_aside(rec, args.by_design))
                found += ab.differences(recs["before"], recs["after"], item, moved)[:1]
            largest_moved = f", largest {max(moved):.3g}" if moved else ""
            print(f"{part}: {compared} outputs compared, {len(found)} differ; "
                  f"{len(moved)} numbers moved within tolerance{largest_moved}")
            for line in found[:ab.SHOW]:
                print(f"  {line}")
            failed = failed or bool(found)
    for col, gap in largest.items():
        print(f"  sweep column {col}: largest difference {gap:.3g}")
    for key, counts in totals.items():
        if counts:
            print(f"  {key}: " + ", ".join(f"{name} {n}" for name, n in counts.items()))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
