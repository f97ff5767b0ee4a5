"""Command-line surface: problem files in, reports/mechanisms/CSV out.

Problem files are JSON with schema tag "privbound/1":

    {
      "schema": "privbound/1",
      "components": [
        {"name": "c0", "matrix": [[0.45, 0.05], [0.05, 0.45]],
         "labels_x": ["a", "b"], "labels_y": ["0", "1"]}
      ],
      "users": [{"demands": [0], "weight": 1.0}],
      "epsilon": 0.1,
      "options": {"log_display": "nats", "sfrl_constant": 4}
    }

Matrices are row-major joint tables P(x, y) with x on the rows. All
computation is in nats; "log_display": "bits" only rescales the numbers in
emitted reports. Exit codes: 0 success, 2 schema error, 3 invariant or
regime violation, 4 mechanism/problem alphabet mismatch.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from . import mechanisms, oracle, probcore
from .errors import (
    AlphabetMismatchError,
    PrivboundError,
    RegimeError,
    SchemaError,
    SizeCapError,
    ValidationError,
    is_number,
    want,
)
from .model import Component, Problem, ProblemStats, User, trivial_optimum, validate
from .probcore import Joint2

PROBLEM_SCHEMA = "privbound/1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_ALPHABET = 4


# ---------------------------------------------------------------------------
# Problem-file parsing
# ---------------------------------------------------------------------------


def _labels(entry: dict, key: str, size: int, where: str) -> tuple[str, ...] | None:
    """Optional axis labels ``entry[key]``: a list of ``size`` strings."""
    if key not in entry:
        return None
    labels = entry[key]
    if not isinstance(labels, list) or len(labels) != size or not all(isinstance(v, str) for v in labels):
        raise SchemaError(f"{where}.{key}: expected a list of {size} strings")
    return tuple(labels)


def parse_problem(doc: Any) -> tuple[Problem, dict]:
    """Parse a problem document; returns (problem, options)."""
    if not isinstance(doc, dict):
        raise SchemaError("problem file: top level must be a JSON object")
    schema = doc.get("schema")
    if schema != PROBLEM_SCHEMA:
        raise SchemaError(f"problem file: schema must be {PROBLEM_SCHEMA!r}, got {schema!r}")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("options: expected an object")
    log_display = options.get("log_display", "nats")
    if log_display not in ("nats", "bits"):
        raise SchemaError(f"options.log_display: must be 'nats' or 'bits', got {log_display!r}")
    sfrl_constant = options.get("sfrl_constant", 4)
    if not is_number(sfrl_constant) or not math.isfinite(sfrl_constant):
        raise SchemaError("options.sfrl_constant: expected a finite number")

    comps_doc = want(doc, "components", list, "problem file")
    users_doc = want(doc, "users", list, "problem file")
    epsilon = want(doc, "epsilon", float, "problem file")
    if not comps_doc:
        raise SchemaError("components: must be a non-empty list")
    if not users_doc:
        raise SchemaError("users: must be a non-empty list")

    components = []
    for idx, entry in enumerate(comps_doc):
        where = f"components[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        name = entry.get("name", f"c{idx}")
        matrix = want(entry, "matrix", list, where)
        if not matrix or not all(isinstance(r, list) for r in matrix):
            raise SchemaError(f"{where}.matrix: expected a non-empty list of rows")
        width = len(matrix[0])
        for r, row in enumerate(matrix):
            if len(row) != width:
                raise SchemaError(
                    f"{where}.matrix: row {r} has {len(row)} entries, row 0 has {width}"
                )
            for v in row:
                if not is_number(v):
                    raise SchemaError(f"{where}.matrix: row {r} contains a non-number")
        labels_x = _labels(entry, "labels_x", len(matrix), where)
        labels_y = _labels(entry, "labels_y", width, where)
        try:
            components.append(
                Component(
                    name=str(name),
                    joint=Joint2(np.asarray(matrix, dtype=float)),
                    labels_x=labels_x,
                    labels_y=labels_y,
                )
            )
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from e

    users = []
    for idx, entry in enumerate(users_doc):
        where = f"users[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        demands = want(entry, "demands", list, where)
        weight = want(entry, "weight", float, where)
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in demands):
            raise SchemaError(f"{where}.demands: expected a list of integers")
        try:
            users.append(User(demands=tuple(demands), weight=weight))
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from e

    try:
        problem = Problem(
            components=tuple(components),
            users=tuple(users),
            epsilon=epsilon,
            sfrl_constant=float(sfrl_constant),
        )
    except ValidationError as e:
        raise ValidationError(f"problem file: {e}") from e
    return problem, {"log_display": log_display, "sfrl_constant": float(sfrl_constant)}


def problem_to_dict(p: Problem, options: dict | None = None) -> dict:
    """Serialize a problem back to the file schema (round-trip stable)."""
    options = dict(options or {})
    doc: dict = {
        "schema": PROBLEM_SCHEMA,
        "components": [],
        "users": [
            {"demands": list(u.demands), "weight": u.weight} for u in p.users
        ],
        "epsilon": p.epsilon,
        "options": {
            "log_display": options.get("log_display", "nats"),
            "sfrl_constant": p.sfrl_constant,
        },
    }
    for c in p.components:
        entry: dict = {
            "name": c.name,
            "matrix": [[float(v) for v in row] for row in c.joint.table],
        }
        if c.labels_x is not None:
            entry["labels_x"] = list(c.labels_x)
        if c.labels_y is not None:
            entry["labels_y"] = list(c.labels_y)
        doc["components"].append(entry)
    return doc


def load_problem(path: str) -> tuple[Problem, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"problem file {path!r} not found")
    except json.JSONDecodeError as e:
        raise SchemaError(f"problem file {path!r}: invalid JSON at line {e.lineno}: {e.msg}")
    return parse_problem(doc)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _scale_factor(options: dict) -> float:
    return 1.0 / math.log(2.0) if options.get("log_display") == "bits" else 1.0


def _stats_block(stats: ProblemStats, scale: float) -> list[dict]:
    out = []
    for s in stats:
        out.append(
            {
                "name": s.name,
                "hX": s.hX * scale,
                "hY": s.hY * scale,
                "hY_given_X": s.hY_given_X * scale,
                "hX_given_Y": s.hX_given_Y * scale,
                "iXY": s.iXY * scale,
                "mu": s.mu,
                "s1": s.s1 * scale,
                "s2": s.s2 * scale,
                "delta": s.delta * scale,
                "gamma": s.gamma,
            }
        )
    return out


def bounds_report(p: Problem, options: dict) -> dict:
    stats = validate(p)
    scale = _scale_factor(options)
    doc: dict = {
        "schema": "privbound/1-report",
        "units": options.get("log_display", "nats"),
        "epsilon": p.epsilon * scale,
        "regime": {
            "trivial": stats.trivial,
            "deterministic": stats.deterministic,
            "perfect_privacy": p.epsilon == 0.0 and not stats.trivial,
        },
        "total_mutual_information": stats.total_mi * scale,
        "components": _stats_block(stats, scale),
    }
    if stats.trivial:
        value = trivial_optimum(p, stats) * scale
        doc["trivial_value"] = value
        doc["bounds"] = {"upper": value, "lower": value}
        return doc
    rep = bounds_mod.compute_bounds(p, stats)
    doc["bounds"] = {
        "upper": rep.upper * scale,
        "lower_frl": rep.lower_frl * scale,
        "lower_sfrl": rep.lower_sfrl * scale,
        "lower": rep.lower * scale,
        "gap": rep.gap_formula * scale,
    }
    if rep.beta is not None:
        doc["bounds"]["beta"] = [b * scale for b in rep.beta]
    if rep.perfect_privacy:
        doc["perfect_privacy"] = {
            "upper": rep.pp_upper * scale,
            "u1": [v * scale for v in rep.pp_u1],
            "u2": [v * scale for v in rep.pp_u2],
        }
    if rep.exact is not None:
        doc["deterministic_exact"] = rep.exact * scale
    return doc


def mechanism_report(p: Problem, mech: mechanisms.ComposedMechanism, options: dict) -> dict:
    scale = _scale_factor(options)
    rep = mechanisms.evaluate_composed(p, mech)
    doc = {
        "schema": "privbound/1-report",
        "units": options.get("log_display", "nats"),
        "leakage": rep.leakage * scale,
        "utilities": [u * scale for u in rep.utilities],
        "objective": rep.objective * scale,
        "h_y_given_xu": rep.h_y_given_xu * scale,
        "cardinality": rep.cardinality,
        "per_component_leakage": [v * scale for v in rep.per_component_leakage],
        "per_component_utility": [v * scale for v in rep.per_component_utility],
    }
    if mech.allocation is not None:
        doc["allocation"] = {
            "eps_per_component": [v * scale for v in mech.allocation.eps_per_component],
            "variant": mech.allocation.variant,
            "target": mech.allocation.target,
            "overflow": mech.allocation.overflow * scale,
        }
    return doc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    _emit(bounds_report(p, options))
    return EXIT_OK


def cmd_mechanize(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    stats = validate(p)
    if stats.trivial:
        raise RegimeError(
            f"mechanize requires epsilon < total mutual information "
            f"({p.epsilon} >= {stats.total_mi})"
        )
    alloc = bounds_mod.allocate_epsilon(p, stats, args.variant)
    mech = mechanisms.compose_multiuser(p, alloc)
    rep = mechanisms.evaluate_composed(p, mech)
    if abs(rep.leakage - alloc.total) > 1e-9:
        raise PrivboundError(
            f"constructed leakage {rep.leakage} deviates from allocated {alloc.total}"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(mechanisms.mechanism_to_dict(p, mech), fh, indent=2)
        fh.write("\n")
    _emit(mechanism_report(p, mech, options))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    try:
        with open(args.mechanism, "r", encoding="utf-8") as fh:
            mdoc = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"mechanism file {args.mechanism!r} not found")
    except json.JSONDecodeError as e:
        raise SchemaError(f"mechanism file: invalid JSON at line {e.lineno}: {e.msg}")
    mech = mechanisms.mechanism_from_dict(mdoc, p)
    doc = mechanism_report(p, mech, options)
    if args.decompose:
        scale = _scale_factor(options)
        mono = mechanisms.materialize_monolithic(p, mech)
        _, dchecks = mechanisms.decompose_transform(p, mono)
        _, tchecks = mechanisms.refine_transform(p, mono)
        doc["decompose"] = {
            "leakage_original": dchecks.leakage_original * scale,
            "leakage_bar": dchecks.leakage_bar * scale,
            "markov_residual": dchecks.markov_residual * scale,
            "independence_residual": dchecks.independence_residual * scale,
        }
        doc["refine"] = {
            "leakage_original": tchecks.leakage_original * scale,
            "leakage_star": tchecks.leakage_star * scale,
            "user_utility_original": [v * scale for v in tchecks.user_utility_original],
            "user_utility_star": [v * scale for v in tchecks.user_utility_star],
            "user_slack": [v * scale for v in tchecks.user_slack],
        }
    _emit(doc)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    p, _options = load_problem(args.file)
    cfg = oracle.OracleConfig(
        card_u=args.card_u, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    report = oracle.sandwich_check(p, cfg)
    rows = [
        ("lower", report.lower),
        ("mech_objective", report.mech_objective),
        ("oracle_best", report.oracle_best),
        ("upper", report.upper),
    ]
    for name, value in rows:
        sys.stdout.write(f"{name:<16}{value:.12g}\n")
    if report.exact is not None:
        sys.stdout.write(f"{'exact':<16}{report.exact:.12g}\n")
    sys.stdout.write(f"{'trivial':<16}{str(report.trivial).lower()}\n")
    sys.stdout.write(f"{'ok':<16}{str(report.ok).lower()}\n")
    return EXIT_OK


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError(f"--eps must look like from:to:step, got {spec!r}")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise SchemaError(f"--eps must contain numbers, got {spec!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise SchemaError(f"--eps must contain finite numbers, got {spec!r}")
    if start < 0.0 or step <= 0.0:
        raise SchemaError(f"--eps requires from >= 0 and step > 0, got {spec!r}")
    if stop < start:
        raise SchemaError(f"--eps grid is empty: {spec!r}")
    # the count is checked before the grid is built; an overflowing span
    # (huge range over a tiny step) is over the cap too
    span = (stop - start) / step + 1e-9
    cap = probcore.size_cap()
    if not span < cap:
        raise SchemaError(f"--eps grid has more than {cap} points: {spec!r}")
    n = int(math.floor(span)) + 1
    return [start + k * step for k in range(n)]


def cmd_sweep(args: argparse.Namespace) -> int:
    p, _options = load_problem(args.file)
    grid = _parse_grid(args.eps)
    # the component statistics do not depend on eps; only the trivial flag does
    base = validate(p)
    rows = []
    for eps in grid:
        pe = Problem(p.components, p.users, eps, p.sfrl_constant)
        stats = dataclasses.replace(base, trivial=pe.epsilon >= base.total_mi)
        if stats.trivial:
            value = trivial_optimum(pe, stats)
            rows.append((eps, value, value, value, value, value))
            continue
        rep = bounds_mod.compute_bounds(pe, stats)
        mech_obj = oracle._mechanize_objective(pe, stats)
        rows.append((eps, rep.upper, rep.lower_frl, rep.lower_sfrl, rep.lower, mech_obj))
    with open(args.csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "upper", "lower_frl", "lower_sfrl", "lower", "mech_objective"])
        for row in rows:
            writer.writerow([f"{v:.12g}" for v in row])
    sys.stdout.write(f"wrote {len(rows)} rows to {args.csv}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privbound",
        description="Bounds, mechanisms and search for budgeted multi-user disclosure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute the bounds report for a problem file")
    b.add_argument("file")
    b.set_defaults(func=cmd_bounds)

    m = sub.add_parser("mechanize", help="construct and save a composed mechanism")
    m.add_argument("file")
    m.add_argument("--out", required=True, help="output mechanism JSON path")
    m.add_argument("--variant", choices=("frl", "esfrl"), default="frl")
    m.set_defaults(func=cmd_mechanize)

    v = sub.add_parser("verify", help="re-evaluate a saved mechanism against a problem")
    v.add_argument("file")
    v.add_argument("mechanism")
    v.add_argument("--decompose", action="store_true", help="run the decomposition checks")
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("oracle", help="search for a good mechanism and print the sandwich table")
    o.add_argument("file")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--restarts", type=int, default=6)
    o.add_argument("--iters", type=int, default=48)
    o.add_argument("--card-u", dest="card_u", type=int, default=None)
    o.set_defaults(func=cmd_oracle)

    s = sub.add_parser("sweep", help="evaluate bounds over an epsilon grid into a CSV")
    s.add_argument("file")
    s.add_argument("--eps", required=True, help="grid as from:to:step")
    s.add_argument("--csv", required=True, help="output CSV path")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return EXIT_SCHEMA
    except AlphabetMismatchError as e:
        sys.stderr.write(f"alphabet mismatch: {e}\n")
        return EXIT_ALPHABET
    except (ValidationError, RegimeError, SizeCapError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVARIANT
    except PrivboundError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
