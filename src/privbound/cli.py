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
computation is in nats: each report (bounds, mechanism, verify blocks, the
oracle table, the sweep CSV) is assembled in nats from its dataclasses,
and "log_display": "bits" rescales it once, in ``_in_units``, on output.
Saved mechanism files stay in nats. Exit codes: 0 success, 2 schema error,
3 invariant or regime violation, 4 mechanism/problem alphabet mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from dataclasses import fields
from typing import Any, Iterator, TextIO

import numpy as np

from . import bounds as bounds_mod
from . import mechanisms, oracle, probcore
from .errors import (
    AlphabetMismatchError,
    PrivboundError,
    RegimeError,
    SchemaError,
    ValidationError,
    is_number,
    kind_name,
    want,
)
from .model import Component, Problem, User, validate
from .probcore import Joint2

PROBLEM_SCHEMA = "privbound/1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_ALPHABET = 4

# how far a measured leakage may sit from the budget share it was built for
LEAKAGE_TOL = 1e-9


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
                    raise SchemaError(f"{where}.matrix: row {r} contains {kind_name(v)}, not a number")
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


def _load_json(path: str, what: str) -> Any:
    """The JSON document in ``path``; SchemaError naming the ``what`` file
    and its path when it is missing, cannot be read (a directory, say), is
    not UTF-8 text or is not valid JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{what} file {path!r} not found")
    except OSError as e:
        raise SchemaError(f"{what} file {path!r}: cannot read: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{what} file {path!r}: not UTF-8 text (byte {e.start})")
    except json.JSONDecodeError as e:
        raise SchemaError(f"{what} file {path!r}: invalid JSON at line {e.lineno}: {e.msg}")


@contextlib.contextmanager
def _output(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open for writing as UTF-8 text; SchemaError saying it
    cannot be written when opening or writing it fails."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as e:
        raise SchemaError(f"cannot write {path!r}: {e.strerror or e}")


def load_problem(path: str) -> tuple[Problem, dict]:
    return parse_problem(_load_json(path, "problem"))


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


# report keys whose numbers are not information quantities: never rescaled
DIMENSIONLESS = frozenset({"mu", "gamma"})


def _in_units(value: Any, options: dict) -> Any:
    """A report part assembled in nats, in the file's ``log_display`` units.

    For bits, every float is multiplied by 1/ln 2, except the values under
    DIMENSIONLESS keys; dicts, lists and tuples are rebuilt, and ints,
    bools, strings and None kept as they are. For nats, ``value`` itself.
    """
    if options.get("log_display") != "bits":
        return value
    scale = 1.0 / math.log(2.0)

    def convert(v: Any, key: str | None = None) -> Any:
        if key in DIMENSIONLESS:
            return v
        if isinstance(v, dict):
            return {k: convert(item, k) for k, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [convert(item) for item in v]
        return v * scale if isinstance(v, float) else v

    return convert(value)


def _fields(obj: Any) -> dict:
    """A dataclass's fields by name, in order; unlike ``asdict``, copies no value."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def bounds_report(p: Problem, options: dict) -> dict:
    """Statistics and bounds of a problem, in the file's display units."""
    stats = validate(p)
    rep = bounds_mod.compute_bounds(p, stats)
    doc: dict = {
        "schema": "privbound/1-report",
        "units": options.get("log_display", "nats"),
        "epsilon": p.epsilon,
        "regime": {
            "trivial": rep.trivial,
            "deterministic": stats.deterministic,
            "perfect_privacy": rep.perfect_privacy,
        },
        "total_mutual_information": stats.total_mi,
        "components": [_fields(s) for s in stats],
    }
    if rep.trivial:
        doc["trivial_value"] = rep.upper
        doc["bounds"] = {"upper": rep.upper, "lower": rep.lower}
    else:
        doc["bounds"] = {
            "upper": rep.upper,
            "lower_frl": rep.lower_frl,
            "lower_sfrl": rep.lower_sfrl,
            "lower": rep.lower,
            "gap": rep.gap_formula,
        }
    if rep.beta is not None:
        doc["bounds"]["beta"] = rep.beta
    if rep.perfect_privacy:
        doc["perfect_privacy"] = {"upper": rep.upper, "u1": rep.pp_u1, "u2": rep.pp_u2}
    if rep.exact is not None:
        doc["deterministic_exact"] = rep.exact
    return _in_units(doc, options)


def mechanism_report(
    rep: mechanisms.MechanismReport, allocation: bounds_mod.Allocation | None, options: dict
) -> dict:
    """An evaluated mechanism and its budget split, in the file's display units."""
    doc = {
        "schema": "privbound/1-report",
        "units": options.get("log_display", "nats"),
        **_fields(rep),
    }
    if allocation is not None:
        doc["allocation"] = _fields(allocation)
    return _in_units(doc, options)


def _report_text(doc: dict) -> str:
    """A report as strict JSON. Weights or an sfrl_constant near the float
    range can overflow its numbers to inf or NaN, which JSON cannot hold:
    PrivboundError (exit 3)."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise PrivboundError("a report number overflows the float range: "
                             "the weights or sfrl_constant are too large") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    sys.stdout.write(_report_text(bounds_report(p, options)))
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
    if abs(rep.leakage - alloc.total) > LEAKAGE_TOL:
        raise PrivboundError(
            f"constructed leakage {rep.leakage} deviates from allocated {alloc.total}"
        )
    report = _report_text(mechanism_report(rep, alloc, options))
    with _output(args.out) as fh:
        json.dump(mechanisms.mechanism_to_dict(p, mech), fh, indent=2)
        fh.write("\n")
    sys.stdout.write(report)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    mech = mechanisms.mechanism_from_dict(_load_json(args.mechanism, "mechanism"), p)
    rep = mechanisms.evaluate_composed(p, mech)
    if mech.allocation is not None:
        shares = mech.allocation.eps_per_component
        for c, share, leak in zip(p.components, shares, rep.per_component_leakage):
            if abs(share - leak) > LEAKAGE_TOL:
                raise PrivboundError(
                    f"component {c.name!r}: allocated share {share} deviates from "
                    f"its measured leakage {leak}"
                )
    doc = mechanism_report(rep, mech.allocation, options)
    if args.decompose:
        dchecks, tchecks = mechanisms._transform_checks(p, mechanisms.materialize_monolithic(p, mech))
        doc.update(_in_units({"decompose": _fields(dchecks), "refine": _fields(tchecks)}, options))
    sys.stdout.write(_report_text(doc))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    cfg = oracle.OracleConfig(
        card_u=args.card_u, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    report = oracle.sandwich_check(p, cfg)
    rows = {
        "lower": report.lower,
        "mech_objective": report.mech_objective,
        "oracle_best": report.oracle_best,
        "upper": report.upper,
    }
    if report.exact is not None:
        rows["exact"] = report.exact
    for name, value in _in_units(rows, options).items():
        sys.stdout.write(f"{name:<16}{value:.12g}\n")
    sys.stdout.write(f"{'trivial':<16}{str(report.trivial).lower()}\n")
    sys.stdout.write(f"{'ok':<16}{str(report.ok).lower()}\n")
    return EXIT_OK


def _parse_grid(spec: str) -> tuple[float, float, int]:
    """The ``--eps`` grid from:to:step as (start, step, n): its points are
    start + k * step for k < n."""
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
    # the count is checked before any point is formed; an overflowing span
    # (huge range over a tiny step) is over the cap too
    span = (stop - start) / step + 1e-9
    cap = probcore.size_cap()
    if not span < cap:
        raise SchemaError(f"--eps grid has more than {cap} points: {spec!r}")
    return start, step, int(math.floor(span)) + 1


# grid points a sweep evaluates and writes at a time, so its memory does not
# grow with the grid
SWEEP_CHUNK = 4096


def cmd_sweep(args: argparse.Namespace) -> int:
    p, options = load_problem(args.file)
    start, step, n = _parse_grid(args.eps)
    # the component statistics do not depend on eps; the refinement profile,
    # which the canonical objective reads only below the trivial boundary,
    # is built iff the grid starts below it
    stats = validate(p)
    profile = mechanisms.refinement_profile(p) if start < stats.total_mi else None
    with _output(args.csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "upper", "lower_frl", "lower_sfrl", "lower", "mech_objective"])
        for lo in range(0, n, SWEEP_CHUNK):
            eps = start + np.arange(lo, min(lo + SWEEP_CHUNK, n)) * step
            b = bounds_mod.bound_values(p, stats, eps)
            columns = (eps, b["upper"], b["lower_frl"], b["lower_sfrl"], b["lower"],
                       mechanisms.canonical_objective(p, stats, profile, eps))
            for row in _in_units(list(zip(*(c.tolist() for c in columns))), options):
                writer.writerow([f"{v:.12g}" for v in row])
    sys.stdout.write(f"wrote {n} rows to {args.csv}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. ``main`` runs the
    ``cmd_<command>`` it names, looked up at call time."""
    parser = argparse.ArgumentParser(
        prog="privbound",
        description="Bounds, mechanisms and search for budgeted multi-user disclosure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute the bounds report for a problem file")
    b.add_argument("file")

    m = sub.add_parser("mechanize", help="construct and save a composed mechanism")
    m.add_argument("file")
    m.add_argument("--out", required=True, help="output mechanism JSON path")
    m.add_argument("--variant", choices=tuple(bounds_mod.VARIANTS), default="frl")

    v = sub.add_parser("verify", help="re-evaluate a saved mechanism against a problem")
    v.add_argument("file")
    v.add_argument("mechanism")
    v.add_argument("--decompose", action="store_true", help="run the decomposition checks")

    o = sub.add_parser("oracle", help="search for a good mechanism and print the sandwich table")
    o.add_argument("file")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--restarts", type=int, default=6)
    o.add_argument("--iters", type=int, default=48)
    o.add_argument("--card-u", dest="card_u", type=int, default=None)

    s = sub.add_parser("sweep", help="evaluate bounds over an epsilon grid into a CSV")
    s.add_argument("file")
    s.add_argument("--eps", required=True, help="grid as from:to:step")
    s.add_argument("--csv", required=True, help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except SchemaError as e:
        sys.stderr.write(f"schema error: {e}\n")
        return EXIT_SCHEMA
    except AlphabetMismatchError as e:
        sys.stderr.write(f"alphabet mismatch: {e}\n")
        return EXIT_ALPHABET
    except PrivboundError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
