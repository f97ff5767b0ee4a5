"""The benchmark's workloads: seeded ops on the library's public API, each
with an output check.

An op is one sandwich check, one CLI command or one transform call. A
workload is a fixed list of ops that the run repeats in passes. The
``closed_form`` workload holds both the CLI commands and the transform
calls: neither calls the oracle search. The checks record the value each
op achieves (and, on ``closed_form``, the bound reports); every pass
produces the same outputs, so the numbers taken from them do not depend on
how many passes a run makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import inputs
from privbound import cli, mechanisms, oracle

LEAK_TOL = 1e-9       # mechanize leakage vs allocation; transform leak diffs and margins
RESID_TOL = 1e-10     # mechanize H(Y|X,U)
VERIFY_TOL = 1e-12    # verify vs mechanize objective


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # value in nats each op achieved

    def warmup(self) -> list[Op]:
        """The first op of each kind."""
        first: dict[str, Op] = {}
        for op in self.ops:
            first.setdefault(op.kind, op)
        return list(first.values())

    def summary(self) -> dict:
        """Quality numbers from the recorded outputs."""
        return {"search_value": math.fsum(self.values.values()) / len(self.values)}


# -- sandwich ---------------------------------------------------------------------


def _sandwich_op(wl: Workload, p, i: int) -> Op:
    def run():
        return oracle.sandwich_check(p, oracle.OracleConfig(seed=0))

    def check(report) -> bool:
        wl.values[i] = report.oracle_best
        return report.ok

    return Op("sandwich", run, check)


def build_sandwich(seed: int, workdir: str, large: bool, scale: float) -> Workload:
    wl = Workload()
    wl.ops = [_sandwich_op(wl, p, i) for i, p in enumerate(inputs.sandwich_problems(seed, large, scale))]
    return wl


# -- CLI --------------------------------------------------------------------------


def cli_call(argv: list[str]) -> tuple[int, str]:
    """``privbound.cli.main`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects a command line
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def _cli_ops(wl: "ClosedFormWorkload", workdir: str, tag: str, spec: dict) -> list[Op]:
    """bounds, mechanize + verify (frl, esfrl) and sweep on one problem file."""
    path = os.path.join(workdir, f"{tag}.json")
    inputs.write_problem(path, spec)
    grid, points = inputs.sweep_spec(spec)
    csv_path = os.path.join(workdir, f"{tag}.csv")

    def bounds_check(res) -> bool:
        code, text = res
        if code != 0:
            return False
        doc = json.loads(text)
        wl.reports[(tag, "bounds")] = doc
        return all(math.isfinite(doc["bounds"][k]) for k in ("upper", "lower"))

    ops = [Op("bounds", lambda: cli_call(["bounds", path]), bounds_check)]
    for variant in ("frl", "esfrl"):
        mech_path = os.path.join(workdir, f"{tag}.{variant}.mech.json")
        key = (tag, variant)

        def mech_check(res, key=key) -> bool:
            code, text = res
            wl.values.pop(key, None)
            if code != 0:
                return False
            doc = json.loads(text)
            wl.values[key] = float(doc["objective"])
            allocated = sum(doc["allocation"]["eps_per_component"])
            return abs(doc["leakage"] - allocated) <= LEAK_TOL and doc["h_y_given_xu"] <= RESID_TOL

        def verify_check(res, key=key) -> bool:
            code, text = res
            if code != 0 or key not in wl.values:
                return False
            return abs(json.loads(text)["objective"] - wl.values[key]) <= VERIFY_TOL

        argv_m = ["mechanize", path, "--out", mech_path, "--variant", variant]
        argv_v = ["verify", path, mech_path]
        ops.append(Op("mechanize", lambda a=argv_m: cli_call(a), mech_check))
        ops.append(Op("verify", lambda a=argv_v: cli_call(a), verify_check))

    def sweep_check(res) -> bool:
        code, _ = res
        if code != 0:
            return False
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        wl.reports[(tag, "sweep")] = rows
        return len(rows) == points

    argv_s = ["sweep", path, "--eps", grid, "--csv", csv_path]
    ops.append(Op("sweep", lambda: cli_call(argv_s), sweep_check))
    return ops


@dataclass
class ClosedFormWorkload(Workload):
    reports: dict = field(default_factory=dict)  # bounds reports and sweep rows per file

    def inverted_rows(self) -> tuple[int, list[dict]]:
        """Non-trivial bound rows, and those with lower > upper.

        Rows are each file's ``bounds`` report (when not trivial) and its
        sweep rows below the trivial boundary eps >= sum_i I(X_i;Y_i). No
        file or grid point is left out.
        """
        total = 0
        inverted = []
        for (tag, what), doc in sorted(self.reports.items()):
            if what != "bounds":
                continue
            rows = []
            if not doc["regime"]["trivial"]:
                rows.append(("bounds", doc["epsilon"], doc["bounds"]["lower"], doc["bounds"]["upper"]))
            for r in self.reports.get((tag, "sweep"), []):
                eps, upper, lower = float(r[0]), float(r[1]), float(r[4])
                if eps < doc["total_mutual_information"]:
                    rows.append(("sweep", eps, lower, upper))
            total += len(rows)
            inverted += [{"file": tag, "source": source, "epsilon": eps, "lower": lower, "upper": upper}
                         for source, eps, lower, upper in rows if lower > upper]
        return total, inverted

    def summary(self) -> dict:
        total, inverted = self.inverted_rows()
        out = super().summary()
        out.update(bounds_inverted_frac=len(inverted) / total if total else 0.0,
                   bounds_rows=total, inverted=inverted)
        return out


# -- transforms -----------------------------------------------------------------------


def _transform_ops(wl: Workload, p, k, i: int) -> list[Op]:
    reference = inputs.kernel_leakage(p, k)

    def eval_check(rep) -> bool:
        return abs(rep.leakage - reference) <= LEAK_TOL

    def decompose_check(res) -> bool:
        _, checks = res
        return (abs(checks.leakage_original - checks.leakage_bar) <= LEAK_TOL
                and checks.markov_residual <= LEAK_TOL)

    def refine_check(res) -> bool:
        _, checks = res
        wl.values[("refine", i)] = math.fsum(u.weight * v for u, v in zip(p.users, checks.user_utility_star))
        margin = max(o - s - d for o, s, d in zip(
            checks.user_utility_original, checks.user_utility_star, checks.user_slack))
        return abs(checks.leakage_star - checks.leakage_original) <= LEAK_TOL and margin <= LEAK_TOL

    return [
        Op("evaluate_monolithic", lambda: mechanisms.evaluate_monolithic(p, k), eval_check),
        Op("decompose_transform", lambda: mechanisms.decompose_transform(p, k), decompose_check),
        Op("refine_transform", lambda: mechanisms.refine_transform(p, k), refine_check),
    ]


def build_closed_form(seed: int, workdir: str, scale: float) -> Workload:
    """CLI commands on the regime files, then the transforms on random kernels."""
    wl = ClosedFormWorkload()
    for i in range(max(len(inputs.REGIMES), int(inputs.CLI_FILES * scale))):
        regime, spec = inputs.cli_problem(seed, i)
        wl.ops += _cli_ops(wl, workdir, f"{i:02d}-{regime}", spec)
    for i in range(max(1, int(inputs.TRANSFORM_CASES * scale))):
        wl.ops += _transform_ops(wl, *inputs.transform_case(seed, i), i)
    return wl


WORKLOADS = {
    "sandwich_small": lambda seed, d, scale: build_sandwich(seed, d, False, scale),
    "sandwich_large": lambda seed, d, scale: build_sandwich(seed, d, True, scale),
    "closed_form": build_closed_form,
}
