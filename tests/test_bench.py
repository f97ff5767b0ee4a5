"""The in-process bench harness (``bench/ab.py``): two loads of one source
tree give the same records op by op, the shared comparer reports a
number moved past its tolerance, counters moved by design are set aside
while traces are still compared, and the search counts derive the
restart-sweeps that formed their marginals."""

import argparse
import copy
import dataclasses
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import ab  # noqa: E402
import inputs  # noqa: E402  perfbench/inputs.py
import sweep_scale  # noqa: E402

from helpers import random_problem  # noqa: E402
from privbound import cli, oracle  # noqa: E402


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """Ops and records of 2 bank problems, 2 CLI files and 1 transform case
    on two loads of the working tree's ``src``."""
    src = os.path.join(ab.ROOT, "src")
    sides = {"before": ab.load_side("bench_test_before", src), "after": ab.load_side("bench_test_after", src)}
    closed_form = ab.workload_specs("closed_form", ab.SEED)
    specs = ab.workload_specs("small", ab.SEED)[:2] + closed_form[:2] + [closed_form[inputs.CLI_FILES]]
    dirs = {name: str(tmp_path_factory.mktemp(name)) for name in sides}
    ops = {name: ab.side_ops(side, specs, dirs[name]) for name, side in sides.items()}
    return ops["after"], ab.first_pair(ops, dirs)[1]


def test_two_loads_agree(pair):
    ops, recs = pair
    cli = ["bounds", "mechanize", "verify", "mechanize", "verify", "sweep"]
    assert [op.kind for op in ops] == ["sandwich"] * 2 + cli * 2 + list(ab.TRANSFORMS)
    for op, a, b in zip(ops, recs["before"], recs["after"]):
        assert a.get("ok", True) and a.get("exit", 0) == 0, op.label
        assert ab.differences(a, b, op.label) == []


@pytest.mark.parametrize("index, path", [(0, ("upper",)), (2, ("report", "bounds", "upper"))])
def test_moved_number_is_a_difference(pair, index, path):
    # a sandwich check's upper bound, and the bounds command's: moved by
    # 1e-9 relative it differs; by 1e-14 it moved within NUMBER_TOL
    a = pair[1]["before"][index]
    for rel, differs in ((1e-9, True), (1e-14, False)):
        b = copy.deepcopy(a)
        leaf = b
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] *= 1 + rel
        within = []
        found = ab.differences(a, b, "r", within)
        assert [d.split(":")[0] for d in found] == (["r." + ".".join(path)] if differs else [])
        assert len(within) == (0 if differs else 1)


def test_search_counts_rows_that_formed_marginals():
    # BATCH candidates per restart-sweep that formed its marginals, one per
    # jump-only restart-sweep; a revision without jump_only counts it as 0
    res = oracle.sandwich_check(random_problem(1), oracle.OracleConfig(restarts=3, iters=12)).search
    older = types.SimpleNamespace(**{f.name: getattr(res, f.name) for f in dataclasses.fields(res)
                                     if f.name != "jump_only"})
    new, old = (ab.search_counts([types.SimpleNamespace(search=s)], oracle.BATCH) for s in (res, older))
    assert new["jump_only"] > 0 and old["jump_only"] == 0
    assert new["formed_rows"] * oracle.BATCH + new["jump_only"] == new["candidates"]
    assert new["full_width_entries"] == 2 * res.best_kernel.table.size * new["formed_rows"]
    assert old["formed_rows"] == res.candidates // oracle.BATCH


def test_by_design_counters_set_aside(pair):
    # a counter moved on purpose: named with --by-design it is left out of
    # both tools' comparison, while a moved trace behind it still differs
    ap = argparse.ArgumentParser()
    ab.add_by_design(ap)
    names = ap.parse_args(["--by-design", "candidates", "jump_only"]).by_design
    with pytest.raises(SystemExit):
        ap.parse_args(["--by-design", "best_objective"])
    a = pair[1]["before"][0]
    b = copy.deepcopy(a)
    b["search"]["candidates"] += 7
    b["search"]["jump_only"] -= 7
    assert [d.split(":")[0] for d in ab.differences(a, b, "r")] == ["r.search.candidates", "r.search.jump_only"]
    a, b = copy.deepcopy(a), copy.deepcopy(b)
    want = {"candidates": a["search"]["candidates"] + 7, "jump_only": a["search"]["jump_only"] - 7}
    assert ab.set_aside(b, names) == want
    assert ab.set_aside(a, names).keys() == want.keys()
    assert ab.differences(a, b, "r") == []
    b["search"]["trace"][0] += 1e-6
    assert [d.split(":")[0] for d in ab.differences(a, b, "r")] == ["r.search.trace[0]"]
    # a command's record has no search and nothing to set aside
    assert ab.set_aside(pair[1]["before"][2], names) == {}


@pytest.mark.parametrize("points", sweep_scale.POINTS)
def test_sweep_scale_grid_has_its_points(points):
    start, step, n = cli._parse_grid(sweep_scale.grid_spec(points))
    assert (start, n) == (0.0, points)
