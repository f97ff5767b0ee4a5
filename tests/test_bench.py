"""The in-process bench harness (``bench/ab.py``): two loads of one source
tree give the same records op by op, and the shared comparer reports a
number moved past its tolerance."""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import ab  # noqa: E402
import inputs  # noqa: E402  perfbench/inputs.py


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
