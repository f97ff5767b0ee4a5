"""Self-tests of the benchmark at tiny size.

    python3 -m pytest perfbench

Each run here keeps a small prefix of every workload's op list
(``scale=TINY``) and makes the fewest passes a run allows.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

TINY = 0.05
WORKLOADS = ("sandwich_small", "sandwich_large", "closed_form")
with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

# names whose value must repeat exactly for one seed: counts, fractions of
# counts and values computed from the outputs, never times
EXACT = ("calls", "entries", "kernel_entries", "useful_restart_frac", "inverted_frac")


def _run(capsys, workload: str, trace: int, seed: int = 3) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, scale=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def _printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(capsys, workload, trace):
    lines, result = _run(capsys, workload, trace)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    printed = _printed(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"] for m in declared} == set(result["metrics"])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == (result["metrics"][m["name"]]["value"], m["unit"])
    assert printed["fail_frac"] == (0.0, "frac")
    if workload == "closed_form":
        assert printed["bounds_inverted_frac"][1] == "frac"
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_values_and_counts(capsys, workload):
    first = [_run(capsys, workload, trace) for trace in (0, 1)]
    second = [_run(capsys, workload, trace) for trace in (0, 1)]
    for (lines_a, res_a), (lines_b, res_b) in zip(first, second):
        a, b = _printed(lines_a), _printed(lines_b)
        assert a["fail_frac"] == b["fail_frac"]
        exact = [n for n in a if n == "search_value" or n.rsplit(".", 1)[-1] in EXACT]
        assert exact
        for name in exact:
            assert a[name] == b[name], name


def test_exits_nonzero_without_sources():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
