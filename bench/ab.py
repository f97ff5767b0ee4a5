"""In-process A/B bench: a git revision against the working tree.

    python3 bench/ab.py --before REV --workload {small,large,criterion,closed_form} [...]
                        [--pairs N] [--seed S] [--out PATH] [--by-design COUNTER ...]

This module is also the harness of ``bench/same_outputs.py`` and
``bench/fresh.py``: the one revision loader (``load_side``), the inputs as
plain arrays, each op's record and the one comparer (``differences``).

The before side is REV's ``src``, exported with ``git archive``; the after
side is this checkout's. Both load into this one process as separately
named packages (the package imports itself only relatively), so both run
on the same CPU, in the same state, an op apart. REV's ``SandwichReport``
must carry its search. BLAS runs at one thread unless the caller set it.
Each side builds its own objects from the same plain arrays, made once
with this checkout's generators:

- ``small``, ``large``: ``sandwich_check`` with ``OracleConfig(seed=0)`` on
  the benchmark's sandwich banks (``perfbench/inputs.py``) at ``--seed``;
- ``criterion``: the same on the CRITERION_SEEDS problems of acceptance
  criterion 1 (``tests/helpers.py``);
- ``closed_form``: the benchmark's ``closed_form`` ops at ``--seed``: CLI
  ``bounds``, ``mechanize`` and ``verify`` (each of VARIANTS) and ``sweep``
  on its problem files, each side in its own directory, then TRANSFORMS on
  its transform cases.

A pair is one pass of each side, op by op: each op runs on both sides back
to back, and the side that goes first alternates from op to op and from
pair to pair. An untimed pair comes first: its records are compared with
``differences``, less the search counters named by ``--by-design COUNTER
...`` (``set_aside``; each side's totals of every counter are still
printed), and its searches give each side's counter totals; a failed
sandwich check or a command that exits non-zero, on either side, ends the
run with exit 1 before anything is timed. ``--pairs`` timed pairs follow.
Per workload it reports each side's process CPU seconds (median,
quartiles), the per-pair CPU ratio after / before, the pairs the after side
won, CPU seconds per op kind and per sandwich-check stage, and the per-pair
CPU ratio after / before of each op kind (median, quartiles), which
resolves a change in one small kind that the sides' per-kind medians,
each spread by the pairs' drift, do not.

What it resolves: A/A runs (10 pairs) read median ratios within about 1 %
of 1.00 on small, criterion and closed_form, and within about 2 % on
large, whose 9 checks give a per-pair ratio IQR of about 0.975-1.017.
Both sides share one process and so one allocator: memory one side frees
is reused by the other, so a large fresh array costs fewer page faults
and less zeroing here than in a process of its own, and a change that
removes allocations can read smaller here than end to end. Reusing the
decomposition's block workspaces read -19 and -21 % CPU on
``decompose_transform`` here in two runs, against per-pair medians of
-24 and -21 % (-2 to -35 % per pair) on perfbench ``closed_form``'s
``op_ms_tail``; ``bench/fresh.py`` counts the page faults (88k -> 28k on
a fresh decomposition pass).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from functools import partial
from time import perf_counter, process_time
from typing import Callable

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one process, one client: keep BLAS to one thread unless the caller set it
# (numpy is first imported after this)
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tests")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402  perfbench/inputs.py

WORKLOADS = ("small", "large", "criterion", "closed_form")
SEED = 301  # default bank relabeling seed
CRITERION_SEEDS = 200
# read with a default of 0 (``counter``), so a revision without one still loads
COUNTERS = ("projections", "leakage_evals", "candidates", "jump_only", "accepted", "sweeps", "groups")
VARIANTS = ("frl", "esfrl")
TRANSFORMS = ("evaluate_monolithic", "decompose_transform", "refine_transform")
NUMBER_TOL = 1e-12
SHOW = 10  # differences printed per part


def export_rev(rev: str, dest: str) -> str:
    """REV's ``src`` extracted under ``dest``; returns REV's commit id."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    blob = subprocess.run(["git", "-C", ROOT, "archive", sha, "src"], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def load_side(name: str, src: str):
    """The package under ``src``/privbound, imported as ``name``."""
    pkg = os.path.join(src, "privbound")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg, "__init__.py"),
                                                  submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_sides(rev: str, tmp: str) -> tuple[str, dict]:
    """REV's commit id, and REV's ``src`` (exported under ``tmp``) and the
    working tree's, loaded as the before and after sides."""
    sha = export_rev(rev, tmp)
    return sha, {"before": load_side("ab_before", os.path.join(tmp, "src")),
                 "after": load_side("ab_after", os.path.join(ROOT, "src"))}


def module(side, name: str):
    return importlib.import_module(f"{side.__name__}.{name}")


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "blas_threads": 1}


def order(k: int) -> tuple[str, str]:
    """The sides in the order they run at step k."""
    return ("before", "after") if k % 2 == 0 else ("after", "before")


def summarize(runs: list[float]) -> dict:
    q = statistics.quantiles(runs, n=4) if len(runs) > 1 else [runs[0]] * 3
    return {"median": statistics.median(runs), "q1": q[0], "q3": q[2], "runs": runs}


def write_json(path: str, topic: str, sha: str, settings: dict, results: dict) -> None:
    doc = {"topic": topic, "machine": machine_facts(), "revisions": {"before": sha, "after": "working tree"},
           "settings": settings, "results": results}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


def plain_problem(p) -> dict:
    return {"components": [(c.name, c.joint.table.copy()) for c in p.components],
            "users": [(tuple(u.demands), u.weight) for u in p.users],
            "epsilon": p.epsilon, "sfrl_constant": p.sfrl_constant}


def build_problem(side, spec: dict):
    """One side's ``Problem`` of a plain spec, from that side's own classes."""
    model, probcore = module(side, "model"), module(side, "probcore")
    return model.Problem(tuple(model.Component(name, probcore.Joint2(t)) for name, t in spec["components"]),
                         tuple(model.User(d, w) for d, w in spec["users"]), spec["epsilon"], spec["sfrl_constant"])


def transform_spec(seed: int, i: int) -> dict:
    p, k = inputs.transform_case(seed, i)
    return {"problem": plain_problem(p), "kernel": k.table}


def workload_specs(workload: str, seed: int) -> list[dict]:
    """Plain specs of a workload's ops, built with this checkout's generators."""
    if workload == "closed_form":
        specs = []
        for i in range(inputs.CLI_FILES):
            regime, spec = inputs.cli_problem(seed, i)
            tag = f"{i:02d}-{regime}"
            path, csv_path = f"{tag}.json", f"{tag}.csv"
            # (argv, file it writes) of each command on the problem file
            commands: list = [(["bounds", path], None)]
            for v in VARIANTS:
                mech = f"{tag}.{v}.mech.json"
                commands += [(["mechanize", path, "--out", mech, "--variant", v], mech), (["verify", path, mech], None)]
            commands.append((["sweep", path, "--eps", inputs.sweep_spec(spec)[0], "--csv", csv_path], csv_path))
            specs.append({"path": path, "doc": inputs.problem_document(spec), "commands": commands})
        return specs + [transform_spec(seed, i) for i in range(inputs.TRANSFORM_CASES)]
    if workload == "criterion":
        from helpers import random_problem

        problems = [random_problem(s) for s in range(CRITERION_SEEDS)]
    else:
        problems = inputs.sandwich_problems(seed, workload == "large")
    return [{"problem": plain_problem(p)} for p in problems]


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main`` in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclasses.dataclass
class Op:
    kind: str                     # a command's name, a transform's, or "sandwich"
    label: str
    run: Callable[[], object]
    written: str | None = None    # the file it writes, in its side's directory


def side_ops(side, specs: list[dict], workdir: str) -> list[Op]:
    """One side's ops of ``specs``. A CLI spec's problem file is written
    into ``workdir``, where its ops must run."""
    oracle, mechanisms, cli = module(side, "oracle"), module(side, "mechanisms"), module(side, "cli")
    ops = []
    for j, s in enumerate(specs):
        if "doc" in s:
            with open(os.path.join(workdir, s["path"]), "w", encoding="utf-8") as fh:
                json.dump(s["doc"], fh)
            ops += [Op(argv[0], " ".join(argv), partial(run_cli, cli, argv), written)
                    for argv, written in s["commands"]]
        elif "kernel" in s:
            p, k = build_problem(side, s["problem"]), mechanisms.Kernel(s["kernel"])
            ops += [Op(kind, f"{kind} {j}", partial(getattr(mechanisms, kind), p, k)) for kind in TRANSFORMS]
        else:
            p = build_problem(side, s["problem"])
            ops.append(Op("sandwich", f"sandwich {j}", partial(oracle.sandwich_check, p, oracle.OracleConfig(seed=0))))
    return ops


def plain(obj):
    """A dataclass or tuple as dicts and lists, for ``differences``."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [plain(v) for v in obj]
    return obj


def search_record(report) -> dict:
    """A sandwich check: its search's numbers, best-kernel shape and
    fingerprint (the entries' dot product with fixed random weights) and
    counters, and the check's other numbers. Where several restarts end
    within NUMBER_TOL of the best, rounding picks which kernel is returned,
    and there is no fingerprint."""
    res = report.search
    table = res.best_kernel.table
    weights = np.random.default_rng(0).random(table.size)
    tol = NUMBER_TOL * max(1.0, abs(res.best_objective))
    tied = sum(abs(v - res.best_objective) <= tol for v in res.trace) > 1
    search = {"trace": list(res.trace), "best_objective": res.best_objective,
              "leakage_at_best": res.leakage_at_best, "kernel_shape": list(table.shape),
              "kernel_fingerprint": None if tied else float(table.ravel() @ weights),
              **{name: counter(res, name) for name in COUNTERS}}
    return {"search": search, "lower": report.lower, "mech_objective": report.mech_objective,
            "upper": report.upper, "ok": report.ok}


def record(op: Op, result, workdir: str) -> dict:
    """The outputs of an op that must agree between the sides: a search's
    record, a transform's report or checks, or a command's exit code,
    stderr, report (JSON where it parses) and the text of the file it
    wrote in ``workdir``."""
    if op.kind == "sandwich":
        return search_record(result)
    if op.kind in TRANSFORMS:
        return plain(result if op.kind == "evaluate_monolithic" else result[1])
    code, out, err = result
    written = op.written and os.path.join(workdir, op.written)
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        report = out
    text = None
    if written and os.path.exists(written):
        with open(written, encoding="utf-8") as fh:
            text = fh.read()
    return {"exit": code, "stderr": err, "report": report, "file": text}


def add_by_design(ap: argparse.ArgumentParser) -> None:
    """The ``--by-design COUNTER ...`` option of this bench and
    ``bench/same_outputs.py``: search counters that the change moves on
    purpose, left out of the comparison (``set_aside``)."""
    ap.add_argument("--by-design", nargs="+", default=[], choices=COUNTERS, metavar="COUNTER",
                    help="search counters left out of the comparison; traces and kernels are still compared")


def set_aside(rec: dict, names) -> dict:
    """Pop the search counters ``names`` out of a record, before
    ``differences`` compares it; returns them ({} for a record without a
    search). Its trace, kernel and other counters stay."""
    return {name: rec["search"].pop(name) for name in names} if "search" in rec else {}


def differences(a, b, where: str = "", moved: list | None = None) -> list[str]:
    """Where two records differ: keys and their order, lengths, text and
    integers exactly, floats to NUMBER_TOL (relative to their size where
    that exceeds 1). ``moved`` collects |a - b| of the floats that differ
    within NUMBER_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return [f"{where}: keys {list(a)} != {list(b)}"]
        return [d for k in a for d in differences(a[k], b[k], f"{where}.{k}", moved)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} != {len(b)} entries"]
        return [d for k, (x, y) in enumerate(zip(a, b)) for d in differences(x, y, f"{where}[{k}]", moved)]
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and float in (type(a), type(b)):
        gap = abs(a - b)
        if not gap <= NUMBER_TOL * max(1.0, abs(a), abs(b)) and a != b:
            return [f"{where}: {a!r} != {b!r}"]
        if gap and moved is not None:
            moved.append(gap)
        return []
    if a != b or type(a) is not type(b):
        return [f"{where}: {str(a)[:60]!r} != {str(b)[:60]!r}"]
    return []


def run_pair(ops: dict, dirs: dict, k: int, keep: bool = False) -> dict:
    """One pass of each side over a workload, op by op: each op runs on both
    sides back to back, in its side's directory, and the side that goes
    first alternates from op to op and, for each op, from pair to pair. Per
    side: CPU and wall seconds, CPU seconds per op kind and per
    sandwich-check stage, and, when ``keep``, every op's result."""
    out = {name: {"cpu": 0.0, "wall": 0.0, "kind_s": {}, "stage_s": {}, "results": []} for name in ops}
    home = os.getcwd()
    gc.collect()
    try:
        for i in range(len(ops["before"])):
            for name in order(k + i):
                op = ops[name][i]
                os.chdir(dirs[name])
                c0, w0 = process_time(), perf_counter()
                result = op.run()
                cpu, wall = process_time() - c0, perf_counter() - w0
                side = out[name]
                side["cpu"] += cpu
                side["wall"] += wall
                side["kind_s"][op.kind] = side["kind_s"].get(op.kind, 0.0) + cpu
                for stage, sec in getattr(result, "stage_s", {}).items():
                    side["stage_s"][stage] = side["stage_s"].get(stage, 0.0) + sec
                if keep:
                    side["results"].append(result)
    finally:
        os.chdir(home)
    return out


def first_pair(ops: dict, dirs: dict) -> tuple[dict, dict]:
    """The untimed pair: each side's results and records, op by op."""
    pair = run_pair(ops, dirs, 0, keep=True)
    results = {name: pair[name]["results"] for name in ops}
    return results, {name: [record(op, res, dirs[name]) for op, res in zip(ops[name], results[name])]
                     for name in ops}


def counter(res, name: str) -> int:
    """A search counter, 0 where the revision does not count it: one
    without ``jump_only`` scored BATCH candidates per live restart-sweep."""
    return getattr(res, name, 0)


def search_counts(reports: list, batch: int) -> dict:
    """Search counters summed over the checks, with ``formed_rows``, the
    restart-sweeps that formed their marginals ((candidates - jump_only) /
    BATCH: BATCH candidates each, against 1 per jump-only restart-sweep),
    ``swept_entries`` against ``full_width_entries`` (what those rows'
    marginals and vertex choices form when every u-column is read:
    2 x |X||Y||U| per formed row), and ratios of the totals."""
    res = [r.search for r in reports]
    out = {name: sum(counter(s, name) for s in res) for name in COUNTERS + ("swept_entries",)}
    formed = [(s.candidates - counter(s, "jump_only")) // batch for s in res]
    out["formed_rows"] = sum(formed)
    out["full_width_entries"] = sum(2 * s.best_kernel.table.size * f for s, f in zip(res, formed))
    out["restart_sweeps"] = out["formed_rows"] + out["jump_only"]
    for ratio, (num, den) in {"leakage_evals_per_repair": ("leakage_evals", "projections"),
                              "accepted_per_candidate": ("accepted", "candidates"),
                              "candidates_per_sweep": ("candidates", "sweeps"),
                              "formed_rows_per_sweep": ("formed_rows", "sweeps"),
                              "jump_only_frac": ("jump_only", "restart_sweeps"),
                              "swept_frac": ("swept_entries", "full_width_entries")}.items():
        out[ratio] = out[num] / out[den] if out[den] else None
    return out


def ab(sides: dict, workload: str, pairs: int, seed: int, tmp: str, by_design: tuple[str, ...] = ()) -> dict:
    specs = workload_specs(workload, seed)
    dirs = {name: os.path.join(tmp, workload, name) for name in sides}
    for d in dirs.values():
        os.makedirs(d)
    ops = {name: side_ops(side, specs, dirs[name]) for name, side in sides.items()}
    results, recs = first_pair(ops, dirs)
    # a sandwich check that is not ok, a command that exits non-zero
    failed = [f"{workload} {name} {op.label}: " + (f"exit {r['exit']} {r['stderr'].strip()[:200]}" if "exit" in r
                                                   else "not ok")
              for name in sides for op, r in zip(ops[name], recs[name]) if not r.get("ok", True) or r.get("exit", 0)]
    if failed:
        raise SystemExit("failed ops, nothing timed:\n  " + "\n  ".join(failed))
    found, moved = [], []
    for op, a, b in zip(ops["after"], recs["before"], recs["after"]):
        set_aside(a, by_design)
        set_aside(b, by_design)
        found += differences(a, b, op.label, moved)[:1]
    counts = {}
    if workload != "closed_form":
        counts = {name: search_counts(results[name], module(side, "oracle").BATCH) for name, side in sides.items()}
    del results

    runs: dict = {name: [] for name in sides}
    for k in range(pairs):
        for name, run in run_pair(ops, dirs, k).items():
            runs[name].append(run)
        print(f"{workload} pair {k}: before {runs['before'][-1]['cpu']:.3f} s, "
              f"after {runs['after'][-1]['cpu']:.3f} s CPU", file=sys.stderr)
    cpu = {name: [r["cpu"] for r in rs] for name, rs in runs.items()}

    def medians(key: str) -> dict:
        return {name: {what: statistics.median(r[key][what] for r in rs) for what in rs[0][key]}
                for name, rs in runs.items()}

    return {
        "cpu_s": {name: summarize(c) for name, c in cpu.items()},
        "wall_s": {name: summarize([r["wall"] for r in rs]) for name, rs in runs.items()},
        # per pair, after / before process CPU time
        "cpu_ratio": summarize([a / b for a, b in zip(cpu["after"], cpu["before"])]),
        "after_wins": sum(a < b for a, b in zip(cpu["after"], cpu["before"])),
        "pairs": pairs,
        "kind_s": medians("kind_s"),
        # per pair and op kind, after / before CPU time
        "kind_ratio": {kind: summarize([a["kind_s"][kind] / b["kind_s"][kind]
                                        for a, b in zip(runs["after"], runs["before"])])
                       for kind in runs["after"][0]["kind_s"]},
        "stage_s": medians("stage_s"),
        "search_counts": counts,
        "ops": len(ops["after"]),
        "by_design": list(by_design),
        "ops_differing": len(found),
        "differences": found[:SHOW],
        "largest_moved": max(moved, default=0.0),
    }


def _line(per: dict) -> str:
    return ", ".join(f"{k} {v:.3f}" if isinstance(v, float) else f"{k} {v}" for k, v in per.items())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=SEED, help="bank relabeling seed (small, large, closed_form)")
    ap.add_argument("--out", help="write the results as JSON here")
    add_by_design(ap)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        sha, sides = load_sides(args.before, tmp)
        results = {w: ab(sides, w, args.pairs, args.seed, tmp, tuple(args.by_design)) for w in args.workload}

    for w, r in results.items():
        b, a, q = r["cpu_s"]["before"], r["cpu_s"]["after"], r["cpu_ratio"]
        print(f"{w:<11} CPU before {b['median']:.3f} s (IQR {b['q1']:.3f}-{b['q3']:.3f}), "
              f"after {a['median']:.3f} s (IQR {a['q1']:.3f}-{a['q3']:.3f}); ratio {q['median']:.3f} "
              f"(IQR {q['q1']:.3f}-{q['q3']:.3f}), after faster in {r['after_wins']} of {r['pairs']}")
        print(f"{'':<11} {r['ops']} ops: {r['ops_differing']} differ (largest moved within tolerance "
              f"{r['largest_moved']:.3g}; by design: {', '.join(r['by_design']) or 'none'}); failed: none")
        for line in r["differences"]:
            print(f"{'':<11}   {line}")
        print(f"{'':<11} per-pair CPU ratio per kind: " + ", ".join(
            f"{k} {q['median']:.3f} (IQR {q['q1']:.3f}-{q['q3']:.3f})" for k, q in r["kind_ratio"].items()))
        for name in ("before", "after"):
            print(f"{'':<11} {name} CPU s per kind: {_line(r['kind_s'][name])}")
            if r["stage_s"][name]:
                print(f"{'':<11} {name} stage_s: {_line(r['stage_s'][name])}")
            if r["search_counts"]:
                print(f"{'':<11} {name} counts: {_line(r['search_counts'][name])}")
    if args.out:
        write_json(args.out, "in-process A/B", sha, {
            "pairs": args.pairs, "bank_seed": args.seed, "criterion_seeds": CRITERION_SEEDS,
            "timer": "process CPU time, summed per side over its ops"}, results)


if __name__ == "__main__":
    main()
