"""Fresh-process numbers of a git revision against the working tree.

    python3 bench/fresh.py --before REV [--out PATH]

Only what needs a process of its own is measured here; ``bench/ab.py``
times the same work in one process. Each measurement starts a fresh Python
process on one side, REV's ``src`` (exported with ``git archive``) or this
checkout's, and the runs alternate which side goes first:

- ``import privbound`` time (IMPORTS runs per side), in a process that
  imports nothing else first;
- peak RSS (``ru_maxrss``, RUNS runs per side) of one pass over each of
  ``ab.WORKLOADS`` at ``ab.SEED``, the side loaded with ``ab.load_side``;
- peak RSS of ``decompose_transform`` alone on the transform cases at
  ``ab.SEED`` whose decomposition joint has more than DECOMPOSE_BIG entries.

A pass builds its inputs with this checkout's ``perfbench`` and ``tests``
generators, which import this checkout's privbound on both sides alike.
Prints each side's median and quartiles, and writes them with all runs and
the machine as JSON to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import subprocess
import sys
import tempfile

import ab  # bench/ab.py
import inputs  # perfbench/inputs.py

RUNS = 3      # passes per side and workload
IMPORTS = 15  # imports per side
DECOMPOSE_BIG = 5_000_000
BENCH = os.path.dirname(os.path.abspath(__file__))
IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
          "import privbound; print(time.perf_counter() - t0)")
PASS = "import sys; sys.path.insert(0, sys.argv[1]); import fresh; fresh.child(*sys.argv[2:])"


def decomposition_entries(spec: dict) -> int:
    """Entries of the joint over (x's, y's, u, b's) that decompose_transform's
    size cap counts."""
    dims_x = [t.shape[0] for _, t in spec["problem"]["components"]]
    card_u = spec["kernel"].shape[2]
    return spec["kernel"].size * math.prod(math.prod(dims_x[:i]) * card_u for i in range(len(dims_x)))


def child(src: str, what: str) -> None:
    """In a fresh process: one pass of workload ``what``, or of the large
    decompositions, on the side under ``src``; prints its peak RSS in MB."""
    side = ab.load_side("side", src)
    if what == "decompose":
        cases = (ab.transform_spec(ab.SEED, i) for i in range(inputs.TRANSFORM_CASES))
        specs = [s for s in cases if decomposition_entries(s) > DECOMPOSE_BIG]
    else:
        specs = ab.workload_specs(what, ab.SEED)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for op in ab.side_ops(side, specs, tmp):
            if what != "decompose" or op.kind == "decompose_transform":
                op.run()
        os.chdir(ab.ROOT)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def measure(*args: str) -> float:
    """The number a fresh ``python -c`` process prints last."""
    proc = subprocess.run([sys.executable, "-c", *args], check=True, capture_output=True, text=True)
    return float(proc.stdout.split()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--out", help="write the results as JSON here")
    args = ap.parse_args()

    runs: dict = {"before": {}, "after": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sha = ab.export_rev(args.before, tmp)
        srcs = {"before": os.path.join(tmp, "src"), "after": os.path.join(ab.ROOT, "src")}
        for k in range(IMPORTS):
            for name in ab.order(k):
                runs[name].setdefault("import_s", []).append(measure(IMPORT, srcs[name]))
        for k in range(RUNS):
            for name in ab.order(k):
                print(f"run {k}: {name}", file=sys.stderr)
                for what in ab.WORKLOADS + ("decompose",):
                    runs[name].setdefault(f"peak_rss_mb {what}", []).append(measure(PASS, BENCH, srcs[name], what))
    results = {key: {name: ab.summarize(runs[name][key]) for name in runs} for key in runs["after"]}
    for key, row in results.items():
        b, a = row["before"], row["after"]
        print(f"{key:<26} before {b['median']:8.3f} (IQR {b['q1']:.3f}-{b['q3']:.3f})  "
              f"after {a['median']:8.3f} (IQR {a['q1']:.3f}-{a['q3']:.3f})")
    if args.out:
        ab.write_json(args.out, "fresh-process numbers: import time and peak RSS", sha,
                      {"runs": RUNS, "imports": IMPORTS, "seed": ab.SEED, "decompose_big_entries": DECOMPOSE_BIG},
                      results)


if __name__ == "__main__":
    main()
