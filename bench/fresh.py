"""Fresh-process numbers of a git revision against the working tree.

    python3 bench/fresh.py --before REV [--out PATH]

Only what needs a process of its own is measured here; ``bench/ab.py``
times the same work in one process. Each measurement starts a fresh Python
process on one side, REV's ``src`` (exported with ``git archive``) or this
checkout's, and the runs alternate which side goes first:

- ``import privbound`` time (IMPORTS runs per side), in a process that
  imports nothing else first;
- peak RSS (``ru_maxrss``), minor page faults (``ru_minflt``) and system
  CPU seconds (``ru_stime``), RUNS runs per side, of one pass over each of
  ``ab.WORKLOADS`` at ``ab.SEED``, the side loaded with ``ab.load_side``,
  and of ``decompose_transform`` alone on the transform cases at
  ``ab.SEED`` whose decomposition joint has more than DECOMPOSE_BIG
  entries. Each counts the whole process, start-up and imports included.
- the largest tracemalloc peak of one op of the TRACED passes: one
  ``sandwich_check`` of the ``small``, ``large`` and ``criterion`` passes,
  and one of those ``decompose_transform`` calls, each op run once more
  under tracemalloc after the counts above are read. It is the same from
  run to run and does not move with the allocator's layout, as peak RSS
  does (below).

A pass builds its inputs with this checkout's ``perfbench`` and ``tests``
generators, which import this checkout's privbound on both sides alike.
Prints each side's median and quartiles, and writes them with all runs and
the machine as JSON to ``--out`` when given.

The peak RSS and minor faults of a pass move between trees that run the
same code on that workload, as the allocator lays the process out. Two
runs of one change against one parent, neither touching the search, read
``large`` peak RSS 59.34 -> 59.25 and then 59.08 -> 60.14 MB, and
``criterion`` minor faults 113.6k -> 91.9k and then 76.2k -> 93.7k.
Forming the decomposition a chunk at a time, whose one sandwich-path edit
drops a kernel copy per restart group, read ``criterion`` minor faults
63.9k -> 87.0k and then 112.2k -> 70.2k. So these columns compare only
changes to code the workload runs.
"""

from __future__ import annotations

import argparse
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import ab  # bench/ab.py
import inputs  # perfbench/inputs.py

RUNS = 3      # passes per side and workload
IMPORTS = 15  # imports per side
DECOMPOSE_BIG = 5_000_000
BENCH = os.path.dirname(os.path.abspath(__file__))
IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
          "import privbound; print(time.perf_counter() - t0)")
PASS = "import sys; sys.path.insert(0, sys.argv[1]); import fresh; fresh.child(*sys.argv[2:])"
# what a pass reports, in the order ``child`` prints it; the TRACED passes
# add TRACED_KEY
PASS_KEYS = ("peak_rss_mb", "minflt", "stime_s")
TRACED = ("small", "large", "criterion", "decompose")
TRACED_KEY = "tracemalloc_mib"


def decomposition_entries(spec: dict) -> int:
    """Entries of the joint over (x's, y's, u, b's) that decompose_transform's
    size cap counts."""
    dims_x = [t.shape[0] for _, t in spec["problem"]["components"]]
    card_u = spec["kernel"].shape[2]
    return spec["kernel"].size * math.prod(math.prod(dims_x[:i]) * card_u for i in range(len(dims_x)))


def child(src: str, what: str) -> None:
    """In a fresh process: one pass of workload ``what``, or of the large
    decompositions, on the side under ``src``; prints its PASS_KEYS, and
    on the TRACED passes TRACED_KEY."""
    side = ab.load_side("side", src)
    if what == "decompose":
        cases = (ab.transform_spec(ab.SEED, i) for i in range(inputs.TRANSFORM_CASES))
        specs = [s for s in cases if decomposition_entries(s) > DECOMPOSE_BIG]
    else:
        specs = ab.workload_specs(what, ab.SEED)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        ops = [op for op in ab.side_ops(side, specs, tmp) if what != "decompose" or op.kind == "decompose_transform"]
        for op in ops:
            op.run()
        os.chdir(ab.ROOT)
    use = resource.getrusage(resource.RUSAGE_SELF)
    values = [use.ru_maxrss / 1024.0, use.ru_minflt, use.ru_stime]
    if what in TRACED:  # after getrusage, so tracing leaves the columns above alone
        peak = 0
        tracemalloc.start()
        for op in ops:
            tracemalloc.reset_peak()
            op.run()
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        values.append(peak / 2**20)
    print(*values)


def measure(*args: str) -> list[float]:
    """The numbers on the last line a fresh ``python -c`` process prints."""
    proc = subprocess.run([sys.executable, "-c", *args], check=True, capture_output=True, text=True)
    return [float(v) for v in proc.stdout.splitlines()[-1].split()]


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
                runs[name].setdefault("import_s", []).append(measure(IMPORT, srcs[name])[0])
        for k in range(RUNS):
            for name in ab.order(k):
                print(f"run {k}: {name}", file=sys.stderr)
                for what in ab.WORKLOADS + ("decompose",):
                    keys = PASS_KEYS + ((TRACED_KEY,) if what in TRACED else ())
                    for key, v in zip(keys, measure(PASS, BENCH, srcs[name], what), strict=True):
                        runs[name].setdefault(f"{key} {what}", []).append(v)
    results = {key: {name: ab.summarize(runs[name][key]) for name in runs} for key in runs["after"]}
    for key, row in results.items():
        b, a = row["before"], row["after"]
        print(f"{key:<26} before {b['median']:9.3f} (IQR {b['q1']:.3f}-{b['q3']:.3f})  "
              f"after {a['median']:9.3f} (IQR {a['q1']:.3f}-{a['q3']:.3f})")
    if args.out:
        ab.write_json(args.out, "fresh-process numbers: import time, peak RSS, minor faults and "
                      "system CPU of a pass, and the largest tracemalloc peak of one op", sha,
                      {"runs": RUNS, "imports": IMPORTS, "seed": ab.SEED, "decompose_big_entries": DECOMPOSE_BIG},
                      results)


if __name__ == "__main__":
    main()
