"""Time and memory of one ``sweep`` as its grid grows: a git revision against
the working tree.

    python3 bench/sweep_scale.py --before REV [--out PATH]

For each grid size in POINTS, RUNS fresh Python processes per side (REV's
``src``, exported with ``git archive``, or this checkout's; the side that
goes first alternates) each run ``privbound sweep`` twice on the
benchmark's ``PROBE`` problem, over a grid of that many points from 0 to
REACH * sum_i I(X_i;Y_i) (past the trivial boundary, as the benchmark's
sweeps are): first timed, as the process CPU seconds of the ``cli.main``
call, then under tracemalloc, for its peak. The problem file is written
with this checkout's ``perfbench`` generator. Prints each side's median and
quartiles per size, and writes them with all runs and the machine as JSON
to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import ab  # bench/ab.py
import inputs  # perfbench/inputs.py

POINTS = tuple(2**k for k in range(14, 19))
RUNS = 3
REACH = 1.2
BENCH = os.path.dirname(os.path.abspath(__file__))
CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import sweep_scale; sweep_scale.child(*sys.argv[2:])"


def grid_spec(points: int) -> str:
    """``--eps`` for ``points`` points from 0 to REACH * sum_i I(X_i;Y_i) of PROBE."""
    total = sum(inputs._mi(t) for t in inputs.PROBE["tables"])
    step = REACH * total / (points - 1)
    return f"0:{(points - 1) * step!r}:{step!r}"


def child(src: str, path: str, points: str) -> None:
    """In a fresh process: one timed and one traced sweep of ``points``
    points on the side under ``src``; prints the CPU seconds and the
    tracemalloc peak in MiB."""
    side = ab.load_side("side", src)
    cli = ab.module(side, "cli")
    argv = ["sweep", path, "--eps", grid_spec(int(points)), "--csv", path + ".csv"]
    out = sys.stdout
    sys.stdout = open(os.devnull, "w")
    t0 = time.process_time()
    codes = [cli.main(argv)]
    cpu = time.process_time() - t0
    tracemalloc.start()
    codes.append(cli.main(argv))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    sys.stdout = out
    with open(path + ".csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if codes != [0, 0] or rows != int(points):
        raise SystemExit(f"sweep exited {codes} with {rows} rows, not {points}")
    print(cpu, peak / 2**20)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", required=True)
    ap.add_argument("--out", help="write the results as JSON here")
    args = ap.parse_args()

    runs: dict = {"before": {}, "after": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sha = ab.export_rev(args.before, tmp)
        srcs = {"before": os.path.join(tmp, "src"), "after": os.path.join(ab.ROOT, "src")}
        path = os.path.join(tmp, "probe.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inputs.problem_document(inputs.PROBE), fh)
        for points in POINTS:
            for k in range(RUNS):
                for name in ab.order(k):
                    print(f"{points} points, run {k}: {name}", file=sys.stderr)
                    proc = subprocess.run([sys.executable, "-c", CHILD, BENCH, srcs[name], path, str(points)],
                                          check=True, capture_output=True, text=True)
                    cpu, peak = (float(v) for v in proc.stdout.split())
                    runs[name].setdefault(f"cpu_s {points}", []).append(cpu)
                    runs[name].setdefault(f"tracemalloc_mib {points}", []).append(peak)
    results = {key: {name: ab.summarize(runs[name][key]) for name in runs} for key in runs["after"]}
    for key, row in results.items():
        b, a = row["before"], row["after"]
        print(f"{key:<24} before {b['median']:9.3f} (IQR {b['q1']:.3f}-{b['q3']:.3f})  "
              f"after {a['median']:9.3f} (IQR {a['q1']:.3f}-{a['q3']:.3f})")
    if args.out:
        ab.write_json(args.out, "one sweep's CPU seconds and tracemalloc peak by grid size", sha,
                      {"runs": RUNS, "points": list(POINTS), "reach": REACH, "problem": "perfbench PROBE"},
                      results)


if __name__ == "__main__":
    main()
