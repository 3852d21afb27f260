"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py                      # timed runs, seeds 1-10
    python3 bench/sweep.py --trace 1 --seeds 1  # the traced run: per-layer metrics

Each run is ``bench/run.py`` in a fresh process, one after another, so
set-up time and peak memory belong to that run's workload alone.  The
result goes to ``bench/out/sweep-trace<0|1>.json`` (or ``--out``): for
every workload, the runs' raw results and, per metric, the median, the
quartiles and the spread (the distance between the quartiles as a share
of the median), as ``statistics.quantiles(values, n=4)`` gives them.  A
summary table goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("group-laws", "resonance", "cli-verify")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError("%s failed (exit %d): %s" % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["seed"], result["exit"], result["wall_s"] = seed, proc.returncode, wall
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    out_path = args.out or os.path.join(BENCH_DIR, "out", "sweep-trace%d.json" % args.trace)

    report = {"seconds": args.seconds, "trace": args.trace, "python": sys.version.split()[0],
              "nproc": os.cpu_count(), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_one(workload, seed, args.seconds, args.trace))
            print("%s seed %d: exit %d, %.1fs" % (workload, seed, runs[-1]["exit"], runs[-1]["wall_s"]),
                  file=sys.stderr)
        names = runs[0]["metrics"]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "metrics": {
                name: dict(unit=runs[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in runs]))
                for name in names
            },
            "runs": runs,
        }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(report, fh, indent=1)

    for workload, rep in report["workloads"].items():
        print("%s  correct=%s  failed share=%s" % (workload, rep["correct"], rep["failed_share"]))
        for name, m in rep["metrics"].items():
            print("  %-36s %14.6g %-6s  q1 %.6g  q3 %.6g  spread %.3f"
                  % (name, m["median"], m["unit"], m["q1"], m["q3"], m["spread"]))
    print("written to %s" % os.path.relpath(out_path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
