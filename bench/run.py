"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {group-laws,resonance,cli-verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/``.  Every op runs in this process on one thread.

A run does a fixed amount of work: whole passes over the seeded input
list, ``round(S / NOMINAL_PASS_S)`` of them (at least one), so that every
run has the same mix of ops whatever the host's speed.  The timed phase
is never cut off by the clock.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead, from three phases over the same inputs:
plain passes (the baseline for the tracing overhead), passes with spans
around each layer's public functions, and passes under cProfile for the
call counts.  Each phase runs a quarter of the timed run's passes.

Only the ops are timed: each pass's outputs are checked after the
pass's wall and CPU clocks have stopped.  ``ops_per_s`` and
``cpu_ms_per_op`` are taken from the median pass, ``op_ms_p50`` from
the median op.

Set-up is timed apart, ``SETUP_REPEATS`` times, and the median is
reported.  One round is the import of the package in a fresh
interpreter, the generation of the inputs and the warm-up ops.

An op whose input names a known fault may fail only in the way named:
its checks must report the first expected entry and nothing outside the
expected ones.  Any other failed check, or an exception, is a wrong
result.

The exit code is 0 when every op that did not fail passed its checks
and 1 when some op gave a wrong result; both print the result line.
Without the package source under ``src/``, or with invalid arguments,
the exit code is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")
SETUP_REPEATS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (source, key).  Sources: "count" reads a cProfile
# count, "ms" a span's inclusive time, "self_ms" a span's self time.
PER_LAYER = {
    "scalars.mul_calls_per_op": ("count", "scalars.mul"),
    "scalars.add_calls_per_op": ("count", "scalars.add"),
    "scalars.gauss_new_per_op": ("count", "scalars.gauss_new"),
    "scalars.relation_search_ms_per_op": ("ms", "scalars.relation_search"),
    "python.calls_per_op": ("count", "python.calls"),
    "group.compose_calls_per_op": ("count", "group.compose"),
    "group.precompose_calls_per_op": ("count", "group.precompose"),
    "group.compose_ms_per_op": ("ms", "group.compose"),
    "group.inverse_ms_per_op": ("ms", "group.inverse"),
    "group.eq_ms_per_op": ("ms", "group.eq"),
    "hopf.surface_ms_per_op": ("ms", "hopf.surface"),
    "sections.line_ms_per_op": ("ms", "sections.line"),
    "sections.proj_ms_per_op": ("ms", "sections.proj"),
    "normalform.normal_form_calls_per_op": ("count", "normalform.normal_form"),
    "normalform.normal_form_ms_per_op": ("ms", "normalform.normal_form"),
    "devmaps.admissible_calls_per_op": ("count", "devmaps.admissible"),
    "devmaps.admissible_ms_per_op": ("ms", "devmaps.admissible"),
    "devmaps.gcd_calls_per_op": ("count", "devmaps.gcd"),
    "classify.enumerate_ms_per_op": ("ms", "classify.enumerate"),
    "classify.brute_force_ms_per_op": ("ms", "classify.brute_force"),
    "classify.candidates_per_op": ("count", "classify.candidates"),
    "verify.group_axioms_ms_per_op": ("ms", "verify.group_axioms"),
    "verify.equivariance_ms_per_op": ("ms", "verify.equivariance"),
    "verify.immersion_ms_per_op": ("ms", "verify.immersion"),
    "verify.eval_calls_per_op": ("count", "verify.eval"),
    "cli.self_ms_per_op": ("self_ms", "cli.main"),
}
PER_LAYER_UNITS = dict(
    {name: "count" if source == "count" else "ms" for name, (source, _) in PER_LAYER.items()},
    # computed apart, in trace_metrics
    **{"classify.oracle_yield": "ratio", "trace.span_overhead": "ratio",
       "trace.profile_overhead": "ratio"},
)


class Tally:
    """Ops attempted, failed, and failed for a reason other than a known fault."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = []

    def add(self, inp, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            expected = inp["known_fault"]
            if not (expected and bad[0] == expected[0] and set(bad) <= set(expected)):
                self.wrong.append(bad)


def run_op(workload, inp, ctx, op_times, profile=None):
    """Execute one op, appending its wall time; returns (outputs, error)."""
    t0 = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        return workload.execute(inp, ctx), None
    except Exception as exc:  # a raising op is a failed op, reported with its cause
        return None, "raised %s: %s" % (type(exc).__name__, exc)
    finally:
        if profile is not None:
            profile.disable()
        op_times.append(time.perf_counter() - t0)


def run_passes(workload, inputs, passes, tally, profile=None):
    """Whole passes over the inputs; returns the wall and CPU seconds of
    each pass and of each op, the ops alone.  Each pass is checked after
    its clocks stop."""
    walls, cpus, op_times = [], [], []
    for _ in range(passes):
        ctx = workload.new_pass()
        w0, c0 = time.perf_counter(), time.process_time()
        results = [run_op(workload, inp, ctx, op_times, profile) for inp in inputs]
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        for inp, (out, error) in zip(inputs, results):
            tally.add(inp, [error] if error else workload.check(inp, out))
    return walls, cpus, op_times


def import_in_fresh_interpreter():
    """Start a fresh interpreter that imports the package, and wait for it."""
    code = "import sys; sys.path.insert(0, %r); import hopfon.cli" % SRC_DIR
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def setup(workload, seed):
    """Import, generate the inputs and warm up, SETUP_REPEATS times;
    returns (inputs, median s)."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        import_in_fresh_interpreter()
        inputs = workload.make_inputs(seed)
        ctx = workload.new_pass()
        for inp in inputs[: workload.WARMUP_OPS]:
            run_op(workload, inp, ctx, [])
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_metrics(workload, inputs, passes, setup_s, tally):
    walls, cpus, op_times = run_passes(workload, inputs, passes, tally)
    # medians over passes of identical work, so that one slow pass does not count
    ops = len(inputs)
    values = {
        "ops_per_s": ops / statistics.median(walls),
        "op_ms_p50": 1000.0 * statistics.median(op_times),
        "cpu_ms_per_op": 1000.0 * statistics.median(cpus) / ops,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def trace_metrics(workload, inputs, passes, tally):
    plain_wall = sum(run_passes(workload, inputs, passes, tally)[0])

    spans = tracing.Spans()
    spans.install()
    try:
        span_wall = sum(run_passes(workload, inputs, passes, tally)[0])
    finally:
        spans.uninstall()

    profile = cProfile.Profile()
    profile_wall = sum(run_passes(workload, inputs, passes, tally, profile)[0])
    counts = tracing.profile_counts(profile)

    ops = passes * len(inputs)
    sources = {"count": counts, "ms": spans.total, "self_ms": spans.self_time}
    values = {}
    for name, (source, key) in PER_LAYER.items():
        scale = 1000.0 if source != "count" else 1.0
        values[name] = scale * sources[source][key] / ops
    candidates = counts["classify.candidates"]
    values["classify.oracle_yield"] = spans.oracle_classes / candidates if candidates else 0.0
    values["trace.span_overhead"] = span_wall / plain_wall
    values["trace.profile_overhead"] = profile_wall / plain_wall
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    # measure the checkout's source, never an installed copy of the package
    if not os.path.isfile(os.path.join(SRC_DIR, "hopfon", "__init__.py")):
        print("error: no package source at %s" % SRC_DIR, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s" % (args.workload, sorted(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]

    inputs, setup_s = setup(workload, args.seed)
    passes = max(1, round(args.seconds / workload.NOMINAL_PASS_S))
    tally = Tally()
    if args.trace:
        metrics = trace_metrics(workload, inputs, max(1, round(passes / 4)), tally)
    else:
        metrics = timed_metrics(workload, inputs, passes, setup_s, tally)

    for bad in tally.wrong[:5]:
        print("wrong result: %s" % "; ".join(bad), file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
