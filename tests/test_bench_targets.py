"""The benchmark's traced pass names functions of hopfon by "module:qualname";
each must still resolve, so that a rename cannot silently break a span or a
count.  bench/tracing.py imports only the standard library and is loaded by
path."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in (tracing.SPAN_TARGETS, tracing.COUNT_TARGETS) for ts in group.values() for t in ts]
    targets += tracing.CANDIDATE
    unresolved = []
    for target in targets:
        try:
            tracing.code_key(target)  # resolves the target and reads its code object
        except (ImportError, AttributeError) as exc:
            unresolved.append("%s: %s" % (target, exc))
    assert len(targets) > 20 and not unresolved, unresolved
