"""Tests of the benchmark itself: python3 -m pytest bench/

Each workload runs at a smoke size and passes its checks, and each check
rejects a deliberately corrupted result, so that no check is one that
can never fail.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def executed(workload, inp):
    out = workload.execute(inp, workload.new_pass())
    assert workload.check(inp, out) == []
    return out


def rejects(workload, inp, out, **changes):
    return workload.check(inp, dict(out, **changes)) != []


# -- group-laws ---------------------------------------------------------------


@pytest.fixture(scope="module")
def group_ops():
    w = W.GroupLaws()
    inputs = w.make_inputs(7)[:6]  # n = 1, 2, 3 times both kinds
    assert {(i["kind"], i["n"]) for i in inputs} == {
        (k, n) for k in ("const", "lattice") for n in (1, 2, 3)
    }
    return w, [(inp, executed(w, inp)) for inp in inputs]


def test_group_laws_checks_reject_corrupted_results(group_ops):
    w, ops = group_ops
    for inp, out in ops:
        for law in ("assoc", "identity", "inverse"):
            assert rejects(w, inp, out, **{law: False})
        (a, b), row = out["xy"]
        assert rejects(w, inp, out, xy=((a * (1 + 1e-6), b), row))
        (a, b), row = out["xy_z"]
        assert rejects(w, inp, out, xy_z=((a, b + 1e-3), row))
        lhs, (chart, c1, c2) = out["action"]
        assert rejects(w, inp, out, action=(lhs, (chart, c1, c2 * (1 + 1e-4) + 1e-4)))
        assert rejects(w, inp, out, action=(lhs, (chart, c1 * (1 + 1e-4) + 1e-4, c2)))


# -- resonance ------------------------------------------------------------------


@pytest.fixture(scope="module")
def resonance_ops():
    w = W.Resonance()
    inputs = w.make_inputs(7)
    picked = {}
    for inp in inputs:
        picked.setdefault((inp["kind"], bool(inp["known_fault"])), inp)
    assert set(picked) == {("hyperresonant", False), ("homothety", False),
                           ("generic", False), ("hyperresonant", True)}
    return w, picked


def test_resonance_smoke_and_known_fault(resonance_ops):
    w, picked = resonance_ops
    for (kind, fault), inp in picked.items():
        bad = w.check(inp, w.execute(inp, None))
        tally = run.Tally()
        tally.add(inp, bad)
        if fault:
            # beyond the search bound of 64 the surface is classified generic
            assert bad[0].startswith("classified ('generic'")
            assert (tally.failed, tally.wrong) == (1, [])
        else:
            assert bad == []
            assert (tally.failed, tally.wrong) == (0, [])


def test_known_fault_op_failing_otherwise_is_wrong(resonance_ops):
    w, picked = resonance_ops
    inp = picked[("hyperresonant", True)]
    out = w.execute(inp, None)
    (a, b), row = out["nf_matrix"]
    for bad in (w.check(inp, dict(out, nf_matrix=((a * (1 + 1e-6), b), row))),
                w.check(inp, dict(out, nf_idempotent=False)),
                ["raised ScalarDomainError: no root"]):
        tally = run.Tally()
        tally.add(inp, bad)
        assert (tally.failed, len(tally.wrong)) == (1, 1), bad


def test_resonance_fixed_share_of_known_faults():
    w = W.Resonance()
    for seed in (1, 2, 99):
        inputs = w.make_inputs(seed)
        assert len(inputs) == w.OPS_PER_PASS
        assert sum(bool(i["known_fault"]) for i in inputs) == w.BLOCKS * len(W.BEYOND_BOUND)
    assert w.make_inputs(3) == w.make_inputs(3)
    assert w.make_inputs(3) != w.make_inputs(4)


def test_resonance_checks_reject_corrupted_results(resonance_ops):
    w, picked = resonance_ops
    for key in [("hyperresonant", False), ("homothety", False), ("generic", False)]:
        inp = picked[key]
        out = executed(w, inp)
        kind, m1, m2 = out["class"]
        if kind == "hyperresonant":
            assert rejects(w, inp, out, **{"class": (kind, m2, m1)})  # swapped pair
        assert rejects(w, inp, out, **{"class": ("generic" if m1 else "hyperresonant", 1, 2)})
        variant, (k1, k2), hyper = out["line"]
        assert rejects(w, inp, out, line=(variant, (k1 + 1, k2), hyper))  # wrong exponent
        assert rejects(w, inp, out, line=(variant, (k1, k2 - 1), hyper))
        variant, (k1, k2), hyper, inf = out["proj"]
        assert rejects(w, inp, out, proj=(variant, (k1, k2 + 1), hyper, inf))
        assert rejects(w, inp, out, proj=(variant, (k1, k2), hyper, False))
        if hyper:
            # an exponent pair shifted by the relation still reproduces the twist
            # but leaves the normalized range 0 <= k1 < m1
            assert rejects(w, inp, out, line=(variant, (k1 + m1, k2 - m2), hyper))
        assert rejects(w, inp, out, nf_conjugation_invariant=False)
        assert rejects(w, inp, out, nf_idempotent=False)
        (a, b), row = out["nf_matrix"]
        assert rejects(w, inp, out, nf_matrix=((a * (1 + 1e-6), b), row))


def test_section_residual_sees_a_wrong_twist(resonance_ops):
    w, picked = resonance_ops
    inp = picked[("hyperresonant", False)]
    variant, exps, hyper = executed(w, inp)["line"]
    value = inp["twist"]
    assert w._section_residual(inp, exps, hyper, value, False) < 1e-9
    wrong = W.gmul(value, (W.Fraction(11, 10), W.Fraction(0)))
    assert w._section_residual(inp, exps, hyper, wrong, False) > 1e-3
    assert w._section_residual(inp, exps, hyper, wrong, True) > 1e-6


# -- cli-verify ------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_ops(tmp_path_factory):
    w = W.CliVerify(spec_dir=str(tmp_path_factory.mktemp("specs")))
    inputs = w.make_inputs(7)
    picked = {(i["label"], i["n"]): i for i in inputs}
    return w, {key: (picked[key], executed(w, picked[key]))
               for key in [("generic", 1), ("exceptional-m2", 2)]}


def _edit_payload(out, edit):
    payload = json.loads(out["stdout"])
    edit(payload)
    return dict(out, stdout=json.dumps(payload))


def test_cli_verify_checks_reject_corrupted_results(cli_ops):
    w, ops = cli_ops
    inp, out = ops[("generic", 1)]
    assert w.check(inp, dict(out, code=1)) != []
    assert w.check(inp, dict(out, stdout="not json")) != []

    def drop_oracle_class(p):
        for r in p["reports"]:
            if r["check"] == "bounded_completeness":
                r["detail"]["brute_force"] -= 1

    def drop_eigenstructure(p):
        p["reports"] = [r for r in p["reports"] if r.get("structure") != W.EIGEN[1]]

    def fail_one_report(p):
        p["reports"][1]["passed"] = False

    def drop_oracle_report(p):
        p["reports"] = [r for r in p["reports"] if r["check"] != "bounded_completeness"]

    for edit in (drop_oracle_class, drop_eigenstructure, fail_one_report, drop_oracle_report):
        assert w.check(inp, _edit_payload(out, edit)) != [], edit.__name__

    inp, out = ops[("exceptional-m2", 2)]
    assert w.check(inp, _edit_payload(out, lambda p: p.update(passed=False))) != []


def test_cli_matrix_covers_every_admissible_degree():
    w = W.CliVerify(spec_dir="unused")
    assert w.OPS_PER_PASS == 14
    assert [n for label, _, _, ns in W.CLI_SURFACES if label == "exceptional-m2" for n in ns] == [2, 3]


# -- the command ------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _run("--workload", "resonance", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] * W.Resonance.BLOCK == result["attempted"] * len(W.BEYOND_BOUND)
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_without_the_package_no_result_and_nonzero_exit(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "resonance", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spans_are_removed_after_the_traced_pass():
    import hopfon
    from hopfon import cli, normalform

    before = (hopfon.normal_form, normalform.normal_form, cli.main, W.normal_form,
              hopfon.GroupElt.__dict__["compose"], hopfon.HopfSurface.__dict__["diagonal"])
    spans = tracing.Spans()
    spans.install()
    try:
        assert W.normal_form is not before[3]
        w = W.Resonance()
        inp = w.make_inputs(5)[0]
        w.execute(inp, None)
    finally:
        spans.uninstall()
    assert spans.calls["normalform.normal_form"] == 3
    assert spans.calls["hopf.surface"] == 2
    assert spans.total["hopf.surface"] >= spans.total["scalars.relation_search"] > 0
    after = (hopfon.normal_form, normalform.normal_form, cli.main, W.normal_form,
             hopfon.GroupElt.__dict__["compose"], hopfon.HopfSurface.__dict__["diagonal"])
    assert all(a is b for a, b in zip(after, before))
