"""Verification harness: equivariance, immersion, negative controls."""

import cmath
import functools
import inspect
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfon.classify import enumerate_structures, StructureRecord
from hopfon.devmaps import (
    DevMap,
    EvalError,
    UniPoly,
    det_jacobian,
    eval_devmap,
    eval_stencil_t,
    is_semiadmissible,
)
from hopfon.group import AffinePoint, GroupElt, HomogPoly, Mat2, act_affine, random_group_elt
from hopfon.hopf import HopfSurface
from hopfon import devmaps, group, verify
from hopfon.scalars import EigenBasis, GaussRat, Scalar
from hopfon.verify import (
    PROOF_BRANCHES,
    VerifyConfig,
    _fd_det,
    _kronecker_span,
    _prove_group_law,
    _sample_annulus,
    check_equivariance,
    check_group_axioms,
    check_immersion,
    point_residual,
    verify_structure,
)


def test_radial_equivariance_is_machine_precision():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = enumerate_structures(s, 2)[0]
    rep = check_equivariance(rec, s, VerifyConfig(samples=100, seed=1))
    assert rep.passed
    assert rep.max_equivariance_residual < 1e-12


def test_hyper_row1_equivariance():
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    recs = enumerate_structures(s, 2, hyper_params=[[1]])
    row1 = next(r for r in recs if r.kind == "hyperresonant")
    rep = check_equivariance(row1, s, VerifyConfig(samples=200, seed=2))
    assert rep.passed and rep.max_equivariance_residual < 1e-9


def test_corrupted_holonomy_fails():
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    recs = enumerate_structures(s, 2, hyper_params=[[1]])
    row1 = next(r for r in recs if r.kind == "hyperresonant")
    g = row1.hol.g
    bad = Mat2.diag(
        g.entries[0][0] * g.basis.gauss(Fraction(1001, 1000)), g.entries[1][1]
    )
    bad_rec = StructureRecord(
        kind=row1.kind,
        dev=row1.dev,
        hol=GroupElt.of_matrix(bad, 2),
        complete=False,
        essential=False,
        provenance="negative control",
    )
    rep = check_equivariance(bad_rec, s, VerifyConfig(samples=100, seed=3))
    assert not rep.passed


def test_branched_exceptional_map_fails_immersion():
    # t1 = z1^2 on an exceptional surface branches along z1 = 0
    s = HopfSurface.exceptional(Fraction(1, 2), 1)
    branched = DevMap(2, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly([1]), None, 2)
    rep = check_immersion(branched, VerifyConfig(samples=50, seed=4), s)
    assert not rep.passed
    assert rep.min_jacobian_magnitude <= 1e-12


def test_double_root_map_is_not_semiadmissible_and_its_jacobian_vanishes():
    bad = DevMap(
        0, 3, 1, -2, UniPoly.from_roots([2, 2]), UniPoly([1]), UniPoly([1]), (1, 2), 2
    )
    assert not is_semiadmissible(bad)
    # the double root of P1 is a zero of the exact Jacobian: it vanishes where
    # u = z1/z2^2 = 2, points the annulus samples of check_immersion miss
    det = det_jacobian(bad)
    for z2 in (1, 0.5, 1j, 1 + 1j, 2):
        z2 = complex(z2)
        assert abs(det.eval_numeric((2 * z2**2, z2))) < 1e-12


def test_eigen_immersion_det_is_one():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = next(r for r in enumerate_structures(s, 2) if r.kind == "eigen")
    rep = check_immersion(rec, VerifyConfig(samples=80, seed=6), s)
    assert rep.passed
    assert abs(rep.min_jacobian_magnitude - 1.0) < 1e-9


def test_radial_immersion_includes_axis_points():
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = enumerate_structures(s, 1)[0]
    rep = check_immersion(rec, VerifyConfig(samples=60, seed=7), s)
    assert rep.passed
    assert rep.min_jacobian_magnitude > 0.5  # |det| = |z2|^-3 or chart image


def test_group_axioms_pass():
    # the degrees beyond the three the other group-axiom tests pin
    for n in (4, 5, 6):
        rep = check_group_axioms(n)
        assert rep.passed, rep.checks


def test_group_axioms_default_is_the_proof_and_the_action_trials():
    for n in (1, 2, 3):
        rep = check_group_axioms(n)
        assert rep.passed, rep.checks
        assert rep.checks == {"action_trials": 24, "proved": list(PROOF_BRANCHES)}
        assert rep.max_equivariance_residual < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_record_does_not_depend_on_the_seed(n):
    # the record depends on n alone: repeated calls give one record, and
    # none draws from the global random generator
    state = random.getstate()
    records = [check_group_axioms(n).to_record() for _ in range(3)]
    assert random.getstate() == state
    assert records[0]["passed"]
    assert records[1] == records[0] and records[2] == records[0]


_ACT_PATHS = {
    "%s_%s_%s" % (kind, change, tag)
    for kind, changes in (
        ("diagonal", ("T_to_T", "S_to_S")),
        ("general", ("T_to_T", "T_to_S", "S_to_T", "S_to_S")),
    )
    for change in changes
    for tag in ("p", "p_zero")
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fixed_action_points_reach_every_path_of_act_affine(n):
    # each case is named for the path act_affine takes on it: diagonal or
    # general matrix, chart in and out, and p = 0 or not
    seen = []
    for path, x, chart, (c1, c2) in verify._action_cases(n):
        out = act_affine(x, AffinePoint(chart, c1.numeric(), c2.numeric()), n)
        kind = "diagonal" if x.g.is_diagonal() else "general"
        tag = "p_zero" if x.p.is_zero() else "p"
        assert path == "%s_%s_to_%s_%s" % (kind, chart, out.chart, tag)
        seen.append(path)
    assert len(_ACT_PATHS) == 12
    assert sorted(seen) == sorted(2 * list(_ACT_PATHS))


def _fails(n=2):
    """The failure reported by check_group_axioms(n), whose proof runs first."""
    rep = check_group_axioms(n)
    assert not rep.passed
    return rep.checks["failed"], rep.checks["branch"]


def test_group_axioms_catch_a_dropped_horner_term(monkeypatch):
    precompose = HomogPoly.precompose

    def dropped(p, m):
        # the Horner step that adds a_0 L2^n is skipped
        zero = p.basis.zero()
        return precompose(HomogPoly._raw(p.basis, p.degree, (zero,) + p.coeffs[1:]), m)

    monkeypatch.setattr(HomogPoly, "precompose", dropped)
    assert _fails() == ("associativity", "big_cell")


def test_group_axioms_catch_a_wrong_matrix_inverse(monkeypatch):
    def adjugate(g):
        # the inverse without the division by det: still anti-multiplicative,
        # so composition stays associative and only x x^-1 = e fails
        (a, b), (c, d) = g.entries
        return Mat2._raw(g.basis, ((d, -b), (-c, a)), g.det())

    monkeypatch.setattr(Mat2, "inverse", adjugate)
    assert _fails() == ("inverse", "big_cell")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_catch_swapped_diagonal_exponents(monkeypatch, n):
    precompose = HomogPoly.precompose

    def swapped(p, m):
        (m11, m12), (m21, m22) = m.entries
        if m12.terms or m21.terms or p.is_zero():
            return precompose(p, m)
        # a_k scaled by m11^(n-k) m22^k instead of m11^k m22^(n-k)
        d = p.degree
        cs = [a * m11 ** (d - k) * m22**k for k, a in enumerate(p.coeffs)]
        return HomogPoly._raw(p.basis, d, cs)

    monkeypatch.setattr(HomogPoly, "precompose", swapped)
    # n = 1 too: there the swap trades the diagonal entries of g^{-1}
    assert _fails(n) == ("associativity", "diagonal")


def test_group_axioms_catch_a_compose_shortcut_that_drops_p(monkeypatch):
    def shortcut(x, y):
        if y.p.is_zero():
            return GroupElt(x.g * y.g, y.p)
        return GroupElt(x.g * y.g, x.p + y.p.precompose(x.g.inverse()))

    monkeypatch.setattr(GroupElt, "compose", shortcut)
    # x e takes the shortcut with x's p nonzero
    assert _fails() == ("identity", "big_cell")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_catch_equality_up_to_any_scalar(monkeypatch, n):
    def any_scalar(x, y):
        # GroupElt.__eq__ without the test that the ratio is an n-th root of unity
        if x.p != y.p:
            return False
        flat = [e for row in x.g.entries for e in row]
        flat2 = [e for row in y.g.entries for e in row]
        ref = next(i for i, e in enumerate(flat) if not e.is_zero())
        r, r2 = flat[ref], flat2[ref]
        return not r2.is_zero() and all(e2 * r == e * r2 for e, e2 in zip(flat, flat2))

    monkeypatch.setattr(GroupElt, "__eq__", any_scalar)
    assert _fails(n) == ("equality", "scalar_multiple")


def _swapped_compose(monkeypatch):
    compose = GroupElt.compose
    # the opposite group: associativity, identity and inverse still hold
    monkeypatch.setattr(GroupElt, "compose", lambda x, y: compose(y, x))


def _right_convention(monkeypatch, with_inverse):
    def compose(x, y):
        # (g0, p0)(g1, p1) = (g0 g1, p1 + p0.g1)
        return GroupElt(x.g * y.g, y.p + x.p.precompose(y.g))

    monkeypatch.setattr(GroupElt, "compose", compose)
    if with_inverse:
        # (g, p)^-1 = (g^-1, -p.g^-1) completes a group under that product
        def inverse(x):
            return GroupElt(x.g.inverse(), -x.p.precompose(x.g.inverse()))

        monkeypatch.setattr(GroupElt, "inverse", inverse)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_catch_a_compose_in_the_swapped_order(monkeypatch, n):
    _swapped_compose(monkeypatch)
    # every group-law branch runs first and passes; the action law fails
    assert _fails(n) == ("action", "action_big_cell")


def test_group_axioms_catch_a_compose_under_the_other_convention(monkeypatch):
    _right_convention(monkeypatch, with_inverse=False)
    assert not check_group_axioms(2).passed
    monkeypatch.undo()
    # with the matching inverse it is a group again, which acts on the right
    _right_convention(monkeypatch, with_inverse=True)
    assert _fails() == ("action", "action_big_cell")


def test_group_axioms_catch_precomposition_by_the_inverse_transpose(monkeypatch):
    precompose = HomogPoly.precompose

    def inverse_transpose(p, m):
        # p(M^-T Z) is a right action too, so every group law still holds
        (a, b), (c, d) = m.inverse().entries
        return precompose(p, Mat2._raw(m.basis, ((a, c), (b, d)), m.inverse().det()))

    monkeypatch.setattr(HomogPoly, "precompose", inverse_transpose)
    for n in (1, 2, 3):
        assert _fails(n) == ("action", "action_big_cell")


def _mutant(func, old, new):
    """func compiled again from its source with old replaced by new, in a copy
    of its module's namespace."""
    src = inspect.getsource(func)
    assert src.count(old) == 1, old
    namespace = dict(func.__globals__)
    exec(src.replace(old, new), namespace)
    return namespace[func.__name__]


def _action_failure(n=2):
    rep = check_group_axioms(n)
    assert not rep.passed
    assert rep.checks["failed"] == "action"
    return rep.checks


def test_group_axioms_catch_a_dropped_diagonal_chart_s_branch(monkeypatch):
    # a diagonal matrix acts on every point by the chart-T formula
    old = 'if pt.chart == "T":\n            chart, c1, c2 = "T", ratio'
    mutant = _mutant(group.act_affine, old, old.replace('pt.chart == "T"', "True"))
    monkeypatch.setattr(verify, "act_affine", mutant)
    assert _action_failure()["paths"] == ["diagonal_S_to_S_p_zero", "diagonal_S_to_S_p"]


def test_group_axioms_catch_an_inverted_diagonal_ratio(monkeypatch):
    # (d/a, d^n) in place of (a/d, d^n)
    mutant = _mutant(group._numeric_action, "(ea / ed).numeric()", "(ed / ea).numeric()")
    monkeypatch.setattr(group, "_numeric_action", mutant)
    paths = _action_failure()["paths"]
    assert paths and all(path.startswith("diagonal_") for path in paths)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_catch_the_wrong_power_in_the_chart_s_fiber(monkeypatch, n):
    # den**n in place of num**n: at a pole den = 0, so the action raises
    mutant = _mutant(group.act_affine, "pt.c2 / num**n", "pt.c2 / den**n")
    monkeypatch.setattr(verify, "act_affine", mutant)
    checks = _action_failure(n)
    assert {"general_T_to_S_p", "general_S_to_S_p_zero"} <= set(checks["paths"])
    assert checks["error"].startswith("ZeroDivisionError")


def test_an_action_that_raises_fails_the_group_axioms(monkeypatch):
    # an exception at a fixed point fails the record and names the path
    def raising(x, pt, n=None):
        raise ZeroDivisionError("complex division by zero")

    monkeypatch.setattr(verify, "act_affine", raising)
    checks = _action_failure()
    assert sorted(checks["paths"]) == sorted(_ACT_PATHS)
    assert checks["error"] == "ZeroDivisionError: complex division by zero"
    assert checks["action_trials"] == 24


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kronecker_base_below_the_span_raises(n):
    span = _kronecker_span(n)
    assert _prove_group_law(n, base=span + 1) is None
    with pytest.raises(ValueError, match="must exceed the exponent span"):
        _prove_group_law(n, base=span)
    with pytest.raises(ValueError, match="must exceed the exponent span"):
        _prove_group_law(n, base=2)


def test_kronecker_span_bounds_every_compared_window(monkeypatch):
    # decode each scalar that the proof compares, computed with a base far
    # above any window, into per-indeterminate exponents (balanced base-N
    # digits), and check that their windows stay within the derived span,
    # for the group laws and for the action law, where the point's Z1, Z2
    # and tau are indeterminates too
    base = 10**6
    widest = {"laws": [], "action": []}
    phase = ["laws"]
    eq = Scalar.__eq__
    act_exact = verify._act_exact

    def acting(x, point):
        phase[0] = "action"  # the action pairs run after every law
        return act_exact(x, point)

    def digits(e):
        e, out = int(e), []
        while e:
            d = (e + base // 2) % base - base // 2
            out.append(d)
            e = (e - d) // base
        return out

    def recording(a, b):
        if type(b) is Scalar:
            axes = (0, 1) if a.basis.lattice.rank == 0 else (0,)
            cols = [digits(key[ax]) for key, *_ in a.terms + b.terms for ax in axes]
            for j in range(max(map(len, cols), default=0)):
                col = [c[j] if j < len(c) else 0 for c in cols]
                widest[phase[0]].append(max(col) - min(col))
        return eq(a, b)

    def run(n):
        phase[0] = "laws"
        for windows in widest.values():
            windows.clear()
        return _prove_group_law(n, base=base)

    monkeypatch.setattr(Scalar, "__eq__", recording)
    monkeypatch.setattr(verify, "_act_exact", acting)
    for n in (1, 2, 3):
        assert run(n) is None
        assert 0 < max(widest["laws"]) <= _kronecker_span(n)
        assert 0 < max(widest["action"]) <= _kronecker_span(n)
    # where the two sides of the action law differ, the left side is a
    # polynomial of its own, and its window must fit the span as well.
    # Under the right-acting convention the matrices agree, and tau' of
    # the left side reaches the window 2n that the span's derivation gives
    _right_convention(monkeypatch, with_inverse=True)
    for n in (1, 2, 3):
        assert run(n) == {"failed": "action", "branch": "action_big_cell"}
        assert max(widest["action"]) == 2 * n <= _kronecker_span(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_make_few_composes(monkeypatch, n):
    # the proof composes 8 times per triple (4 associativity, 2 identity,
    # 2 inverse) on 3 triples and once per action pair on 3 pairs; the
    # float action check composes nothing.  Sampling the laws instead
    # would cost 8 composes per random triple.
    calls = [0]
    compose = GroupElt.compose

    def counting(x, y):
        calls[0] += 1
        return compose(x, y)

    monkeypatch.setattr(GroupElt, "compose", counting)
    assert check_group_axioms(n).passed
    assert calls[0] == 3 * 8 + 3


def test_verify_structure_bundle():
    s = HopfSurface.exceptional(Fraction(1, 2), 2)
    rec = enumerate_structures(s, 2)[0]
    reports = verify_structure(rec, s, VerifyConfig(samples=100, seed=9))
    assert all(r.passed for r in reports)
    recd = [r.to_record() for r in reports]
    assert {r["check"] for r in recd} == {"equivariance", "immersion"}


def _radial_n3_far_out():
    # at |z| ~ 1e120, z2^3 overflows, so t2 = 1/z2^3 and det J are nan+nanj
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = enumerate_structures(s, 3)[0]
    assert rec.kind == "radial"
    return rec, s, VerifyConfig(annulus=(1e120, 1e121), samples=50)


def test_nan_residuals_fail_equivariance():
    rec, s, cfg = _radial_n3_far_out()
    rep = check_equivariance(rec, s, cfg)
    assert not rep.passed
    assert math.isnan(rep.max_equivariance_residual)
    assert len(rep.failing_samples) == 50
    out = rep.to_record()
    assert out["max_equivariance_residual"] is None
    json.dumps(out, allow_nan=False)


def test_nan_determinants_and_differences_fail_immersion():
    rec, s, cfg = _radial_n3_far_out()
    rep = check_immersion(rec, cfg, s)
    assert not rep.passed
    assert math.isnan(rep.min_jacobian_magnitude) and math.isnan(rep.max_fd_mismatch)
    assert rep.checks == {"fd_samples": 50}
    # every annulus sample is listed once, though both its determinant
    # and its finite difference are NaN
    assert len(rep.failing_samples) == len({id(z) for z in rep.failing_samples}) >= 50
    out = rep.to_record()
    assert out["min_jacobian_magnitude"] is None and out["max_fd_mismatch"] is None
    json.dumps(out, allow_nan=False)


def test_infinite_determinant_fails_immersion(monkeypatch):
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = next(r for r in enumerate_structures(s, 2) if r.kind == "eigen")

    class InfiniteAtThirdSample:
        def __init__(self, det):
            self.det, self.calls = det, 0

        def eval_numeric(self, z):
            self.calls += 1
            return complex("inf") if self.calls == 3 else self.det.eval_numeric(z)

    monkeypatch.setattr(verify, "det_jacobian", lambda d: InfiniteAtThirdSample(det_jacobian(d)))
    rep = check_immersion(rec, VerifyConfig(samples=20, seed=6), s)
    assert not rep.passed
    # the minimum over the samples is still |det J| = 1; the infinite one is listed
    assert rep.min_jacobian_magnitude == pytest.approx(1.0)
    assert len(rep.failing_samples) == 1


def test_a_nan_action_residual_fails_the_group_axioms(monkeypatch):
    calls = []

    def one_nan(p, q, n, fiber="abs"):
        # one NaN among finite residuals, which max() would drop
        calls.append(fiber)
        return math.nan if len(calls) == 7 else point_residual(p, q, n, fiber)

    monkeypatch.setattr(verify, "point_residual", one_nan)
    rep = check_group_axioms(2)
    assert len(calls) == 24
    assert not rep.passed
    assert rep.checks["paths"] == [verify._action_cases(2)[6][0]]
    assert math.isnan(rep.max_equivariance_residual)
    assert rep.to_record()["max_equivariance_residual"] is None


def test_annulus_validation():
    with pytest.raises(ValueError):
        VerifyConfig(annulus=(1.0, 0.5)).resolve_annulus()


# ---------------------------------------------------------------------------
# Bit parity of the numeric evaluation with a per-call reference.
# The reference converts every exact coefficient to a float on each call,
# as evaluation did before the floats were kept on the objects, and goes
# through the helper calls and closures that the evaluators have since
# inlined; `eval_devmap`, `act_affine`, `AffinePoint.in_chart`,
# `point_residual`, `chordal`, `_sample_annulus` and `_fd_det` must repeat
# its float operations in the same order.  The reference shares no code
# with them: its helpers are copies kept here.


def _mono(z: complex, k: int):
    """z^k with 0^positive = 0, 0^0 = 1, 0^negative = infinity (None)."""
    if z == 0:
        if k > 0:
            return 0j
        if k == 0:
            return 1 + 0j
        return None
    return z**k


def _ratio(a, b):
    """a/b with None = infinity; returns None for infinity, raises on 0/0."""
    if a is None and b is None:
        raise EvalError("indeterminate infinity/infinity")
    if a is None:
        return None
    if b is None:
        return 0j
    if b == 0:
        if a == 0:
            raise EvalError("indeterminate 0/0")
        return None
    return a / b


def _chart_value(z1, a, z2, b, H, K, p):
    """z1^a z2^b H / K^p with infinity tracking; None marks infinity."""
    f1 = _mono(z1, a)
    f2 = _mono(z2, b)
    num = None if (f1 is None or f2 is None) else f1 * f2 * H
    den = K**p
    try:
        return _ratio(num, den)
    except EvalError:
        return None


def _ref_poly_at(p, z1, z2, m1, m2):
    total = 0j
    deg = p.degree
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        f1 = _mono(z1, m1 * i)
        f2 = _mono(z2, m2 * (deg - i))
        if f1 is None or f2 is None:
            raise EvalError("negative power of zero in homogenized polynomial")
        total += c.to_complex() * f1 * f2
    return total


def ref_eval_devmap(d, z):
    z1, z2 = complex(z[0]), complex(z[1])
    if z1 == 0 and z2 == 0:
        raise EvalError("the developing map lives on C^2 minus the origin")
    m1, m2 = d._m()
    h1 = _ref_poly_at(d.P1, z1, z2, m1, m2)
    hq = _ref_poly_at(d.Q1, z1, z2, m1, m2)
    h2 = _ref_poly_at(d.P2, z1, z2, m1, m2)
    kt2, lt2 = d.tilde_exponents()
    t1 = _chart_value(z1, d.k1, z2, kt2, h1, hq, 1)
    t2 = _chart_value(z1, d.l1, z2, lt2, h2, hq, d.n)
    if t1 is not None and t2 is not None:
        return AffinePoint("T", t1, t2)
    s1 = _chart_value(z1, -d.k1, z2, -kt2, hq, h1, 1)
    s2 = _chart_value(z1, d.l1 - d.n * d.k1, z2, lt2 - d.n * kt2, h2, h1, d.n)
    if s1 is not None and s2 is not None:
        return AffinePoint("S", s1, s2)
    raise EvalError("point lies on a zero locus of both charts; resample")


def _ref_unipoly(p, x):
    total = 0j
    for c in reversed(p.coeffs):
        total = total * x + c.to_complex()
    return total


def ref_det(det, z):
    z1, z2 = complex(z[0]), complex(z[1])
    if det.hyper is not None:
        m1, m2 = det.hyper
        u = z1**m1 / z2**m2
    else:
        u = 1.0
    val = z1**det.z1_exp * z2**det.z2_exp
    val *= _ref_unipoly(det.P1, u) * _ref_unipoly(det.P2, u)
    val /= _ref_unipoly(det.Q1, u) ** (det.n + 1)
    return val * (_ref_unipoly(det.R_num, u) / _ref_unipoly(det.R_den, u))


def _ref_poly_value(p, w, chart):
    total = 0j
    power = 1.0 + 0j
    ks = range(p.degree + 1) if chart == "T" else range(p.degree, -1, -1)
    for k in ks:
        c = p.coeffs[k]
        if not c.is_zero():
            total += c.numeric() * power
        power *= w
    return total


def ref_act_affine(x, pt, n):
    (ea, eb), (ec, ed) = x.g.entries
    if x.g.is_diagonal():
        ratio = (ea / ed).numeric()
        dn = (ed**n).numeric()
        if pt.chart == "T":
            out = AffinePoint("T", ratio * pt.c1, pt.c2 / dn)
        else:
            out = AffinePoint("S", pt.c1 / ratio, pt.c2 / (ratio**n * dn))
    else:
        a, b, c, d = ea.numeric(), eb.numeric(), ec.numeric(), ed.numeric()
        if pt.chart == "T":
            num, den = a * pt.c1 + b, c * pt.c1 + d
        else:
            num, den = a + b * pt.c1, c + d * pt.c1
        scale = max(abs(num), abs(den))
        if scale == 0:
            raise ArithmeticError("degenerate image point; matrix is singular numerically")
        if abs(den) >= 1e-9 * scale and abs(num) <= 1e6 * abs(den):
            out = AffinePoint("T", num / den, pt.c2 / den**n)
        else:
            out = AffinePoint("S", den / num, pt.c2 / num**n)
    if x.p.is_zero():
        return out
    return AffinePoint(out.chart, out.c1, out.c2 + _ref_poly_value(x.p, out.c1, out.chart))


def _outcome(f, *args):
    """f(*args) as a comparable value: the result, or the exception type."""
    try:
        out = f(*args)
    except ArithmeticError as exc:
        return type(exc)
    if isinstance(out, AffinePoint):
        return (out.chart, out.c1, out.c2)
    return out


def _same(a, b):
    # the same floats, signs of zeros included; two NaNs in one place agree
    return repr(a) == repr(b)


@functools.lru_cache(maxsize=None)
def _parity_records():
    params = [[2], [2, 3]]
    cases = [(HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3)), (1, 2, 3))]
    cases.append((HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2)), (1, 2, 3)))
    cases.append((HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2)), (1, 2)))
    cases.append((HopfSurface.exceptional(Fraction(1, 2), 1), (1, 2, 3)))
    cases.append((HopfSurface.exceptional(Fraction(1, 2), 2), (2, 3)))
    recs = [r for s, ns in cases for n in ns for r in enumerate_structures(s, n, hyper_params=params)]
    assert {r.kind for r in recs} >= {"radial", "eigen", "hyperresonant"}
    assert any(r.dev.hyper and not r.dev.P1.is_constant() for r in recs)
    return tuple(recs)


@functools.lru_cache(maxsize=None)
def _parity_elements():
    """Record holonomies and random elements, diagonal or not, with p zero or not."""
    elts = [r.hol for r in _parity_records()]
    rng = random.Random(12)
    b = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    for n in (1, 2, 3):
        for _ in range(4):
            x = random_group_elt(b, n, rng)
            elts += [x, GroupElt(x.g, HomogPoly.zero(b, n))]
            (a, _), (_, d) = x.g.entries
            if not (a.is_zero() or d.is_zero()):
                elts += [GroupElt(Mat2.diag(a, d), x.p), GroupElt.of_matrix(Mat2.diag(a, d), n)]
    return tuple(elts)


_coord = st.one_of(
    st.just(0j),
    st.just(complex(-0.0, -0.0)),
    st.builds(
        lambda r, t: cmath.rect(r, t),
        st.floats(0.05, 3.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), _coord, _coord)
def test_cached_devmap_and_jacobian_match_per_call_reference(i, z1, z2):
    recs = _parity_records()
    dev = recs[i % len(recs)].dev
    z = (z1, z2)
    for d in (dev, dev.hat()):
        assert _same(_outcome(eval_devmap, d, z), _outcome(ref_eval_devmap, d, z))
        det = det_jacobian(d)
        assert _same(_outcome(det.eval_numeric, z), _outcome(ref_det, det, z))


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from("TS"), _coord, _coord)
def test_cached_action_matches_per_call_reference(i, chart, c1, c2):
    elts = _parity_elements()
    x = elts[i % len(elts)]
    pt = AffinePoint(chart, c1, c2)
    n = x.degree
    assert _same(_outcome(act_affine, x, pt, n), _outcome(ref_act_affine, x, pt, n))


def ref_in_chart(pt, chart, n):
    if chart == pt.chart:
        return pt
    if pt.c1 == 0:
        raise ZeroDivisionError("point is not visible in the other chart")
    return AffinePoint(chart, 1 / pt.c1, pt.c2 / pt.c1**n)


def ref_chordal(a, b):
    from math import inf, isinf, sqrt

    a_inf = isinf(a.real) or isinf(a.imag) if isinstance(a, complex) else a == inf
    b_inf = isinf(b.real) or isinf(b.imag) if isinstance(b, complex) else b == inf
    if a_inf and b_inf:
        return 0.0
    if a_inf:
        return 1 / sqrt(1 + abs(b) ** 2)
    if b_inf:
        return 1 / sqrt(1 + abs(a) ** 2)
    return abs(a - b) / sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def ref_point_residual(p, q, n, fiber="abs"):
    t1p = p.c1 if p.chart == "T" else (1 / p.c1 if p.c1 != 0 else complex("inf"))
    t1q = q.c1 if q.chart == "T" else (1 / q.c1 if q.c1 != 0 else complex("inf"))
    res = ref_chordal(t1p, t1q)

    def fiber_diff(a, b):
        return ref_chordal(a, b) if fiber == "chordal" else abs(a - b) / max(1.0, abs(a), abs(b))

    try:
        q_al = ref_in_chart(q, p.chart, n)
        res += fiber_diff(p.c2, q_al.c2)
    except ZeroDivisionError:
        try:
            p_al = ref_in_chart(p, q.chart, n)
            res += fiber_diff(p_al.c2, q.c2)
        except ZeroDivisionError:
            res += 1.0
    return res


def ref_sample_annulus(rng, r0, r1):
    def coord():
        r = math.exp(rng.uniform(math.log(r0), math.log(r1)))
        return r * cmath.exp(2j * math.pi * rng.random())

    return (coord(), coord())


def ref_fd_det(dev, z, n, pt, rel=1e-6):
    z1, z2 = z

    def chart_t(w1, w2):
        return ref_in_chart(ref_eval_devmap(dev, (w1, w2)), "T", n)

    try:
        h1 = rel * max(abs(z1), 1.0)
        h2 = rel * max(abs(z2), 1.0)
        pp = chart_t(z1 + h1, z2)
        pm = chart_t(z1 - h1, z2)
        qp = chart_t(z1, z2 + h2)
        qm = chart_t(z1, z2 - h2)
        base = ref_in_chart(pt, "T", n)
    except (EvalError, ZeroDivisionError, OverflowError):
        return None
    if max(abs(base.c1), abs(base.c2)) > 1e4:
        return None
    j11 = (pp.c1 - pm.c1) / (2 * h1)
    j21 = (pp.c2 - pm.c2) / (2 * h1)
    j12 = (qp.c1 - qm.c1) / (2 * h2)
    j22 = (qp.c2 - qm.c2) / (2 * h2)
    return j11 * j22 - j12 * j21


# coordinates of affine points, from 0 up to 1e6 in modulus
_wide = st.one_of(
    _coord,
    st.builds(
        lambda r, t: cmath.rect(r, t),
        st.floats(1e-6, 1e6),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
    ),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from("TS"), st.sampled_from("TS"), _wide, _wide, st.integers(1, 3))
def test_in_chart_matches_reference(chart, target, c1, c2, n):
    pt = AffinePoint(chart, c1, c2)
    assert _same(_outcome(pt.in_chart, target, n), _outcome(ref_in_chart, pt, target, n))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from("TS"), _wide, _wide, st.sampled_from("TS"), _wide, _wide,
    st.integers(1, 3), st.sampled_from(["abs", "chordal"]),
)
def test_point_residual_matches_reference(chart_p, p1, p2, chart_q, q1, q2, n, fiber):
    p, q = AffinePoint(chart_p, p1, p2), AffinePoint(chart_q, q1, q2)
    assert _same(
        _outcome(point_residual, p, q, n, fiber), _outcome(ref_point_residual, p, q, n, fiber)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.floats(1e-3, 1e3), st.floats(1.001, 1e3))
def test_sample_annulus_matches_reference(seed, r0, ratio):
    r1 = r0 * ratio
    rng, ref = random.Random(seed), random.Random(seed)
    lo, hi = math.log(r0), math.log(r1)
    for _ in range(5):
        assert _same(_sample_annulus(rng, lo, hi), ref_sample_annulus(ref, r0, r1))
    assert rng.getstate() == ref.getstate()


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6), _coord, _coord)
def test_fd_det_matches_reference(i, z1, z2):
    recs = _parity_records()
    dev = recs[i % len(recs)].dev
    z = (z1, z2)
    try:
        pt, ref_pt = eval_devmap(dev, z), ref_eval_devmap(dev, z)
    except EvalError:
        return
    assert _same(_fd_det(dev, z, dev.n, pt), ref_fd_det(dev, z, dev.n, ref_pt))


def ref_stencil(dev, z, h1, h2):
    """The four chart-T stencil values of `_fd_det`, one `ref_eval_devmap` each."""
    z1, z2 = z
    out = []
    for w in ((z1 + h1, z2), (z1 - h1, z2), (z1, z2 + h2), (z1, z2 - h2)):
        pt = ref_in_chart(ref_eval_devmap(dev, w), "T", dev.n)
        out.append((pt.c1, pt.c2))
    return out


# Constants of the kernel maps: 2^-600 and 2^600 make K^n underflow to 0 or
# overflow for n >= 2, so the chart-T denominators stay out of the plan.
_KERNEL_CONSTS = (1, -1, 2, Fraction(1, 2), GaussRat(1, 1), GaussRat(0, -3), Fraction(1, 2**600), 2**600)
# dyadic roots, so that K vanishes exactly at z1 = r z2^m2 (m1 = 1)
_KERNEL_ROOTS = (2, -1, Fraction(1, 2), GaussRat(1, 1), GaussRat(0, Fraction(-1, 4)))
_KERNEL_Z2 = (1, -1, 1j, -1j, 2, 0.5)


@st.composite
def _kernel_cases(draw):
    """(map, point): a map whose polynomials are constants, or all but one
    when it has a hyperresonance, at a point on an axis, at a root of Q1, or
    at a radius from 1e-200 to 1e200 where powers underflow or overflow."""
    n = draw(st.integers(1, 3))
    k1, k2, l1, l2 = (draw(st.integers(-3, 3)) for _ in range(4))
    kind = draw(st.sampled_from(["radius", "axis", "q1_root"]))
    hyper = draw(st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))))
    varying = None  # the index of the nonconstant polynomial among P1, Q1, P2
    if kind == "q1_root":
        hyper, varying = (1, hyper[1] if hyper else 1), 1
    elif hyper is not None and draw(st.booleans()):
        varying = draw(st.integers(0, 2))
    consts = [draw(st.sampled_from(_KERNEL_CONSTS)) for _ in range(3)]
    polys = [UniPoly([c]) for c in consts]
    if varying is not None:
        roots = draw(st.lists(st.sampled_from(_KERNEL_ROOTS), min_size=1, max_size=2, unique=True))
        polys[varying] = UniPoly.from_roots(roots, lead=consts[varying])
    d = DevMap(k1, k2, l1, l2, *polys, hyper, n)
    if kind == "q1_root":
        z2 = complex(draw(st.sampled_from(_KERNEL_Z2)))
        return d, (complex(draw(st.sampled_from(roots))) * z2 ** hyper[1], z2)
    w = cmath.rect(10.0 ** draw(st.floats(-200, 200)), draw(st.floats(0, 2 * math.pi)))
    if kind == "axis":
        zero = draw(st.sampled_from([0j, complex(-0.0, -0.0)]))
        return d, draw(st.sampled_from([(zero, w), (w, zero)]))
    return d, (w, cmath.rect(10.0 ** draw(st.floats(-200, 200)), draw(st.floats(0, 2 * math.pi))))


def _kernel_mismatches(d, z):
    """The float kernels of d that disagree with the reference at z."""
    bad = []
    if not _same(_outcome(eval_devmap, d, z), _outcome(ref_eval_devmap, d, z)):
        bad.append("eval_devmap")
    det = det_jacobian(d)
    if not _same(_outcome(det.eval_numeric, z), _outcome(ref_det, det, z)):
        bad.append("DetJacobian.eval_numeric")
    h1, h2 = 1e-6 * max(abs(z[0]), 1.0), 1e-6 * max(abs(z[1]), 1.0)
    if not _same(_outcome(eval_stencil_t, d, z, h1, h2), _outcome(ref_stencil, d, z, h1, h2)):
        bad.append("eval_stencil_t")
    try:
        pt, ref_pt = eval_devmap(d, z), ref_eval_devmap(d, z)
    except ArithmeticError:
        return bad
    if not _same(_outcome(_fd_det, d, z, d.n, pt), _outcome(ref_fd_det, d, z, d.n, ref_pt)):
        bad.append("_fd_det")
    return bad


@settings(max_examples=400, deadline=None)
@given(_kernel_cases())
def test_map_kernels_match_reference(case):
    d, z = case
    assert _kernel_mismatches(d, z) == []


def test_map_kernel_parity_catches_swapped_exponents_on_the_folded_path(monkeypatch):
    # k2~ and l2~ swapped where K is constant and den1, denn are in the plan
    chart_t = devmaps._chart_t

    def swapped(plan, z1, z2):
        h1, hq, h2, k1, kt2, l1, lt2, n, den1, denn = plan
        if den1 is not None:
            plan = (h1, hq, h2, k1, lt2, l1, kt2, n, den1, denn)
        return chart_t(plan, z1, z2)

    monkeypatch.setattr(devmaps, "_chart_t", swapped)
    with pytest.raises(AssertionError, match=r"\] == \[\]"):
        test_map_kernels_match_reference()


def _count_calls(monkeypatch, module, name, *also):
    """Count the calls of module.name, patched there and in the modules `also`."""
    calls = []
    func = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return func(*args)

    for mod in (module,) + also:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_immersion_evaluates_the_map_once_per_sample(monkeypatch):
    # 200 samples and 8 axis points; the stencil of a map with constant
    # polynomials never falls back to eval_devmap
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = next(r for r in enumerate_structures(s, 2) if r.kind == "radial")
    assert all(p.is_constant() for p in (rec.dev.P1, rec.dev.Q1, rec.dev.P2))
    calls = _count_calls(monkeypatch, devmaps, "eval_devmap", verify)
    rep = check_immersion(rec, VerifyConfig(), s)
    assert rep.passed and rep.checks["fd_samples"] == 200
    assert len(calls) == 208


def test_immersion_builds_the_chart_s_jacobian_only_when_a_sample_needs_it(monkeypatch):
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    recs = {r.provenance: r for r in enumerate_structures(s, 2)}
    calls = _count_calls(monkeypatch, devmaps, "det_jacobian", verify)
    charts = []
    real_eval = verify.eval_devmap

    def eval_and_record(d, z):
        pt = real_eval(d, z)
        charts.append(pt.chart)
        return pt

    monkeypatch.setattr(verify, "eval_devmap", eval_and_record)
    # the eigenstructure along axis 1 evaluates every sample in chart T
    assert check_immersion(recs["eigenstructure along axis 1"], VerifyConfig(), s).passed
    assert set(charts) == {"T"} and len(calls) == 1
    # the radial structure has samples in chart S: its hat map's Jacobian is built once
    calls.clear()
    charts.clear()
    assert check_immersion(recs["radial structure on a linear surface"], VerifyConfig(), s).passed
    assert charts.count("S") > 1 and len(calls) == 2
    assert calls[1][0] == recs["radial structure on a linear surface"].dev.hat()


def test_numeric_plan_is_built_once_per_map(monkeypatch):
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    recs = enumerate_structures(s, 2, hyper_params=[[2]])
    assert any(not r.dev.P1.is_constant() for r in recs)
    calls = _count_calls(monkeypatch, devmaps, "_homogenized")
    for rec in recs:
        before = len(calls)
        assert all(rep.passed for rep in verify_structure(rec, s, VerifyConfig(samples=20)))
        assert len(calls) - before == 3  # P1, Q1, P2 of rec.dev, once
        assert devmaps._numeric_plan(rec.dev) is rec.dev._plan
    assert len(calls) == 3 * len(recs)


def ref_random_entries(n, rng, scale=3):
    """The Gaussian rationals `random_group_elt` draws, by randrange: the
    matrix entries row by row, redrawn while singular, then p's
    coefficients."""

    def small():
        a, b = rng.randrange(2 * scale + 1) - scale, rng.randrange(scale) + 1
        c, d = rng.randrange(2 * scale + 1) - scale, rng.randrange(scale) + 1
        return (Fraction(a, b), Fraction(c, d))

    while True:
        (ar, ai), (br, bi), (cr, ci), (dr, di) = m = [small() for _ in range(4)]
        if (ar * dr - ai * di - br * cr + bi * ci, ar * di + ai * dr - br * ci - bi * cr) != (0, 0):
            break
    return m + [small() for _ in range(n + 1)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_group_elt_draws_randranges_stream(n):
    b = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(50):
            x = random_group_elt(b, n, rng)
            entries = [e for row in x.g.entries for e in row] + list(x.p.coeffs)
            assert [(e.coeff.re, e.coeff.im) for e in entries] == ref_random_entries(n, ref)
        assert rng.getstate() == ref.getstate()
    with pytest.raises(ValueError):
        random_group_elt(b, n, random.Random(0), scale=0)
