"""Verification harness: equivariance, immersion, negative controls."""

import cmath
import functools
import inspect
import itertools
import json
import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfon.classify import enumerate_structures, StructureRecord
from hopfon.devmaps import (
    DetJacobian,
    DevMap,
    EvalError,
    UniPoly,
    det_jacobian,
    eval_devmap,
    is_semiadmissible,
    map_kernel,
)
from hopfon.group import AffinePoint, GroupElt, HomogPoly, Mat2, act_affine, random_group_elt
from hopfon.hopf import HopfSurface, SurfaceError
from hopfon import devmaps, group, scalars, verify
from hopfon.scalars import EigenBasis, GaussRat, Scalar
from hopfon.verify import (
    VerifyConfig,
    VerifyReport,
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
    det = map_kernel(bad).jacobian()
    for z2 in (1, 0.5, 1j, 1 + 1j, 2):
        z2 = complex(z2)
        assert abs(det(2 * z2**2, z2, "T")) < 1e-12


@pytest.mark.parametrize("seed", [0, 5])
def test_a_map_branched_along_the_z2_axis_fails_immersion_there(seed):
    # (z1, z1 - 2 z2^2) on (1/4, 1/2) has det J = -4 z2, which vanishes on the
    # axis z2 = 0; the determinant is read there in homogenized form, with no
    # u = z1/z2^2 to divide by zero, so the axis samples fail
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    axis_map = DevMap(1, 0, 0, 2, UniPoly([1]), UniPoly([1]), UniPoly.from_roots([2]), (1, 2), 1)
    rep = check_immersion(axis_map, VerifyConfig(seed=seed), s)
    assert not rep.passed and rep.min_jacobian_magnitude == 0.0
    assert rep.failing_samples and all(z[1] == 0 for z in rep.failing_samples)
    assert rep.max_fd_mismatch < 1e-5


@pytest.mark.parametrize("seed", [0, 5])
def test_the_homothety_automorphism_passes_immersion(seed):
    # (z1, z1 - 2 z2) on (1/2, 1/2) has det J = -2 everywhere, on u = 2 and on
    # both axes too
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2))
    auto = DevMap(1, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly.from_roots([2]), (1, 1), 1)
    rep = check_immersion(auto, VerifyConfig(seed=seed), s)
    assert rep.passed and rep.min_jacobian_magnitude == 2.0


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


_PROVED = [
    "scalar_multiple",
    "action_big_cell",
    "action_diagonal",
    "action_p_zero",
    "identity",
    "inverse",
]


def test_group_axioms_default_is_the_proof_and_the_action_trials():
    for n in (1, 2, 3):
        rep = check_group_axioms(n)
        assert rep.passed, rep.checks
        assert rep.checks == {"action_trials": 24, "proved": _PROVED}
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

    def dropped(p, m, plus=None):
        # the Horner step that adds a_0 L2^n is skipped
        zero = p.basis.zero()
        return precompose(HomogPoly._raw(p.basis, p.degree, (zero,) + p.coeffs[1:]), m, plus)

    monkeypatch.setattr(HomogPoly, "precompose", dropped)
    assert _fails() == ("action", "action_big_cell")


def test_group_axioms_catch_a_wrong_matrix_inverse(monkeypatch):
    def adjugate(g):
        # the inverse without the division by det: compose precomposes
        # p_y by g_x^{-1}, so the action law fails
        (a, b), (c, d) = g.entries
        return Mat2._raw(g.basis, ((d, -b), (-c, a)), g.det())

    monkeypatch.setattr(Mat2, "inverse", adjugate)
    assert _fails() == ("action", "action_big_cell")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_catch_swapped_diagonal_exponents(monkeypatch, n):
    precompose = HomogPoly.precompose

    def swapped(p, m, plus=None):
        (m11, m12), (m21, m22) = m.entries
        if m12.terms or m21.terms or p.is_zero():
            return precompose(p, m, plus)
        # a_k scaled by m11^(n-k) m22^k instead of m11^k m22^(n-k)
        d = p.degree
        cs = [a * m11 ** (d - k) * m22**k for k, a in enumerate(p.coeffs)]
        out = HomogPoly._raw(p.basis, d, cs)
        return out if plus is None else plus + out

    monkeypatch.setattr(HomogPoly, "precompose", swapped)
    # n = 1 too: there the swap trades the diagonal entries of g^{-1}
    assert _fails(n) == ("action", "action_diagonal")


def test_group_axioms_catch_a_compose_shortcut_that_drops_p(monkeypatch):
    def shortcut(x, y):
        if y.p.is_zero():
            return GroupElt(x.g * y.g, y.p)
        return GroupElt(x.g * y.g, x.p + y.p.precompose(x.g.inverse()))

    monkeypatch.setattr(GroupElt, "compose", shortcut)
    # x y takes the shortcut with x's p nonzero
    assert _fails() == ("action", "action_p_zero")


def test_group_axioms_catch_an_inverse_that_keeps_the_sign_of_p(monkeypatch):
    def unsigned(x):
        # (g^-1, +p.g): x^-1 x = (I, 2 p.g)
        return GroupElt(x.g.inverse(), x.p.precompose(x.g))

    monkeypatch.setattr(GroupElt, "inverse", unsigned)
    assert _fails() == ("inverse", "inverse")


def test_group_axioms_catch_an_identity_that_scales_the_point(monkeypatch):
    def doubled(cls, basis, n):
        # (2I, 0) acts as (Z, tau) -> (2Z, tau), not as the identity
        return cls(Mat2.identity(basis).scale(basis.gauss(2)), HomogPoly.zero(basis, n))

    monkeypatch.setattr(GroupElt, "identity", classmethod(doubled))
    assert _fails() == ("identity", "identity")


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
    # the opposite group: associativity, identity and inverse still hold,
    # the action law does not
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

    def inverse_transpose(p, m, plus=None):
        # p(M^-T Z) is a right action too, so every group law still holds
        (a, b), (c, d) = m.inverse().entries
        return precompose(p, Mat2._raw(m.basis, ((a, c), (b, d)), m.inverse().det()), plus)

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
    old = 'if chart == "T":\n                chart, c1, c2 = "T", ratio'
    mutant = _mutant(group._numeric_action, old, old.replace('chart == "T"', "True"))
    monkeypatch.setattr(group, "_numeric_action", mutant)
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
    mutant = _mutant(group._numeric_action, "c2 / num**n", "c2 / den**n")
    monkeypatch.setattr(group, "_numeric_action", mutant)
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
    # for every check of the proof.  A check's comparisons run before it
    # is yielded, so the windows seen since the last yield are its own
    base = 10**6
    pending, windows = [], {}
    eq = Scalar.__eq__
    checks = verify._group_law_checks

    def labelled(n, base):
        for law, branch, holds in checks(n, base):
            windows[branch] = list(pending)
            pending.clear()
            yield law, branch, holds

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
            width = 0
            for j in range(max(map(len, cols), default=0)):
                col = [c[j] if j < len(c) else 0 for c in cols]
                width = max(width, max(col) - min(col))
            pending.append(width)
        return eq(a, b)

    def run(n):
        pending.clear()
        windows.clear()
        return _prove_group_law(n, base=base)

    def widest(branch):
        return max(windows[branch], default=0)

    monkeypatch.setattr(Scalar, "__eq__", recording)
    monkeypatch.setattr(verify, "_group_law_checks", labelled)
    actions = [b for b in _PROVED if b.startswith("action_")]
    for n in (1, 2, 3):
        assert run(n) is None
        assert list(windows) == _PROVED
        assert max(map(widest, _PROVED)) <= _kronecker_span(n)
        assert 0 < widest("scalar_multiple") and 0 < widest("action_big_cell")
        # each action pair compares the two Z components, then tau'; at the
        # adjugate point the Z components have window at most 2 at every n
        for branch in actions:
            assert len(windows[branch]) == 3 and max(windows[branch][:2]) <= 2
    # where the two sides of a check differ, the left side is a
    # polynomial of its own, and its window must fit the span as well.
    # An inverse that keeps the sign of p leaves x^-1 x = (I, 2 p.g): a
    # coefficient of p.g holds n entries of g, window n
    inverse = GroupElt.inverse
    monkeypatch.setattr(GroupElt, "inverse", lambda x: GroupElt(x.g.inverse(), x.p.precompose(x.g)))
    for n in (1, 2, 3):
        assert run(n) == {"failed": "inverse", "branch": "inverse"}
        assert widest("inverse") == n <= _kronecker_span(n)
    monkeypatch.setattr(GroupElt, "inverse", inverse)
    # A matrix other than g_x g_y fails at the first Z component, window 2,
    # and the tau components, which could be wider, are never compared
    _swapped_compose(monkeypatch)
    for n in (1, 2, 3):
        assert run(n) == {"failed": "action", "branch": "action_big_cell"}
        assert windows["action_big_cell"] == [2]
    # Under the right-acting convention the matrices agree, and tau' reaches
    # the window 2n that the span's derivation gives: p_x.g_y times
    # det(M)^n has y's u and v in n..2n beside tau's 0
    _right_convention(monkeypatch, with_inverse=True)
    for n in (1, 2, 3):
        assert run(n) == {"failed": "action", "branch": "action_big_cell"}
        assert max(windows["action_big_cell"][:2]) <= 2
        assert windows["action_big_cell"][2] == 2 * n == _kronecker_span(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_proved_list_names_the_checks_the_proof_ran(monkeypatch, n):
    # each check is named here from the elements the proof hands to
    # GroupElt.__eq__, compose and _act_exact, not from the proof's names
    ran = []
    eq, compose, act_exact = GroupElt.__eq__, verify.compose, verify._act_exact

    def equal(x, y):
        if "zeta" in x.basis.names and ran[-1:] != ["scalar_multiple"]:
            ran.append("scalar_multiple")
        return eq(x, y)

    def composing(x, y):
        if x.g * y.g == Mat2.identity(x.basis):
            ran.append("inverse")
        elif x.g.is_diagonal():
            ran.append("action_diagonal")
        elif y.p.is_zero():
            ran.append("action_p_zero")
        else:
            ran.append("action_big_cell")
        return compose(x, y)

    def acting(x, point):
        if x.g == Mat2.identity(x.basis) and x.p.is_zero():
            ran.append("identity")
        return act_exact(x, point)

    monkeypatch.setattr(GroupElt, "__eq__", equal)
    monkeypatch.setattr(verify, "compose", composing)
    monkeypatch.setattr(verify, "_act_exact", acting)
    rep = check_group_axioms(n)
    assert rep.passed
    assert rep.checks["proved"] == ran == _PROVED


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_axioms_make_few_composes(monkeypatch, n):
    # the proof composes once per action pair on 3 pairs and once in the
    # inverse check; the float action check composes nothing.  Sampling
    # the laws instead would cost 8 composes per random triple.
    calls = [0]
    compose = GroupElt.compose

    def counting(x, y):
        calls[0] += 1
        return compose(x, y)

    monkeypatch.setattr(GroupElt, "compose", counting)
    assert check_group_axioms(n).passed
    assert calls[0] == 3 + 1


def test_the_proof_at_the_adjugate_point_makes_few_term_products(monkeypatch):
    # every sum and product of the proof's scalars, save those of two
    # monomials, every dot product and every step of a non-diagonal
    # precomposition goes through scalars._accumulate.  At a generic point
    # (Z1, Z2, tau) the n = 3 proof makes 6,189 term products of two
    # multi-term scalars, most of them evaluating p_xy at g_xy Z; at
    # Z = adj(g_xy) W it evaluates p_xy and p_x at monomials
    count = [0]
    accumulate = scalars._accumulate

    def counting(pairs, add):
        count[0] += sum(len(a) * len(b) for a, b in pairs)
        return accumulate(pairs, add)

    monkeypatch.setattr(scalars, "_accumulate", counting)
    monkeypatch.setattr(group, "_accumulate", counting)
    assert _prove_group_law(3) is None
    assert 0 < count[0] < 6189 // 3


def test_group_axioms_catch_a_compose_with_a_singular_matrix(monkeypatch):
    def compose(x, y):
        # the zero matrix, carrying the determinant of g_x g_y
        zero = x.basis.zero()
        g = Mat2._raw(x.basis, ((zero, zero), (zero, zero)), x.g.det() * y.g.det())
        return GroupElt(g, x.p + y.p.precompose(x.g.inverse()))

    # adj(0) = 0 sends every W to Z = 0, where both sides of the action law
    # read (0, 0, tau); the determinant taken from the entries fails the pair
    monkeypatch.setattr(GroupElt, "compose", compose)
    for n in (1, 2, 3):
        assert _fails(n) == ("action", "action_big_cell")
    # without that test the three pairs and the identity check hold at Z = 0
    old = "bool(sum_of_products(((a, d), (-b, c))).terms) and "
    unguarded = _mutant(verify._group_law_checks, old, "")
    checks = itertools.islice(unguarded(2, _kronecker_span(2) + 1), len(_PROVED) - 1)
    assert [(branch, holds) for _, branch, holds in checks] == [(b, True) for b in _PROVED[:-1]]


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


def test_infinite_determinant_fails_immersion(instrument_kernel):
    # the [2] family on (1/4, 1/2), whose P1 is nonconstant: each sample reads
    # its determinant from the kernel's determinant reader
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    recs = enumerate_structures(s, 2, hyper_params=[[2]])
    rec = next(r for r in recs if not r.dev.P1.is_constant())
    cfg = VerifyConfig(samples=20, seed=6)
    clean = check_immersion(rec, cfg, s)
    assert clean.passed
    calls = []

    def infinite_at_third_sample(jacobian):
        det = jacobian()

        def read(z1, z2, chart):
            calls.append((z1, z2))
            return complex("inf") if len(calls) == 3 else det(z1, z2, chart)

        return lambda: read

    instrument_kernel(jacobian=infinite_at_third_sample)
    rep = check_immersion(rec, cfg, s)
    assert not rep.passed
    # the minimum over the samples is still finite; the infinite one is listed
    assert clean.min_jacobian_magnitude <= rep.min_jacobian_magnitude < math.inf
    assert rep.failing_samples == [calls[2]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_determinant_whose_modulus_overflows_fails_immersion(seed):
    # det J = -2^1021 / z2^4: on |z2| < 0.6 its modulus can leave the float
    # range with both parts finite, where abs() raises OverflowError, or
    # with a part infinite; either fails the sample
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    d = DevMap(1, -1, 0, -2, UniPoly([2**1020]), UniPoly([1]), UniPoly([1]), None, 2)
    rep = check_immersion(d, VerifyConfig(seed=seed, annulus=(0.52, 0.6)), s)
    assert not rep.passed and rep.min_jacobian_magnitude > 1e300
    det, kinds = map_kernel(d).jacobian(), set()
    for z in (z for z in rep.failing_samples if 0 not in z):  # annulus samples
        try:
            kinds.add("infinite" if math.isinf(abs(det(*z, "T"))) else "finite")
        except OverflowError:
            kinds.add("overflow")
    assert kinds == {"overflow", "infinite"}
    json.dumps(rep.to_record(), allow_nan=False)


def test_a_chart_t_value_whose_modulus_overflows_fails_immersion():
    # t1 = C z1 with |C| = 2^1023.5 and det J = 1: on 1.45 < |z1| < 1.9 the
    # modulus of t1 leaves the float range, with both parts finite or one
    # infinite; the difference check fails the first kind of sample and
    # skips the second, as it skips every t above 1e4
    c = GaussRat(2**1023, 2**1023)
    d = DevMap(1, 0, 0, 1, UniPoly([c]), UniPoly([1]), UniPoly([1 / c]), None, 1)
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rep = check_immersion(d, VerifyConfig(samples=50, seed=3, annulus=(1.45, 1.9)), s)
    assert rep.min_jacobian_magnitude == 1.0 and rep.checks["fd_samples"] == 0
    point = map_kernel(d).point
    overflows = []
    for z in _sample_annulus(random.Random(4), math.log(1.45), math.log(1.9), 50):
        t1 = point(*z)[1]
        try:
            abs(t1)
        except OverflowError:
            overflows.append(z)
        else:
            assert math.isinf(abs(t1))
    assert overflows and rep.failing_samples == overflows


def test_a_scale_common_to_the_polynomials_cancels_in_the_determinant():
    # t = (z1, z2) with P1 = Q1 = P2 = 2^400: N = D P1 P2 Q1 = 2^1200 has no
    # float form, but chart T reads (N / c^3) / (Q1 / c)^3 with c = lead(Q1)
    # = 2^400, divided exactly, so det J = 1
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    d = DevMap(1, 0, 0, 1, UniPoly([2**400]), UniPoly([2**400]), UniPoly([2**400]), None, 1)
    rep = check_immersion(d, VerifyConfig(), s)
    assert rep.passed and rep.min_jacobian_magnitude == 1.0 and rep.checks["fd_samples"] == 200
    # the control with Q1 = 1 has det J = 2^800: its t2 = 2^400 z2 is too
    # large for the differences, so none is taken and the check fails
    d = DevMap(1, 0, 0, 1, UniPoly([2**400]), UniPoly([1]), UniPoly([2**400]), None, 1)
    rep = check_immersion(d, VerifyConfig(), s)
    assert not rep.passed and rep.min_jacobian_magnitude == 2.0**800 and rep.checks["fd_samples"] == 0


def test_a_fiber_difference_that_overflows_is_an_infinite_residual():
    # |a - b| and |a| leave the float range in chart T; q1^n does across charts
    huge = AffinePoint("T", 0.5, 1.5e308 + 1.5e308j)
    assert point_residual(huge, AffinePoint("T", 0.5, 0j), 1) == math.inf
    assert point_residual(AffinePoint("T", 1, 1), AffinePoint("S", 1e200, 1), 2) == math.inf


def test_equivariance_raises_on_a_degree_mismatch_and_at_the_origin(monkeypatch):
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = next(r for r in enumerate_structures(s, 2) if r.kind == "radial")
    other = next(r for r in enumerate_structures(s, 3) if r.kind == "radial")
    drawn = []
    real_sample = verify._sample_annulus

    def recorded(*args):
        drawn.append(args)
        return real_sample(*args)

    monkeypatch.setattr(verify, "_sample_annulus", recorded)
    with pytest.raises(ValueError, match="different O"):
        check_equivariance(types.SimpleNamespace(dev=rec.dev, hol=other.hol), s)
    assert drawn == []
    monkeypatch.setattr(verify, "_sample_annulus", lambda rng, lo, hi, count: [(0j, 0j)] * count)
    with pytest.raises(SurfaceError, match="minus the origin"):
        check_equivariance(rec, s)


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


def test_value_types_hold_no_hidden_state(monkeypatch):
    # a map, its holonomy and the elements of the group-axiom check hold
    # their fields alone after the checks and the float action ran on them
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    rec = next(r for r in enumerate_structures(s, 2, hyper_params=[[2]]) if not r.dev.P1.is_constant())
    cases, build = [], verify._action_cases

    def recorded(n):
        cases.extend(build(n))
        return cases

    monkeypatch.setattr(verify, "_action_cases", recorded)
    assert all(rep.passed for rep in verify_structure(rec, s))
    assert check_group_axioms(2).passed and len(cases) == 24
    act_affine(rec.hol, AffinePoint("T", 0.5, 1))
    assert DevMap.__slots__ == devmaps._FIELDS
    assert GroupElt.__slots__ == ("g", "p")
    # one value of each immutable type refuses both setting and deleting
    # each of its slots by name, and still reads as before
    dev, hol, basis = rec.dev, rec.hol, s.basis
    values = [s, basis, basis.lattice, basis.valuations, dev, dev.P1, dev.P1.coeffs[0],
              hol, hol.g, hol.p, hol.g.entries[0][0]] + [x for _, x, _, _ in cases]
    assert {type(v).__name__ for v in values} == {
        "HopfSurface", "EigenBasis", "RelationLattice", "ValuationSystem", "DevMap", "UniPoly",
        "GaussRat", "GroupElt", "Mat2", "HomogPoly", "Scalar",
    }
    for obj in values:
        cls = type(obj).__name__
        assert not hasattr(obj, "__dict__")
        for name in type(obj).__slots__ + ("_kernel", "_act", "extra"):
            before = getattr(obj, name, AttributeError)
            with pytest.raises(AttributeError, match="^%s is immutable$" % cls):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match="^%s is immutable$" % cls):
                delattr(obj, name)
            assert getattr(obj, name, AttributeError) is before


def test_annulus_validation():
    with pytest.raises(ValueError):
        VerifyConfig(annulus=(1.0, 0.5)).resolve_annulus()


# ---------------------------------------------------------------------------
# Bit parity of the numeric evaluation with a per-call reference.
# The reference converts every exact coefficient to a float on each call,
# where a map kernel or an action function converts them once when it is
# built, and goes through the helper calls and closures that the
# evaluators have since inlined; `eval_devmap`, the map kernels, `act_affine`,
# `AffinePoint.in_chart`, `point_residual`, `chordal`, `_sample_annulus`,
# and `check_equivariance` and `check_immersion` as a whole must repeat
# its float operations in the same order.  The reference shares no code
# with them, except `_chordal_scaled` where squares overflow: its helpers
# are copies kept here.


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


def _ref_homog_terms(p, z1, z2, m1, m2):
    """sum p_i z1^(m1 i) z2^(m2 (deg - i)) from 0j, a constant p too."""
    total = 0j
    deg = p.degree
    for i, c in enumerate(p.coeffs):
        if not c.is_zero() or deg == 0:
            total += c.to_complex() * z1 ** (m1 * i) * z2 ** (m2 * (deg - i))
    return total


def has_float_form(*polys):
    """Whether every exact coefficient of the polynomials converts to a complex."""
    try:
        for p in polys:
            for c in p.coeffs:
                c.to_complex()
    except OverflowError:
        return False
    return True


_OUT_OF_RANGE = {"error": "exact coefficient beyond the float range"}


def ref_chart_det(d, chart):
    """The exact Jacobian of d in chart: `det_jacobian` of d in chart T and of
    d.hat() in chart S, with N divided by c^(n+2) and Q1 by c, c the leading
    coefficient of Q1, exactly."""
    det = det_jacobian(d if chart == "T" else d.hat())
    c, p = det.Q1.coeffs[-1], det.n + 2
    N, Q1 = det.N.scale(GaussRat(1) / c**p), det.Q1.scale(GaussRat(1) / c)
    return DetJacobian(det.z1_exp, det.z2_exp, N, Q1, det.n, det.hyper)


def ref_det(d, chart, z):
    """det t' of d at z in chart, by `ref_det_terms`."""
    return ref_det_terms(ref_chart_det(d, chart), z)


def ref_det_terms(det, z):
    """det t' at z as z1^a z2^b (HN / HQ^(n+2)): N and Q1 homogenized, and
    b = z2_exp minus m2 times the degrees the homogenization adds."""
    z1, z2 = complex(z[0]), complex(z[1])
    m1, m2 = det.hyper if det.hyper is not None else (1, 1)
    hn, hq = (_ref_homog_terms(p, z1, z2, m1, m2) for p in (det.N, det.Q1))
    n = det.n
    shift = det.N.degree - (n + 2) * det.Q1.degree
    return z1**det.z1_exp * z2 ** (det.z2_exp - m2 * shift) * (hn / hq ** (n + 2))


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
def _check_records():
    """(surface, record) for the structures of generic, hyperresonant,
    homothety and exceptional surfaces, hyperresonant families included."""
    params = [[2], [2, 3]]
    cases = [(HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3)), (1, 2, 3))]
    cases.append((HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2)), (1, 2, 3)))
    cases.append((HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2)), (1, 2)))
    cases.append((HopfSurface.exceptional(Fraction(1, 2), 1), (1, 2, 3)))
    cases.append((HopfSurface.exceptional(Fraction(1, 2), 2), (2, 3)))
    pairs = [(s, r) for s, ns in cases for n in ns for r in enumerate_structures(s, n, hyper_params=params)]
    recs = [r for _, r in pairs]
    assert {r.kind for r in recs} >= {"radial", "eigen", "hyperresonant"}
    assert any(r.dev.hyper and not r.dev.P1.is_constant() for r in recs)
    assert any(r.hol.p.is_zero() is False for r in recs)
    assert any(not r.hol.g.is_diagonal() for r in recs)
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def _parity_records():
    return tuple(r for _, r in _check_records())


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
        det = map_kernel(d).jacobian()
        for chart in "TS":
            assert _same(_outcome(det, *z, chart), _outcome(ref_det, d, chart, z))


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
    try:
        if a_inf:
            return 1 / sqrt(1 + abs(b) ** 2)
        if b_inf:
            return 1 / sqrt(1 + abs(a) ** 2)
        den = (1 + abs(a) ** 2) * (1 + abs(b) ** 2)
        if den != inf:
            return abs(a - b) / sqrt(den)
    except OverflowError:
        pass
    return group._chordal_scaled(a, b, a_inf, b_inf)


def ref_point_residual(p, q, n, fiber="abs"):
    """The residual, infinite where a modulus or a power leaves the float range."""
    t1p = p.c1 if p.chart == "T" else (1 / p.c1 if p.c1 != 0 else complex("inf"))
    t1q = q.c1 if q.chart == "T" else (1 / q.c1 if q.c1 != 0 else complex("inf"))
    res = ref_chordal(t1p, t1q)

    def fiber_diff(a, b):
        return ref_chordal(a, b) if fiber == "chordal" else abs(a - b) / max(1.0, abs(a), abs(b))

    try:
        try:
            q_al = ref_in_chart(q, p.chart, n)
            res += fiber_diff(p.c2, q_al.c2)
        except ZeroDivisionError:
            try:
                p_al = ref_in_chart(p, q.chart, n)
                res += fiber_diff(p_al.c2, q.c2)
            except ZeroDivisionError:
                res += 1.0
    except OverflowError:
        return math.inf
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
    assert _same(_sample_annulus(rng, lo, hi, 5), [ref_sample_annulus(ref, r0, r1) for _ in range(5)])
    assert rng.getstate() == ref.getstate()


def ref_stencil(dev, z, h1, h2):
    """The eight chart-T stencil values of `check_immersion`, one
    `ref_eval_devmap` per point."""
    z1, z2 = z
    out = ()
    for w in ((z1 + h1, z2), (z1 - h1, z2), (z1, z2 + h2), (z1, z2 - h2)):
        pt = ref_in_chart(ref_eval_devmap(dev, w), "T", dev.n)
        out += (pt.c1, pt.c2)
    return out


# Constants of the kernel maps: 2^-600 and 2^600 make K^n underflow to 0 or
# overflow for n >= 2, so the kernel keeps no chart-T denominators; -2^-1100
# is -0.0 as a float, which the determinant must not fold on a hyperresonant
# surface, where the general path's 0j*u + c has the sign of 0j*u.
_KERNEL_CONSTS = (
    1, -1, 2, Fraction(1, 2), GaussRat(1, 1), GaussRat(0, -3), Fraction(1, 2**600), 2**600,
    Fraction(-1, 2**1100),
)
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
    # a determinant reader whose chart-T N has no float form raises where it
    # is built; chart S is built, or raises, at its first read
    det, ref = _outcome(map_kernel(d).jacobian), ref_chart_det(d, "T")
    if (det is OverflowError) == has_float_form(ref.N, ref.Q1):
        bad.append("jacobian")
    elif det is not OverflowError:
        bad += ["jacobian " + c for c in "TS" if not _same(_outcome(det, *z, c), _outcome(ref_det, d, c, z))]
    h1, h2 = 1e-6 * max(abs(z[0]), 1.0), 1e-6 * max(abs(z[1]), 1.0)
    # the stencil forms shared powers first, so where both raise, the type
    # may differ; check_immersion skips the sample on either
    out, ref = _outcome(map_kernel(d).stencil, *z, h1, h2), _outcome(ref_stencil, d, z, h1, h2)
    if not (_same(out, ref) or isinstance(out, type) and isinstance(ref, type)):
        bad.append("stencil")
    return bad


@settings(max_examples=400, deadline=None)
@given(_kernel_cases())
def test_map_kernels_match_reference(case):
    d, z = case
    assert _kernel_mismatches(d, z) == []


def test_determinant_of_a_negative_zero_constant_matches_the_reference():
    # D = -2 and P1 = 2^-1100 give N = -2^-1099, which is -0.0 as a float.
    # The kernel reads a constant c as the sum 0j + c z1^0 z2^0 of its one
    # term, which is the same at every point, so det J matches the
    # term-by-term reference everywhere, the signs of its zero parts included
    d = DevMap(1, -1, 0, -2, UniPoly([Fraction(1, 2**1100)]), UniPoly([1]), UniPoly([1]), (1, 2), 2)
    assert repr(det_jacobian(d).N.coeffs[0].to_complex()) == "(-0+0j)"
    det = map_kernel(d).jacobian()
    rng = random.Random(1)
    signs = set()
    for _ in range(200):
        z = tuple(cmath.rect(rng.uniform(0.3, 2), rng.uniform(0, 2 * math.pi)) for _ in range(2))
        val = det(*z, "T")
        assert _same(val, ref_det(d, "T", z))
        signs.add(repr(val))
    assert len(signs) > 1  # zeros of both signs reach det J


def test_kernel_parity_catches_an_unshifted_z2_exponent(monkeypatch):
    # the determinant's power of z2 without the degrees that homogenizing
    # its factors adds
    mutant = _mutant(devmaps.map_kernel, "b - m2 * (N.degree - p * D.degree)", "b")
    monkeypatch.setattr(devmaps, "map_kernel", mutant)
    monkeypatch.setitem(globals(), "map_kernel", mutant)
    with pytest.raises(AssertionError, match=r"\['jacobian [TS]'(, 'jacobian S')?\] == \[\]"):
        test_map_kernels_match_reference()


def ref_apply_F(s, z):
    z1, z2 = complex(z[0]), complex(z[1])
    if z1 == 0 and z2 == 0:
        raise SurfaceError("the contraction acts on C^2 minus the origin")
    if s.kind == "diagonal":
        w1, w2 = s.basis.witness
        return (w1 * z1, w2 * z2)
    lam = s.basis.witness[0]
    return (lam * z1, lam**s.m * z2 + z1**s.m)


def ref_check_equivariance(rec, s, cfg):
    """`check_equivariance` one sample at a time, by the reference helpers."""
    rng = random.Random(cfg.seed)
    r0, r1 = cfg.resolve_annulus(s)
    dev, hol, n = rec.dev, rec.hol, rec.dev.n
    if not has_float_form(dev.P1, dev.Q1, dev.P2):
        return VerifyReport("equivariance", False, checks=_OUT_OF_RANGE)
    worst, failing, done, attempts = 0.0, [], 0, 0
    while done < cfg.samples and attempts < max(20, cfg.samples * 10):
        attempts += 1
        z = ref_sample_annulus(rng, r0, r1)
        try:
            lhs = ref_eval_devmap(dev, ref_apply_F(s, z))
            rhs = ref_act_affine(hol, ref_eval_devmap(dev, z), n)
        except ArithmeticError:
            continue
        res = ref_point_residual(lhs, rhs, n)
        if res > worst or res != res:
            worst = res
        if not res < cfg.tol_equiv:
            failing.append(z)
        done += 1
    if done < cfg.samples:
        error = {"error": "persistent chart failure; record looks malformed"}
        return VerifyReport("equivariance", False, checks=error)
    return VerifyReport(
        "equivariance", worst < cfg.tol_equiv, max_equivariance_residual=worst,
        checks={"samples": done}, failing_samples=failing,
    )


def ref_check_immersion(dev, cfg, s):
    """`check_immersion` one sample at a time, by the reference helpers."""
    rng = random.Random(cfg.seed + 1)
    r0, r1 = cfg.resolve_annulus(s)
    dets = {chart: ref_chart_det(dev, chart) for chart in "TS"}
    if not has_float_form(dev.P1, dev.Q1, dev.P2, dets["T"].N, dets["T"].Q1):
        return VerifyReport("immersion", False, checks=_OUT_OF_RANGE)
    samples = [ref_sample_annulus(rng, r0, r1) for _ in range(cfg.samples)]
    axis = []
    for _ in range(4):
        w = ref_sample_annulus(rng, r0, r1)
        axis += [(w[0], 0j), (0j, w[1])]
    min_mag, worst_fd, failing, count = math.inf, 0.0, [], 0
    for i, z in enumerate(samples + axis):
        try:
            pt = ref_eval_devmap(dev, z)
        except EvalError:
            continue
        except (ZeroDivisionError, OverflowError):
            failing.append(z)
            continue
        try:
            val = ref_det_terms(dets[pt.chart], z)
        except ZeroDivisionError:
            val = None
        except OverflowError:
            failing.append(z)
            continue
        listed = False
        if val is not None:
            try:
                mag = abs(val)
            except OverflowError:
                mag = math.inf
            if mag < min_mag or mag != mag:
                min_mag = mag
            if not 1e-12 < mag < math.inf:
                failing.append(z)
                listed = True
        if i >= len(samples) or pt.chart != "T" or val is None:
            continue
        try:
            fd = ref_fd_det(dev, z, dev.n, pt)
        except OverflowError:  # the modulus of the map's chart-T value
            if not listed:
                failing.append(z)
            continue
        if fd is None:
            continue
        try:
            mismatch = abs(val - fd) / max(1.0, abs(val))
        except OverflowError:
            mismatch = math.inf
        if mismatch > worst_fd or mismatch != mismatch:
            worst_fd = mismatch
        if not listed and not math.isfinite(mismatch):
            failing.append(z)
        count += 1
    passed = min_mag > 1e-12 and worst_fd < cfg.tol_jac and count > 0 and not failing
    return VerifyReport(
        "immersion", passed, min_jacobian_magnitude=min_mag, max_fd_mismatch=worst_fd,
        checks={"fd_samples": count}, failing_samples=failing,
    )


def _check_mismatches(rec, s, cfg):
    """The checks whose report, or exception type, differs from the reference's."""
    bad = []
    for name, check, ref in (
        ("equivariance", lambda: check_equivariance(rec, s, cfg), lambda: ref_check_equivariance(rec, s, cfg)),
        ("immersion", lambda: check_immersion(rec, cfg, s), lambda: ref_check_immersion(rec.dev, cfg, s)),
    ):
        out, want = _outcome(check), _outcome(ref)
        if isinstance(out, VerifyReport) and isinstance(want, VerifyReport):
            out, want = (out.to_record(), out), (want.to_record(), want)
        if not _same(out, want):  # the repr of a report shows every value, NaN and -0.0 included
            bad.append(name)
    return bad


# default annuli and the extreme ones, where powers underflow or overflow
_ANNULI = (None, (0.5, 1.0), (1e-9, 1e-8), (1e8, 1e9), (1e-160, 1e-159), (1e120, 1e121))


@st.composite
def _check_cases(draw):
    """(record, surface, config): a structure on its own surface, or a map
    with constant polynomials, or one nonconstant where it has a
    hyperresonance, and a holonomy of its degree from `_parity_elements`
    (diagonal or not, p zero or not) on any of the surfaces."""
    pairs = _check_records()
    if draw(st.booleans()):
        s, rec = draw(st.sampled_from(pairs))
    else:
        n = draw(st.integers(1, 3))
        exps = [draw(st.integers(-3, 3)) for _ in range(4)]
        hyper = draw(st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3))))
        polys = [UniPoly([draw(st.sampled_from(_KERNEL_CONSTS))]) for _ in range(3)]
        if hyper is not None and draw(st.booleans()):
            i = draw(st.integers(0, 2))
            roots = draw(st.lists(st.sampled_from(_KERNEL_ROOTS), min_size=1, max_size=2, unique=True))
            polys[i] = UniPoly.from_roots(roots, lead=polys[i].coeffs[0])
        hol = draw(st.sampled_from([x for x in _parity_elements() if x.degree == n]))
        rec = types.SimpleNamespace(dev=DevMap(*exps, *polys, hyper, n), hol=hol)
        s = draw(st.sampled_from(pairs))[0]
    samples, seed = draw(st.integers(1, 24)), draw(st.integers(0, 2**16))
    return rec, s, VerifyConfig(samples=samples, seed=seed, annulus=draw(st.sampled_from(_ANNULI)))


@settings(max_examples=200, deadline=None)
@given(_check_cases())
def test_checks_match_per_point_reference(case):
    assert _check_mismatches(*case) == []


# chart T of the kernel's point off the axes, which gives every value of a
# constant map there, and the stencil's powers of z2 for (z1 +- h1, z2),
# with k2~ and l2~ swapped
_SWAPPED_EXPONENTS = {
    "point": (
        'return ("T", z1**k1 * z2**kt2 * h1 / den1, z1**l1 * z2**lt2 * h2 / denn)',
        'return ("T", z1**k1 * z2**lt2 * h1 / den1, z1**l1 * z2**kt2 * h2 / denn)',
    ),
    "stencil": ("z2**kt2, z2**lt2\n", "z2**lt2, z2**kt2\n"),
}


@pytest.mark.parametrize("part", sorted(_SWAPPED_EXPONENTS))
def test_check_parity_catches_swapped_exponents_in_the_constant_kernel(monkeypatch, part):
    mutant = _mutant(devmaps.map_kernel, *_SWAPPED_EXPONENTS[part])
    monkeypatch.setattr(devmaps, "map_kernel", mutant)
    monkeypatch.setattr(verify, "map_kernel", mutant)
    with pytest.raises(AssertionError, match=r"\] == \[\]"):
        test_checks_match_per_point_reference()


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


def test_immersion_evaluates_the_map_once_per_sample(monkeypatch, instrument_kernel):
    # 200 samples and 8 axis points.  Each sample evaluates the map once, by
    # the kernel's point, and each annulus sample its four stencil points in
    # one call; a map with constant polynomials is in chart T at every
    # annulus sample, and no sample calls eval_devmap or in_chart
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    rec = next(r for r in enumerate_structures(s, 2) if r.kind == "radial")
    assert all(p.is_constant() for p in (rec.dev.P1, rec.dev.Q1, rec.dev.P2))
    log = instrument_kernel()
    calls = _count_calls(monkeypatch, devmaps, "eval_devmap")
    in_chart = _count_calls(monkeypatch, AffinePoint, "in_chart")
    rep = check_immersion(rec, VerifyConfig(), s)
    assert rep.passed and rep.checks["fd_samples"] == 200
    assert len(log.kernels) == 1
    assert len(log.point) == 208 and {p[0] for p in log.point[:200]} == {"T"}
    assert len(log.stencil) == 200 and all(len(values) == 8 for values in log.stencil)
    assert calls == [] and in_chart == []


def test_immersion_builds_the_chart_s_jacobian_only_when_a_sample_needs_it(monkeypatch, instrument_kernel):
    # N is expanded once per map.  Chart T homogenizes N and reuses the
    # kernel's Q1, which is monic; chart S homogenizes -N at its first
    # sample and reuses the kernel's P1
    s = HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))
    recs = {r.provenance: r for r in enumerate_structures(s, 2)}
    calls = _count_calls(monkeypatch, devmaps, "det_jacobian")
    homogenized = _count_calls(monkeypatch, devmaps, "_homogenized")
    log = instrument_kernel()
    # the eigenstructure along axis 1 evaluates every sample in chart T,
    # axis points included; its kernel homogenizes P1, Q1 and P2
    rec = recs["eigenstructure along axis 1"]
    assert check_immersion(rec, VerifyConfig(), s).passed
    assert len(log.point) == 208 and {p[0] for p in log.point} == {"T"}
    assert len(calls) == 1
    assert [h[0] for h in homogenized] == [rec.dev.P1, rec.dev.Q1, rec.dev.P2, det_jacobian(rec.dev).N]
    # the radial structure has samples in chart S
    calls.clear()
    log.point.clear()
    homogenized.clear()
    rec = recs["radial structure on a linear surface"]
    assert check_immersion(rec, VerifyConfig(), s).passed
    assert [p[0] for p in log.point].count("S") > 1 and len(calls) == 1
    N = det_jacobian(rec.dev).N
    assert [h[0] for h in homogenized] == [rec.dev.P1, rec.dev.Q1, rec.dev.P2, N, -N]


def test_numeric_plan_is_built_once_per_map(monkeypatch, instrument_kernel):
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    recs = enumerate_structures(s, 2, hyper_params=[[2]])
    assert any(not r.dev.P1.is_constant() for r in recs)
    calls = _count_calls(monkeypatch, devmaps, "_homogenized")
    dets = _count_calls(monkeypatch, devmaps, "det_jacobian")
    log = instrument_kernel()
    built = []
    for rec in recs:
        before, jacobians, kernels = len(calls), len(dets), len(log.kernels)
        assert all(rep.passed for rep in verify_structure(rec, s, VerifyConfig(samples=20)))
        built.append((len(calls) - before, len(dets) - jacobians, len(log.kernels) - kernels))
    # one kernel per check, each homogenizing P1, Q1 and P2 of rec.dev, and
    # for the immersion check N of its one exact Jacobian for chart T, and
    # -N where a sample lies in chart S; Q1 and P1 are monic, so the
    # determinant reuses the kernel's
    assert built == [(8, 1, 2), (7, 1, 2), (7, 1, 2), (8, 1, 2)]


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
