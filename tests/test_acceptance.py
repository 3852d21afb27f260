"""Acceptance suite: one check per criterion, at the pinned tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion together with its measured margin and runtime.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import pytest

from hopfon.classify import (
    DEFAULT_ROOT_POOL,
    StructureRecord,
    brute_force_admissible,
    canonical_key,
    enumerate_structures,
    reproduce_case_table,
)
from hopfon.devmaps import DevMap, UniPoly, is_admissible
from hopfon.group import (
    AffinePoint,
    GroupElt,
    HomogPoly,
    Mat2,
    act_affine,
    chordal,
    compose,
    inverse,
    random_group_elt,
)
from hopfon.hopf import HopfSurface
from hopfon.normalform import equal_up_to_swap, is_normal_form, normal_form
from hopfon.scalars import EigenBasis, GaussRat, Scalar
from hopfon.sections import instantiate, line_bundle_sections, proj_bundle_sections
from hopfon.verify import (
    VerifyConfig,
    check_equivariance,
    check_group_axioms,
    check_immersion,
    point_residual,
)


def _report(num, label, detail):
    print("PASS criterion %d (%s): %s" % (num, label, detail))


def generic_surface():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))


def hyper_surface():
    return HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))


def homothety_surface():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2))


def structure_matrix():
    """The acceptance test matrix of surfaces with their bundle degrees."""
    out = [
        ("generic", generic_surface(), (1, 2, 3)),
        ("hyperresonant", hyper_surface(), (2,)),
        ("homothety", homothety_surface(), (1, 2, 3)),
    ]
    for m in (1, 2):
        out.append(
            ("exceptional m=%d" % m, HopfSurface.exceptional(Fraction(1, 2), m), tuple(range(m, 4)))
        )
    return out


def std_params():
    return [list(DEFAULT_ROOT_POOL[:N]) for N in (1, 2)]


# ---------------------------------------------------------------------------


def test_criterion_1_group_axioms_exact():
    """1000 random elements per n in {1,2,3}: exact group laws, < 10 s."""
    start = time.perf_counter()
    basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    for n in (1, 2, 3):
        rng = random.Random(100 + n)
        e = GroupElt.identity(basis, n)
        for _ in range(1000):
            x = random_group_elt(basis, n, rng)
            y = random_group_elt(basis, n, rng)
            z = random_group_elt(basis, n, rng)
            assert compose(compose(x, y), z) == compose(x, compose(y, z))
            assert compose(x, e) == x and compose(e, x) == x
            assert compose(x, inverse(x)) == e and compose(inverse(x), x) == e
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "runtime budget exceeded: %.1fs" % elapsed
    _report(1, "group axioms", "3x1000 exact trials in %.1fs" % elapsed)


def test_criterion_2_action_compatibility_and_quotient_invariance():
    """200 random triples/pairs; chordal residual < 1e-10, < 5 s."""
    start = time.perf_counter()
    tol = 1e-10
    worst_action = 0.0
    basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    for n in (1, 2, 3):
        rng = random.Random(200 + n)
        done = 0
        while done < 200:
            x = random_group_elt(basis, n, rng)
            y = random_group_elt(basis, n, rng)
            pt = AffinePoint(
                "T",
                rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
                rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
            )
            try:
                lhs = act_affine(compose(x, y), pt, n)
                rhs = act_affine(x, act_affine(y, pt, n), n)
            except ArithmeticError:
                continue
            worst_action = max(
                worst_action, point_residual(lhs, rhs, n, fiber="chordal")
            )
            done += 1
    assert worst_action < tol, worst_action

    worst_mu = 0.0
    for n in (1, 2, 3):
        zeta = cmath.exp(2j * cmath.pi / n)
        tb = EigenBasis(("z", "w"), [(n, 0)], (zeta, 0.5))
        rng = random.Random(250 + n)
        for _ in range(200):
            x = random_group_elt(tb, n, rng)
            xz = GroupElt(x.g.scale(tb.gen(0)), x.p)
            assert x == xz  # the scaled representative is the same element
            pt = AffinePoint(
                "T", rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            worst_mu = max(
                worst_mu,
                point_residual(
                    act_affine(x, pt, n), act_affine(xz, pt, n), n, fiber="chordal"
                ),
            )
    assert worst_mu < 1e-12, worst_mu
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "runtime budget exceeded: %.1fs" % elapsed
    _report(
        2,
        "action compatibility",
        "action residual %.1e, quotient residual %.1e in %.1fs"
        % (worst_action, worst_mu, elapsed),
    )


def test_criterion_3_equivariance_of_every_structure():
    """Residual < 1e-9 at 200 annulus samples per structure, < 30 s total."""
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    count = 0
    for name, s, degrees in structure_matrix():
        for n in degrees:
            for rec in enumerate_structures(s, n, hyper_params=std_params()):
                rep = check_equivariance(
                    rec, s, VerifyConfig(samples=200, tol_equiv=tol, seed=300 + n)
                )
                assert rep.passed, (name, n, rec.provenance, rep.to_record())
                worst = max(worst, rep.max_equivariance_residual)
                count += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "runtime budget exceeded: %.1fs" % elapsed
    _report(
        3,
        "equivariance",
        "%d structures, max residual %.1e in %.1fs" % (count, worst, elapsed),
    )


def test_criterion_4_immersion_with_negative_controls():
    """Symbolic det nonzero at samples, FD mismatch < 1e-5; controls FAIL."""
    start = time.perf_counter()
    worst_fd = 0.0
    count = 0
    for name, s, degrees in structure_matrix():
        for n in degrees:
            for rec in enumerate_structures(s, n, hyper_params=std_params()):
                rep = check_immersion(
                    rec, VerifyConfig(samples=120, tol_jac=1e-5, seed=400 + n), s
                )
                assert rep.passed, (name, n, rec.provenance, rep.to_record())
                assert rep.min_jacobian_magnitude > 1e-12
                worst_fd = max(worst_fd, rep.max_fd_mismatch)
                count += 1
    assert worst_fd < 1e-5

    # negative control 1: holonomy ratio perturbed by 1e-3 fails equivariance
    s = hyper_surface()
    row1 = next(
        r
        for r in enumerate_structures(s, 2, hyper_params=[[1]])
        if r.kind == "hyperresonant"
    )
    g = row1.hol.g
    bad_hol = GroupElt.of_matrix(
        Mat2.diag(g.entries[0][0] * g.basis.gauss(Fraction(1001, 1000)), g.entries[1][1]),
        2,
    )
    bad = StructureRecord(
        kind="hyperresonant",
        dev=row1.dev,
        hol=bad_hol,
        complete=False,
        essential=False,
        provenance="negative control: perturbed holonomy",
    )
    rep = check_equivariance(bad, s, VerifyConfig(samples=100, seed=404))
    assert not rep.passed

    # negative control 2: the branched exceptional map t1 = z1^2 fails immersion
    exc = HopfSurface.exceptional(Fraction(1, 2), 1)
    branched = DevMap(2, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly([1]), None, 2)
    rep = check_immersion(branched, VerifyConfig(samples=60, seed=405), exc)
    assert not rep.passed and rep.min_jacobian_magnitude <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, "runtime budget exceeded: %.1fs" % elapsed
    _report(
        4,
        "immersion",
        "%d structures, max FD mismatch %.1e, both controls fail, %.1fs"
        % (count, worst_fd, elapsed),
    )


def test_criterion_5_case_table_reproduction():
    """The six-case table with the stated degree patterns; 2 impossible rows."""
    feasible_expect = {
        (0, 1, -1, "minus_n"): ("P1", "m2 == n*m1"),
        (0, 1, 1, 0): ("Q1", "n*m1 == m2"),
        (1, 0, -1, "minus_n"): ("P2", "m2 == m1"),
        (1, 0, 0, 1): ("Q1", "n*m2 == m1"),
    }
    impossible_expect = {(0, 1, 0, 1), (1, 0, 1, 0)}
    checked = 0
    for (n, m1, m2) in [(1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 1), (1, 2, 2), (2, 2, 2)]:
        rows = reproduce_case_table(n, m1, m2)
        assert len(rows) == 6
        assert sum(1 for r in rows if r.impossible) == 2
        assert {r.combo for r in rows if r.impossible} == impossible_expect
        for row in rows:
            if row.combo in impossible_expect:
                assert not row.feasible
                continue
            free_poly, relation = feasible_expect[row.combo]
            holds = {
                "m2 == n*m1": m2 == n * m1,
                "n*m1 == m2": m2 == n * m1,
                "m2 == m1": m1 == m2,
                "n*m2 == m1": m1 == n * m2,
            }[relation]
            assert row.feasible == holds, (row.combo, n, m1, m2)
            if not row.feasible:
                continue
            # degree pattern: only the free slot is nonconstant
            for poly in ("P1", "Q1", "P2"):
                if poly == free_poly:
                    assert row.degrees[poly]["min"] == 1
                else:
                    assert row.degrees[poly] == 0
            assert row.relation == relation
            # side condition: the single excluded degree in each family
            excluded = row.degrees[free_poly]["excluded"]
            if row.combo in ((0, 1, -1, "minus_n"), (0, 1, 1, 0)):
                assert excluded == ([1] if n * m1 == 1 else [])
            elif row.combo == (1, 0, 0, 1):
                assert excluded == ([1] if n * m2 == 1 else [])
            else:  # (1, 0, -1, minus_n): m1 * deg P2 != n
                bad = [d for d in range(1, 13) if m1 * d == n]
                assert excluded == bad
            checked += 1
    _report(5, "case table", "6 rows, 2 impossible, %d feasible rows matched" % checked)


def test_criterion_6_bounded_completeness():
    """Brute force at deg_bound 2 equals the enumeration, per diagonal surface."""
    start = time.perf_counter()
    cases = [
        ("generic", generic_surface(), (1, 2, 3)),
        ("hyperresonant", hyper_surface(), (2,)),
        ("homothety", homothety_surface(), (1, 2, 3)),
    ]
    total = 0
    for name, s, degrees in cases:
        for n in degrees:
            recs = enumerate_structures(s, n, hyper_params=std_params())
            keys_enum = {canonical_key(r.dev, n) for r in recs}
            assert len(keys_enum) == len(recs)
            found = brute_force_admissible(s, n, deg_bound=2)
            keys_bf = {canonical_key(d, n) for d in found}
            assert keys_enum == keys_bf, (name, n)
            for d in found:
                assert is_admissible(d)
            total += len(keys_bf)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, "runtime budget exceeded: %.1fs" % elapsed
    _report(
        6,
        "bounded completeness",
        "7 surface/degree pairs, %d canonical classes, %.1fs" % (total, elapsed),
    )


def _line_rows():
    g = generic_surface()
    h = hyper_surface()
    e1 = HopfSurface.exceptional(Fraction(1, 2), 1)
    e2 = HopfSurface.exceptional(Fraction(1, 2), 2)
    return [
        (h, h.l1 * h.l2),
        (h, h.l1 ** (-1)),
        (g, g.l1**2 * g.l2),
        (g, g.basis.one()),
        (e1, e1.lam**2),
        (e2, e2.lam**3),
    ]


def _proj_rows():
    g = generic_surface()
    h = hyper_surface()
    e2 = HopfSurface.exceptional(Fraction(1, 2), 2)
    gb, hb, eb = g.basis, h.basis, e2.basis
    return [
        (h, ((h.l1 * h.l2, hb.zero()), (hb.zero(), hb.one()))),
        (g, ((g.l1, gb.zero()), (gb.zero(), gb.one()))),
        (g, ((gb.gauss(Fraction(1, 7)), gb.zero()), (gb.zero(), gb.one()))),
        (g, ((gb.gauss(3), gb.one()), (gb.zero(), gb.gauss(3)))),
        (e2, ((e2.lam**2, eb.zero()), (eb.zero(), eb.one()))),
        (e2, ((eb.gauss(Fraction(1, 7)), eb.zero()), (eb.zero(), eb.one()))),
        (e2, ((eb.gauss(5), eb.one()), (eb.zero(), eb.gauss(5)))),
    ]


def _mobius_value(rows_numeric, value):
    (a, b), (c, d) = rows_numeric
    if value == complex("inf"):
        num, den = a, c
    else:
        num, den = a * value + b, c * value + d
    if den == 0:
        return complex("inf")
    return num / den


def _annulus_point(rng):
    def coord():
        r = math.exp(rng.uniform(math.log(0.4), 0.0))
        return r * cmath.exp(2j * math.pi * rng.random())

    return (coord(), coord())


def test_criterion_7_section_functional_equations():
    """50 instantiations x 100 samples per row, residual < 1e-9; Jordan exact."""
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    rows = 0
    for s, twist in _line_rows():
        fam = line_bundle_sections(s, twist)
        a_num = twist.numeric()
        rng = random.Random(700 + rows)
        for _ in range(50):
            f = instantiate(fam, rng)
            done = 0
            while done < 100:
                z = _annulus_point(rng)
                try:
                    lhs = f(s.float_F()(*z))
                    rhs = a_num * f(z)
                except ZeroDivisionError:
                    continue
                worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
                done += 1
        rows += 1
    for s, g in _proj_rows():
        fam = proj_bundle_sections(s, g)
        g_num = tuple(tuple(e.numeric() for e in row) for row in g)
        rng = random.Random(800 + rows)
        for _ in range(50):
            f = instantiate(fam, rng)
            done = 0
            while done < 100:
                z = _annulus_point(rng)
                try:
                    lhs = f(s.float_F()(*z))
                    rhs = _mobius_value(g_num, f(z))
                except ZeroDivisionError:
                    continue
                worst = max(worst, chordal(lhs, rhs))
                done += 1
        rows += 1
    assert worst < tol, worst

    # the exceptional Jordan closed form matches symbolically
    e2 = HopfSurface.exceptional(Fraction(1, 2), 2)
    eb = e2.basis
    a = Scalar.monomial(eb, Fraction(7, 3))
    fam = proj_bundle_sections(e2, ((a, eb.one()), (eb.zero(), a)))
    assert fam.variant == "jordan_family"
    assert fam.jordan_m == e2.m
    assert fam.jordan_shift == a.inverse()
    assert fam.closed_form() == "(z2/a) * (lam/z1)^2 + c, infinity"
    elapsed = time.perf_counter() - start
    _report(
        7,
        "section equations",
        "%d rows x 50 instantiations, max residual %.1e in %.1fs"
        % (rows, worst, elapsed),
    )


def _diag_conjugator(basis, n, rng):
    def mono():
        return Scalar.monomial(
            basis,
            GaussRat(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))),
            (rng.randint(-1, 1), rng.randint(-1, 1)),
        )

    g = Mat2.diag(mono(), mono())
    p = HomogPoly(
        basis,
        n,
        [
            basis.gauss(GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
            for _ in range(n + 1)
        ],
    )
    return GroupElt(g, p)


def test_criterion_8_normal_form_invariance():
    """100 conjugations per base element; identical normal form, idempotent."""
    start = time.perf_counter()
    free = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    b11 = EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0))

    def diag_elt(basis, n, e1, e2, coeffs):
        return GroupElt(
            Mat2.diag(e1, e2),
            HomogPoly(basis, n, [basis.gauss(c) if not isinstance(c, Scalar) else c for c in coeffs]),
        )

    bases = [
        diag_elt(free, 2, free.one(), free.gauss(-1), [1, 0, 1]),
        diag_elt(b11, 2, b11.gen(0), b11.gen(1), [0, 1, 0]),
        diag_elt(free, 2, free.gen(0), free.gen(1), [2, 5, 1]),
        GroupElt(
            Mat2(free, ((free.one(), free.one()), (free.zero(), free.one()))),
            HomogPoly(free, 2, [free.gauss(3), free.gauss(-1), free.gauss(4)]),
        ),
    ]
    total = 0
    for base in bases:
        expected = normal_form(base)
        assert is_normal_form(expected.element)
        again = normal_form(expected.element)
        assert again.element == expected.element  # idempotence
        rng = random.Random(900 + total)
        for _ in range(100):
            if base.g.is_diagonal():
                h = _diag_conjugator(base.basis, base.degree, rng)
            else:
                h = GroupElt(
                    Mat2.identity(base.basis),
                    HomogPoly.monomial(
                        base.basis, base.degree, rng.randint(0, base.degree),
                        base.basis.gauss(rng.randint(1, 5)),
                    ),
                )
            y = h.compose(base).compose(h.inverse())
            got = normal_form(y)
            assert got.element == expected.element or equal_up_to_swap(
                got.element, expected.element
            )
            assert got.element == expected.element  # orientation is preserved here
            total += 1
    elapsed = time.perf_counter() - start
    _report(
        8,
        "normal-form invariance",
        "%d conjugations over 4 base elements in %.1fs" % (total, elapsed),
    )
