"""Structure enumeration, the brute-force oracle, and the case table."""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from hopfon import classify
from hopfon.classify import (
    DEFAULT_ROOT_POOL,
    ClassifyError,
    brute_force_admissible,
    canonical_key,
    enumerate_structures,
    reproduce_case_table,
)
from hopfon.devmaps import (
    DevMap,
    UniPoly,
    _clause_verdict,
    exponent_constants,
    exponent_list,
    is_admissible,
)
from hopfon.group import GroupElt, Mat2
from hopfon.hopf import HopfSurface
from hopfon.scalars import GaussRat


def generic():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))


def hyper12():
    return HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))


def homothety():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 2))


def std_params(maxN=2):
    return [list(DEFAULT_ROOT_POOL[:N]) for N in range(1, maxN + 1)]


# ---------------------------------------------------------------------------
# enumeration


def test_generic_n1_three_structures():
    recs = enumerate_structures(generic(), 1)
    kinds = sorted(r.kind for r in recs)
    assert kinds == ["eigen", "eigen", "radial"]
    assert {r.axis for r in recs if r.kind == "eigen"} == {1, 2}


def test_generic_has_no_hyper_rows_even_with_params():
    recs = enumerate_structures(generic(), 2, hyper_params=std_params())
    assert all(r.kind != "hyperresonant" for r in recs)


def test_exceptional_eigen_record():
    s = HopfSurface.exceptional(Fraction(1, 2), 2)
    recs = enumerate_structures(s, 3)
    assert [r.kind for r in recs] == ["exceptional_eigen"]
    rec = recs[0]
    # polynomial part (1/lam^m) Z1^m Z2^(n-m)
    p = rec.hol.p
    assert p.coeffs[2] == s.lam.inverse() ** 2
    assert all(p.coeffs[k].is_zero() for k in (0, 1, 3))
    # dev is the identity map
    assert rec.dev == DevMap.identity(3)
    assert rec.essential and not rec.complete


def test_exceptional_below_degree_is_empty():
    s = HopfSurface.exceptional(Fraction(1, 2), 2)
    assert enumerate_structures(s, 1) == []


def test_exceptional_linear_has_radial():
    s = HopfSurface.exceptional(Fraction(1, 2), 1)
    recs = enumerate_structures(s, 2)
    assert sorted(r.kind for r in recs) == ["exceptional_eigen", "radial"]
    radial = next(r for r in recs if r.kind == "radial")
    g = radial.hol.g
    assert g.entries[0][0] == s.lam and g.entries[1][0].is_one()


def test_hyper12_row1_record_matches_expected_shapes():
    s = hyper12()
    recs = enumerate_structures(s, 2, hyper_params=[[1]])
    row1 = next(r for r in recs if r.kind == "hyperresonant")
    assert row1.case == 1
    # dev = ((z1 - z2^2)/z2, z1/z2^2)
    d = row1.dev
    assert (d.k1, d.k2, d.l1, d.l2) == (0, 1, 1, -2)
    assert d.P1.coeffs[-1].is_one() and d.P1.degree == 1
    # holonomy diag(l1/l1^(1/2), l2/l1^(1/2))
    g = row1.hol.g
    assert g.entries[0][0] == s.l1 ** Fraction(1, 2)
    assert g.entries[1][1] == s.l2 * s.l1 ** Fraction(-1, 2)


def test_completeness_flags():
    recs = enumerate_structures(homothety(), 1, hyper_params=std_params())
    for r in recs:
        if r.kind == "eigen":
            assert r.essential and not r.complete
        else:
            assert not r.essential and not r.complete


def test_every_emitted_structure_is_admissible():
    surfaces = [
        (generic(), (1, 2, 3)),
        (hyper12(), (2,)),
        (homothety(), (1, 2, 3)),
    ]
    for s, degrees in surfaces:
        for n in degrees:
            for r in enumerate_structures(s, n, hyper_params=std_params()):
                verdict = is_admissible(r.dev)
                assert verdict, (s, n, r.provenance, verdict.reason)


def test_param_validation():
    s = hyper12()
    with pytest.raises(ClassifyError):
        enumerate_structures(s, 2, hyper_params=[[0]])
    with pytest.raises(ClassifyError):
        enumerate_structures(s, 2, hyper_params=[[2, 2]])


def test_homothety_row3_excluded_at_mN_equals_n():
    # N = 1 at n = 1 is excluded (m1 N = n); N = 2 appears
    recs = enumerate_structures(homothety(), 1, hyper_params=std_params())
    case3 = [r for r in recs if r.kind == "hyperresonant" and r.case == 3]
    assert len(case3) == 1 and len(case3[0].params) == 2
    # at n = 2 the N = 1 family exists and N = 2 is excluded
    recs = enumerate_structures(homothety(), 2, hyper_params=std_params())
    case3 = [r for r in recs if r.kind == "hyperresonant" and r.case == 3]
    assert len(case3) == 1 and len(case3[0].params) == 1


def test_swap_partner_marks():
    recs = enumerate_structures(homothety(), 1, hyper_params=std_params())
    by_case = {r.case: r for r in recs if r.kind == "hyperresonant"}
    assert by_case[2].swap_partner_case == 5
    assert by_case[5].swap_partner_case == 2


def test_record_json_roundtrip():
    recs = enumerate_structures(hyper12(), 2, hyper_params=std_params())
    for r in recs:
        rec = r.to_record()
        assert DevMap.from_record(rec["dev"]) == r.dev
        assert rec["holonomy"]["n"] == 2


# The hand-written holonomy of each named structure, an independent
# reference for the holonomies `enumerate_structures` reads off the maps.


def reference_holonomy(s, rec, n):
    l1, l2 = s.l1, s.l2
    if rec.kind == "radial":
        return GroupElt.of_matrix(Mat2.diag(l1, l2), n)
    if rec.kind == "eigen":
        main, other = (l1, l2) if rec.axis == 1 else (l2, l1)
        root = other ** Fraction(1, n)
        return GroupElt.of_matrix(Mat2.diag(main * root.inverse(), root.inverse()), n)
    m1, m2 = s.hyperresonance()
    N = len(rec.params)
    if rec.case in (1, 2):
        root = l1 ** Fraction(1, n)
        g = Mat2.diag(l1 ** (m1 * N) * root.inverse(), l2 * root.inverse())
    elif rec.case == 3:
        shift = l2 ** Fraction(m2 * N, n)
        g = Mat2.diag(l1 * shift.inverse(), l2 * shift.inverse())
    else:
        root = l2 ** Fraction(1, n)
        g = Mat2.diag(l1 * root.inverse(), l1 ** (m1 * N) * root.inverse())
    return GroupElt.of_matrix(g, n)


def reference_cases(n, m1, m2, N):
    """The hyperresonant cases present with N root factors, in record order."""
    out = []
    if m2 == n * m1 and (N >= 2 or m1 >= 2 or n >= 2):
        out.append(1 if N == 1 else 2)
    if m1 == m2 and m1 * N != n:
        out.append(3)
    if m1 == n * m2 and (N >= 2 or m2 >= 2 or n >= 2):
        out.append(4 if N == 1 else 5)
    return out


def test_holonomies_match_hand_written_formulas():
    rng = random.Random(8)
    bases = [GaussRat(Fraction(1, 2)), GaussRat(Fraction(2, 5)),
             GaussRat(Fraction(1, 3), Fraction(1, 3)), GaussRat(Fraction(1, 4), Fraction(1, 2))]
    units = [GaussRat(1), GaussRat(-1), GaussRat(0, 1)]
    seen = set()
    for n in range(1, 6):
        for _ in range(3):
            mu, zeta = rng.choice(bases), rng.choice(units)
            other = rng.choice([b for b in bases if b != mu])
            for l1, l2 in ((zeta * mu**n, mu), (zeta * mu, mu), (mu, zeta * mu**n), (mu, other)):
                s = HopfSurface.diagonal(l1, l2)
                params = [rng.sample(range(1, 10), N) for N in (1, 2, 3)]
                recs = enumerate_structures(s, n, hyper_params=params)
                pair = s.hyperresonance()
                expected = [] if pair is None else [
                    c for p in params for c in reference_cases(n, *pair, len(p))
                ]
                assert [r.case for r in recs[3:]] == expected, (l1, l2, n)
                assert [r.kind for r in recs[:3]] == ["radial", "eigen", "eigen"]
                for r in recs:
                    assert r.hol == reference_holonomy(s, r, n), (l1, l2, n, r.provenance)
                    seen.add(r.case)
    assert seen == {None, 1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# brute force vs enumeration


@pytest.mark.parametrize(
    "surface,n",
    [
        ("generic", 1),
        ("generic", 2),
        ("generic", 3),
        ("hyper12", 2),
        ("homothety", 1),
        ("homothety", 2),
        ("homothety", 3),
    ],
)
def test_brute_force_matches_enumeration(surface, n):
    s = {"generic": generic, "hyper12": hyper12, "homothety": homothety}[surface]()
    recs = enumerate_structures(s, n, hyper_params=std_params())
    keys_enum = {canonical_key(r.dev, n) for r in recs}
    assert len(keys_enum) == len(recs)  # records are pairwise non-isomorphic
    bf = brute_force_admissible(s, n, deg_bound=2)
    keys_bf = {canonical_key(d, n) for d in bf}
    assert keys_enum == keys_bf


def test_brute_force_constant_maps_reduce_to_three():
    bf = brute_force_admissible(generic(), 1, deg_bound=2)
    keys = {canonical_key(d, 1) for d in bf}
    assert keys == {("radial",), ("eigen", 1), ("eigen", 2)}


def test_brute_force_requires_diagonal():
    with pytest.raises(ClassifyError):
        brute_force_admissible(HopfSurface.exceptional(Fraction(1, 2), 1), 1)


def _reference_oracle(s, n, deg_bound):
    """`brute_force_admissible` decided candidate by candidate: every slot pair
    and degree pattern builds its pool polynomials and its map, which the
    whole certificate then judges (`is_admissible` runs `_shape_verdict`).

    Along the way it asserts that the oracle's integer prefilter is a
    necessary condition: no candidate it rejects passes `is_admissible`."""
    hyper = s.hyperresonance()
    m1, m2 = hyper or (1, 1)
    patterns = [(0, 0, 0)]
    if hyper is not None:
        patterns = list(itertools.product(range(deg_bound + 1), repeat=3))
    pool = DEFAULT_ROOT_POOL
    found = {}
    for (k1, l1), (kt2, lt2) in itertools.product(exponent_list(n), repeat=2):
        for d1, dq, d3 in patterns:
            if d1 + dq + d3 > len(pool):
                continue
            P1 = UniPoly.from_roots(pool[:d1])
            Q1 = UniPoly.from_roots(pool[d1 : d1 + dq])
            P2 = UniPoly.from_roots(pool[d1 + dq : d1 + dq + d3])
            k2, l2 = kt2 + m2 * (d1 - dq), lt2 + m2 * (d3 - n * dq)
            d = DevMap(k1, k2, l1, l2, P1, Q1, P2, hyper, n)
            verdict = is_admissible(d)
            constants = exponent_constants(k1, k2, l1, l2, m1, m2, n)
            if not _clause_verdict(*constants, (d1, dq, d3)):
                assert not verdict, d
            if verdict:
                found.setdefault(canonical_key(d, n), d)
    return [found[k] for k in sorted(found, key=repr)]


def test_brute_force_matches_the_per_candidate_reference():
    # 5 surfaces x n = 1..3 x deg_bound 0..2, each against the reference loop
    surfaces = (
        generic(),
        hyper12(),
        HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 4)),
        HopfSurface.diagonal(Fraction(1, 8), Fraction(1, 2)),
        homothety(),
    )
    start = time.perf_counter()
    for s, n, deg_bound in itertools.product(surfaces, (1, 2, 3), (0, 1, 2)):
        got = brute_force_admissible(s, n, deg_bound=deg_bound)
        want = _reference_oracle(s, n, deg_bound)
        assert [d.to_record() for d in got] == [d.to_record() for d in want], (s, n, deg_bound)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, "runtime budget exceeded: %.1fs" % elapsed


def test_brute_force_builds_maps_only_for_candidates_that_pass_the_clauses(monkeypatch):
    # (1/4, 1/2) with n = 2 and deg_bound 2 has 16 slot pairs x 27 degree
    # patterns = 432 candidates.  10 pass the integer A/B/C/D prefilter, on 5
    # patterns: only those build a map, and the gate judges each map once
    built, judged = [], []

    def devmap(*args):
        built.append(DevMap(*args))
        return built[-1]

    def counted_gate(d):
        judged.append(d)
        return is_admissible(d)

    monkeypatch.setattr(classify, "DevMap", devmap)
    monkeypatch.setattr(classify, "is_admissible", counted_gate)
    got = brute_force_admissible(hyper12(), 2, deg_bound=2)
    assert len(built) == 10 and judged == built
    assert all(is_admissible(d) for d in built)
    assert len({d.degrees for d in built}) == 5
    assert got == _reference_oracle(hyper12(), 2, 2)


def test_canonical_key_refuses_a_map_in_an_unexpected_slot():
    # the immersion (z1/z2 - 2 z2, 1/z2^2) on (1/4, 1/2) with n = 2 has slots
    # (k1, l1) = (0, 0) and (k2~, l2~) = (-1, -2), which no listed shape has
    d = DevMap(0, 1, 0, -2, UniPoly.from_roots([2]), 1, 1, (1, 2), 2)
    msg = "admissible map in unexpected slot ((0, 0), (-1, -2))"
    with pytest.raises(ClassifyError, match=re.escape(msg)):
        canonical_key(d, 2)


def test_canonical_key_identifies_chart_swap():
    # a map and its swapped-chart form share the key
    d = DevMap.radial(2, hyper=(1, 1))
    assert canonical_key(d, 2) == canonical_key(d.hat(), 2)


def test_canonical_key_separates_root_sets():
    from hopfon.devmaps import UniPoly

    def row1(roots):
        return DevMap(
            0, 2 * len(roots) - 1, 1, -2,
            UniPoly.from_roots(roots), UniPoly([1]), UniPoly([1]), (1, 2), 2,
        )

    k_a = canonical_key(row1([2, 3]), 2)
    k_b = canonical_key(row1([2, 5]), 2)
    k_c = canonical_key(row1([4, 6]), 2)  # common rescaling of {2, 3}
    assert k_a != k_b
    assert k_a == k_c


# ---------------------------------------------------------------------------
# the case table


def expected_feasible_rows(n, m1, m2):
    out = {}
    out[(0, 1, -1, "minus_n")] = m2 == n * m1
    out[(0, 1, 0, 1)] = False
    out[(0, 1, 1, 0)] = m2 == n * m1
    out[(1, 0, -1, "minus_n")] = m1 == m2
    out[(1, 0, 0, 1)] = m1 == n * m2
    out[(1, 0, 1, 0)] = False
    return out


@pytest.mark.parametrize(
    "n,m1,m2",
    [(1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 1), (1, 2, 2), (2, 2, 2), (1, 3, 2)],
)
def test_case_table_feasibility_pattern(n, m1, m2):
    rows = reproduce_case_table(n, m1, m2)
    assert len(rows) == 6
    expected = expected_feasible_rows(n, m1, m2)
    for row in rows:
        assert row.feasible == expected[row.combo], row.combo
        if row.combo in ((0, 1, 0, 1), (1, 0, 1, 0)):
            assert row.impossible
        else:
            assert not row.impossible


def test_case_table_degree_patterns():
    rows = {r.combo: r for r in reproduce_case_table(2, 1, 2)}
    r1 = rows[(0, 1, -1, "minus_n")]
    assert r1.degrees == {"P1": {"min": 1, "excluded": []}, "Q1": 0, "P2": 0}
    assert r1.relation == "m2 == n*m1"
    r3 = rows[(0, 1, 1, 0)]
    assert r3.degrees["Q1"] == {"min": 1, "excluded": []}
    assert r3.degrees["P1"] == 0 and r3.degrees["P2"] == 0

    rows = {r.combo: r for r in reproduce_case_table(1, 1, 1)}
    # n = m1 = 1: every feasible family needs degree >= 2 in its free slot
    assert rows[(0, 1, -1, "minus_n")].degrees["P1"] == {"min": 1, "excluded": [1]}
    assert rows[(1, 0, -1, "minus_n")].degrees["P2"] == {"min": 1, "excluded": [1]}
    assert rows[(1, 0, 0, 1)].degrees["Q1"] == {"min": 1, "excluded": [1]}

    # row 4 matches the side condition m1 deg P2 != n
    rows = {r.combo: r for r in reproduce_case_table(2, 2, 2)}
    assert rows[(1, 0, -1, "minus_n")].degrees["P2"] == {"min": 1, "excluded": [1]}

    # ... for every degree n / m1, not only within a window of small degrees
    for n in range(1, 41):
        for m in range(1, 4):
            rows = {r.combo: r for r in reproduce_case_table(n, m, m)}
            row = rows[(1, 0, -1, "minus_n")]
            excluded = [n // m] if n % m == 0 else []
            assert row.degrees["P2"] == {"min": 1, "excluded": excluded}, (n, m)
            assert row.conditions == tuple("deg P2 != %d" % b for b in excluded)


def test_case_table_worked_identities():
    # in the worked slot the constants satisfy B = -m1 D and C = m2 D^
    from hopfon.devmaps import UniPoly, exponent_constants

    for (m1, n, dP1) in ((1, 2, 1), (2, 1, 2), (1, 1, 2)):
        m2 = n * m1
        d = DevMap(
            0, dP1 * m2 - 1, 1, -n,
            UniPoly.from_roots(list(range(2, 2 + dP1))),
            UniPoly([1]), UniPoly([1]), (m1, m2), n,
        )
        (A, B, C, D), (_, _, _, D_hat) = (
            exponent_constants(e.k1, e.k2, e.l1, e.l2, m1, m2, n) for e in (d, d.hat())
        )
        assert B == -m1 * D
        assert C == m2 * D_hat
        assert A == 0


# (relation, sign-definite) of the clause constant of P1, Q1, P2 in each combination
_CLAUSE_TABLE = {
    (0, 1, -1, "minus_n"): (("m2 == n*m1", False), ("0 == m2", True), ("0 == m1", True)),
    (0, 1, 0, 1): (("m1 + m2 == 0", True), ("0 == m1 + m2", True), (None, False)),
    (0, 1, 1, 0): (("m2 == 0", True), ("n*m1 == m2", False), ("m1 == 0", True)),
    (1, 0, -1, "minus_n"): (("0 == n*m1", True), ("n*m2 == 0", True), ("m2 == m1", False)),
    (1, 0, 0, 1): (("m1 == 0", True), ("n*m2 == m1", False), ("m2 == 0", True)),
    (1, 0, 1, 0): ((None, False), ("n*m1 + n*m2 == 0", True), ("m1 + m2 == 0", True)),
}


@pytest.mark.parametrize("combo", sorted(_CLAUSE_TABLE, key=repr))
def test_clause_constants_table(combo):
    from hopfon.classify import _clause_coefficients, _constants, _relation, _sign_definite
    from hopfon.devmaps import exponent_constants

    clauses = {p: _clause_coefficients(combo, p) for p in ("P1", "Q1", "P2")}
    got = tuple((_relation(clauses[p]), _sign_definite(clauses[p])) for p in ("P1", "Q1", "P2"))
    assert got == _CLAUSE_TABLE[combo]
    # at degree 0 (k2, l2) = (k2~, l2~), and the constants are the A (P1),
    # C (Q1) and B (P2) of the map
    for n, m1, m2 in itertools.product((1, 2, 3), (1, 2, 5), (1, 3, 4)):
        k1, l1, kt2, lt2 = (-n if v == "minus_n" else v for v in combo)
        A, B, C, _ = exponent_constants(k1, kt2, l1, lt2, m1, m2, n)
        values = [c[0] * m1 + c[1] * m2 + n * (c[2] * m1 + c[3] * m2) for c in clauses.values()]
        assert values == [A, C, B]
        # the clause expression has no term in its polynomial's degree
        for t in (1, 3):
            at = [_constants(combo, p, t, n, m1, m2)[i] for p, i in (("P1", 0), ("Q1", 2), ("P2", 1))]
            assert at == values
