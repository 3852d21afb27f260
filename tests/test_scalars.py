"""Exact scalar arithmetic: field axioms, lattice equality, numeric evaluation."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfon.scalars import (
    GR_I,
    GR_ONE,
    BasisMismatchError,
    EigenBasis,
    GaussRat,
    RelationLattice,
    Scalar,
    ScalarDomainError,
    exact_divide,
    find_relations,
    gauss_roots_of_unity,
    is_root_of_unity,
    sum_of_products,
)
from hopfon import scalars
from hopfon.scalars import ValuationSystem
from hopfon.sections import solve_power_product

small_fracs = st.fractions(min_value=-40, max_value=40, max_denominator=8)
gauss = st.builds(GaussRat, small_fracs, small_fracs)
nonzero_gauss = gauss.filter(lambda g: not g.is_zero())


@settings(max_examples=300)
@given(gauss, gauss, gauss)
def test_gauss_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=200)
@given(nonzero_gauss)
def test_gauss_inverse(a):
    assert (a / a).is_one()
    assert (GaussRat(1) / a) * a == GaussRat(1)


def test_gauss_quad_roundtrip():
    g = GaussRat(Fraction(3, 7), Fraction(-2, 5))
    assert GaussRat.from_quad(g.as_quad()) == g


def test_gauss_nth_root():
    assert GaussRat(4).nth_root(2) in (GaussRat(2), GaussRat(-2))
    assert GaussRat(Fraction(1, 8)).nth_root(3) == GaussRat(Fraction(1, 2))
    r = GaussRat(-4).nth_root(2)
    assert r is not None and r**2 == GaussRat(-4)
    assert GaussRat(2).nth_root(2) is None
    i_root = GaussRat(0, 1).nth_root(2)
    assert i_root is None  # sqrt(i) is not in Q(i)


def test_roots_of_unity_enumeration():
    assert gauss_roots_of_unity(1) == [GaussRat(1)]
    assert set(gauss_roots_of_unity(2)) == {GaussRat(1), GaussRat(-1)}
    assert len(gauss_roots_of_unity(4)) == 4


# ---------------------------------------------------------------------------
# lattices


def test_lattice_membership_rank1():
    lat = RelationLattice([(2, -1)])
    assert lat.rank == 1
    assert lat.contains((2, -1))
    assert lat.contains((-4, 2))
    assert not lat.contains((2, 1))
    assert not lat.contains((1, Fraction(-1, 2)))


def test_lattice_membership_rank2():
    lat = RelationLattice([(4, 0), (0, 3)])
    assert lat.rank == 2
    assert lat.contains((4, 3))
    assert lat.contains((8, -3))
    assert not lat.contains((2, 0))
    assert lat.minimal_positive_pair() == (4, 3)


def test_lattice_reduce_is_canonical():
    lat = RelationLattice([(2, -1)])
    e = (Fraction(5), Fraction(7))
    r1 = lat.reduce_exponents(e)
    r2 = lat.reduce_exponents((e[0] + 6, e[1] - 3))
    assert r1 == r2


def test_minimal_pair_rank1():
    assert RelationLattice([(2, -1)]).minimal_positive_pair() == (2, 1)
    assert RelationLattice([(1, -1)]).minimal_positive_pair() == (1, 1)
    assert RelationLattice([(-3, 6)]).minimal_positive_pair() == (3, 6)
    assert RelationLattice([]).minimal_positive_pair() is None


def _reference_hnf(rows):
    """Row Hermite normal form of an integer 2-column matrix, rank <= 2: rows
    folded one at a time into a pivot row (a, b) and a second row (0, c)."""
    a = b = c = 0
    for r0, r1 in ((int(r[0]), int(r[1])) for r in rows):
        g, s, t = scalars._bezout(a, r0)
        if g == 0:
            c = math.gcd(c, r1)
            continue
        a, b, c = g, s * b + t * r1, math.gcd(c, (r0 * b - a * r1) // g)
    if a < 0:
        a, b = -a, -b
    pivot = [(a, b % c if c else b)] if a else []
    return tuple(pivot + ([(0, c)] if c else []))


def test_relation_lattice_rows_match_a_reference_hnf():
    rng = random.Random(47)

    def entry():
        return 0 if rng.random() < 1 / 3 else rng.randint(-30, 30)

    for _ in range(2000):
        gens = [(entry(), entry()) for _ in range(rng.randint(0, 4))]
        assert RelationLattice(gens).rows == _reference_hnf(gens), gens


def test_find_relations_bounded_search():
    lat = find_relations(ValuationSystem(GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 4))))
    assert lat.minimal_positive_pair() == (2, 1)
    lat = find_relations(ValuationSystem(GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3))))
    assert lat.rank == 0
    lat = find_relations(ValuationSystem(GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 2))))
    assert lat.minimal_positive_pair() == (1, 1)


def test_relation_beyond_box_is_exact_then_clamped():
    mu = GaussRat(Fraction(9, 10))
    for (a, b), generator in (((65, 64), (64, -65)), ((64, 65), (65, -64))):
        h, lat = ValuationSystem(mu**a, mu**b).solve(GR_ONE)
        assert h == (0, 0) and lat.rows == (generator,)
        # the clamp reports a generator outside |a|, |b| <= 64 as no relation
        assert find_relations(ValuationSystem(mu**a, mu**b)).rank == 0


def test_exact_basis_takes_its_relations_from_its_values():
    half = GaussRat(Fraction(1, 2))
    b = EigenBasis(("l1", "l2"), (), (0.5, 0.25), exact=(half, half * half))
    assert b.lattice == b.valuations.lattice == RelationLattice([(2, -1)])
    with pytest.raises(ValueError, match="exact basis"):
        EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25), exact=(half, half * half))


def exact_scan(v1, v2, value, bound):
    """Every (a, b) with |a|, |b| <= bound and v1^a v2^b == value, a outer and
    b inner: the brute-force reference, exact and without a float prescreen."""
    p1 = {a: v1**a for a in range(-bound, bound + 1)}
    p2 = {b: v2**b for b in range(-bound, bound + 1)}
    return [(a, b) for a in p1 for b in p2 if p1[a] * p2[b] == value]


_UNITS = [GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1)]


def _small_gauss(rng):
    while True:
        g = GaussRat(*(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(2)))
        if not g.is_zero():
            return g


def _seeded_pair(kind, rng):
    if kind == "mu4":
        return rng.choice(_UNITS), rng.choice(_UNITS)
    if kind == "torsion":
        return GR_I, GaussRat(-1)
    if kind == "hyperresonant":
        mu = rng.choice(_UNITS) * rng.choice([GaussRat(Fraction(1, 3), Fraction(1, 3)), _small_gauss(rng)])
        return tuple(rng.choice(_UNITS) * mu ** rng.randint(-4, 4) for _ in range(2))
    return _small_gauss(rng), _small_gauss(rng)


@pytest.mark.parametrize("kind", ["mu4", "torsion", "hyperresonant", "generic"])
def test_relations_and_power_products_match_exact_scan(kind):
    rng = random.Random(kind)
    bound = 6
    box = [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]
    for _ in range(12):
        v1, v2 = _seeded_pair(kind, rng)
        if v1.is_zero() or v2.is_zero():
            continue
        lat = find_relations(ValuationSystem(v1, v2))
        assert [h for h in box if lat.contains(h)] == exact_scan(v1, v2, GR_ONE, bound)
        for _ in range(3):
            value = v1 ** rng.randint(-8, 8) * v2 ** rng.randint(-8, 8)
            value *= rng.choice([GR_ONE, rng.choice(_UNITS), _small_gauss(rng)])
            hits = exact_scan(v1, v2, value, bound)
            coset = ValuationSystem(v1, v2).solve(value)
            if coset is None:
                assert hits == []
                continue
            h, lat = coset
            assert [p for p in box if lat.contains((p[0] - h[0], p[1] - h[1]))] == hits
            # the canonical point gives the value, and every hit reduces to it
            k = lat.reduce_exponents(h)
            assert v1 ** k[0] * v2 ** k[1] == value
            assert all(lat.reduce_exponents(p) == k for p in hits)


def test_power_product_is_canonical_point_of_exact_scan():
    rng = random.Random(5)
    mu = GaussRat(Fraction(1, 3), Fraction(1, 3))
    half = GaussRat(Fraction(1, 2))
    for v1, v2 in ((mu**3, mu**2), (mu, mu), (GR_I, half), (half, GaussRat(Fraction(1, 3)))):
        basis = EigenBasis.from_gauss_values(v1, v2)
        for _ in range(2):
            value = v1 ** rng.randint(-3, 3) * v2 ** rng.randint(-3, 3)
            k = solve_power_product(basis, basis.gauss(value))
            assert v1 ** k[0] * v2 ** k[1] == value
            lat = ValuationSystem(v1, v2).solve(value)[1]
            hits = exact_scan(v1, v2, value, 64)
            assert hits and all(lat.reduce_exponents(p) == k for p in hits)


def assert_solve_matches_scan(v1, v2, value, bound=5):
    """ValuationSystem(v1, v2).solve(value) against the exact box scan: the
    coset meets the box in exactly the scan's hits, and its canonical point
    solves the equation.  Returns the canonical point, or None."""
    hits = exact_scan(v1, v2, value, bound)
    coset = ValuationSystem(v1, v2).solve(value)
    if coset is None:
        assert hits == []
        return None
    h, lat = coset
    box = [(a, b) for a in range(-bound, bound + 1) for b in range(-bound, bound + 1)]
    assert [p for p in box if lat.contains((p[0] - h[0], p[1] - h[1]))] == hits
    k = lat.reduce_exponents(h)
    assert v1 ** k[0] * v2 ** k[1] == value
    return k


@pytest.mark.parametrize(
    "v1, v2, value, point",
    [
        # (2 + i)/5 = 1/(2 - i): numerator and denominator share 2 + i, a prime outside the base
        (GaussRat(2, -1), GaussRat(3), GaussRat(Fraction(2, 5), Fraction(1, 5)), (-1, 0)),
        (GaussRat(2, -1), GaussRat(3), GaussRat(Fraction(2, 15), Fraction(1, 15)), (-1, -1)),
        # (1 + i)/2 = 1/(1 - i): one base entry, 1 + i, up to units
        (GaussRat(Fraction(1, 2), Fraction(1, 2)), GaussRat(3), GaussRat(0, Fraction(1, 2)), (2, 0)),
        (GaussRat(Fraction(1, 2), Fraction(1, 2)), GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 2), Fraction(-1, 2)), (7, -3)),
        # units: i^a (-1)^b, and v1 = v2
        (GR_I, GaussRat(-1), GaussRat(0, -1), (1, 1)),
        (GR_I, GR_I, GaussRat(-1), (0, 2)),
        (GaussRat(Fraction(1, 3)), GaussRat(Fraction(1, 3)), GaussRat(9), (0, -2)),
        (GaussRat(Fraction(1, 3)), GaussRat(Fraction(1, 3)), GaussRat(Fraction(-1, 3)), None),
        # a twist with a prime outside the base: 7, or 2 + i against the base {1 + i, 3}
        (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3)), GaussRat(Fraction(1, 7)), None),
        (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3)), GaussRat(Fraction(2, 3), Fraction(1, 3)), None),
        (GaussRat(Fraction(1, 2)), GaussRat(Fraction(1, 3)), GaussRat(Fraction(2, 5), Fraction(1, 5)), None),
    ],
    ids=["cancel-2-i", "cancel-2-i-over-3", "cancel-1+i", "cancel-1+i-shared", "units", "v1-eq-v2-units",
         "v1-eq-v2", "v1-eq-v2-sign", "prime-7", "prime-2+i", "prime-2+i-cancel"],
)
def test_valuation_system_solves_hand_cases(v1, v2, value, point):
    assert assert_solve_matches_scan(v1, v2, value) == point


tiny_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
tiny_gauss = st.builds(GaussRat, tiny_fracs, tiny_fracs).filter(lambda g: not g.is_zero())


@settings(max_examples=200, deadline=None)
@given(tiny_gauss, tiny_gauss, tiny_gauss, st.integers(-3, 3), st.integers(-3, 3), st.sampled_from(_UNITS))
def test_valuation_system_matches_exact_scan(v1, v2, c, a, b, unit):
    # a solvable value, then the same value times a unit and times an arbitrary c
    assert assert_solve_matches_scan(v1, v2, v1**a * v2**b, bound=4) is not None
    assert_solve_matches_scan(v1, v2, v1**a * v2**b * unit, bound=4)
    assert_solve_matches_scan(v1, v2, v1**a * v2**b * c, bound=4)


# ---------------------------------------------------------------------------
# scalars


def basis_free():
    return EigenBasis(("l1", "l2"), (), (0.5, 0.3))


def basis_hyper():
    return EigenBasis.from_gauss_values(Fraction(1, 2), Fraction(1, 4))


def test_scalar_mul_examples():
    b = basis_free()
    two_l1 = Scalar.monomial(b, 2, (1, 0))
    three_l2 = Scalar.monomial(b, 3, (0, 1))
    prod = two_l1 * three_l2
    assert prod == Scalar.monomial(b, 6, (1, 1))

    half_power = Scalar.monomial(b, 1, (Fraction(1, 2), 0))
    assert half_power * half_power == Scalar.monomial(b, 1, (1, 0))


def test_scalar_equality_modulo_lattice():
    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    assert Scalar.monomial(b, 1, (2, 0)) == Scalar.monomial(b, 1, (0, 1))
    assert Scalar.monomial(b, 1, (1, 0)) != Scalar.monomial(b, 1, (0, 1))


def test_scalar_mul_basis_mismatch():
    with pytest.raises(BasisMismatchError):
        basis_free().one() * basis_hyper().one()


def test_is_root_of_unity():
    b = basis_free()
    assert is_root_of_unity(Scalar.monomial(b, GaussRat(0, 1)), 4)
    assert not is_root_of_unity(Scalar.monomial(b, GaussRat(0, 1)), 3)
    for n in (1, 2, 3):
        assert not is_root_of_unity(Scalar.monomial(b, 1, (Fraction(1, n), 0)), n)
    b3 = EigenBasis(("l1", "l2"), [(3, 0)], (cmath.exp(2j * cmath.pi / 3), 0.5))
    assert is_root_of_unity(b3.gen(0), 3)
    assert not is_root_of_unity(b3.gen(0), 2)


def test_numeric_eval_examples():
    b = EigenBasis(("l1", "l2"), (), (0.5, 0.5))
    assert abs(Scalar.monomial(b, 1, (1, 0)).numeric() - 0.5) < 1e-15
    assert abs(Scalar.monomial(b, 2, (0, 2)).numeric() - 0.5) < 1e-15
    b2 = EigenBasis(("l1", "l2"), (), (0.25, 0.5))
    assert abs(Scalar.monomial(b2, 1, (Fraction(1, 2), 0)).numeric() - 0.5) < 1e-15


def test_scalar_equality_is_congruence():
    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    x = Scalar.monomial(b, 3, (2, 0))
    y = Scalar.monomial(b, 3, (0, 1))
    z = Scalar.monomial(b, Fraction(5, 7), (1, 1))
    assert x == y
    assert x * z == y * z


small_exps = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=200)
@given(nonzero_gauss, small_exps, st.integers(-3, 3), nonzero_gauss, small_exps)
def test_scalar_equality_congruence_property(c, e, shift, d, f):
    # x and its lattice-shifted twin stay equal under multiplication by anything
    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    x = Scalar.monomial(b, c, e)
    x2 = Scalar.monomial(b, c, (e[0] + 2 * shift, e[1] - shift))
    z = Scalar.monomial(b, d, f)
    assert x == x2
    assert x * z == x2 * z
    assert x + z == x2 + z


def test_numeric_eval_is_multiplicative():
    rng = random.Random(7)
    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    for _ in range(1000):
        x = Scalar.monomial(
            b,
            GaussRat(Fraction(rng.randint(1, 9), rng.randint(1, 9))),
            (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)),
        )
        y = Scalar.monomial(
            b,
            GaussRat(Fraction(rng.randint(1, 9), rng.randint(1, 9))),
            (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2)),
        )
        lhs = (x * y).numeric()
        rhs = x.numeric() * y.numeric()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_scalar_sum_and_cancellation():
    b = basis_free()
    s = b.gen(0) + b.gen(1) - b.gen(0)
    assert s == b.gen(1)
    assert (b.gen(0) - b.gen(0)).is_zero()


def test_single_term_fast_paths_match_canonical_form():
    # Products and sums of single-term scalars against the same values put
    # in canonical form by the general constructor Scalar(basis, terms).
    b = EigenBasis(("l1", "l2"), [(2, 0), (1, 3)], (-1, -1))
    half = Fraction(1, 2)
    c, d = GaussRat(Fraction(2, 3), -1), GaussRat(Fraction(-3, 4), Fraction(1, 5))
    x, y = Scalar.monomial(b, c), Scalar.monomial(b, d)
    xe = Scalar.monomial(b, c, (half, 1))
    ye = Scalar.monomial(b, d, (1, 2))
    cases = [
        (x * y, [(c * d, (0, 0))]),
        (x * ye, [(c * d, (1, 2))]),
        (xe * y, [(c * d, (half, 1))]),
        (xe * ye, [(c * d, (half + 1, 3))]),  # reduced modulo (2, 0) and (1, 3)
        (x + y, [(c + d, (0, 0))]),
        (xe + Scalar.monomial(b, d, (half, 1)), [(c + d, (half, 1))]),
        (x + ye, [(c, (0, 0)), (d, (1, 2))]),
        (x - Scalar.monomial(b, c), []),
        (xe + Scalar.monomial(b, -c, (half + 2, 1)), []),  # cancels modulo (2, 0)
        ((x + ye) * (x - ye), [(c * c, (0, 0)), (-d * d, (2, 4))]),
    ]
    for got, terms in cases:
        want = Scalar(b, terms)
        assert got.terms == want.terms
        assert got == want and hash(got) == hash(want)
    assert (x - x).terms == ()
    assert (xe + (-xe)).terms == ()


# the rank-2 lattice basis of the test above
LATTICE_BASIS = EigenBasis(("l1", "l2"), [(2, 0), (1, 3)], (-1, -1))
small_exp = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
term_lists = st.lists(st.tuples(gauss, st.tuples(small_exp, small_exp)), max_size=4)


def reference_terms(basis, pairs):
    """Canonical (key, x, y, z) terms of sum(c l^e), accumulated in GaussRat."""
    acc = {}
    for c, e in pairs:
        key = basis.lattice.reduce_exponents(e)
        acc[key] = acc.get(key, GaussRat(0)) + c
    return tuple((k, c.x, c.y, c.z) for k, c in sorted(acc.items()) if not c.is_zero())


def assert_canonical(s):
    keys = [t[0] for t in s.terms]
    assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly sorted
    for key, x, y, z in s.terms:
        assert z > 0 and math.gcd(x, y, z) == 1
        assert x or y
        assert s.basis.lattice.reduce_exponents(key) == key


@pytest.mark.parametrize("basis", [basis_free(), LATTICE_BASIS], ids=["free", "lattice"])
@settings(max_examples=60, deadline=None)
@given(p=term_lists, q=term_lists)
def test_flat_terms_match_gauss_arithmetic(basis, p, q):
    # every operation on the flat (key, x, y, z) terms agrees with the
    # canonical form of the same sum built from GaussRat arithmetic
    a, b = Scalar(basis, p), Scalar(basis, q)
    neg_q = [(-c, e) for c, e in q]
    product = [(c * d, (e[0] + f[0], e[1] + f[1])) for c, e in p for d, f in q]
    cases = [
        (a, p),
        (a + b, p + q),
        (a - b, p + neg_q),
        (-b, neg_q),
        (a * b, product),
        ((a + b) - b, p),
        (a - a, []),
        (a + (-a), []),
    ]
    for got, pairs in cases:
        assert got.terms == reference_terms(basis, pairs)
        assert got == Scalar(basis, pairs)
        assert_canonical(got)


def test_inverse_only_for_monomials():
    b = basis_free()
    s = b.gen(0) + b.one()
    with pytest.raises(ScalarDomainError):
        s.inverse()
    assert b.gen(0).inverse() * b.gen(0) == b.one()


def test_exact_divide_binomial_free():
    b = basis_free()
    d = b.one() - Scalar.monomial(b, 2, (1, 0))
    x = Scalar.monomial(b, 3, (0, 1)) + Scalar.monomial(b, Fraction(1, 2), (1, 1))
    a = x * d
    assert exact_divide(a, d) == x
    with pytest.raises(ScalarDomainError):
        exact_divide(b.one(), d)


def test_exact_divide_binomial_with_lattice():
    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    d = b.one() - b.gen(0)
    x = b.gen(1) + Scalar.monomial(b, 5, (1, 0))
    a = x * d
    assert exact_divide(a, d) == x


def test_exact_divide_torsion():
    b3 = EigenBasis(("l1", "l2"), [(3, 0)], (cmath.exp(2j * cmath.pi / 3), 0.5))
    d = b3.one() - Scalar.monomial(b3, 2, (1, 0))
    x = b3.one() + b3.gen(0) + Scalar.monomial(b3, 7, (2, 0))
    a = x * d
    q = exact_divide(a, d)
    assert q * d == a


def test_exact_divide_zero_divisor_keeps_monomials():
    # l1 - 1 is a zero divisor over l1^2 = 1; the quotient of l1 - 1 by
    # itself is anchored at the key (0, 0) and so is the monomial -l1,
    # not the two-term 1/2 - l1/2 that (1 + l1) annihilates
    b = EigenBasis(("l1", "l2"), [(2, 0)], (-1, 0.5))
    d = b.gen(0) - b.one()
    assert exact_divide(d, d) == -b.gen(0)


def binomial_step(d):
    """(u, t, o) with d = u (1 - t) for u the first monomial of d, o the order of t's key."""
    key, x, y, z = d.terms[0]
    u = Scalar.monomial(d.basis, GaussRat(Fraction(x, z), Fraction(y, z)), key)
    t = d.basis.one() - d * u.inverse()
    return u, t, d.basis.lattice.coset_order(t.exps)


def chain_anchors(s, v, o):
    """Least key of s on each chain gamma, gamma + v, ..., gamma + (o-1) v."""
    lattice = s.basis.lattice
    anchors = []
    for k in (term[0] for term in s.terms):
        if not any(
            lattice.contains((k[0] - g[0] - j * v[0], k[1] - g[1] - j * v[1]))
            for g in anchors
            for j in range(o)
        ):
            anchors.append(k)
    return anchors


def test_exact_divide_roundtrip_randomized():
    # (x * d) / d == x across lattice ranks for random binomial divisors,
    # unless d is a zero divisor: then the quotient is the one with no
    # term on the least key of each chain of a/u.  1 is divisible by d
    # exactly when 1 - t is a unit, i.e. t has finite order o and t^o != 1.
    rng = random.Random(21)
    bases = [
        EigenBasis(("l1", "l2"), (), (0.5, 0.3)),
        EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25)),
        EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0)),
        EigenBasis(("l1", "l2"), [(4, 0), (0, 3)], (1j, cmath.exp(2j * cmath.pi / 3))),
    ]
    def rand_mono(b):
        return Scalar.monomial(
            b,
            GaussRat(Fraction(rng.choice([1, 2, 3, -1, -5]), rng.randint(1, 3)),
                     Fraction(rng.randint(-2, 2))),
            (rng.randint(-3, 3), rng.randint(-3, 3)),
        )

    zero_divisors = 0
    for b in bases:
        for _ in range(120):
            x = rand_mono(b)
            if rng.random() < 0.5:
                x = x + rand_mono(b)
            d = rand_mono(b) + rand_mono(b)
            if d.is_zero() or d.is_unit():
                continue
            a = x * d
            q = exact_divide(a, d)
            assert q * d == a
            u, t, o = binomial_step(d)
            zero_divisor = o is not None and (t**o).is_one()
            if zero_divisor:
                zero_divisors += 1
                keys = {term[0] for term in q.terms}
                assert not keys.intersection(chain_anchors(a * u.inverse(), t.exps, o))
            else:
                assert q == x
            if o is None or zero_divisor:
                with pytest.raises(ScalarDomainError):
                    exact_divide(b.one(), d)
            else:
                assert exact_divide(b.one(), d) * d == b.one()
    assert zero_divisors > 0


def test_scalar_pow_rational():
    b = basis_free()
    s = Scalar.monomial(b, 4, (1, 0))
    r = s ** Fraction(1, 2)
    assert r * r == s


def test_nth_root_recovers_perfect_powers():
    b = basis_free()
    mu = Scalar.monomial(b, Fraction(3, 2), (1, -2))
    s = mu**3
    r = s.nth_root(3)
    assert r**3 == s


def test_power_matches_repeated_products():
    from hopfon.devmaps import UniPoly

    b = EigenBasis(("l1", "l2"), [(2, -1)], (0.5, 0.25))
    cases = [
        (GaussRat(Fraction(3, 2), Fraction(-1, 5)), GaussRat(1)),
        (Scalar.monomial(b, 2, (1, 0)) + Scalar.monomial(b, Fraction(1, 3), (Fraction(1, 2), 1)), b.one()),
        (UniPoly([1, GaussRat(0, 2), Fraction(-1, 3)]), UniPoly([1])),
    ]
    for x, one in cases:
        expected = one
        for k in range(10):
            assert x**k == expected
            expected = expected * x


def test_nth_root_exact_where_floats_fail():
    assert GaussRat(-8).nth_root(3) == GaussRat(-2)
    assert GaussRat(-4).nth_root(2) == GaussRat(0, 2)  # the principal root
    big = GaussRat(Fraction(10**12 + 39, 7))
    assert (big**2).nth_root(2) == big
    # beyond float precision (Newton steps) and beyond float range
    huge = GaussRat(Fraction(10**40 + 39, 7), 3)
    assert (huge**2).nth_root(2) == huge
    assert GaussRat(3**700).nth_root(2) == GaussRat(3**350)
    c = GaussRat(Fraction(123457, 1000003), Fraction(7, 11))
    assert (c**3).nth_root(3) == c
    # 16 has no principal 8th root in Q(i); the roots (1 +- i)(+-1) tie in
    # argument, and the counterclockwise one is returned
    assert GaussRat(16).nth_root(8) == GaussRat(1, 1)
    assert GaussRat(2).nth_root(2) is None


def test_nth_root_recovers_seeded_exact_powers():
    # 200 exact k-th powers c^k, k = 2..12, whose parts have 10-600 bits over
    # a nonunit denominator: each gives back a root r with r^k == c^k (r may
    # differ from c by a k-th root of unity in Q(i))
    rng = random.Random(14)
    for _ in range(200):
        k, bits = rng.randint(2, 12), rng.randint(10, 600)
        b = max(2, bits // k)  # c's parts, so that c^k has about `bits` bits
        z = rng.randint(2, 2**b)
        c = GaussRat(*(Fraction(rng.choice((-1, 1)) * rng.getrandbits(b), z) for _ in range(2)))
        power = c**k
        r = power.nth_root(k)
        assert r is not None and r**k == power


# ---------------------------------------------------------------------------
# The accumulate-and-canonicalise kernel against a dict model with Fraction
# coefficients: the constructor, sums, products, sum_of_products and
# add_reduced, which all merge terms in that one kernel.

KERNEL_BASES = [
    EigenBasis(("l1", "l2"), (), (0.5, 0.3)),  # rank 0
    EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0)),  # rank 1, pivot (1, 1)
    EigenBasis(("l1", "l2"), [(0, 3)], (0.5, 1.0)),  # rank 1, a lone row (0, 3)
    LATTICE_BASIS,  # rank 2
]
KERNEL_IDS = ["rank0", "rank1", "rank1_lone_row", "rank2"]
# keys from a small pool, so that terms share keys and sums cancel
pool_exp = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
pool_gauss = st.builds(
    GaussRat,
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
kernel_terms = st.lists(st.tuples(pool_gauss, st.tuples(pool_exp, pool_exp)), max_size=4)


def model(basis, pairs):
    """sum(c l^e) as a dict from reduced key to (re, im), in Fractions, zeros dropped."""
    acc = {}
    for c, e in pairs:
        key = basis.lattice.reduce_exponents(e)
        re, im = acc.get(key, (Fraction(0), Fraction(0)))
        acc[key] = (re + c.re, im + c.im)
    return {k: v for k, v in acc.items() if v != (0, 0)}


def model_product(p, q):
    """The (coefficient, exponent) pairs of the product of two term lists."""
    out = []
    for c, e in p:
        for d, f in q:
            re = c.re * d.re - c.im * d.im
            im = c.re * d.im + c.im * d.re
            out.append((GaussRat(re, im), (e[0] + f[0], e[1] + f[1])))
    return out


def check_against_model(s, basis, pairs):
    """s is canonical and equals the model of sum(c l^e) term for term."""
    want = model(basis, pairs)
    keys = [t[0] for t in s.terms]
    assert keys == sorted(want) and len(set(keys)) == len(keys)
    for key, x, y, z in s.terms:
        assert z > 0 and math.gcd(x, y, z) == 1 and (x or y)
        assert (Fraction(x, z), Fraction(y, z)) == want[key]
        assert basis.lattice.reduce_exponents(key) == key
        # an exponent is an int when integral and a Fraction otherwise
        assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in key)


def check_kernel(basis, p, q, r):
    a, b, c = Scalar(basis, p), Scalar(basis, q), Scalar(basis, r)
    for s, pairs in ((a, p), (b, q), (c, r)):
        check_against_model(s, basis, pairs)
    check_against_model(a + b, basis, p + q)
    check_against_model(b + a, basis, p + q)
    check_against_model(a * b, basis, model_product(p, q))
    check_against_model(
        sum_of_products([(a, b), (b, c)]), basis, model_product(p, q) + model_product(q, r)
    )
    check_against_model(
        sum_of_products([(a, basis.one()), (a, b), (c, c)]),
        basis,
        p + model_product(p, q) + model_product(r, r),
    )
    check_against_model(sum_of_products([(c, basis.one())]), basis, r)


@pytest.mark.parametrize("basis", KERNEL_BASES, ids=KERNEL_IDS)
@settings(max_examples=80, deadline=None)
@given(p=kernel_terms, q=kernel_terms, r=kernel_terms, cancel=st.booleans())
def test_kernel_matches_fraction_model(basis, p, q, r, cancel):
    if cancel:
        # b holds -a as well, so that a + b cancels a's terms
        q = q + [(-c, e) for c, e in p]
    check_kernel(basis, p, q, r)


def test_kernel_check_catches_a_merge_without_gcd(monkeypatch):
    # negative control: terms merged on a shared key but not brought to
    # lowest terms, (1/2 + 1/2) l2 kept as (2 + 0i)/4 l2
    def no_gcd(acc):
        return tuple(sorted(t for t in acc.values() if t[1] or t[2]))

    basis = KERNEL_BASES[0]
    half = (GaussRat(Fraction(1, 2)), (0, 1))
    p, q = [half, (GaussRat(1), (1, 0))], [half]
    check_kernel(basis, p, q, q)
    monkeypatch.setattr(scalars, "_canonical", no_gcd)
    with pytest.raises(AssertionError):
        check_kernel(basis, p, q, q)


rational_pairs = st.tuples(
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4])),
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4])),
)


@pytest.mark.parametrize(
    "rows",
    [(), [(1, 1)], [(2, -1)], [(0, 3)], [(3, 5)], [(2, 0), (1, 3)], [(4, 2), (0, 6)], [(4, 0), (0, 4)]],
)
@settings(max_examples=150, deadline=None)
@given(e=rational_pairs, f=rational_pairs)
def test_add_reduced_matches_reduce_exponents(rows, e, f):
    lattice = RelationLattice(rows)
    e, f = lattice.reduce_exponents(e), lattice.reduce_exponents(f)
    got = lattice.add_reduced(e, f)
    want = lattice.reduce_exponents((e[0] + f[0], e[1] + f[1]))
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]
