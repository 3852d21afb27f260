"""Group law, inverses, and the affine action on O(n)."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from hopfon.group import (
    AffinePoint,
    _chordal_scaled,
    GroupElt,
    HomogPoly,
    Mat2,
    act_affine,
    chordal,
    compose,
    inverse,
    random_group_elt,
)
from hopfon.scalars import BasisMismatchError, EigenBasis, GaussRat, Scalar


def free_basis():
    return EigenBasis(("l1", "l2"), (), (0.5, 0.3))


def test_compose_translation_example():
    # n=1: (diag(2,1), Z1) * (I, Z2) = (diag(2,1), Z1 + Z2)
    b = free_basis()
    x = GroupElt(
        Mat2.diag(b.gauss(2), b.one()), HomogPoly.monomial(b, 1, 1, b.one())
    )
    y = GroupElt(Mat2.identity(b), HomogPoly.monomial(b, 1, 0, b.one()))
    z = compose(x, y)
    assert z.g == x.g
    assert z.p == HomogPoly(b, 1, [b.one(), b.one()])


def test_compose_with_pure_matrix():
    # (I, p) * (g, 0) = (g, p)
    b = free_basis()
    rng = random.Random(0)
    for n in (1, 2, 3):
        x = random_group_elt(b, n, rng)
        left = GroupElt(Mat2.identity(b), x.p).compose(GroupElt.of_matrix(x.g, n))
        assert left == x


def test_inverse_examples():
    b = free_basis()
    p = HomogPoly.monomial(b, 2, 1, b.gauss(5))
    x = GroupElt(Mat2.identity(b), p)
    assert inverse(x) == GroupElt(Mat2.identity(b), -p)

    y = GroupElt.of_matrix(Mat2.diag(b.gauss(2), b.one()), 1)
    assert inverse(y) == GroupElt.of_matrix(
        Mat2.diag(b.gauss(Fraction(1, 2)), b.one()), 1
    )


def test_inverse_law_random():
    b = free_basis()
    rng = random.Random(1)
    for n in (1, 2, 3):
        e = GroupElt.identity(b, n)
        for _ in range(25):
            x = random_group_elt(b, n, rng)
            assert compose(x, inverse(x)) == e
            assert compose(inverse(x), x) == e


def test_associativity_random():
    b = free_basis()
    rng = random.Random(2)
    for n in (1, 2, 3):
        for _ in range(30):
            x, y, z = (random_group_elt(b, n, rng) for _ in range(3))
            assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_mu_n_quotient_equality():
    b = free_basis()
    n = 2
    x = random_group_elt(b, n, random.Random(3))
    minus = Scalar.monomial(b, -1)
    assert x == GroupElt(x.g.scale(minus), x.p)
    # scaling by i is not a square root of unity
    eye = Scalar.monomial(b, GaussRat(0, 1))
    assert x != GroupElt(x.g.scale(eye), x.p)


def test_an_all_zero_matrix_is_unequal_instead_of_raising():
    # Mat2._raw admits a zero matrix with a nonzero carried det; __eq__ has no
    # nonzero entry to take the ratio from, so the left element is no
    # root-of-unity multiple of the right one.  Inside a generator a bare
    # next() would surface as RuntimeError: generator raised StopIteration
    b = free_basis()
    z = b.zero()
    zero = GroupElt(Mat2._raw(b, ((z, z), (z, z)), b.one()), HomogPoly.zero(b, 2))
    eye = GroupElt.identity(b, 2)
    assert (zero == eye) is False and (zero != eye) is True
    assert not all(x == eye for x in (eye, zero))
    assert zero == GroupElt(Mat2._raw(b, ((z, z), (z, z)), b.one()), HomogPoly.zero(b, 2))


def test_act_affine_swap_example():
    # g = [[0,1],[1,0]], n=1, (2,3) -> (1/2, 3/2)
    b = free_basis()
    g = Mat2.from_gauss(b, ((0, 1), (1, 0)))
    x = GroupElt.of_matrix(g, 1)
    out = act_affine(x, AffinePoint("T", 2, 3))
    assert out.chart == "T"
    assert abs(out.c1 - 0.5) < 1e-14 and abs(out.c2 - 1.5) < 1e-14


def test_act_affine_poly_example():
    # n=2, (I, Z1 Z2) at (3,5) -> (3, 8)
    b = free_basis()
    x = GroupElt(Mat2.identity(b), HomogPoly.monomial(b, 2, 1, b.one()))
    out = act_affine(x, AffinePoint("T", 3, 5))
    assert abs(out.c1 - 3) < 1e-14 and abs(out.c2 - 8) < 1e-14


def test_act_affine_exceptional_generator():
    # g = diag(lam/eps, 1/eps), p = (1/lam^m) Z1^m Z2^(n-m), eps^n = lam^m
    # acts by (t1, t2) -> (lam t1, lam^m t2 + t1^m)
    lam_val = 0.5
    b = EigenBasis(("lam", "mu"), (), (lam_val, 1.0))
    for n, m in ((2, 1), (3, 2), (2, 2)):
        eps = Scalar.monomial(b, 1, (Fraction(m, n), 0))
        lam = b.gen(0)
        g = Mat2.diag(lam * eps.inverse(), eps.inverse())
        p = HomogPoly.monomial(b, n, m, lam.inverse() ** m)
        x = GroupElt(g, p)
        t1, t2 = 0.7 + 0.2j, -1.1 + 0.4j
        out = act_affine(x, AffinePoint("T", t1, t2))
        assert abs(out.c1 - lam_val * t1) < 1e-12
        assert abs(out.c2 - (lam_val**m * t2 + t1**m)) < 1e-12


def test_action_axiom_numeric():
    b = free_basis()
    rng = random.Random(4)
    for n in (1, 2):
        for _ in range(40):
            x = random_group_elt(b, n, rng)
            y = random_group_elt(b, n, rng)
            pt = AffinePoint(
                "T", rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), rng.uniform(-2, 2)
            )
            lhs = act_affine(compose(x, y), pt)
            rhs = act_affine(x, act_affine(y, pt))
            res = point_residual(lhs, rhs, n)
            assert res < 1e-10


def point_residual(p, q, n):
    t1p = p.c1 if p.chart == "T" else (1 / p.c1 if p.c1 != 0 else complex("inf"))
    t1q = q.c1 if q.chart == "T" else (1 / q.c1 if q.c1 != 0 else complex("inf"))
    res = chordal(t1p, t1q)
    try:
        qq = q.in_chart(p.chart, n)
        res += abs(p.c2 - qq.c2) / (1 + max(abs(p.c2), abs(qq.c2)))
    except ZeroDivisionError:
        res += 1.0
    return res


def test_mu_n_invariance_of_action():
    # replacing g by z*g with z^n = 1 leaves the action unchanged
    n = 3
    zeta = cmath.exp(2j * cmath.pi / n)
    b = EigenBasis(("z", "w"), [(n, 0)], (zeta, 0.5))
    rng = random.Random(5)
    for _ in range(30):
        x = random_group_elt(b, n, rng)
        xz = GroupElt(x.g.scale(b.gen(0)), x.p)
        assert x == xz
        pt = AffinePoint("T", rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2), 1.3)
        a, bb = act_affine(x, pt), act_affine(xz, pt)
        assert point_residual(a, bb, n) < 1e-12


def test_chart_transition():
    pt = AffinePoint("T", 4.0, 32.0)
    s = pt.in_chart("S", 2)
    assert abs(s.c1 - 0.25) < 1e-15 and abs(s.c2 - 2.0) < 1e-15
    back = s.in_chart("T", 2)
    assert abs(back.c1 - 4.0) < 1e-15 and abs(back.c2 - 32.0) < 1e-15


def test_action_lands_in_s_chart_near_pole():
    b = free_basis()
    g = Mat2.from_gauss(b, ((1, 0), (1, 1)))  # t1 -> t1/(t1+1), pole at t1 = -1
    x = GroupElt.of_matrix(g, 1)
    out = act_affine(x, AffinePoint("T", -1.0, 2.0))
    assert out.chart == "S"
    assert abs(out.c1) < 1e-12  # image has t1 = infinity


def test_compose_degree_mismatch():
    b = free_basis()
    with pytest.raises(ValueError):
        compose(GroupElt.identity(b, 1), GroupElt.identity(b, 2))


def test_act_affine_agrees_across_input_charts():
    # acting on the same point presented in either chart gives the same image
    b = free_basis()
    rng = random.Random(6)
    for n in (1, 2, 3):
        for _ in range(40):
            x = random_group_elt(b, n, rng)
            t1 = rng.uniform(0.3, 2.0) + 1j * rng.uniform(-1.0, 1.0)
            t2 = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(-1.0, 1.0)
            pt_t = AffinePoint("T", t1, t2)
            pt_s = pt_t.in_chart("S", n)
            out_t = act_affine(x, pt_t, n)
            out_s = act_affine(x, pt_s, n)
            assert point_residual(out_t, out_s, n) < 1e-10


def test_act_affine_s_chart_point_at_infinity():
    # s1 = 0 is the point over infinity; only the S input path can see it
    b = free_basis()
    g = Mat2.from_gauss(b, ((2, 1), (1, 1)))  # infinity maps to a/c = 2
    x = GroupElt.of_matrix(g, 2)
    out = act_affine(x, AffinePoint("S", 0.0, 3.0), 2)
    out_t = out.in_chart("T", 2)
    assert abs(out_t.c1 - 2.0) < 1e-12
    assert abs(out_t.c2 - 3.0) < 1e-12  # t2' = s2/(c + d s1)^n = 3/1


def test_product_with_zero_determinant_raises():
    # l1^2 = 1: det(1 + l1) det(1 - l1) = 1 - l1^2 = 0, a product of two nonzero scalars
    b = EigenBasis(("l1", "l2"), [(2, 0)], (-1, 0.5))
    one, l1 = b.one(), b.gen(0)
    a = Mat2.diag(one + l1, one)
    c = Mat2.diag(one - l1, one)
    with pytest.raises(ValueError):
        a * c
    with pytest.raises(ValueError):
        c.scale(one + l1)


def test_carried_determinant_matches_entries():
    # det of products, inverses and rescalings agrees with ad - bc of the
    # entries, and each entry of a product is the p e + q g of Scalar's own
    # * and +, over the four lattice ranks of test_scalars' KERNEL_BASES
    bases = [
        EigenBasis(("l1", "l2"), (), (0.5, 0.3)),
        EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0)),
        EigenBasis(("l1", "l2"), [(0, 3)], (0.5, 1.0)),
        EigenBasis(("l1", "l2"), [(2, 0), (1, 3)], (-1, -1)),
    ]
    half = Fraction(1, 2)

    def entry_det(m):
        (p, q), (r, s) = m.entries
        return p * s - q * r

    for b in bases:
        one, l1, l2 = b.one(), b.gen(0), b.gen(1)
        # multi-term entries with coefficients off the Gaussian integers
        u = Scalar(
            b, [(GaussRat(half, 1), (half, 0)), (GaussRat(-3), (1, -1)), (GaussRat(0, Fraction(2, 3)), (0, 2))]
        )
        v = Scalar(b, [(GaussRat(Fraction(1, 3)), (0, 0)), (GaussRat(1, -half), (1, 0))])
        mats = [
            Mat2(b, ((one + l1, l2), (b.gauss(2), l1))),
            Mat2(b, ((l1, b.gauss(3)), (b.zero(), one - l2))),
            Mat2.from_gauss(b, ((1, 2), (GaussRat(0, 1), 5))),
            Mat2(b, ((u, v), (v * l2, one - u))),  # dense
            Mat2(b, ((u, b.zero()), (l2 + v, v))),  # lower triangular
            Mat2(b, ((v, u * u), (b.zero(), u + l1))),  # upper triangular
            Mat2.diag(u, one + l1 * v),  # diagonal
        ]
        for x, y in itertools.product(mats, repeat=2):
            xy = x * y
            assert xy.det() == entry_det(xy)
            (p, q), (r, s) = x.entries
            (e, f), (g, h) = y.entries
            want = ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))
            for got_row, want_row in zip(xy.entries, want):
                assert [c.terms for c in got_row] == [c.terms for c in want_row]
        for m in mats:
            assert m.scale(one + l2).det() == entry_det(m.scale(one + l2))
            if m.det().is_unit():
                assert m.inverse().det() == entry_det(m.inverse())
                assert m * m.inverse() == Mat2.identity(b)
        for a, d in ((u, v), (l1, u + one), (b.gauss(2), l2)):
            assert Mat2.diag(a, d).det() == a * d
        other = bases[bases.index(b) - 1]  # another lattice
        with pytest.raises(BasisMismatchError):
            Mat2.diag(u, other.gen(1))
        with pytest.raises(ValueError):
            Mat2.diag(b.zero(), v)


def _expand_precompose(p, m):
    """sum_k a_k (m11 Z1 + m12 Z2)^k (m21 Z1 + m22 Z2)^(n-k), term by term over all 2^n picks."""
    n = p.degree
    (m11, m12), (m21, m22) = m.entries
    out = [p.basis.zero()] * (n + 1)
    for k, a in enumerate(p.coeffs):
        for picks in itertools.product((0, 1), repeat=n):
            term, z1_power = a, 0
            for j, pick in enumerate(picks):
                row = (m11, m12) if j < k else (m21, m22)
                term = term * row[pick]
                z1_power += pick == 0
            out[z1_power] = out[z1_power] + term
    return HomogPoly(p.basis, n, out)


def _random_entry(b, rng, bits=None, den=None):
    """A monomial over b, plus l2 with probability 0.3.  Its coefficient has
    small parts, or with `bits` parts of that many bits over the denominator
    den, or over a fresh odd one of that size when den is None."""
    if bits is None:
        c = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1))
    else:
        z = den or rng.getrandbits(bits) | 1
        c = GaussRat(Fraction(rng.getrandbits(bits) - 2 ** (bits - 1), z), Fraction(rng.getrandbits(bits), z))
    x = Scalar.monomial(b, c, (rng.randint(-1, 1), Fraction(rng.randint(-2, 2), 2)))
    return x + b.gen(1) if rng.random() < 0.3 else x


def _random_matrix(shape, entry, unit=None):
    """An invertible matrix of the shape "dense", "upper", "lower" or
    "diagonal".  With `unit`, a function drawing nonzero monomials, it is
    [[u, ub], [cu, cub + v]], whose determinant uv is a unit."""
    while True:
        (a, b), (c, d) = (entry(), entry()), (entry(), entry())
        zero = a.basis.zero()
        b = zero if shape in ("lower", "diagonal") else b
        c = zero if shape in ("upper", "diagonal") else c
        if shape == "dense" and not (b.terms and c.terms):
            continue
        if unit is not None:
            u, v = unit(), unit()
            return Mat2(a.basis, ((u, u * b), (c * u, c * u * b + v)))
        try:
            return Mat2(a.basis, ((a, b), (c, d)))
        except ValueError:
            continue


def test_precompose_matches_reference_expansion():
    # small parts over the free basis, a rank-1 one and a torsion one; then
    # 64- and 256-bit parts over the rank-1 basis, with denominators D times
    # 1, 2 or 3 (two terms on one key have equal denominators or a common
    # factor) or fresh odd ones (mostly coprime), so both lcm merges run
    rng = random.Random(7)
    rank1 = ([(1, 1)], (0.5, 2.0))
    cases = [(((), (0.5, 0.3)), None, False), (rank1, None, False), (([(0, 4)], (0.5, 1j)), None, False)]
    cases += [(rank1, bits, shared) for bits in (64, 256) for shared in (True, False)]
    for (relations, witness), bits, shared in cases:
        b = EigenBasis(("l1", "l2"), relations, witness)
        big = rng.getrandbits(bits) | 1 if bits else None

        def entry():
            return _random_entry(b, rng, bits, big * rng.randint(1, 3) if shared else None)

        def poly(n):
            return HomogPoly(b, n, [b.zero() if rng.random() < 0.25 else entry() for _ in range(n + 1)])

        def unit():
            c = GaussRat(rng.randint(1, 3), rng.randint(-2, 2))
            return Scalar.monomial(b, c, (rng.randint(-1, 1), 0))

        for n in (1, 2, 3, 4):
            zero = HomogPoly.zero(b, n)
            for shape in ("dense", "upper", "lower", "diagonal"):
                for p in [zero] + [poly(n) for _ in range(3 if bits is None else 1)]:
                    ma, mb = _random_matrix(shape, entry), _random_matrix("dense", entry)
                    ref = _expand_precompose(p, ma)
                    assert p.precompose(ma) == ref
                    assert p.precompose(ma, zero) == ref
                    q = poly(n)
                    assert p.precompose(ma, q) == q + ref
                    assert p.precompose(ma * mb) == p.precompose(ma).precompose(mb)
                    x, y = GroupElt(_random_matrix(shape, entry, unit), q), GroupElt(ma, p)
                    assert compose(x, y).p == x.p + _expand_precompose(y.p, x.g.inverse())


def _plain_chordal(a, b):
    inf = float("inf")
    a_inf = math.isinf(a.real) or math.isinf(a.imag)
    b_inf = math.isinf(b.real) or math.isinf(b.imag)
    if a_inf and b_inf:
        return 0.0
    if a_inf:
        return 1 / math.sqrt(1 + abs(b) ** 2)
    if b_inf:
        return 1 / math.sqrt(1 + abs(a) ** 2)
    return abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def test_chordal_keeps_its_bits_where_nothing_overflows():
    rng = random.Random(11)

    def value():
        pick = rng.random()
        if pick < 0.05:
            return complex("inf")
        if pick < 0.1:
            return 0j
        return cmath.rect(10 ** rng.uniform(-8, 70), rng.uniform(0, 2 * math.pi))

    for _ in range(2000):
        a, b = value(), value()
        d = chordal(a, b)
        assert repr(d) == repr(_plain_chordal(a, b))
        # the fallback's homogeneous form agrees with the plain one
        a_inf, b_inf = math.isinf(a.real), math.isinf(b.real)
        assert _chordal_scaled(a, b, a_inf, b_inf) == pytest.approx(d, rel=1e-13, abs=1e-300)


def test_chordal_is_finite_where_squares_overflow():
    inf = complex("inf")
    big = complex(1e308, 1e308)  # |big| is beyond the float range
    cases = [
        (1e160 + 0j, 2e160 + 0j, 1e160 / 1e160 / 2e160),  # |a|^2 overflows
        (1e200j, 0.5 + 0j, 1 / math.hypot(1, 0.5)),
        (inf, 1e200 + 0j, 1e-200),
        (1e200 + 0j, inf, 1e-200),
        (1e100 + 0j, 2e100 + 0j, 5e-101),  # only the product of the squares overflows
        (big, -big, 1 / abs(big / 2)),  # 2 / |big|
        (big, 1 + 0j, 1 / math.sqrt(2)),
    ]
    for a, b, want in cases:
        assert chordal(a, b) == pytest.approx(want, rel=1e-12), (a, b)
        assert chordal(b, a) == pytest.approx(want, rel=1e-12), (b, a)
