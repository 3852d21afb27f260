"""Conjugacy normal forms: resonances, reduction, conjugation invariance."""

import cmath
import random
from fractions import Fraction

import pytest

from hopfon.group import GroupElt, HomogPoly, Mat2
from hopfon.normalform import (
    NormalFormError,
    eigenvalue_relation_lattice,
    equal_up_to_swap,
    is_generic,
    is_normal_form,
    normal_form,
    resonant_degrees,
)
from hopfon.scalars import EigenBasis, GaussRat, Scalar, ScalarDomainError


def free_basis():
    return EigenBasis(("l1", "l2"), (), (0.5, 0.3))


def diag_elt(basis, n, e1, e2, coeffs=None):
    g = Mat2.diag(e1, e2)
    if coeffs is None:
        p = HomogPoly.zero(basis, n)
    else:
        p = HomogPoly(basis, n, [basis.gauss(c) if not isinstance(c, Scalar) else c for c in coeffs])
    return GroupElt(g, p)


# ---------------------------------------------------------------------------
# resonant degrees


def test_resonant_degrees_free_generators():
    b = free_basis()
    for n in (1, 2, 3):
        rep = resonant_degrees(Mat2.diag(b.gen(0), b.gen(1)), n)
        assert rep.resonant_degrees == ()
        assert rep.leading is None and rep.trailing is None
        assert rep.lattice_rank == 0


def test_resonant_degrees_homothety_with_torsion():
    n = 3
    b = EigenBasis(("l", "l2"), [(n, 0), (0, n)], (cmath.exp(2j * cmath.pi / n),) * 2)
    rep = resonant_degrees(Mat2.diag(b.gen(0), b.gen(0)), n)
    assert rep.resonant_degrees == tuple(range(n + 1))
    assert (rep.leading, rep.trailing) == (0, n)
    assert rep.lattice_rank == 2


def test_resonant_degrees_rank1_example():
    # n=2, relation lattice generated by (1,1): l1*l2 = 1; oracle by brute force
    b = EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0))
    expected = []
    for k in range(3):
        # l1^k l2^(2-k) = 1 iff (k, 2-k) in lattice iff k - (2-k) = 0... oracle:
        if (b.gen(0) ** k * b.gen(1) ** (2 - k)).is_one():
            expected.append(k)
    assert expected == [1]
    rep = resonant_degrees(Mat2.diag(b.gen(0), b.gen(1)), 2)
    assert rep.resonant_degrees == (1,)


def test_resonant_degrees_nondiagonalizable():
    b = free_basis()
    jordan = Mat2(b, ((b.one(), b.one()), (b.zero(), b.one())))
    rep = resonant_degrees(jordan, 2)
    assert rep.resonant_degrees == (2,)
    lam = b.gen(0)  # a free generator is not a root of unity
    jordan2 = Mat2(b, ((lam, b.one()), (b.zero(), lam)))
    assert resonant_degrees(jordan2, 2).resonant_degrees == ()


def test_resonant_degrees_rejects_full_matrix():
    b = free_basis()
    full = Mat2.from_gauss(b, ((1, 1), (1, 2)))
    with pytest.raises(NormalFormError):
        resonant_degrees(full, 1)


def test_hyperresonance_rank():
    b2 = EigenBasis(
        ("l1", "l2"),
        [(4, 0), (0, 3)],
        (1j, cmath.exp(2j * cmath.pi / 3)),
    )
    assert b2.lattice.rank == 2
    b1 = EigenBasis(("l1", "l2"), [(1, -1)], (0.5, 0.5))
    assert b1.lattice.rank == 1
    assert free_basis().lattice.rank == 0
    assert eigenvalue_relation_lattice(b2.gen(0), b2.gen(1)).rank == 2


def test_eigenvalue_relation_lattice_of_monomials():
    # l1^2 = l2^3, with witnesses t^3 and t^2
    basis = EigenBasis(("l1", "l2"), [(2, -3)], (0.8**3, 0.8**2))
    coeffs = [GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(Fraction(1, 2)), GaussRat(2),
              GaussRat(Fraction(1, 3), Fraction(1, 3))]
    exps = [(0, 0), (1, 0), (0, 1), (1, Fraction(-3, 2)), (Fraction(-1, 2), 0), (Fraction(2, 3), -1),
            (Fraction(1, 2), Fraction(1, 3))]
    rng = random.Random(3)
    ranks = set()
    for _ in range(30):
        e1, e2 = (Scalar.monomial(basis, rng.choice(coeffs), rng.choice(exps)) for _ in range(2))
        lat = eigenvalue_relation_lattice(e1, e2)
        ranks.add(lat.rank)
        p1, p2 = ({k: e**k for k in range(-12, 13)} for e in (e1, e2))
        assert {(a, b) for a in p1 for b in p2 if lat.contains((a, b))} == {
            (a, b) for a in p1 for b in p2 if (p1[a] * p2[b]).is_one()
        }
        for a, b in lat.rows:
            # a generator relates the coefficients and puts a v1 + b v2 in the basis lattice
            assert (e1.coeff**a * e2.coeff**b).is_one()
            v = (a * e1.exps[0] + b * e2.exps[0], a * e1.exps[1] + b * e2.exps[1])
            assert basis.lattice.reduce_exponents(v) == (0, 0) and basis.lattice.coset_order(v) == 1
    assert ranks == {0, 1, 2}
    with pytest.raises(ScalarDomainError):
        eigenvalue_relation_lattice(basis.gen(0) + basis.one(), basis.gen(1))


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_already_normal():
    b = free_basis()
    x = diag_elt(b, 2, b.gen(0), b.gen(1))
    nf = normal_form(x)
    assert nf.unique and nf.element == x
    assert is_normal_form(nf.element)


def test_normal_form_kills_nonresonant_terms():
    b = free_basis()
    x = diag_elt(b, 2, b.gen(0), b.gen(1), [1, 2, 3])
    nf = normal_form(x)
    assert nf.element.p.is_zero()
    assert is_normal_form(nf.element)
    assert is_generic(x)


def test_normal_form_nondiagonalizable_not_root():
    b = free_basis()
    lam = b.gen(0)
    g = Mat2(b, ((lam, b.gauss(3)), (b.zero(), lam)))
    x = GroupElt(g, HomogPoly(b, 2, [b.gauss(1), b.gauss(4), b.gauss(-2)]))
    nf = normal_form(x)
    assert nf.element.p.is_zero()
    assert nf.element.g.entries[0][1].is_one()
    assert is_normal_form(nf.element)
    assert not is_generic(x)


def test_normal_form_unipotent_branch():
    b = free_basis()
    n = 2
    g = Mat2(b, ((b.one(), b.one()), (b.zero(), b.one())))
    p = HomogPoly(b, n, [b.gauss(3), b.gauss(-1), b.gauss(4)])
    nf = normal_form(GroupElt(g, p))
    elt = nf.element
    assert elt.g.entries[0][0].is_one() and elt.g.entries[0][1].is_one()
    assert [c.is_zero() for c in elt.p.coeffs[:-1]] == [True, True]
    assert elt.p.coeffs[n].is_one()
    assert is_normal_form(elt)


def test_normal_form_unipotent_exact_conjugacy():
    # the unipotent output is an honest conjugate: verified by conjugating back
    b = free_basis()
    n = 2
    g = Mat2(b, ((b.one(), b.one()), (b.zero(), b.one())))
    p = HomogPoly(b, n, [b.gauss(3), b.gauss(-1), b.gauss(4)])
    x = GroupElt(g, p)
    rng = random.Random(0)
    for _ in range(10):
        c = rng.randint(1, 5)
        h = GroupElt(
            Mat2.identity(b), HomogPoly.monomial(b, n, rng.randint(0, n), b.gauss(c))
        )
        y = h.compose(x).compose(h.inverse())
        assert normal_form(y).element == normal_form(x).element


def test_normal_form_scalar_stratum_not_unique():
    b = free_basis()
    n = 2
    x = GroupElt(Mat2.identity(b), HomogPoly(b, n, [b.gauss(1), b.gauss(2), b.gauss(5)]))
    nf = normal_form(x)
    assert not nf.unique
    assert nf.element.p == x.p


def test_normal_form_single_resonant_term_rescales_to_one():
    # relation l1 l2 = 1 makes degree 1 resonant for n = 2
    b = EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0))
    x = diag_elt(b, 2, b.gen(0), b.gen(1), [0, 7, 0])
    nf = normal_form(x)
    assert nf.element.p.coeffs[1].is_one()
    assert is_normal_form(nf.element)
    assert not is_generic(x)
    # diag(1, -1) at n = 3 has resonant degrees 1 and 3, so the leading
    # term is not of degree 0: tau^2 = 8/2 and mu2^3 = 2 tau^-1
    one = free_basis().one()
    nf = normal_form(diag_elt(one.basis, 3, one, -one, [0, 2, 0, 8])).element
    assert [c.is_one() for c in nf.p.coeffs] == [False, True, False, True]


def test_normal_form_idempotent():
    cases = []
    b = free_basis()
    cases.append(diag_elt(b, 2, b.gen(0), b.gen(1), [1, 2, 3]))
    b11 = EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0))
    cases.append(diag_elt(b11, 2, b11.gen(0), b11.gen(1), [0, 7, 0]))
    g = Mat2(b, ((b.one(), b.one()), (b.zero(), b.one())))
    cases.append(GroupElt(g, HomogPoly(b, 2, [b.gauss(3), b.gauss(-1), b.gauss(4)])))
    for x in cases:
        nf1 = normal_form(x)
        nf2 = normal_form(nf1.element)
        assert nf2.element == nf1.element
        assert not nf2.swap_applied or nf1.element.g.is_diagonal()


def random_diagonal_conjugator(basis, n, rng, den=1):
    """(diag(mu1, mu2), p0) with monomial mu, exponents in (1/den)Z, and small rational p0."""
    def mono():
        return Scalar.monomial(
            basis,
            GaussRat(Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))),
            (Fraction(rng.randint(-den, den), den), Fraction(rng.randint(-den, den), den)),
        )

    g = Mat2.diag(mono(), mono())
    p = HomogPoly(
        basis,
        n,
        [basis.gauss(GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))) for _ in range(n + 1)],
    )
    return GroupElt(g, p)


def test_normal_form_conjugation_invariance():
    rng = random.Random(42)
    # base 1: two resonant terms (eigenvalues 1 and -1, n = 2: degrees {0, 2})
    fb = free_basis()
    base1 = diag_elt(fb, 2, fb.one(), fb.gauss(-1), [1, 0, 1])
    assert resonant_degrees(base1.g, 2).resonant_degrees == (0, 2)
    # base 2: single resonant degree over the homothety-like rank-1 basis
    b11 = EigenBasis(("l1", "l2"), [(1, 1)], (0.5, 2.0))
    base2 = diag_elt(b11, 2, b11.gen(0), b11.gen(1), [0, 1, 0])
    # base 3: generic kill-only case
    base3 = diag_elt(free_basis(), 2, free_basis().gen(0), free_basis().gen(1), [2, 5, 1])
    # base 4: the formal-torsion probe over l1^4 = l2^3
    base4 = torsion_probe()
    # base 5: l1^2 = 1, n = 4, three present resonant degrees {0, 2, 4}; the
    # interior coefficient's orbit includes l1 times it
    b2 = EigenBasis(("l1", "l2"), [(2, 0)], (-1, 0.5))
    base5 = diag_elt(b2, 4, b2.gen(0), b2.one(), [1, 2, b2.gauss(3) + b2.gen(0) * 2, -1, 16])
    # base 6: three present resonant degrees over free generators
    base6 = diag_elt(fb, 4, fb.gauss(-1), fb.one(), [1, 2, 3, 5, 16])
    assert resonant_degrees(base5.g, 4).resonant_degrees == (0, 2, 4)
    assert resonant_degrees(base6.g, 4).resonant_degrees == (0, 2, 4)

    for base, den in ((base1, 1), (base2, 1), (base3, 1), (base4, 4), (base5, 4), (base6, 4)):
        expected = normal_form(base).element
        assert is_normal_form(expected)
        for _ in range(100):
            h = random_diagonal_conjugator(base.basis, base.degree, rng, den)
            y = h.compose(base).compose(h.inverse())
            got = normal_form(y)
            assert got.element == expected


def torsion_probe():
    """x = (diag(-1, 1), 4/9 Z2^2 + (-3/2 + 3i) Z1 Z2 + Z1^2) over l1 = 1/8, l2 = 1/16."""
    b = EigenBasis.from_gauss_values(Fraction(1, 8), Fraction(1, 16))
    assert b.lattice.rows == ((4, -3),)
    return diag_elt(b, 2, b.gauss(-1), b.one(), [Fraction(4, 9), GaussRat(Fraction(-3, 2), 3), 1])


def test_normal_form_formal_torsion_probe():
    # The conjugate's degree-0 coefficient is 4/81 l^(2,-3).  Roots of it
    # taken after lattice reduction differ from the needed one by
    # l^((4,-3)/2), a formal square root of 1 that no Q(i) unit repairs.
    x = torsion_probe()
    b = x.basis
    h = GroupElt.of_matrix(
        Mat2.diag(Scalar.monomial(b, Fraction(1, 3), (-2, 2)), Scalar.monomial(b, 3, (1, 0))), 2
    )
    assert normal_form(x.conjugate_by(h)).element == normal_form(x).element


def test_normal_form_shear_by_zero_divisor():
    # over l1^2 = 1 the eigenvalue difference l1 - 1 is a zero divisor; the
    # shear must stay a monomial, or the degree-0 coefficient becomes a
    # binomial that has no root to rescale by
    b = EigenBasis(("l1", "l2"), [(2, 0)], (-1, 0.5))
    l1 = b.gen(0)
    x = GroupElt(Mat2(b, ((l1, l1 - b.one()), (b.zero(), b.one()))), HomogPoly.monomial(b, 1, 1, b.one()))
    nf = normal_form(x)
    assert nf.element == diag_elt(b, 1, l1, b.one(), [1, 0])
    assert is_normal_form(nf.element)


def test_normal_form_swap_orientation():
    b = free_basis()
    x = diag_elt(b, 2, b.gen(0), b.gen(1))
    xs = diag_elt(b, 2, b.gen(1), b.gen(0))
    a, c = normal_form(x), normal_form(xs)
    assert a.element != c.element
    assert equal_up_to_swap(a.element, c.element)
    # a lower-triangular representative is brought upper-triangular by the swap
    lam = b.gen(0)
    lower = Mat2(b, ((lam, b.zero()), (b.gauss(2) * lam, lam)))
    nf = normal_form(GroupElt.of_matrix(lower, 2))
    assert nf.swap_applied
    assert nf.element.g.is_upper_triangular()


def test_normal_form_triangular_distinct_eigenvalues():
    # off-diagonal divisible by the eigenvalue difference stays in the domain
    b = free_basis()
    e1, e2 = b.gen(0), b.gen(1)
    off = (e1 - e2) * b.gauss(3)
    g = Mat2(b, ((e1, off), (b.zero(), e2)))
    x = GroupElt(g, HomogPoly(b, 1, [b.gauss(2), b.gauss(7)]))
    nf = normal_form(x)
    assert nf.element.g.is_diagonal()
    assert nf.element.p.is_zero()
    assert is_normal_form(nf.element)


def test_normal_form_invariant_under_shear_conjugation():
    # conjugators with unipotent matrix part and in-domain shears
    b = free_basis()
    base = diag_elt(b, 2, b.gen(0), b.gen(1), [2, 5, 1])
    expected = normal_form(base).element
    rng = random.Random(77)
    for _ in range(25):
        x = b.gauss(rng.randint(1, 4)) * (b.gen(0) - b.gen(1))
        h = GroupElt(
            Mat2(b, ((b.one(), x), (b.zero(), b.one()))),
            HomogPoly.zero(b, 2),
        )
        y = h.compose(base).compose(h.inverse())
        assert not y.g.is_diagonal()
        assert normal_form(y).element == expected


def test_is_generic_examples():
    b = free_basis()
    assert is_generic(diag_elt(b, 2, b.gen(0), b.gen(1), [4, 5, 6]))
    # exceptional-eigenstructure generator: resonant term survives
    lam_val = 0.5
    be = EigenBasis(("lam", "x"), [(1, -1)], (lam_val, lam_val))
    n, m = 2, 1
    eps = Scalar.monomial(be, 1, (Fraction(m, n), 0))
    g = Mat2.diag(be.gen(0) * eps.inverse(), eps.inverse())
    p = HomogPoly.monomial(be, n, m, be.gen(0).inverse() ** m)
    assert not is_generic(GroupElt(g, p))
    # non-diagonalizable with p = 0 is not generic
    jordan = Mat2(b, ((b.one(), b.one()), (b.zero(), b.one())))
    assert not is_generic(GroupElt.of_matrix(jordan, 2))


def test_normal_form_takes_real_cube_root():
    # mu1 = -2 normalizes -8 Z1^3; its principal cube root is not in Q(i)
    b = free_basis()
    x = diag_elt(b, 3, b.gauss(1), b.gauss(2), [0, 0, 0, -8])
    nf = normal_form(x).element
    assert [c.is_one() for c in nf.p.coeffs] == [False, False, False, True]
    assert all(c.is_zero() for c in nf.p.coeffs[:3])


def test_normal_form_two_resonant_degrees_torsion_n9():
    # l1^9 = l2^9 = 1 with no relation inside |a|, |b| <= 8: two resonant
    # degrees already prove a rank-2 lattice
    w = cmath.exp(2j * cmath.pi / 9)
    b = EigenBasis(("l1", "l2"), [(9, 0), (0, 9)], (w, w * w))
    x = diag_elt(b, 9, b.gen(0), b.gen(1), [512] + [0] * 8 + [19683])
    nf = normal_form(x).element
    assert normal_form(nf).element == nf
    assert [c.is_one() for c in nf.p.coeffs] == [True] + [False] * 8 + [True]
    assert all(c.is_zero() for c in nf.p.coeffs[1:9])
