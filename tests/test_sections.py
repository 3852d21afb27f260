"""Section families and their defining functional equations."""

import random
from fractions import Fraction

import pytest

from hopfon.hopf import HopfSurface
from hopfon.scalars import Scalar
from hopfon.sections import (
    SectionError,
    instantiate,
    line_bundle_sections,
    proj_bundle_sections,
    solve_power_product,
)


def hyper_surface():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 4))


def generic_surface():
    return HopfSurface.diagonal(Fraction(1, 2), Fraction(1, 3))


def exceptional_surface(m=2):
    return HopfSurface.exceptional(Fraction(1, 2), m)


def test_solve_power_product_formal():
    s = generic_surface()
    a = s.l1**2 * s.l2 ** (-1)
    assert solve_power_product(s.basis, a) == (2, -1)
    assert solve_power_product(s.basis, s.basis.gauss(Fraction(1, 5))) is None


def test_solve_power_product_by_value():
    s = generic_surface()
    # 1/12 = (1/2)^2 * (1/3)^1 given as a plain number
    a = s.basis.gauss(Fraction(1, 12))
    assert solve_power_product(s.basis, a) == (2, 1)


@pytest.mark.parametrize(
    "twist, exponents",
    [
        # a subnormal float: the old log prescreen dropped this in-box hit
        (Fraction(1, 100000) ** 64, (64, 0)),
        (Fraction(1, 100000) ** 64 / 3, (64, 1)),
        # complex(100000^64) overflowed in the old prescreen
        (Fraction(100000) ** 64, (-64, 0)),
    ],
    ids=["subnormal", "subnormal-over-3", "overflow"],
)
def test_line_bundle_twist_beyond_float_range(twist, exponents):
    s = HopfSurface.diagonal(Fraction(1, 100000), Fraction(1, 3))
    fam = line_bundle_sections(s, s.basis.gauss(twist))
    assert fam.variant == "monomial" and fam.exponents == exponents


def test_line_bundle_exceptional_rows():
    s = exceptional_surface(2)
    fam = line_bundle_sections(s, s.lam**3)
    assert fam.variant == "monomial" and fam.exponents == (3, 0) and fam.free_constant
    # plain-number twist
    fam = line_bundle_sections(s, s.basis.gauss(Fraction(1, 8)))
    assert fam.variant == "monomial" and fam.exponents == (3, 0)
    assert line_bundle_sections(s, s.basis.gauss(Fraction(1, 5))).variant == "zero"


def test_line_bundle_trivial_twist_is_constants():
    s = generic_surface()
    fam = line_bundle_sections(s, s.basis.one())
    assert fam.variant == "monomial" and fam.exponents == (0, 0)


def test_line_bundle_generic_unsolvable():
    s = generic_surface()
    assert line_bundle_sections(s, s.basis.gauss(Fraction(1, 5))).variant == "zero"


def test_line_bundle_hyperresonant_family():
    s = hyper_surface()
    fam = line_bundle_sections(s, s.l1 * s.l2)
    assert fam.variant == "monomial_times_rational"
    assert fam.hyper == (2, 1)
    k1, k2 = fam.exponents
    assert 0 <= k1 < 2


def test_proj_bundle_rows():
    s = generic_surface()
    b = s.basis
    fam = proj_bundle_sections(s, ((s.l1, b.zero()), (b.zero(), b.one())))
    assert fam.variant == "monomial" and fam.includes_infinity

    fam = proj_bundle_sections(s, ((b.gauss(Fraction(1, 7)), b.zero()), (b.zero(), b.one())))
    assert fam.variant == "zero_and_infinity"

    fam = proj_bundle_sections(s, ((b.gauss(3), b.one()), (b.zero(), b.gauss(3))))
    assert fam.variant == "infinity_only"

    e = exceptional_surface(2)
    eb = e.basis
    fam = proj_bundle_sections(e, ((eb.gauss(5), eb.one()), (eb.zero(), eb.gauss(5))))
    assert fam.variant == "jordan_family" and fam.jordan_m == 2
    assert fam.includes_infinity
    assert fam.jordan_shift == eb.gauss(Fraction(1, 5))
    assert fam.closed_form() == "(z2/a) * (lam/z1)^2 + c, infinity"


def test_proj_bundle_rejects_bad_matrix():
    s = generic_surface()
    b = s.basis
    with pytest.raises(SectionError):
        proj_bundle_sections(s, ((b.one(), b.zero()), (b.one(), b.one())))


def _mobius(rows, value):
    (a, b), (c, d) = rows
    if value == complex("inf"):
        num, den = a, c
    else:
        num, den = a * value + b, c * value + d
    if den == 0:
        return complex("inf")
    return num / den


def check_functional_equation(s, fam, g_rows_numeric, a_numeric, rng, samples=100):
    """max residual of f(F(z)) = g.f(z) (projective) or = a f(z) (linear)."""
    f = instantiate(fam, rng)
    worst = 0.0
    count = 0
    while count < samples:
        z = (
            rng.uniform(0.4, 1.0) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
            rng.uniform(0.4, 1.0) * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        )
        if abs(z[0]) < 0.2 or abs(z[1]) < 0.2:
            continue
        try:
            lhs = f(s.apply_F(z))
            rhs_in = f(z)
        except ZeroDivisionError:
            continue
        if g_rows_numeric is not None:
            rhs = _mobius(g_rows_numeric, rhs_in)
            from hopfon.group import chordal

            worst = max(worst, chordal(lhs, rhs))
        else:
            rhs = a_numeric * rhs_in
            worst = max(worst, abs(lhs - rhs) / (1 + abs(rhs)))
        count += 1
    return worst


def test_line_bundle_functional_equation():
    rng = random.Random(9)
    cases = []
    s = hyper_surface()
    cases.append((s, s.l1 * s.l2))
    cases.append((s, s.l1 ** (-1)))
    g = generic_surface()
    cases.append((g, g.l1**2 * g.l2))
    e = exceptional_surface(2)
    cases.append((e, e.lam**2))
    for s, a in cases:
        fam = line_bundle_sections(s, a)
        assert fam.variant != "zero"
        for _ in range(10):
            worst = check_functional_equation(s, fam, None, a.numeric(), rng, samples=40)
            assert worst < 1e-9


def test_line_bundle_ratio_equals_twist():
    rng = random.Random(10)
    s = hyper_surface()
    a = s.l1 * s.l2 ** (-1)
    fam = line_bundle_sections(s, a)
    f = instantiate(fam, rng)
    for _ in range(50):
        z = (rng.uniform(0.4, 1.0), rng.uniform(0.4, 1.0))
        fz = f(z)
        if abs(fz) < 1e-12:
            continue
        ratio = f(s.apply_F(z)) / fz
        assert abs(ratio - a.numeric()) < 1e-9 * (1 + abs(ratio))


def test_proj_bundle_functional_equation():
    rng = random.Random(11)
    e = exceptional_surface(2)
    eb = e.basis
    g_rows = ((eb.gauss(5), eb.one()), (eb.zero(), eb.gauss(5)))
    fam = proj_bundle_sections(e, g_rows)
    g_num = ((5, 1), (0, 5))
    for _ in range(20):
        worst = check_functional_equation(e, fam, g_num, None, rng, samples=50)
        assert worst < 1e-9

    s = generic_surface()
    b = s.basis
    rows = ((s.l1, b.zero()), (b.zero(), b.one()))
    fam = proj_bundle_sections(s, rows)
    g_num = ((s.l1.numeric(), 0), (0, 1))
    for _ in range(20):
        worst = check_functional_equation(s, fam, g_num, None, rng, samples=50)
        assert worst < 1e-9


def test_jordan_closed_form_is_exact_symbolically():
    # (z2/a)(lam/z1)^m + c with the exact shift 1/a
    e = exceptional_surface(2)
    eb = e.basis
    a = Scalar.monomial(eb, Fraction(7, 3))
    fam = proj_bundle_sections(e, ((a, eb.one()), (eb.zero(), a)))
    assert fam.jordan_shift == a.inverse()
    assert fam.jordan_m == e.m
