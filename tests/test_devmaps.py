"""Developing-map calculus: exponent constants, Jacobians, admissibility, evaluation."""

import cmath
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfon.devmaps import (
    DevMap,
    EvalError,
    UniPoly,
    det_jacobian,
    eval_devmap,
    exponent_constants,
    exponent_list,
    is_admissible,
    is_semiadmissible,
    map_kernel,
    z2_exponents,
)
from hopfon import devmaps
from hopfon.group import AffinePoint
from hopfon.scalars import GaussRat
from hopfon.verify import VerifyConfig, _sample_annulus, check_immersion


def _value(p, x):
    """p(x) by Horner's rule, exactly."""
    total = GaussRat(0)
    for c in reversed(p.coeffs):
        total = total * x + c
    return total


def constants(d):
    """(A, B, C, D) of d, from `exponent_constants`."""
    return exponent_constants(d.k1, d.k2, d.l1, d.l2, *d._m(), d.n)


def tilde_map(d):
    """d rewritten in v = 1/u with z1 and z2 swapped: the reversed
    polynomials, the tilde exponents in the first slots and the pair
    (m2, m1)."""
    m1, m2 = d._m()
    kt2, lt2 = d.tilde_exponents()
    d1, dq, d3 = d.degrees
    return DevMap(
        kt2,
        d.k1 + m1 * (d1 - dq),
        lt2,
        d.l1 + m1 * (d3 - d.n * dq),
        UniPoly(d.P1.coeffs[::-1]),
        UniPoly(d.Q1.coeffs[::-1]),
        UniPoly(d.P2.coeffs[::-1]),
        None if d.hyper is None else (m2, m1),
        d.n,
    )


def test_unipoly_basics():
    p = UniPoly.from_roots([2, 3])  # (u-2)(u-3)
    assert p.degree == 2
    assert _value(p, 2).is_zero() and _value(p, 3).is_zero()
    assert p.squarefree()
    assert not UniPoly.from_roots([2, 2]).squarefree()
    assert not p.coprime_with(UniPoly.from_roots([3, 5]))
    assert p.coprime_with(UniPoly.from_roots([5]))
    assert UniPoly.from_roots([0]).has_root_at_zero()
    q, r = (p * UniPoly.from_roots([7]) + UniPoly([1])).divmod(p)
    assert q == UniPoly.from_roots([7]) and r == UniPoly([1])


def row1_map(m1, m2, n, roots):
    """((prod (z1^m1 - a z2^m2))/z2, z1/z2^n) in monomial-rational form."""
    N = len(roots)
    return DevMap(
        0,
        N * m2 - 1,
        1,
        -n,
        UniPoly.from_roots(roots),
        UniPoly([1]),
        UniPoly([1]),
        (m1, m2),
        n,
    )


def test_abcd_radial_example():
    n = 2
    assert constants(DevMap.radial(n, hyper=(1, 1))) == (-n, 0, n, -n)


def test_abcd_radial_any_n():
    for n in (1, 2, 3):
        d = DevMap.radial(n, hyper=(1, 1))
        assert constants(d) == (-n, 0, n, -n)
        assert d.tilde_exponents() == (-1, -n)


def test_abcd_worked_case_magnitudes():
    # slot (k1, l1, k2~, l2~) = (0, 1, -1, -n): the defining formulas give
    # A = -(m1 n - m2 - m1 m2 (deg P2 - n deg Q1)) and the companions
    # B = m1 (-1 + m2 (deg P1 - deg Q1)), C = m2 (n m1 deg P1 - m1 deg P2 - 1),
    # with B = -m1 D.
    for (m1, m2, n, dP1) in ((1, 2, 2, 1), (2, 4, 2, 1), (1, 1, 1, 2), (1, 3, 3, 2)):
        d = row1_map(m1, m2, n, list(range(2, 2 + dP1)))
        A, B, C, D = constants(d)
        dq = dp2 = 0
        assert A == -(m1 * n - m2 - m1 * m2 * (dp2 - n * dq))
        assert B == m1 * (-1 + m2 * (dP1 - dq))
        assert C == m2 * (n * m1 * dP1 - m1 * dp2 - 1)
        assert D == -(-1 + m2 * (dP1 - dq))
        assert B == -m1 * D


def test_abcd_hat_negates_D():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        d = DevMap(
            rng.choice([0, 1, -1]),
            rng.randint(-3, 3),
            rng.choice([0, 1, -n]),
            rng.randint(-3, 3),
            UniPoly.from_roots([2]) if rng.random() < 0.5 else UniPoly([1]),
            UniPoly([1]),
            UniPoly([1]),
            (rng.randint(1, 3), rng.randint(1, 3)),
            n,
        )
        assert constants(d.hat())[3] == -constants(d)[3]


def test_abcd_dictionaries_are_involutive():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        d = DevMap(
            rng.randint(-2, 2),
            rng.randint(-4, 4),
            rng.randint(-2, 2),
            rng.randint(-4, 4),
            UniPoly.from_roots(list(range(2, 2 + rng.randint(0, 2)))),
            UniPoly([1]),
            UniPoly.from_roots([7]) if rng.random() < 0.3 else UniPoly([1]),
            (rng.randint(1, 3), rng.randint(1, 3)),
            n,
        )
        A, B, C, D = constants(d)
        d1, dq, d3 = d.degrees
        alpha, beta = d1 - dq, d3 - d.n * dq
        # the swapped chart: constants (A - nB, -B, -A, -D), and hat twice
        # is the map itself
        assert constants(d.hat()) == (A - d.n * B, -B, -A, -D)
        assert d.hat().hat() == d
        # in v = 1/u the constants are (-A, -B, -C, D~) with
        # D~ = D + A alpha - B beta; swapping z1 and z2 negates the
        # determinant, so the tilde map has (A, B, C, -D~).  No polynomial
        # has a root at 0, so reversing keeps the degrees and tilde twice
        # is the map itself
        assert constants(tilde_map(d)) == (A, B, C, -(D + A * alpha - B * beta))
        assert tilde_map(tilde_map(d)) == d


def test_det_jacobian_radial_n1():
    d = DevMap.radial(1, hyper=(1, 1))
    det = det_jacobian(d)
    assert det.z1_exp == 0 and det.z2_exp == -3
    assert (det.N, det.Q1) == (UniPoly([-1]), UniPoly([1]))
    # matches direct differentiation of (z1/z2, 1/z2): det = -z2^-3
    z = (0.7 + 0.1j, 0.4 - 0.2j)
    assert abs(_det_at(d, z) - (-z[1] ** -3)) < 1e-12


def test_det_jacobian_identity():
    d = DevMap.identity(2)
    det = det_jacobian(d)
    assert det.z1_exp == 0 and det.z2_exp == 0
    assert (det.N, det.Q1) == (UniPoly([1]), UniPoly([1]))
    assert abs(_det_at(d, (1.1, 2.3)) - 1) < 1e-15


def test_N_is_constant_for_a_map_with_nonconstant_P1_and_A_nonzero():
    # (z1 - 2 z2, z1) has P1 = u - 2 and A != 0.  R(u) = 2/(u - 2) has a pole
    # at u = 2 only because it divides by P1: N = P1 R = 2 and det J = 2
    d = DevMap(0, 1, 1, 0, UniPoly.from_roots([2]), UniPoly([1]), UniPoly([1]), (1, 1), 1)
    assert constants(d)[0] != 0
    det = det_jacobian(d)
    assert (det.N, det.Q1) == (UniPoly([2]), UniPoly([1]))
    for z in ((2, 1), (2j, 1j), (0.3 + 0.1j, 0.7)):
        assert _det_at(d, z) == 2


def test_det_jacobian_of_the_homothety_automorphism_is_minus_2():
    # (z1, z1 - 2 z2) on the homothety: P2 = u - 2 and N = -2, so det J = -2
    # everywhere, on the line u = 2 too
    d = DevMap(1, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly.from_roots([2]), (1, 1), 1)
    det = det_jacobian(d)
    assert (det.N, det.Q1) == (UniPoly([-2]), UniPoly([1]))
    for z in ((2, 1), (2j, 1j), (0.3 + 0.1j, 0.7)):
        assert _det_at(d, z) == -2


def _branched_m2_n_m1_map():
    """The m2 = n m1 family on (1/4, 1/2) with n = 2 and params [2]:
    t = (z1/z2 - 2 z2, z1/z2^2), with det J = -(u - 2)/z2^2, u = z1/z2^2."""
    return DevMap(0, 1, 1, -2, UniPoly.from_roots([2]), 1, 1, (1, 2), 2)


def test_the_m2_n_m1_map_is_branched_where_u_is_2():
    from hopfon.classify import enumerate_structures
    from hopfon.hopf import HopfSurface

    d = _branched_m2_n_m1_map()
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    assert d in [r.dev for r in enumerate_structures(s, 2, [[2]])]
    assert det_jacobian(d).N == UniPoly([2, -1])
    # z = (1/2, 1/2) lies on the curve u = 2
    assert _det_at(d, (0.5, 0.5)) == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the A/B/C/D clauses accept maps that are branched "
    "along u = root; item 1(b) makes is_admissible decide unbranchedness",
)
def test_is_admissible_rejects_the_branched_m2_n_m1_map():
    assert not is_admissible(_branched_m2_n_m1_map())


def _immersion_m2_n_m1_map():
    """The radial map composed with the shear (z1 - 2 z2^2, z2) on (1/4, 1/2)
    with n = 2: t = (z1/z2 - 2 z2, 1/z2^2), whose det J = (1/z2)(-2/z2^3)
    = -2 z2^-4 vanishes nowhere."""
    return DevMap(0, 1, 0, -2, UniPoly.from_roots([2]), 1, 1, (1, 2), 2)


def test_check_immersion_passes_the_sheared_radial_map():
    from hopfon.hopf import HopfSurface

    # on the default annulus |z2| <= 1, so |det J| = 2 / |z2|^4 >= 2
    s = HopfSurface.diagonal(Fraction(1, 4), Fraction(1, 2))
    rep = check_immersion(_immersion_m2_n_m1_map(), VerifyConfig(), s)
    assert rep.passed and rep.min_jacobian_magnitude >= 2


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the A/B/C/D clauses reject this immersion "
    "(A = -2 nonzero with nonconstant P1); item 15's decider in is_admissible accepts it",
)
def test_is_admissible_accepts_the_sheared_radial_map():
    assert is_admissible(_immersion_m2_n_m1_map())


def test_shape_verdict_rejects_a_root_at_u_0_in_each_polynomial():
    # u^2 - 2u is squarefree and coprime with 1, so only the root-at-0
    # clause rejects it
    one, p = UniPoly([1]), UniPoly.from_roots([0, 2])
    for i, name in enumerate(("P1", "Q1", "P2")):
        polys = [one] * 3
        polys[i] = p
        assert devmaps._shape_verdict(*polys) == devmaps.Verdict(False, name + " has a root at u = 0")


def test_shape_verdict_rejects_a_root_shared_by_each_pair():
    # u - 2 has no root at 0 and is squarefree, so only the coprimality
    # clause rejects it in two slots
    one, p = UniPoly([1]), UniPoly.from_roots([2])
    for (i, j), names in (((0, 1), "P1,Q1"), ((0, 2), "P1,P2"), ((1, 2), "Q1,P2")):
        polys = [one] * 3
        polys[i] = polys[j] = p
        assert devmaps._shape_verdict(*polys) == devmaps.Verdict(False, names + " share a root")
    assert devmaps._shape_verdict(p, UniPoly.from_roots([3]), UniPoly.from_roots([5]))


def _det_at(d, z):
    """det J of d at z in chart T, from the map kernel's determinant reader."""
    return map_kernel(d).jacobian()(complex(z[0]), complex(z[1]), "T")


def _horner(p, x):
    total = 0j
    for c in reversed(p.coeffs):
        total = total * x + c.to_complex()
    return total


def _det_in_u(det, z):
    """det t' at z read through u = z1^m1/z2^m2: N(u) / Q1(u)^(n+2), each
    polynomial by Horner's rule in u."""
    z1, z2 = complex(z[0]), complex(z[1])
    m1, m2 = det.hyper if det.hyper is not None else (1, 1)
    u = z1**m1 / z2**m2
    val = z1**det.z1_exp * z2**det.z2_exp
    return val * (_horner(det.N, u) / _horner(det.Q1, u) ** (det.n + 2))


def _agrees_in_u(d, z):
    val, ref = _det_at(d, z), _det_in_u(det_jacobian(d), z)
    return abs(val - ref) <= 1e-12 * abs(ref)


def test_det_jacobian_with_a_nonconstant_Q1_agrees_with_u():
    # C = 1 with Q1 = u - 2: N = P1 P2 (2u - 2), and the kernel's
    # homogenized determinant agrees with N(u) / Q1(u)^(n+2) formed in u
    c = GaussRat(1, 1)
    d = DevMap(1, 1, 0, 1, UniPoly([3]), UniPoly.from_roots([2]), UniPoly([c]), (1, 1), 1)
    det = det_jacobian(d)
    assert (det.N, det.Q1) == (UniPoly([-6 * c, 6 * c]), UniPoly.from_roots([2]))
    for z in ((0.7 + 0.1j, 0.4 - 0.2j), (1.3, 0.9j), (-0.2 + 1j, 1.1 + 0.5j)):
        assert _agrees_in_u(d, z)


@functools.lru_cache(maxsize=None)
def _cli_verify_maps():
    """Every structure, and its chart-S map, of the five surfaces of the
    cli-verify benchmark for n = 1..3 (n = 2, 3 for m = 2)."""
    from hopfon.classify import enumerate_structures
    from hopfon.hopf import HopfSurface

    F = Fraction
    surfaces = (
        (HopfSurface.diagonal(F(1, 2), F(1, 3)), (1, 2, 3)),
        (HopfSurface.diagonal(F(1, 4), F(1, 2)), (1, 2, 3)),
        (HopfSurface.diagonal(F(1, 2), F(1, 2)), (1, 2, 3)),
        (HopfSurface.exceptional(F(1, 2), 1), (1, 2, 3)),
        (HopfSurface.exceptional(F(1, 2), 2), (2, 3)),
    )
    maps = []
    for s, ns in surfaces:
        params = [[2], [2, 3]] if s.kind == "diagonal" else None
        for n in ns:
            for rec in enumerate_structures(s, n, hyper_params=params):
                maps += [rec.dev, rec.dev.hat()]
    assert len(maps) == 86 and any(not d.P1.is_constant() for d in maps)
    return tuple(maps)


def test_det_jacobian_of_the_cli_verify_structures_agrees_with_u():
    # at points of the unit torus: there |u| = 1, away from the roots 2 and 3
    rng = random.Random(30)
    for d in _cli_verify_maps():
        for _ in range(20):
            z = tuple(cmath.rect(1.0, rng.uniform(0, 2 * math.pi)) for _ in range(2))
            assert _agrees_in_u(d, z), (d, z)


@functools.lru_cache(maxsize=None)
def _oracle_candidates():
    """(map, roots of P1, Q1, P2): every candidate of `brute_force_admissible`
    at deg_bound 2 on the criterion-6 surfaces, each slot pair and degree
    pattern with its pool polynomials, whether or not it passes the clauses."""
    from hopfon.classify import DEFAULT_ROOT_POOL as pool

    surfaces = (
        (None, (1, 2, 3)),  # generic: constants only
        ((1, 2), (2,)),  # (1/4, 1/2)
        ((1, 1), (1, 2, 3)),  # homothety
    )
    out = []
    for hyper, ns in surfaces:
        patterns = [(0, 0, 0)]
        if hyper is not None:
            patterns = [p for p in itertools.product(range(3), repeat=3) if sum(p) <= len(pool)]
        for n in ns:
            for (k1, l1), (kt2, lt2) in itertools.product(exponent_list(n), repeat=2):
                for d1, dq, d3 in patterns:
                    roots = (pool[:d1], pool[d1 : d1 + dq], pool[d1 + dq : d1 + dq + d3])
                    k2, l2 = z2_exponents(kt2, lt2, (d1, dq, d3), hyper, n)
                    polys = [UniPoly.from_roots(r) for r in roots]
                    out.append((DevMap(k1, k2, l1, l2, *polys, hyper, n), roots))
    assert len(out) == 3 * 16 + 4 * 432
    return tuple(out)


def _root_formula_holds(d, roots):
    """N(r) = A r P1'(r) P2(r) Q1(r) at each root r of P1, -B r P2'(r) P1(r) Q1(r)
    at each root of P2 and C r Q1'(r) P1(r) P2(r) at each root of Q1,
    exactly (ROADMAP item 1)."""
    (A, B, C, _), N = constants(d), det_jacobian(d).N
    P1, Q1, P2 = d.P1, d.Q1, d.P2
    r1, rq, r3 = roots
    # (roots of p, its constant, p, the other two polynomials)
    cases = ((r1, A, P1, P2, Q1), (r3, -B, P2, P1, Q1), (rq, C, Q1, P1, P2))
    return all(
        _value(N, r) == c * r * _value(p.derivative(), r) * _value(f, r) * _value(g, r)
        for rs, c, p, f, g in cases
        for r in rs
    )


def test_N_at_the_roots_of_P1_P2_Q1_is_the_root_formula():
    for d, roots in _oracle_candidates():
        assert _root_formula_holds(d, roots), d
    # double roots, roots shared between slots, a Gaussian root, constants
    # other than 1 and slots outside the allowed list; N is also the
    # polynomial of its definition
    g = GaussRat(1, 1)
    polys = [
        (UniPoly([1]), ()),
        (UniPoly([5]), ()),
        (UniPoly.from_roots([2]), (2,)),
        (UniPoly.from_roots([2, 2]), (2,)),
        (UniPoly.from_roots([2, 3], lead=Fraction(1, 2)), (2, 3)),
        (UniPoly.from_roots([g]), (g,)),
    ]
    slots = exponent_list(2) + ((2, -1),)
    u = UniPoly([0, 1])
    for i, ((P1, r1), (Q1, rq), (P2, r3)) in enumerate(itertools.product(polys, repeat=3)):
        (k1, l1), (k2, l2) = slots[i % 5], slots[(i // 5) % 5]
        d = DevMap(k1, k2, l1, l2, P1, Q1, P2, ((1, 1), (1, 2), (2, 1))[i % 3], 1 + i % 2)
        (A, B, C, D), det = constants(d), det_jacobian(d)
        num = (
            (P1 * P2 * Q1).scale(D)
            + (u * P1.derivative() * P2 * Q1).scale(A)
            - (u * P2.derivative() * P1 * Q1).scale(B)
            + (u * Q1.derivative() * P1 * P2).scale(C)
        )
        assert (det.N, det.Q1) == (num, Q1), d
        assert _root_formula_holds(d, (r1, rq, r3)), d


def test_the_swapped_chart_jacobian_is_minus_N_over_P1():
    # det_jacobian(d.hat()) = (-N, P1) with the exponents shifted by
    # -(n+2) (k1, k2), on every oracle candidate and cli-verify map
    maps = [d for d, _ in _oracle_candidates()] + list(_cli_verify_maps())
    for d in maps:
        det, hat = det_jacobian(d), det_jacobian(d.hat())
        assert (hat.N, hat.Q1) == (-det.N, d.P1), d
        shift = (d.n + 2) * d.k1, (d.n + 2) * d.k2
        assert (hat.z1_exp, hat.z2_exp) == (det.z1_exp - shift[0], det.z2_exp - shift[1]), d


def _det_terms(det, z):
    """det t' of a `DetJacobian` at z, term by term: z1^a z2^b (HN / HQ^(n+2)),
    each of N and Q1 homogenized as a sum from 0j, a constant too, and b the
    z2 exponent less m2 times the degrees the homogenization adds."""
    z1, z2 = z
    m1, m2 = det.hyper if det.hyper is not None else (1, 1)

    def homog(p):
        total = 0j
        for i, c in enumerate(p.coeffs):
            if not c.is_zero() or p.degree == 0:
                total += c.to_complex() * z1 ** (m1 * i) * z2 ** (m2 * (p.degree - i))
        return total

    b = det.z2_exp - m2 * (det.N.degree - (det.n + 2) * det.Q1.degree)
    return z1**det.z1_exp * z2**b * (homog(det.N) / homog(det.Q1) ** (det.n + 2))


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


def test_the_kernel_reads_chart_s_as_the_swapped_map_jacobian_bit_for_bit():
    # chart S of the kernel's determinant is -N / P1^(n+2) from d's own N;
    # at points on the axes, both signs of zero included, it is the
    # term-by-term value of det_jacobian(d.hat()), the signs of its zero
    # parts included
    rng = random.Random(31)
    maps = list(_cli_verify_maps()) + [d for d, _ in _oracle_candidates()]
    checked = 0
    for d in maps:
        det, hat = map_kernel(d).jacobian(), det_jacobian(d.hat())
        for w1, w2 in _sample_annulus(rng, math.log(0.5), 0.0, 2):
            for z in ((w1, 0j), (0j, w2), (w1, complex(-0.0, -0.0)), (complex(-0.0, -0.0), w2)):
                got, want = _outcome(det, *z, "S"), _outcome(_det_terms, hat, z)
                assert repr(got) == repr(want), (d, z)
                checked += isinstance(got, complex)
    assert checked > len(maps)


def test_immersion_expands_the_jacobian_once_per_map(monkeypatch, instrument_kernel):
    # at three seeds, with samples in chart S for some of the maps
    calls = []
    expand = devmaps.det_jacobian
    monkeypatch.setattr(devmaps, "det_jacobian", lambda d: calls.append(d) or expand(d))
    log = instrument_kernel()
    maps_in_chart_s = 0
    for d in _cli_verify_maps():
        for seed in range(3):
            calls.clear()
            log.point.clear()
            check_immersion(d, VerifyConfig(seed=seed))
            assert len(calls) == 1, (d, seed)
            maps_in_chart_s += "S" in [p[0] for p in log.point]
    assert maps_in_chart_s > 0


def test_affine_point_is_the_kernels_triple():
    pt = AffinePoint("T", 2, 3)
    assert pt == AffinePoint._make(("T", 2 + 0j, 3 + 0j)) == ("T", 2 + 0j, 3 + 0j)
    assert hash(pt) == hash(AffinePoint._make(("T", 2 + 0j, 3 + 0j)))
    assert type(pt.c1) is complex and type(pt.c2) is complex
    # eval_devmap is the kernel's point, as an AffinePoint, at an annulus
    # point and on an axis, where some maps read in chart S
    charts = set()
    for d in _cli_verify_maps():
        for z in ((0.7 + 0.2j, 0.5 - 0.4j), (0.6 - 0.3j, 0j)):
            out = eval_devmap(d, z)
            assert type(out) is AffinePoint and out == map_kernel(d).point(*z), (d, z)
            charts.add(out.chart)
    assert charts == {"T", "S"}
    with pytest.raises(ValueError, match="chart"):
        AffinePoint("X", 2, 3)
    with pytest.raises(AttributeError):
        pt.c1 = 0
    with pytest.raises(AttributeError):
        pt.extra = 0


def test_det_jacobian_runs_no_gcd_and_no_division(monkeypatch):
    calls = []
    for name in ("gcd", "divmod"):
        func = getattr(UniPoly, name)
        monkeypatch.setattr(UniPoly, name, lambda *a, _f=func, _n=name: calls.append(_n) or _f(*a))
    maps = _cli_verify_maps()
    for d in maps:
        det_jacobian(d)
        det_jacobian(d.hat())
    assert len(maps) == 86 and calls == []


def test_semiadmissible_radial():
    for n in (1, 2, 3):
        assert is_semiadmissible(DevMap.radial(n, hyper=(1, 1)))
        assert is_semiadmissible(DevMap.identity(n))


def test_semiadmissible_rejects_double_root():
    d = DevMap(
        0, 3, 1, -2, UniPoly.from_roots([2, 2]), UniPoly([1]), UniPoly([1]), (1, 2), 2
    )
    v = is_semiadmissible(d)
    assert not v and "double root" in v.reason


def test_semiadmissible_row1_example():
    # k = (0, m2-1), l = (1, -n), P1 = u - a, with m2 = n*m1
    for (m1, n) in ((1, 2), (1, 3), (2, 1), (3, 1)):
        m2 = n * m1
        d = row1_map(m1, m2, n, [2])
        assert is_semiadmissible(d)


def test_admissible_identity_map():
    assert is_admissible(DevMap.identity(2, hyper=(1, 2)))
    assert is_admissible(DevMap.radial(3, hyper=(1, 1)))


def test_admissible_rejects_nonconstant_P1_with_A_nonzero():
    d = DevMap(0, 1, 1, 0, UniPoly.from_roots([2]), UniPoly([1]), UniPoly([1]), (1, 1), 1)
    v = is_admissible(d)
    assert not v and "A =" in v.reason


def test_admissible_row1_and_row3_conditions():
    # m2 = n m1 with n >= 2: the single-factor family is admissible
    assert is_admissible(row1_map(1, 2, 2, [2]))
    # homothety-style m1 = m2 family: excluded exactly when m1 N = n
    def row3(m1, n, roots):
        N = len(roots)
        return DevMap(
            1,
            -1,
            0,
            N * m1 - n,
            UniPoly([1]),
            UniPoly([1]),
            UniPoly.from_roots(roots),
            (m1, m1),
            n,
        )

    assert is_admissible(row3(1, 2, [2]))
    bad = row3(1, 1, [2])  # m1 N = n = 1
    v = is_admissible(bad)
    assert not v and ("vanishes" in v.reason or "R(u)" in v.reason)


def test_admissible_rejects_zero_slot_pair():
    d = DevMap(0, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly([1]), None, 1)
    assert is_semiadmissible(d)
    v = is_admissible(d)
    assert not v


def test_eval_radial():
    d = DevMap.radial(2)
    pt = eval_devmap(d, (1, 2))
    assert pt.chart == "T"
    assert abs(pt.c1 - 0.5) < 1e-15 and abs(pt.c2 - 0.25) < 1e-15
    axis = eval_devmap(d, (1, 0))
    assert axis.chart == "S"
    assert abs(axis.c1) < 1e-15 and abs(axis.c2 - 1.0) < 1e-15


def test_eval_row1_matches_direct_formula():
    rng = random.Random(3)
    d = row1_map(1, 2, 2, [1])
    for _ in range(50):
        z1 = rng.uniform(0.3, 1.2) + 1j * rng.uniform(-0.5, 0.5)
        z2 = rng.uniform(0.3, 1.2) + 1j * rng.uniform(-0.5, 0.5)
        pt = eval_devmap(d, (z1, z2)).in_chart("T", 2)
        direct1 = (z1 - z2**2) / z2
        direct2 = z1 / z2**2
        assert abs(pt.c1 - direct1) < 1e-12 * max(1, abs(direct1))
        assert abs(pt.c2 - direct2) < 1e-12 * max(1, abs(direct2))


def test_eval_axis_points_of_hyper_map():
    d = row1_map(1, 2, 2, [1])
    # z2 = 0: t1 = (z1^1)/0 -> infinity, use chart S
    pt = eval_devmap(d, (1.0, 0.0))
    assert pt.chart == "S"
    # z1 = 0: t1 = -a z2^(2-1), t2 = 0
    pt = eval_devmap(d, (0.0, 2.0))
    assert pt.chart == "T"
    assert abs(pt.c1 - (-2.0)) < 1e-14 and abs(pt.c2) < 1e-14


def test_eval_error_off_both_charts():
    # t1 = 0 and t2 = infinity at z1 = 0 for this artificial map
    d = DevMap(1, 0, -1, 0, UniPoly([1]), UniPoly([1]), UniPoly([1]), None, 1)
    with pytest.raises(EvalError):
        eval_devmap(d, (0.0, 1.0))


def test_det_jacobian_matches_finite_differences():
    rng = random.Random(4)
    maps = [
        DevMap.radial(2, hyper=(1, 1)),
        DevMap.identity(3),
        row1_map(1, 2, 2, [1]),
        DevMap(
            1,
            -2,
            0,
            1 - 2 * 2,
            UniPoly([1]),
            UniPoly.from_roots([2]),
            UniPoly([1]),
            (2, 1),
            2,
        ),
    ]
    for d in maps:
        m1, m2 = d.hyper if d.hyper else (1, 1)
        checked = 0
        for _ in range(60):
            z1 = rng.uniform(0.5, 1.0) + 1j * rng.uniform(0.1, 0.6)
            z2 = rng.uniform(0.5, 1.0) + 1j * rng.uniform(0.1, 0.6)
            u = z1**m1 / z2**m2
            if min(abs(_horner(d.P1, u)), abs(_horner(d.Q1, u))) < 0.3:
                continue
            sym = _det_at(d, (z1, z2))
            num = _fd_jacobian(d, z1, z2)
            if num is None:
                continue
            checked += 1
            assert abs(sym - num) < 1e-5 * max(1.0, abs(sym))
        assert checked >= 20


def _fd_jacobian(d, z1, z2, rel=1e-6):
    from hopfon.devmaps import eval_devmap

    def chart_t(w1, w2):
        return eval_devmap(d, (w1, w2)).in_chart("T", d.n)

    try:
        h1 = rel * max(abs(z1), 1)
        h2 = rel * max(abs(z2), 1)
        pp = chart_t(z1 + h1, z2)
        pm = chart_t(z1 - h1, z2)
        qp = chart_t(z1, z2 + h2)
        qm = chart_t(z1, z2 - h2)
    except (EvalError, ZeroDivisionError):
        return None
    j11 = (pp.c1 - pm.c1) / (2 * h1)
    j21 = (pp.c2 - pm.c2) / (2 * h1)
    j12 = (qp.c1 - qm.c1) / (2 * h2)
    j22 = (qp.c2 - qm.c2) / (2 * h2)
    return j11 * j22 - j12 * j21


def test_devmap_record_roundtrip():
    d = row1_map(1, 2, 2, [Fraction(1, 2), 3])
    rec = d.to_record()
    assert DevMap.from_record(rec) == d
    d2 = DevMap.identity(2)
    assert DevMap.from_record(d2.to_record()) == d2


def test_tilde_invariance_of_admissibility():
    # rewriting in the reciprocal variable preserves both verdicts; the tilde
    # map has reversed polynomials and the tilde exponents in the z2 slots.
    for d in (row1_map(1, 2, 2, [2]), DevMap.radial(2, hyper=(1, 1))):
        tilde = tilde_map(d)
        assert bool(is_semiadmissible(tilde)) == bool(is_semiadmissible(d))
        assert bool(is_admissible(tilde)) == bool(is_admissible(d))


def full_certificate(d):
    """The unbranchedness certificate with every clause spelled out."""
    semi = is_semiadmissible(d)
    if not semi:
        return (False, "not semiadmissible: " + semi.reason)
    A, B, C, D = constants(d)
    if A != 0 and not d.P1.is_constant():
        return (False, "A = %d nonzero with nonconstant P1" % A)
    if B != 0 and not d.P2.is_constant():
        return (False, "B = %d nonzero with nonconstant P2" % B)
    if C != 0 and not d.Q1.is_constant():
        return (False, "C = %d nonzero with nonconstant Q1" % C)
    N = det_jacobian(d).N
    if N != (d.P1 * d.P2 * d.Q1).scale(D):  # R(u) = N / (P1 P2 Q1), and R(0) = D
        return (False, "R(u) is not constant")
    if N.is_zero():
        return (False, "R(u) = D vanishes")
    if d.k1 == 0 and d.l1 == 0:
        return (False, "(k1, l1) = (0, 0)")
    if constants(tilde_map(d))[3] == 0:
        return (False, "D~ vanishes (branch in the reciprocal-u chart)")
    if constants(d.hat())[3] == 0:
        return (False, "D^ vanishes (branch in the swapped chart)")
    return (True, "")


@st.composite
def candidate_maps(draw):
    n = draw(st.integers(1, 3))
    hyper = draw(st.none() | st.tuples(st.integers(1, 3), st.integers(1, 3)))
    degs = (0, 0, 0) if hyper is None else tuple(draw(st.integers(0, 2)) for _ in range(3))
    roots = draw(st.permutations([1, 2, 3, 5, -1, Fraction(1, 2)]))
    d1, dq, d3 = degs
    # mostly allowed slots, so that most maps reach the unbranchedness clauses
    pair = st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(exponent_list(n))
        if i
        else st.tuples(st.integers(-n - 1, 2), st.integers(-n - 1, 2))
    )
    (k1, l1), (kt2, lt2) = draw(pair), draw(pair)
    m2 = hyper[1] if hyper else 0
    return DevMap(
        k1,
        kt2 + m2 * (d1 - dq),
        l1,
        lt2 + m2 * (d3 - n * dq),
        UniPoly.from_roots(roots[:d1]),
        UniPoly.from_roots(roots[d1 : d1 + dq]),
        UniPoly.from_roots(roots[d1 + dq : d1 + dq + d3]),
        hyper,
        n,
    )


@settings(max_examples=300, deadline=None)
@given(candidate_maps())
def test_abc_clauses_imply_the_other_certificate_clauses(d):
    # once A, B, C pass, N = D P1 P2 Q1 (R(u) is the constant D), D~ = D,
    # D^ = -D, and (k1, l1) = (0, 0) forces D = 0, so "D != 0" is the last
    # clause needed
    A, B, C, D = constants(d)
    abc_hold = (
        (A == 0 or d.P1.is_constant())
        and (B == 0 or d.P2.is_constant())
        and (C == 0 or d.Q1.is_constant())
    )
    if abc_hold:
        det = det_jacobian(d)
        assert (det.N, det.Q1) == ((d.P1 * d.P2 * d.Q1).scale(D), d.Q1)
        # D~ = D, and the tilde map's D is -D~ (test_abcd_dictionaries_are_involutive)
        assert constants(tilde_map(d))[3] == -D and constants(d.hat())[3] == -D
        assert (d.k1, d.l1) != (0, 0) or D == 0
    v = is_admissible(d)
    assert (v.ok, v.reason) == full_certificate(d)


def test_unipoly_derivative_is_canonical():
    # i * c for the coefficient c of u^i, brought to lowest terms
    p = UniPoly([GaussRat(1, 2), GaussRat(Fraction(1, 2), Fraction(1, 2)), GaussRat(Fraction(3, 4))])
    d = p.derivative()
    assert d == UniPoly([GaussRat(Fraction(1, 2), Fraction(1, 2)), GaussRat(Fraction(3, 2))])
    assert [(c.x, c.y, c.z) for c in d.coeffs] == [(1, 1, 2), (3, 0, 2)]
    assert UniPoly([GaussRat(5)]).derivative() == UniPoly([0])


def test_det_jacobian_of_the_cli_verify_structures_keeps_its_repr():
    # every structure, and its chart-S map, of the five surfaces of the
    # cli-verify benchmark.  The digest is that of the reprs of
    # (z1_exp, z2_exp, N, Q1, n, hyper) with N formed as R_num P1 P2 Q1 / R_den
    # from the reduced fraction R_num / R_den that DetJacobian once stored
    from hashlib import sha256

    maps = _cli_verify_maps()
    text = "\n".join(repr(det_jacobian(d)) for d in maps)
    assert len(maps) == 86
    assert sha256(text.encode()).hexdigest() == (
        "12287d4aabd7ddd65727154910bcfb1586aead4ea618bda92ff96c32b4bd7edb"
    )
