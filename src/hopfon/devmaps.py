"""Symbolic developing maps of the monomial-times-rational shape.

A candidate map carries integer exponents (k1, k2, l1, l2), three
polynomials P1, Q1, P2 in the invariant u = z1^m1 / z2^m2, and the
bundle degree n:

    t1 = z1^k1 z2^k2 P1(u)/Q1(u)
    t2 = z1^l1 z2^l2 P2(u)/Q1(u)^n

with the second chart s1 = 1/t1, s2 = t2/t1^n.  Without a
hyperresonance pair the polynomials are constants.  The exponent
bookkeeping constants

    A = m1 l2 + l1 m2, B = m1 k2 + k1 m2, C = n B - A,
    D = k1 l2 - l1 k2

control the exact Jacobian factorization

    det t' = z1^(k1+l1-1) z2^(k2+l2-1) N(u) / Q1(u)^(n+2),
    N = D P1 P2 Q1 + u (A P1' P2 Q1 - B P2' P1 Q1 + C Q1' P1 P2),

where N = P1 P2 Q1 R(u), R(u) = A u P1'/P1 - B u P2'/P2 + C u Q1'/Q1 + D,
and in the swapped chart (hat) det s' = -N / P1^(n+2) with the exponents
less (n+2) (k1, k2).  Semiadmissibility constrains the exponent pairs and
root patterns.  Admissibility adds the A/B/C/D clauses: exact integer
conditions that every listed family meets, which do not decide
unbranchedness (ROADMAP item 1, the strict xfail test
`test_is_admissible_rejects_the_branched_m2_n_m1_map`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

from .group import AffinePoint
from .scalars import GR_ONE, GR_ZERO, GaussRat, _Frozen, _power, as_gauss


def exponent_list(n: int):
    """Allowed (first, second) exponent pairs: (-1,-n), (0,0), (0,1), (1,0)."""
    return ((-1, -n), (0, 0), (0, 1), (1, 0))


class UniPoly(_Frozen):
    """Polynomial in one variable with Gaussian-rational coefficients.

    Its float form is the homogenized one in (z1, z2) (`_homogenized`),
    so no float u is ever formed.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if type(c) is GaussRat else as_gauss(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs) if cs else (GR_ZERO,))

    @classmethod
    def from_roots(cls, roots, lead=1):
        p = cls([lead])
        for r in roots:
            p = p * cls([-as_gauss(r), GR_ONE])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if not self.is_zero() else 0

    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero()

    def is_constant(self):
        return len(self.coeffs) == 1

    def __add__(self, other):
        other = self._lift(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [GR_ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [GR_ZERO] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = self._lift(other)
        if self.is_zero() or other.is_zero():
            return UniPoly([GR_ZERO])
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, UniPoly([GR_ONE]))

    def _lift(self, other):
        return other if isinstance(other, UniPoly) else UniPoly([other])

    def scale(self, c):
        c = as_gauss(c)
        return UniPoly([c * a for a in self.coeffs])

    def derivative(self):
        if self.is_constant():
            return UniPoly([GR_ZERO])
        return UniPoly(
            [GaussRat._raw(i * c.x, i * c.y, c.z) for i, c in enumerate(self.coeffs) if i]
        )

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        while len(rem) >= len(d) and not all(c.is_zero() for c in rem):
            if rem[-1].is_zero():
                rem.pop()
                continue
            shift = len(rem) - len(d)
            factor = rem[-1] / d[-1]
            q[shift] = factor
            for i, c in enumerate(d):
                rem[shift + i] = rem[shift + i] - factor * c
            rem.pop()
        return UniPoly(q or [GR_ZERO]), UniPoly(rem or [GR_ZERO])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a.scale(GR_ONE / a.coeffs[-1])

    def squarefree(self) -> bool:
        if self.degree <= 1:
            return True
        return self.gcd(self.derivative()).is_constant()

    def coprime_with(self, other) -> bool:
        if self.is_constant() or other.is_constant():
            return True
        return self.gcd(other).is_constant()

    def has_root_at_zero(self) -> bool:
        return self.coeffs[0].is_zero() and not self.is_zero()

    def __eq__(self, other):
        return isinstance(other, UniPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniPoly(%r)" % (list(self.coeffs),)


# ---------------------------------------------------------------------------


class DevMapError(ValueError):
    pass


_FIELDS = ("k1", "k2", "l1", "l2", "P1", "Q1", "P2", "hyper", "n")


class DevMap(_Frozen):
    """A candidate developing map in monomial-times-rational form.

    A map holds its fields alone; its float evaluation is built from them
    at each `map_kernel` call.
    """

    __slots__ = _FIELDS

    def __init__(self, k1, k2, l1, l2, P1, Q1, P2, hyper, n):
        if n < 1:
            raise DevMapError("bundle degree n must be >= 1")
        P1, Q1, P2 = (p if isinstance(p, UniPoly) else UniPoly([p]) for p in (P1, Q1, P2))
        if hyper is None:
            if not (P1.is_constant() and Q1.is_constant() and P2.is_constant()):
                raise DevMapError("without a hyperresonance the polynomials are constants")
        else:
            m1, m2 = hyper
            if m1 < 1 or m2 < 1:
                raise DevMapError("hyperresonance pair must be positive")
            hyper = (int(m1), int(m2))
        if P1.is_zero() or Q1.is_zero() or P2.is_zero():
            raise DevMapError("polynomial factors must be nonzero")
        for name, val in (("k1", k1), ("k2", k2), ("l1", l1), ("l2", l2)):
            if int(val) != val:
                raise DevMapError("%s must be an integer" % name)
        object.__setattr__(self, "k1", int(k1))
        object.__setattr__(self, "k2", int(k2))
        object.__setattr__(self, "l1", int(l1))
        object.__setattr__(self, "l2", int(l2))
        object.__setattr__(self, "P1", P1)
        object.__setattr__(self, "Q1", Q1)
        object.__setattr__(self, "P2", P2)
        object.__setattr__(self, "hyper", hyper)
        object.__setattr__(self, "n", int(n))

    # -- named constant maps -------------------------------------------------

    @classmethod
    def radial(cls, n, hyper=None):
        """(z1/z2, 1/z2^n)."""
        return cls(1, -1, 0, -n, UniPoly([1]), UniPoly([1]), UniPoly([1]), hyper, n)

    @classmethod
    def identity(cls, n, hyper=None):
        """(z1, z2)."""
        return cls(1, 0, 0, 1, UniPoly([1]), UniPoly([1]), UniPoly([1]), hyper, n)

    @classmethod
    def swapped_identity(cls, n, hyper=None):
        """(z2, z1)."""
        return cls(0, 1, 1, 0, UniPoly([1]), UniPoly([1]), UniPoly([1]), hyper, n)

    # -- derived exponents ---------------------------------------------------

    @property
    def degrees(self):
        return (self.P1.degree, self.Q1.degree, self.P2.degree)

    def _m(self):
        return self.hyper if self.hyper is not None else (1, 1)

    def tilde_exponents(self):
        """(k2~, l2~): the z2-side exponent pair after rewriting in 1/u.

        `z2_exponents` is the inverse.
        """
        d1, dq, d3 = self.degrees
        m2 = self._m()[1]
        return (self.k2 - m2 * (d1 - dq), self.l2 - m2 * (d3 - self.n * dq))

    def hat(self) -> "DevMap":
        """The same map written in the swapped chart (s1, s2)."""
        return DevMap(
            -self.k1,
            -self.k2,
            self.l1 - self.n * self.k1,
            self.l2 - self.n * self.k2,
            self.Q1,
            self.P1,
            self.P2,
            self.hyper,
            self.n,
        )

    # -- serialization -------------------------------------------------------

    def to_record(self):
        return {
            "k1": self.k1,
            "k2": self.k2,
            "l1": self.l1,
            "l2": self.l2,
            "n": self.n,
            "hyper": list(self.hyper) if self.hyper else None,
            "P1": [c.as_quad() for c in self.P1.coeffs],
            "Q1": [c.as_quad() for c in self.Q1.coeffs],
            "P2": [c.as_quad() for c in self.P2.coeffs],
        }

    @classmethod
    def from_record(cls, rec):
        return cls(
            rec["k1"],
            rec["k2"],
            rec["l1"],
            rec["l2"],
            UniPoly([GaussRat.from_quad(q) for q in rec["P1"]]),
            UniPoly([GaussRat.from_quad(q) for q in rec["Q1"]]),
            UniPoly([GaussRat.from_quad(q) for q in rec["P2"]]),
            tuple(rec["hyper"]) if rec.get("hyper") else None,
            rec["n"],
        )

    def __eq__(self, other):
        return isinstance(other, DevMap) and all(
            getattr(self, f) == getattr(other, f) for f in _FIELDS
        )

    def __hash__(self):
        return hash(
            (self.k1, self.k2, self.l1, self.l2, self.P1, self.Q1, self.P2, self.hyper, self.n)
        )

    def __repr__(self):
        return "DevMap(k=(%d,%d), l=(%d,%d), deg=%r, hyper=%r, n=%d)" % (
            self.k1,
            self.k2,
            self.l1,
            self.l2,
            self.degrees,
            self.hyper,
            self.n,
        )


def z2_exponents(kt2, lt2, degrees, hyper, n):
    """(k2, l2) of the map with slot pair (k2~, l2~) and degrees (d1, dq, d3).

    The inverse of `DevMap.tilde_exponents`: k2 = k2~ + m2 (d1 - dq)
    and l2 = l2~ + m2 (d3 - n dq).  Without a hyperresonance every
    degree is 0 and the pairs agree.
    """
    if hyper is None:
        return (kt2, lt2)
    d1, dq, d3 = degrees
    m2 = hyper[1]
    return (kt2 + m2 * (d1 - dq), lt2 + m2 * (d3 - n * dq))


def exponent_constants(k1, k2, l1, l2, m1, m2, n):
    """(A, B, C, D) of the exponents (k1, k2, l1, l2) over the pair (m1, m2) and degree n.

    A = m1 l2 + l1 m2, B = m1 k2 + k1 m2, C = n B - A, D = k1 l2 - l1 k2;
    plain integers, so a caller can decide the certificate's clauses
    before it builds a map.
    """
    A = m1 * l2 + l1 * m2
    B = m1 * k2 + k1 * m2
    return A, B, n * B - A, k1 * l2 - l1 * k2


@dataclass(frozen=True)
class DetJacobian:
    """Exact factorization det t' = z1^z1_exp z2^z2_exp N(u) / Q1(u)^(n+2).

    N is a polynomial, so nothing cancels.  Chart S's determinant is -N /
    P1^(n+2) (module docstring): ROADMAP item 15's B_S and the float
    reader of `map_kernel` take both charts from this one N.
    """

    z1_exp: int
    z2_exp: int
    N: UniPoly
    Q1: UniPoly
    n: int
    hyper: tuple


def det_jacobian(d: DevMap) -> DetJacobian:
    """det t' = z1^(k1+l1-1) z2^(k2+l2-1) N(u) / Q1(u)^(n+2), exactly.

    N = P1 P2 Q1 R(u) is formed as D P1 P2 Q1 + u (A P1' P2 Q1 - B P2' P1 Q1
    + C Q1' P1 P2), with no division.
    """
    A, B, C, D = exponent_constants(d.k1, d.k2, d.l1, d.l2, *d._m(), d.n)
    P1, P2, Q1 = d.P1, d.P2, d.Q1
    N = (P1 * P2 * Q1).scale(D) + UniPoly([GR_ZERO, GR_ONE]) * (
        (P1.derivative() * P2 * Q1).scale(A)
        - (P2.derivative() * P1 * Q1).scale(B)
        + (Q1.derivative() * P1 * P2).scale(C)
    )
    return DetJacobian(d.k1 + d.l1 - 1, d.k2 + d.l2 - 1, N, Q1, d.n, d.hyper)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def _shape_verdict(P1: UniPoly, Q1: UniPoly, P2: UniPoly) -> Verdict:
    """The polynomial part of semiadmissibility: no root at 0, squarefree, coprime."""
    for p, name in ((P1, "P1"), (Q1, "Q1"), (P2, "P2")):
        if p.has_root_at_zero():
            return Verdict(False, "%s has a root at u = 0" % name)
    for p, name in ((P1, "P1"), (Q1, "Q1"), (P2, "P2")):
        if not p.squarefree():
            return Verdict(False, "%s has a double root" % name)
    for (p, q, names) in ((P1, Q1, "P1,Q1"), (P1, P2, "P1,P2"), (Q1, P2, "Q1,P2")):
        if not p.coprime_with(q):
            return Verdict(False, "%s share a root" % names)
    return Verdict(True)


def is_semiadmissible(d: DevMap) -> Verdict:
    """The shape constraints: exponent lists, squarefree, coprime, no root at 0."""
    shape = _shape_verdict(d.P1, d.Q1, d.P2)
    if not shape:
        return shape
    allowed = exponent_list(d.n)
    if (d.k1, d.l1) not in allowed:
        return Verdict(False, "(k1, l1) = (%d, %d) not in the allowed list" % (d.k1, d.l1))
    kt2, lt2 = d.tilde_exponents()
    if (kt2, lt2) not in allowed:
        return Verdict(False, "(k2~, l2~) = (%d, %d) not in the allowed list" % (kt2, lt2))
    return Verdict(True)


def _clause_verdict(A, B, C, D, degrees) -> Verdict:
    """The admissibility clauses on the constants and the degrees (d1, dq, d3).

    Requires A = 0 or deg P1 = 0, B = 0 or deg P2 = 0, C = 0 or deg Q1 = 0,
    and D != 0, in that order.
    """
    d1, dq, d3 = degrees
    if A != 0 and d1:
        return Verdict(False, "A = %d nonzero with nonconstant P1" % A)
    if B != 0 and d3:
        return Verdict(False, "B = %d nonzero with nonconstant P2" % B)
    if C != 0 and dq:
        return Verdict(False, "C = %d nonzero with nonconstant Q1" % C)
    if D == 0:
        return Verdict(False, "R(u) = D vanishes")
    return Verdict(True)


def is_admissible(d: DevMap) -> Verdict:
    """The A/B/C/D clauses on top of semiadmissibility.

    Admissibility has one gate, this one, plus an integer prefilter that
    is a necessary condition: `classify` decides the hyperresonant
    families and the brute-force oracle's maps here, and the oracle runs
    `_clause_verdict` on integers first.

    Requires A = 0 or P1 constant, B = 0 or P2 constant, C = 0 or Q1
    constant, and D != 0.  Once the A, B, C clauses hold, every term
    R(u) adds to D has a vanishing factor, so R(u) is the constant D;
    D~ = D + A d1 - B d3 + C dq = D and D^ = -D; and (k1, l1) = (0, 0)
    would force D = 0.  So D != 0 also makes R(u) constant and nonzero,
    (k1, l1) != (0, 0), and D nonvanishing in the tilde and hat
    rewritings.  These exact clauses, met by every listed family, do not
    decide unbranchedness: N = D P1 P2 Q1 keeps the roots of P1, P2, Q1
    (`test_is_admissible_rejects_the_branched_m2_n_m1_map`).
    """
    semi = is_semiadmissible(d)
    if not semi:
        return Verdict(False, "not semiadmissible: " + semi.reason)
    return _clause_verdict(*exponent_constants(d.k1, d.k2, d.l1, d.l2, *d._m(), d.n), d.degrees)


# ---------------------------------------------------------------------------
# numeric evaluation


class EvalError(ArithmeticError):
    """The point hit a zero locus where neither chart is finite."""


def _homogenized(p: UniPoly, m1, m2):
    """p homogenized for the term loop `_homog_sum`, or its value if constant.

    The one float form of a polynomial in u: the map kernel reads the
    map's polynomials and its determinant's through it, the axes included.
    A nonconstant p gives the terms (p_i, m1 i, m2 (deg - i)), one per
    nonzero coefficient p_i.  For a constant p = c the loop would add
    c * z1**0 * z2**0 to 0j at every point; z**0 is exactly 1+0j for
    every complex z, nan and infinity included, so that sum is the same
    complex number everywhere and is returned instead.
    """
    if p.is_constant():
        one = 0j**0
        return 0j + p.coeffs[0].to_complex() * one * one
    deg = p.degree
    return tuple(
        [(c.to_complex(), m1 * i, m2 * (deg - i)) for i, c in enumerate(p.coeffs) if not c.is_zero()]
    )


def _homog_sum(terms, z1, z2):
    """sum p_i z1^(m1 i) z2^(m2 (deg - i)) over the terms of a nonconstant p."""
    total = 0j
    for c, a, b in terms:
        total += c * z1**a * z2**b
    return total


def map_kernel(d: DevMap) -> SimpleNamespace:
    """d's float evaluation, a new kernel on each call: three readers, each
    raising what its float operations raise.

    * `point(z1, z2)`: the value (chart, c1, c2) anywhere, as
      `eval_devmap` describes it;
    * `stencil(z1, z2, h1, h2)`: t1, t2 at (z1 + h1, z2), (z1 - h1, z2),
      (z1, z2 + h2) and (z1, z2 - h2), eight values: each point read
      from `point`, in chart T as `AffinePoint.in_chart` forms it, so
      that s1 = 0 raises ZeroDivisionError;
    * `jacobian()`: the reader det(z1, z2, chart) of det t', built on
      each call from one `det_jacobian(d)`: N / D^(n+2) with
      D = Q1 in chart T, and -N, P1 in chart S (module docstring), read
      as (N / c^(n+2)) / (D / c)^(n+2), c = lead(D), homogenized like the
      map.  Chart T is built on the call, so an N with no float form
      raises OverflowError there; chart S is built at its first read.

    Chart T is z1^k1 z2^k2~ H1 / K**1 and z1^l1 z2^l2~ H2 / K**n, left to
    right, with H1, K, H2 the homogenized P1, Q1, P2.  Where K is a
    constant with K**1, K**n finite and nonzero, `point` forms that
    expression off the axes with K**1 and K**n bound, and with H1 and H2
    bound too where they are constants; the stencil then forms once each
    coordinate power two points share: z2^k2~, z2^l2~ for (z1 +- h1, z2)
    and z1^k1, z1^l1 for (z1, z2 +- h2).  Otherwise `point` sums the
    terms of each nonconstant polynomial and forms each chart with
    `_chart_value`, which forms K**p at each point, so an overflowing
    K**n raises there.
    """
    m1, m2 = d._m()
    H1, K, H2 = (_homogenized(p, m1, m2) for p in (d.P1, d.Q1, d.P2))
    k1, l1, n = d.k1, d.l1, d.n
    kt2, lt2 = d.tilde_exponents()
    den1 = denn = None
    if K.__class__ is complex:
        try:
            den1, denn = K**1, K**n
        except OverflowError:  # _chart_value raises it again at each point
            pass
        if not (den1 and denn):
            den1 = denn = None
    constant = den1 is not None and H1.__class__ is complex and H2.__class__ is complex

    def point(z1, z2):
        if not (z1 and z2):
            if not (z1 or z2):
                raise EvalError("the developing map lives on C^2 minus the origin")
            z1, z2 = z1 or 0j, z2 or 0j
        # z2^(m2 deg p) p(u) = sum p_i z1^(m1 i) z2^(m2 (deg - i)): no exponent is negative
        h1 = _homog_sum(H1, z1, z2) if H1.__class__ is tuple else H1
        hq = _homog_sum(K, z1, z2) if K.__class__ is tuple else K
        h2 = _homog_sum(H2, z1, z2) if H2.__class__ is tuple else H2
        if den1 is not None and z1 and z2:
            return ("T", z1**k1 * z2**kt2 * h1 / den1, z1**l1 * z2**lt2 * h2 / denn)
        t1 = _chart_value(z1, k1, z2, kt2, h1, hq, 1)
        t2 = _chart_value(z1, l1, z2, lt2, h2, hq, n)
        if t1 is not None and t2 is not None:
            return ("T", t1, t2)
        s1 = _chart_value(z1, -k1, z2, -kt2, hq, h1, 1)
        s2 = _chart_value(z1, l1 - n * k1, z2, lt2 - n * kt2, h2, h1, n)
        if s1 is not None and s2 is not None:
            return ("S", s1, s2)
        raise EvalError("point lies on a zero locus of both charts; resample")

    def stencil(z1, z2, h1, h2):
        x1, x2, y1, y2 = z1 + h1, z1 - h1, z2 + h2, z2 - h2
        if constant and z1 and z2 and x1 and x2 and y1 and y2:
            a1, a2, b1, b2 = z1**k1, z1**l1, z2**kt2, z2**lt2
            return (
                x1**k1 * b1 * H1 / den1, x1**l1 * b2 * H2 / denn,
                x2**k1 * b1 * H1 / den1, x2**l1 * b2 * H2 / denn,
                a1 * y1**kt2 * H1 / den1, a2 * y1**lt2 * H2 / denn,
                a1 * y2**kt2 * H1 / den1, a2 * y2**lt2 * H2 / denn,
            )
        out = ()
        for w1, w2 in ((x1, z2), (x2, z2), (z1, y1), (z1, y2)):
            chart, c1, c2 = point(w1, w2)
            out += (c1, c2) if chart == "T" else (1 / c1, c2 / c1**n)
        return out

    def jacobian():
        det, p = det_jacobian(d), n + 2

        def form(N, D, HD, a, b):
            c = D.coeffs[-1]
            if c != GR_ONE:  # (N / c^p) / (D / c)^p, divided exactly
                N, D = N.scale(GR_ONE / c**p), D.scale(GR_ONE / c)
                HD = _homogenized(D, m1, m2)
            # q(u) = H_q / z2^(m2 deg q) for q = N and D
            return _homogenized(N, m1, m2), HD, a, b - m2 * (N.degree - p * D.degree)

        forms = {"T": form(det.N, d.Q1, K, det.z1_exp, det.z2_exp)}

        def read(z1, z2, chart):
            if chart not in forms:
                forms[chart] = form(-det.N, d.P1, H1, det.z1_exp - p * k1, det.z2_exp - p * d.k2)
            HN, HD, a, b = forms[chart]
            hn = _homog_sum(HN, z1, z2) if HN.__class__ is tuple else HN
            hd = _homog_sum(HD, z1, z2) if HD.__class__ is tuple else HD
            return z1**a * z2**b * (hn / hd**p)

        return read

    return SimpleNamespace(point=point, stencil=stencil, jacobian=jacobian)


def eval_devmap(d: DevMap, z):
    """Numeric value of the map at z, in whichever chart is finite.

    Both charts are assembled as z1^a z2^b H(z)/K(z)^p with H, K the
    homogenized polynomials (nonzero on the axes because the
    polynomials have no root at u = 0), so axis points evaluate
    exactly: a zero coordinate, of either sign, is taken as 0j, whose
    k-th power is exactly 0 for k > 0 and 1 for k = 0, and whose
    negative powers are infinite.
    Raises EvalError on the measure-zero loci where neither chart gives
    a finite value.  The value is the kernel's `point` (`map_kernel`)
    as an `AffinePoint`.
    """
    return AffinePoint._make(map_kernel(d).point(complex(z[0]), complex(z[1])))


def _chart_value(z1, a, z2, b, H, K, p):
    """z1^a z2^b H / K^p, or None where it is infinite: at a negative power
    of a zero coordinate, or where K^p = 0."""
    f1 = z1**a if z1 or a >= 0 else None
    f2 = z2**b if z2 or b >= 0 else None
    den = K**p
    if f1 is None or f2 is None or not den:
        return None
    return f1 * f2 * H / den
