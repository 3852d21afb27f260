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

    det t' = z1^(k1+l1-1) z2^(k2+l2-1) (P1 P2 / Q1^(n+1)) R(u),
    R(u) = A u P1'/P1 - B u P2'/P2 + C u Q1'/Q1 + D,

and the rewriting dictionaries for the reciprocal-u form (tilde) and
the swapped chart (hat).  R(u) is stored as a fraction in lowest terms
with a monic denominator.  Semiadmissibility constrains the exponent
pairs and root patterns; admissibility is the exact unbranchedness
certificate on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .group import AffinePoint
from .scalars import GR_ONE, GR_ZERO, GaussRat, _power, as_gauss


def exponent_list(n: int):
    """Allowed (first, second) exponent pairs: (-1,-n), (0,0), (0,1), (1,0)."""
    return ((-1, -n), (0, 0), (0, 1), (1, 0))


class UniPoly:
    """Polynomial in one variable with Gaussian-rational coefficients.

    `eval_numeric` converts the coefficients to complex numbers on its
    first call and keeps them in `_cx`, an unset slot until then, so
    polynomials that are never evaluated pay nothing for it.
    """

    __slots__ = ("coeffs", "_cx")

    def __init__(self, coeffs):
        cs = [as_gauss(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs) if cs else (GR_ZERO,))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

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
            return UniPoly([0])
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, UniPoly([1]))

    def _lift(self, other):
        return other if isinstance(other, UniPoly) else UniPoly([other])

    def scale(self, c):
        c = as_gauss(c)
        return UniPoly([c * a for a in self.coeffs])

    def derivative(self):
        if self.is_constant():
            return UniPoly([0])
        return UniPoly([as_gauss(i) * c for i, c in enumerate(self.coeffs)][1:])

    def reversed(self):
        """Coefficients reversed: u^deg * p(1/u)."""
        return UniPoly(list(reversed(self.coeffs)))

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
        return UniPoly(q or [0]), UniPoly(rem or [0])

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

    def eval_exact(self, x: GaussRat) -> GaussRat:
        x = as_gauss(x)
        total = GR_ZERO
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def eval_numeric(self, x: complex) -> complex:
        cx = getattr(self, "_cx", None)
        if cx is None:
            cx = tuple([c.to_complex() for c in reversed(self.coeffs)])
            object.__setattr__(self, "_cx", cx)
        total = 0j
        for c in cx:
            total = total * x + c
        return total

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


class DevMap:
    """A candidate developing map in monomial-times-rational form.

    `_plan` is an unset slot until the map's first float evaluation;
    then it holds the tuple `_numeric_plan` builds, which `eval_devmap`
    and `eval_stencil_t` read: P1, Q1 and P2 homogenized, each constant
    one folded to its complex value, the exponents k1, k2~, l1, l2~ and
    n, and the chart-T denominators K**1 and K**n where Q1 is constant
    and both are finite and nonzero.
    """

    __slots__ = _FIELDS + ("_plan",)

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

    def __setattr__(self, name, value):
        raise AttributeError("DevMap is immutable")

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


@dataclass(frozen=True)
class AbcdReport:
    A: int
    B: int
    C: int
    D: int
    tilde: tuple
    hat: tuple
    tilde_exponents: tuple


def abcd(d: DevMap) -> AbcdReport:
    """Exponent bookkeeping constants with their tilde and hat transforms."""
    m1, m2 = d._m()
    A = m1 * d.l2 + d.l1 * m2
    B = m1 * d.k2 + d.k1 * m2
    C = d.n * B - A
    Dd = d.k1 * d.l2 - d.l1 * d.k2
    d1, dq, d3 = d.degrees
    alpha = d1 - dq
    beta = d3 - d.n * dq
    tilde = (-A, -B, -C, Dd + A * alpha - B * beta)
    hat = (A - d.n * B, -B, -A, -Dd)
    return AbcdReport(A, B, C, Dd, tilde, hat, d.tilde_exponents())


@dataclass(frozen=True)
class DetJacobian:
    """Exact factorization of det t' for a DevMap.

    R(u) is kept as the fraction R_num/R_den in lowest terms, with R_den
    monic, which makes the pair unique.
    """

    z1_exp: int
    z2_exp: int
    P1: UniPoly
    P2: UniPoly
    Q1: UniPoly
    n: int
    R_num: UniPoly
    R_den: UniPoly
    hyper: tuple
    _factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Without a hyperresonance u = 1.0 at every point, so the factors
        # of eval_numeric that depend on u alone are the same complex
        # numbers everywhere: P1(u) P2(u), Q1(u)^(n+1) and R(u).  Where one
        # of them raises, every call takes the general path and raises there.
        factors = None
        if self.hyper is None:
            try:
                factors = (
                    self.P1.eval_numeric(1.0) * self.P2.eval_numeric(1.0),
                    self.Q1.eval_numeric(1.0) ** (self.n + 1),
                    self.R_num.eval_numeric(1.0) / self.R_den.eval_numeric(1.0),
                )
            except ArithmeticError:
                pass
        object.__setattr__(self, "_factors", factors)

    def eval_numeric(self, z) -> complex:
        """det t' at z, in float arithmetic.

        Without a hyperresonance the u-dependent factors are the
        constants `__post_init__` computed, used by the same operations
        in the same order, so the value is bit-identical to the general
        path.
        """
        z1, z2 = complex(z[0]), complex(z[1])
        factors = self._factors
        if factors is not None:
            pp, qn, r = factors
            return z1**self.z1_exp * z2**self.z2_exp * pp / qn * r
        if self.hyper is not None:
            m1, m2 = self.hyper
            u = z1**m1 / z2**m2
        else:
            u = 1.0
        val = z1**self.z1_exp * z2**self.z2_exp
        val *= self.P1.eval_numeric(u) * self.P2.eval_numeric(u)
        val /= self.Q1.eval_numeric(u) ** (self.n + 1)
        return val * (self.R_num.eval_numeric(u) / self.R_den.eval_numeric(u))


def det_jacobian(d: DevMap) -> DetJacobian:
    """det t' = z1^(k1+l1-1) z2^(k2+l2-1) (P1 P2/Q1^(n+1)) R(u), exactly.

    R(u) is formed over the common denominator P1 P2 Q1 and reduced by
    one gcd.
    """
    rep = abcd(d)
    P1, P2, Q1 = d.P1, d.P2, d.Q1
    den = P1 * P2 * Q1
    num = den.scale(rep.D) + UniPoly([0, 1]) * (
        (P1.derivative() * P2 * Q1).scale(rep.A)
        - (P2.derivative() * P1 * Q1).scale(rep.B)
        + (Q1.derivative() * P1 * P2).scale(rep.C)
    )
    g = num.gcd(den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = GR_ONE / den.coeffs[-1]
    return DetJacobian(
        d.k1 + d.l1 - 1,
        d.k2 + d.l2 - 1,
        P1,
        P2,
        Q1,
        d.n,
        num.scale(lead),
        den.scale(lead),
        d.hyper,
    )


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


def _unbranched_verdict(d: DevMap) -> Verdict:
    """The clauses of `is_admissible` beyond semiadmissibility."""
    rep = abcd(d)
    if rep.A != 0 and not d.P1.is_constant():
        return Verdict(False, "A = %d nonzero with nonconstant P1" % rep.A)
    if rep.B != 0 and not d.P2.is_constant():
        return Verdict(False, "B = %d nonzero with nonconstant P2" % rep.B)
    if rep.C != 0 and not d.Q1.is_constant():
        return Verdict(False, "C = %d nonzero with nonconstant Q1" % rep.C)
    if rep.D == 0:
        return Verdict(False, "R(u) = D vanishes")
    return Verdict(True)


def is_admissible(d: DevMap) -> Verdict:
    """Unbranchedness certificate on top of semiadmissibility.

    Requires A = 0 or P1 constant, B = 0 or P2 constant, C = 0 or Q1
    constant, and D != 0.  Once the A, B, C clauses hold, every term
    R(u) adds to D has a vanishing factor, so R(u) is the constant D;
    D~ = D + A d1 - B d3 + C dq = D and D^ = -D; and (k1, l1) = (0, 0)
    would force D = 0.  So D != 0 also makes R(u) constant and nonzero,
    (k1, l1) != (0, 0), and D nonvanishing in the tilde and hat
    rewritings.
    """
    semi = is_semiadmissible(d)
    if not semi:
        return Verdict(False, "not semiadmissible: " + semi.reason)
    return _unbranched_verdict(d)


# ---------------------------------------------------------------------------
# numeric evaluation


class EvalError(ArithmeticError):
    """The point hit a zero locus where neither chart is finite."""


def _homogenized(p: UniPoly, m1, m2):
    """p homogenized for the term loop of `eval_devmap`, or its value if constant.

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


def _numeric_plan(d: DevMap):
    """The float data `eval_devmap` needs for d, computed on first use.

    The plan is (H1, K, H2, k1, k2~, l1, l2~, n, den1, denn).  H1, K and
    H2 are P1, Q1 and P2 from `_homogenized`: a complex constant, or
    the terms of a nonconstant polynomial.  den1 and denn are the
    chart-T denominators K**1 and K**n when K is constant and both are
    nonzero.  Otherwise, and where K**n overflows, both are None, and
    `_chart_t` forms t1 and t2 with `_chart_value`, which forms K**p at
    each point, so an overflowing K**n raises there.
    """
    plan = getattr(d, "_plan", None)
    if plan is None:
        m1, m2 = d._m()
        h1, hq, h2 = (_homogenized(p, m1, m2) for p in (d.P1, d.Q1, d.P2))
        kt2, lt2 = d.tilde_exponents()
        den1 = denn = None
        if hq.__class__ is complex:
            try:
                den1, denn = hq**1, hq**d.n
            except OverflowError:  # the general path raises it again at each point
                pass
            if not (den1 and denn):
                den1 = denn = None
        plan = (h1, hq, h2, d.k1, kt2, d.l1, lt2, d.n, den1, denn)
        object.__setattr__(d, "_plan", plan)
    return plan


def _homog_sum(terms, z1, z2):
    """sum p_i z1^(m1 i) z2^(m2 (deg - i)) over the terms of a nonconstant p."""
    total = 0j
    for c, a, b in terms:
        total += c * z1**a * z2**b
    return total


def _chart_t(plan, z1, z2):
    """(t1, t2) at a point with both coordinates nonzero, or None where
    chart T is infinite there.

    The operations and their order are those of the general path of
    `eval_devmap`: the term sums of H1, K and H2, then t1 and t2 as
    `_chart_value` forms them.  With den1 and denn in the plan, K is
    constant and t1 and t2 are finite, so their quotients are formed
    directly.
    """
    h1, hq, h2, k1, kt2, l1, lt2, n, den1, denn = plan
    if h1.__class__ is tuple:
        h1 = _homog_sum(h1, z1, z2)
    if hq.__class__ is tuple:
        hq = _homog_sum(hq, z1, z2)
    if h2.__class__ is tuple:
        h2 = _homog_sum(h2, z1, z2)
    if den1 is not None:
        return (z1**k1 * z2**kt2 * h1 / den1, z1**l1 * z2**lt2 * h2 / denn)
    t1 = _chart_value(z1, k1, z2, kt2, h1, hq, 1)
    t2 = _chart_value(z1, l1, z2, lt2, h2, hq, n)
    if t1 is None or t2 is None:
        return None
    return (t1, t2)


def eval_devmap(d: DevMap, z):
    """Numeric value of the map at z, in whichever chart is finite.

    Both charts are assembled as z1^a z2^b H(z)/K(z)^p with H, K the
    homogenized polynomials (nonzero on the axes because the
    polynomials have no root at u = 0), so axis points evaluate
    exactly: a zero coordinate, of either sign, is taken as 0j, whose
    k-th power is exactly 0 for k > 0 and 1 for k = 0, and whose
    negative powers are infinite.
    Raises EvalError on the measure-zero loci where neither chart gives
    a finite value.

    Where both coordinates are nonzero, chart T comes from `_chart_t`,
    without the checks for zero coordinates, and when it is finite it
    is returned; axis points and the rest take the general path, which
    forms the same values again.  Constant H and K come folded from the
    plan on both paths.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    plan = _numeric_plan(d)
    if z1 and z2:
        t = _chart_t(plan, z1, z2)
        if t is not None:
            return AffinePoint._raw("T", t[0], t[1])
    if not z1:
        if not z2:
            raise EvalError("the developing map lives on C^2 minus the origin")
        z1 = 0j
    elif not z2:
        z2 = 0j
    h1, hq, h2, k1, kt2, l1, lt2, n, _, _ = plan
    # z2^(m2 deg p) p(u) = sum p_i z1^(m1 i) z2^(m2 (deg - i)): no exponent is negative
    if h1.__class__ is tuple:
        h1 = _homog_sum(h1, z1, z2)
    if hq.__class__ is tuple:
        hq = _homog_sum(hq, z1, z2)
    if h2.__class__ is tuple:
        h2 = _homog_sum(h2, z1, z2)
    t1 = _chart_value(z1, k1, z2, kt2, h1, hq, 1)
    t2 = _chart_value(z1, l1, z2, lt2, h2, hq, n)
    if t1 is not None and t2 is not None:
        return AffinePoint._raw("T", t1, t2)
    s1 = _chart_value(z1, -k1, z2, -kt2, hq, h1, 1)
    s2 = _chart_value(z1, l1 - n * k1, z2, lt2 - n * kt2, h2, h1, n)
    if s1 is not None and s2 is not None:
        return AffinePoint._raw("S", s1, s2)
    raise EvalError("point lies on a zero locus of both charts; resample")


def eval_stencil_t(d: DevMap, z, h1, h2):
    """Chart-T values (t1, t2) of the map at the four points
    (z1 + h1, z2), (z1 - h1, z2), (z1, z2 + h2), (z1, z2 - h2), in that order.

    Each equals `eval_devmap(d, w).in_chart("T", d.n)` at its point w,
    and raises what that expression raises: where both coordinates of w
    are nonzero and chart T is finite, the value comes from `_chart_t`,
    as in `eval_devmap`, without building a point; any other point
    falls back to that expression.  The points are evaluated in order,
    so the first failing one decides the exception.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    plan = _numeric_plan(d)
    out = []
    for w1, w2 in ((z1 + h1, z2), (z1 - h1, z2), (z1, z2 + h2), (z1, z2 - h2)):
        t = _chart_t(plan, w1, w2) if w1 and w2 else None
        if t is None:
            pt = eval_devmap(d, (w1, w2)).in_chart("T", d.n)
            t = (pt.c1, pt.c2)
        out.append(t)
    return out


def _chart_value(z1, a, z2, b, H, K, p):
    """z1^a z2^b H / K^p, or None where it is infinite: at a negative power
    of a zero coordinate, or where K^p = 0."""
    f1 = z1**a if z1 or a >= 0 else None
    f2 = z2**b if z2 or b >= 0 else None
    den = K**p
    if f1 is None or f2 is None or not den:
        return None
    return f1 * f2 * H / den
