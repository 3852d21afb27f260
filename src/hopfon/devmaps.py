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
the swapped chart (hat).  Semiadmissibility constrains the exponent
pairs and root patterns; admissibility is the exact unbranchedness
certificate on top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import GR_ONE, GR_ZERO, GaussRat, _power, as_gauss

def exponent_list(n: int):
    """Allowed (first, second) exponent pairs: (-1,-n), (0,0), (0,1), (1,0)."""
    return ((-1, -n), (0, 0), (0, 1), (1, 0))


class UniPoly:
    """Polynomial in one variable with Gaussian-rational coefficients."""

    __slots__ = ("coeffs",)

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
        total = 0j
        for c in reversed(self.coeffs):
            total = total * x + c.to_complex()
        return total

    def __eq__(self, other):
        return isinstance(other, UniPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "UniPoly(%r)" % (list(self.coeffs),)


class RationalFn:
    """Quotient of two UniPoly, reduced; used for the exact R(u) test."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_constant() and not g.is_zero():
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        object.__setattr__(self, "num", num.scale(GR_ONE / lead))
        object.__setattr__(self, "den", den.scale(GR_ONE / lead))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn is immutable")

    @classmethod
    def of(cls, p):
        return cls(p if isinstance(p, UniPoly) else UniPoly([p]), UniPoly([1]))

    def __add__(self, other):
        return RationalFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RationalFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return RationalFn(self.num * other.num, self.den * other.den)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> GaussRat:
        if not self.is_constant():
            raise ValueError("rational function is not constant")
        return self.num.coeffs[0] / self.den.coeffs[0]

    def eval_numeric(self, x: complex) -> complex:
        return self.num.eval_numeric(x) / self.den.eval_numeric(x)

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and self.num == other.num
            and self.den == other.den
        )

    def __repr__(self):
        return "RationalFn(%r / %r)" % (self.num, self.den)


# ---------------------------------------------------------------------------


class DevMapError(ValueError):
    pass


class DevMap:
    """A candidate developing map in monomial-times-rational form."""

    __slots__ = ("k1", "k2", "l1", "l2", "P1", "Q1", "P2", "hyper", "n")

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
            getattr(self, f) == getattr(other, f) for f in self.__slots__
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
    """Exact factorization of det t' for a DevMap."""

    z1_exp: int
    z2_exp: int
    P1: UniPoly
    P2: UniPoly
    Q1: UniPoly
    n: int
    R: RationalFn
    hyper: tuple

    def eval_numeric(self, z) -> complex:
        z1, z2 = complex(z[0]), complex(z[1])
        if self.hyper is not None:
            m1, m2 = self.hyper
            u = z1**m1 / z2**m2
        else:
            u = 1.0
        val = z1**self.z1_exp * z2**self.z2_exp
        val *= self.P1.eval_numeric(u) * self.P2.eval_numeric(u)
        val /= self.Q1.eval_numeric(u) ** (self.n + 1)
        return val * self.R.eval_numeric(u)


def det_jacobian(d: DevMap) -> DetJacobian:
    """det t' = z1^(k1+l1-1) z2^(k2+l2-1) (P1 P2/Q1^(n+1)) R(u), exactly."""
    rep = abcd(d)
    u = UniPoly([0, 1])
    R = RationalFn.of(UniPoly([rep.D]))
    if not d.P1.is_constant():
        R = R + RationalFn(u.scale(rep.A) * d.P1.derivative(), d.P1)
    if not d.P2.is_constant():
        R = R - RationalFn(u.scale(rep.B) * d.P2.derivative(), d.P2)
    if not d.Q1.is_constant():
        R = R + RationalFn(u.scale(rep.C) * d.Q1.derivative(), d.Q1)
    return DetJacobian(
        d.k1 + d.l1 - 1,
        d.k2 + d.l2 - 1,
        d.P1,
        d.P2,
        d.Q1,
        d.n,
        R,
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


def _poly_at(p: UniPoly, z1, z2, m1, m2):
    """z2^(m2 deg p) * p(u) evaluated safely via homogenization."""
    # sum p_i z1^(m1 i) z2^(m2 (deg - i))
    total = 0j
    deg = p.degree
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        term = c.to_complex()
        f1 = _mono(z1, m1 * i)
        f2 = _mono(z2, m2 * (deg - i))
        if f1 is None or f2 is None:
            raise EvalError("negative power of zero in homogenized polynomial")
        total += term * f1 * f2
    return total


def eval_devmap(d: DevMap, z):
    """Numeric value of the map at z, in whichever chart is finite.

    Both charts are assembled as z1^a z2^b H(z)/K(z)^p with H, K the
    homogenized polynomials (nonzero on the axes because the
    polynomials have no root at u = 0), so axis points evaluate
    exactly.  Raises EvalError on the measure-zero loci where neither
    chart gives a finite value.
    """
    from .group import AffinePoint

    z1, z2 = complex(z[0]), complex(z[1])
    if z1 == 0 and z2 == 0:
        raise EvalError("the developing map lives on C^2 minus the origin")
    m1, m2 = d._m()
    h1 = _poly_at(d.P1, z1, z2, m1, m2)
    hq = _poly_at(d.Q1, z1, z2, m1, m2)
    h2 = _poly_at(d.P2, z1, z2, m1, m2)
    kt2, lt2 = d.tilde_exponents()
    t1 = _chart_value(z1, d.k1, z2, kt2, h1, hq, 1)
    t2 = _chart_value(z1, d.l1, z2, lt2, h2, hq, d.n)
    if t1 is not None and t2 is not None:
        return AffinePoint("T", t1, t2)
    s1 = _chart_value(z1, -d.k1, z2, -kt2, hq, h1, 1)
    s2 = _chart_value(
        z1, d.l1 - d.n * d.k1, z2, lt2 - d.n * kt2, h2, h1, d.n
    )
    if s1 is not None and s2 is not None:
        return AffinePoint("S", s1, s2)
    raise EvalError("point lies on a zero locus of both charts; resample")


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
