"""The symmetry group of the total space of O(n) -> P^1.

Elements are pairs (g, p): an invertible 2x2 scalar matrix g, taken
modulo n-th roots of unity, together with a degree-n homogeneous
polynomial p.  The product is

    (g0, p0) (g1, p1) = (g0 g1, p0 + p1 . g0^{-1})

where p . g denotes precomposition, (p . g)(Z) = p(g Z), and the
inverse is (g, p)^{-1} = (g^{-1}, -p . g).

Affine coordinates (t1, t2) cover the part of O(n) over the affine
line; the second chart is (s1, s2) = (1/t1, t2/t1^n).  A matrix acts
on chart T by

    (g, 0)(t1, t2) = ((a t1 + b)/(c t1 + d), t2/(c t1 + d)^n)

and the polynomial part acts by (I, p)(t1, t2) = (t1, t2 + p(t1, 1)).
A general element acts as (I, p) after (g, 0), since (g, p) =
(I, p) (g, 0).
"""

from __future__ import annotations

import math
from math import hypot, inf, isinf, sqrt

from .scalars import (
    _E00,
    BasisMismatchError,
    EigenBasis,
    Scalar,
    ScalarDomainError,
    sum_of_products,
)


class HomogPoly:
    """Homogeneous polynomial sum(a_k Z1^k Z2^(n-k)) with scalar coefficients."""

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(self, basis: EigenBasis, degree: int, coeffs):
        coeffs = tuple(coeffs)
        if degree < 1 or len(coeffs) != degree + 1:
            raise ValueError("degree-n polynomial needs exactly n+1 coefficients")
        for c in coeffs:
            if not isinstance(c, Scalar) or c.basis != basis:
                raise BasisMismatchError("coefficients must be scalars over the basis")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _raw(cls, basis, degree, coeffs):
        """Internal constructor for n+1 coefficients already over the basis."""
        out = object.__new__(cls)
        object.__setattr__(out, "basis", basis)
        object.__setattr__(out, "degree", degree)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    @classmethod
    def zero(cls, basis, degree):
        return cls(basis, degree, [basis.zero()] * (degree + 1))

    @classmethod
    def monomial(cls, basis, degree, k, coeff):
        cs = [basis.zero()] * (degree + 1)
        cs[k] = coeff if isinstance(coeff, Scalar) else basis.gauss(coeff)
        return cls(basis, degree, cs)

    def is_zero(self):
        for c in self.coeffs:
            if c.terms:
                return False
        return True

    def __add__(self, other):
        self._compat(other)
        return HomogPoly._raw(
            self.basis, self.degree, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HomogPoly._raw(self.basis, self.degree, [-c for c in self.coeffs])

    def scale(self, s: Scalar):
        return HomogPoly._raw(self.basis, self.degree, [s * c for c in self.coeffs])

    def _compat(self, other):
        if not isinstance(other, HomogPoly) or other.degree != self.degree:
            raise ValueError("degree mismatch between homogeneous polynomials")
        if other.basis is not self.basis and other.basis != self.basis:
            raise BasisMismatchError("polynomials over different bases")

    def precompose(self, m: "Mat2") -> "HomogPoly":
        """p(M Z): substitute Z1 -> m11 Z1 + m12 Z2, Z2 -> m21 Z1 + m22 Z2.

        With L1 = m11 Z1 + m12 Z2 and L2 = m21 Z1 + m22 Z2, the result
        sum(a_k L1^k L2^(n-k)) is built by the homogeneous Horner scheme
        r <- r L1 + a_k L2^(n-k), for k = n-1 down to 0, from r = a_n.
        Each coefficient of a step is one `sum_of_products` call.
        """
        n = self.degree
        cs = self.coeffs
        if self.is_zero():
            return self
        (m11, m12), (m21, m22) = m.entries
        if not (m12.terms or m21.terms):
            # diagonal substitution scales each coefficient independently
            cs = [a * m11**k * m22 ** (n - k) if a.terms else a for k, a in enumerate(cs)]
            return HomogPoly._raw(self.basis, n, cs)
        # Coefficient vectors are indexed by the power of Z1.
        r = [cs[n]]
        l2pow = [m22, m21]
        for k in range(n - 1, -1, -1):
            r = _times_linear(r, m12, m11, cs[k], l2pow)
            if k:
                l2pow = _times_linear(l2pow, m22, m21)
        return HomogPoly._raw(self.basis, n, r)

    def __eq__(self, other):
        return (
            isinstance(other, HomogPoly)
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.coeffs))

    def __repr__(self):
        bits = [
            "(%r)*Z1^%d*Z2^%d" % (c, k, self.degree - k)
            for k, c in enumerate(self.coeffs)
            if not c.is_zero()
        ]
        return "HomogPoly<%s>" % (" + ".join(bits) or "0")


def _times_linear(v, u2, u1, a=None, w=None):
    """Coefficient vector of (sum v_i Z1^i Z2^(d-i)) (u1 Z1 + u2 Z2), plus
    a (sum w_i Z1^i Z2^(d+1-i)) when a scalar a and d+2 scalars w are given.

    Each coefficient is one fused `sum_of_products`."""
    d = len(v)
    rows = [[(v[0], u2)]] + [[(v[i], u2), (v[i - 1], u1)] for i in range(1, d)] + [[(v[-1], u1)]]
    if a is not None and a.terms:
        for row, e in zip(rows, w):
            row.append((a, e))
    return [sum_of_products(row) for row in rows]


class Mat2:
    """Invertible 2x2 matrix of scalars, carrying its (nonzero) determinant.

    Products, inverses and rescalings derive the determinant of the
    result from that of their operands (det(AB) = det A det B), so the
    invertibility check costs one scalar product instead of a fresh
    2x2 determinant.  The inverse is computed once and kept, and links
    back to the matrix.  Each entry of a product is one fused
    `sum_of_products`.
    """

    __slots__ = ("basis", "entries", "_det", "_inv")

    def __init__(self, basis: EigenBasis, entries):
        rows = tuple(tuple(e for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 matrix")
        for row in rows:
            for e in row:
                if not isinstance(e, Scalar) or e.basis != basis:
                    raise BasisMismatchError("entries must be scalars over the basis")
        (a, b), (c, d) = rows
        self._set(basis, rows, sum_of_products(((a, d), (-b, c))))

    @classmethod
    def _raw(cls, basis, rows, det):
        """Internal constructor for scalar rows over the basis whose determinant is det."""
        out = object.__new__(cls)
        out._set(basis, rows, det)
        return out

    def _set(self, basis, rows, det):
        if det.is_zero():
            raise ValueError("matrix must be invertible")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_inv", None)

    def __setattr__(self, name, value):
        raise AttributeError("Mat2 is immutable")

    @classmethod
    def identity(cls, basis):
        return cls.diag(basis.one(), basis.one(), basis)

    @classmethod
    def diag(cls, a, d, basis=None):
        basis = basis or a.basis
        z = basis.zero()
        return cls(basis, ((a, z), (z, d)))

    @classmethod
    def from_gauss(cls, basis, rows):
        return cls(basis, tuple(tuple(basis.gauss(e) for e in r) for r in rows))

    def det(self) -> Scalar:
        return self._det

    def __mul__(self, other: "Mat2") -> "Mat2":
        if other.basis is not self.basis and other.basis != self.basis:
            raise BasisMismatchError("matrices over different bases")
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        rows = (
            (sum_of_products(((a, e), (b, g))), sum_of_products(((a, f), (b, h)))),
            (sum_of_products(((c, e), (d, g))), sum_of_products(((c, f), (d, h)))),
        )
        return Mat2._raw(self.basis, rows, self._det * other._det)

    def inverse(self) -> "Mat2":
        """adj(g)/det g, for a monomial determinant.

        The inverse is kept on the matrix, and the inverse keeps the
        matrix as its own inverse, so (g^-1)^-1 is g itself and costs
        nothing: the group laws take inverse(x) and then compose(xi, x),
        which inverts g^-1.
        """
        if self._inv is None:
            det = self._det
            if not det.is_unit():
                raise ScalarDomainError(
                    "matrix determinant is not a monomial; inverse leaves the domain"
                )
            inv = det.inverse()
            neg = -inv
            (a, b), (c, d) = self.entries
            rows = ((inv * d, neg * b), (neg * c, inv * a))
            out = Mat2._raw(self.basis, rows, inv)
            object.__setattr__(out, "_inv", self)
            object.__setattr__(self, "_inv", out)
        return self._inv

    def scale(self, s: Scalar) -> "Mat2":
        rows = tuple(tuple(s * e for e in row) for row in self.entries)
        return Mat2._raw(self.basis, rows, s * s * self._det)

    def is_diagonal(self):
        return self.entries[0][1].is_zero() and self.entries[1][0].is_zero()

    def is_upper_triangular(self):
        return self.entries[1][0].is_zero()

    def is_lower_triangular(self):
        return self.entries[0][1].is_zero()

    def numeric(self):
        return tuple(tuple(e.numeric() for e in row) for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, Mat2) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "Mat2(%r)" % (self.entries,)


class GroupElt:
    """An element (g, p): matrix modulo n-th roots of unity plus degree-n polynomial.

    `act_affine` keeps the element's numeric action in `_act`, an unset
    slot until the element first acts on a point.
    """

    __slots__ = ("g", "p", "_act")

    def __init__(self, g: Mat2, p: HomogPoly):
        if g.basis is not p.basis and g.basis != p.basis:
            raise BasisMismatchError("matrix and polynomial over different bases")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElt is immutable")

    @property
    def degree(self) -> int:
        return self.p.degree

    @property
    def basis(self) -> EigenBasis:
        return self.g.basis

    @classmethod
    def identity(cls, basis, n):
        return cls(Mat2.identity(basis), HomogPoly.zero(basis, n))

    @classmethod
    def of_matrix(cls, g: Mat2, n: int):
        return cls(g, HomogPoly.zero(g.basis, n))

    def compose(self, other: "GroupElt") -> "GroupElt":
        """(g0, p0)(g1, p1) = (g0 g1, p0 + p1 . g0^{-1})."""
        if other.p.degree != self.p.degree:
            raise ValueError("degree mismatch between group elements")
        if other.g.basis is not self.g.basis and other.g.basis != self.g.basis:
            raise BasisMismatchError("group elements over different bases")
        if other.p.is_zero():
            return GroupElt(self.g * other.g, self.p)
        g0inv = self.g.inverse()
        return GroupElt(self.g * other.g, self.p + other.p.precompose(g0inv))

    def inverse(self) -> "GroupElt":
        """(g, p)^{-1} = (g^{-1}, -p . g)."""
        if self.p.is_zero():
            return GroupElt(self.g.inverse(), self.p)
        return GroupElt(self.g.inverse(), -self.p.precompose(self.g))

    def conjugate_by(self, h: "GroupElt") -> "GroupElt":
        return h.compose(self).compose(h.inverse())

    def __eq__(self, other):
        """(g, p) = (g', p') iff p = p' and g' = z g for an n-th root of unity z."""
        if not isinstance(other, GroupElt) or other.degree != self.degree:
            return NotImplemented
        if other.basis != self.basis or self.p != other.p:
            return False
        if self.g.entries == other.g.entries:
            return True
        flat = [e for row in self.g.entries for e in row]
        flat2 = [e for row in other.g.entries for e in row]
        ref = next(i for i, e in enumerate(flat) if not e.is_zero())
        if flat2[ref].is_zero():
            return False
        r, r2 = flat[ref], flat2[ref]
        # g' = (r2/r) g entrywise, tested by cross-multiplication.
        for e, e2 in zip(flat, flat2):
            if e2 * r != e * r2:
                return False
        n = self.degree
        # the ratio must be an n-th root of unity: r2^n = r^n
        return (r2**n) == (r**n)

    __hash__ = None

    def __repr__(self):
        return "GroupElt(g=%r, p=%r)" % (self.g, self.p)


# ---------------------------------------------------------------------------
# Affine points and the numeric action


class AffinePoint:
    """A point of O(n) in one of the two affine charts."""

    __slots__ = ("chart", "c1", "c2")

    def __init__(self, chart: str, c1: complex, c2: complex):
        if chart not in ("T", "S"):
            raise ValueError("chart must be 'T' or 'S'")
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "c1", complex(c1))
        object.__setattr__(self, "c2", complex(c2))

    @classmethod
    def _raw(cls, chart, c1, c2):
        """Internal constructor for a chart name "T" or "S" and two complexes."""
        out = object.__new__(cls)
        _set_chart(out, chart)
        _set_c1(out, c1)
        _set_c2(out, c2)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("AffinePoint is immutable")

    def in_chart(self, chart: str, n: int) -> "AffinePoint":
        """The same point in the requested chart; (s1, s2) = (1/t1, t2/t1^n)."""
        if chart == self.chart:
            return self
        if self.c1 == 0:
            raise ZeroDivisionError("point is not visible in the other chart")
        return AffinePoint._raw(chart, 1 / self.c1, self.c2 / self.c1**n)

    def __repr__(self):
        return "AffinePoint(%s, %r, %r)" % (self.chart, self.c1, self.c2)


# The slots' own setters, for `AffinePoint._raw`: the numeric checks build
# points by the thousand, and these are cheaper than object.__setattr__.
_set_chart, _set_c1, _set_c2 = (AffinePoint.__dict__[name].__set__ for name in AffinePoint.__slots__)


def chordal(a: complex, b: complex) -> float:
    """Chordal distance between two points of P^1 given as affine values (inf allowed).

    Where |a|^2, |b|^2 or the product of 1 + |a|^2 and 1 + |b|^2 leaves
    the float range, the distance comes from `_chordal_scaled` instead,
    so that finite values always get a finite distance.
    """
    a_inf = isinf(a.real) or isinf(a.imag) if isinstance(a, complex) else a == inf
    b_inf = isinf(b.real) or isinf(b.imag) if isinstance(b, complex) else b == inf
    if a_inf and b_inf:
        return 0.0
    try:
        if a_inf:
            return 1 / sqrt(1 + abs(b) ** 2)
        if b_inf:
            return 1 / sqrt(1 + abs(a) ** 2)
        den = (1 + abs(a) ** 2) * (1 + abs(b) ** 2)
        if den != inf:
            return abs(a - b) / sqrt(den)
    except OverflowError:
        pass
    return _chordal_scaled(a, b, a_inf, b_inf)


def _chordal_scaled(a, b, a_inf, b_inf):
    """The chordal distance |p1 q2 - p2 q1| / (|(p1, q1)| |(p2, q2)|) of a
    = p1/q1 and b = p2/q2, with each pair (w, 1) or (1, 1/w) so that no
    coordinate exceeds sqrt(2) and nothing overflows."""
    (p1, q1), (p2, q2) = _unit_pair(a, a_inf), _unit_pair(b, b_inf)
    norm1 = hypot(p1.real, p1.imag, q1.real, q1.imag)
    norm2 = hypot(p2.real, p2.imag, q2.real, q2.imag)
    return abs(p1 * q2 - p2 * q1) / (norm1 * norm2)


def _unit_pair(w, w_inf):
    """Homogeneous coordinates (p, q) of w = p/q with |p|, |q| <= sqrt(2)."""
    if w_inf:
        return (1.0, 0.0)
    if abs(w.real) <= 1 and abs(w.imag) <= 1:
        return (w, 1.0)
    return (1.0, 1 / w)


_T1_MAX = 1e6
_DEN_MIN = 1e-9


def act_affine(x: GroupElt, pt: AffinePoint, n: int = None) -> AffinePoint:
    """Numeric action of a group element on an affine point of O(n).

    Computed in chart T unless the result is large or the chart
    denominator is unsafe, in which case chart S is used.  For a
    diagonal matrix the action only involves the quotient-invariant
    pair (a/d, d^n), so it is independent of the root-of-unity
    representative.
    """
    if n is None:
        n = x.degree
    elif n != x.degree:
        raise ValueError("point and element live on different O(n)")
    mat, poly = _numeric_action(x, n)
    if len(mat) == 2:
        ratio, dn = mat
        if pt.chart == "T":
            chart, c1, c2 = "T", ratio * pt.c1, pt.c2 / dn
        else:
            chart, c1, c2 = "S", pt.c1 / ratio, pt.c2 / (ratio**n * dn)
    else:
        a, b, c, d = mat
        if pt.chart == "T":
            num = a * pt.c1 + b
            den = c * pt.c1 + d
        else:
            num = a + b * pt.c1
            den = c + d * pt.c1
        abs_num, abs_den = abs(num), abs(den)
        scale = abs_den if abs_den > abs_num else abs_num  # max(abs_num, abs_den), NaNs alike
        if scale == 0:
            raise ArithmeticError("degenerate image point; matrix is singular numerically")
        if abs_den >= _DEN_MIN * scale and abs_num <= _T1_MAX * abs_den:
            chart, c1, c2 = "T", num / den, pt.c2 / den**n
        else:
            chart, c1, c2 = "S", den / num, pt.c2 / num**n
    if poly is not None:
        # (I, p) adds p(t1, 1) in chart T and p(1, s1) in chart S
        total = 0j
        power = 1.0 + 0j
        for coeff in poly if chart == "T" else reversed(poly):
            if coeff is not None:
                total += coeff * power
            power *= c1
        c2 = c2 + total
    return AffinePoint._raw(chart, c1, c2)


def _numeric_action(x: GroupElt, n: int):
    """(matrix part, polynomial part) of x's action as floats, computed on first use.

    The matrix part is (a/d, d^n) for a diagonal matrix and (a, b, c, d)
    otherwise; the polynomial part lists p's coefficients by power of
    Z1, None for a zero one, and is None when p = 0.
    """
    act = getattr(x, "_act", None)
    if act is None:
        (ea, eb), (ec, ed) = x.g.entries
        if x.g.is_diagonal():
            mat = ((ea / ed).numeric(), (ed**n).numeric())
        else:
            mat = (ea.numeric(), eb.numeric(), ec.numeric(), ed.numeric())
        poly = None
        if not x.p.is_zero():
            poly = tuple([c.numeric() if c.terms else None for c in x.p.coeffs])
        act = (mat, poly)
        object.__setattr__(x, "_act", act)
    return act


def compose(x: GroupElt, y: GroupElt) -> GroupElt:
    return x.compose(y)


def inverse(x: GroupElt) -> GroupElt:
    return x.inverse()


def random_group_elt(basis, n, rng, scale=3) -> GroupElt:
    """A random element with small Gaussian-rational entries (a test helper).

    Each entry and coefficient is (a/b) + i (c/d), drawn a, b, c, d with
    `rng.randrange`: a, c in [-scale, scale] and b, d in [1, scale].  The
    matrix, redrawn until invertible, takes the determinant its test
    computed, and entries are built in canonical form, so no constructor
    checks them again.
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    zero = basis.zero()
    span = 2 * scale + 1
    randrange = rng.randrange

    def small():
        a, b = randrange(span) - scale, randrange(scale) + 1
        c, d = randrange(span) - scale, randrange(scale) + 1
        x, y, z = a * d, c * b, b * d
        if not (x or y):
            return zero
        g = math.gcd(x, y, z)
        if g > 1:
            x, y, z = x // g, y // g, z // g
        return Scalar._raw(basis, ((_E00, x, y, z),))

    while True:
        (a, b), (c, d) = rows = ((small(), small()), (small(), small()))
        det = a * d - b * c
        if det.terms:
            break
    g = Mat2._raw(basis, rows, det)
    p = HomogPoly._raw(basis, n, [small() for _ in range(n + 1)])
    return GroupElt(g, p)
