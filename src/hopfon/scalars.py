"""Exact arithmetic for eigenvalue monomials.

Scalars are finite sums of monomials  c * l1^e1 * l2^e2  with
Gaussian-rational coefficients c and rational exponents (e1, e2) over
two formal generators l1, l2.  A declared integer relation lattice
(the pairs (a, b) with l1^a l2^b = 1) makes equality decidable: two
monomials agree exactly when their coefficients match and their
exponent difference is an integer vector of the lattice.  Every
resonance question reduces to such a lattice membership test.

A scalar keeps its terms flat, as integer tuples (key, x, y, z) for
((x + i y)/z) l1^key[0] l2^key[1] in the canonical form of GaussRat, so
that sums and products of scalars run on integers and build no
GaussRat; one is built only where a caller asks for a coefficient.
Sums and products merge their terms in one kernel, `_accumulate` and
then `_canonical`; only two monomials add and multiply directly, since
most products of the resonance searches are of that kind.

Each generator also carries a numeric witness (a complex double) used
only for floating-point evaluation; witnesses never influence exact
decisions.  Rational powers of a witness are taken on the principal
branch, so the same root symbol always evaluates to the same value.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


class ScalarDomainError(ArithmeticError):
    """An exact operation left the representable scalar domain."""


class BasisMismatchError(ValueError):
    """Operands were built over different eigenvalue bases."""


class _Frozen:
    """Base of the value types: setting or deleting an attribute raises.

    A subclass fills its slots while it is built, in one of two ways:
    `object.__setattr__(self, name, value)` in `__init__`, or the slot
    descriptor's `__set__` (`_set_x`, `_set_basis`, ...) in the `_raw`
    constructors, which is the faster of the two.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


def _exp(x):
    """Exponent entry: plain int when integral, Fraction otherwise."""
    if isinstance(x, int):
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


_E00 = (0, 0)
# the terms of the scalar 1: coefficient (1 + 0i)/1 on the key (0, 0)
_ONE_TERMS = ((_E00, 1, 0, 1),)


class GaussRat(_Frozen):
    """A Gaussian rational re + i*im, stored as an integer triple.

    The value is (x + i y)/z with z > 0 and gcd(x, y, z) = 1, which
    keeps every field operation to a single gcd normalization.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, re=0, im=0):
        re, im = _frac(re), _frac(im)
        z = math.lcm(re.denominator, im.denominator)
        object.__setattr__(self, "x", re.numerator * (z // re.denominator))
        object.__setattr__(self, "y", im.numerator * (z // im.denominator))
        object.__setattr__(self, "z", z)

    @staticmethod
    def _raw(x: int, y: int, z: int):
        """(x + i y)/z from integers with z != 0, brought to canonical form."""
        if z < 0:
            x, y, z = -x, -y, -z
        g = math.gcd(z, x, y)
        if g > 1:
            x, y, z = x // g, y // g, z // g
        out = object.__new__(GaussRat)
        _set_x(out, x)
        _set_y(out, y)
        _set_z(out, z)
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.z)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.z)

    # -- ring / field operations -------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = as_gauss(other)
        return GaussRat._raw(
            self.x * other.z + other.x * self.z,
            self.y * other.z + other.y * self.z,
            self.z * other.z,
        )

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = as_gauss(other)
        return GaussRat._raw(
            self.x * other.z - other.x * self.z,
            self.y * other.z - other.y * self.z,
            self.z * other.z,
        )

    def __rsub__(self, other):
        return as_gauss(other) - self

    def __neg__(self):
        return GaussRat._raw(-self.x, -self.y, self.z)

    def __mul__(self, other):
        if type(other) is not GaussRat:
            other = as_gauss(other)
        return GaussRat._raw(
            self.x * other.x - self.y * other.y,
            self.x * other.y + self.y * other.x,
            self.z * other.z,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = as_gauss(other)
        n = other.x * other.x + other.y * other.y
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat._raw(
            (self.x * other.x + self.y * other.y) * other.z,
            (self.y * other.x - self.x * other.y) * other.z,
            self.z * n,
        )

    def __rtruediv__(self, other):
        return as_gauss(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("only integer powers of GaussRat")
        if k < 0:
            return _power(GR_ONE / self, -k, GR_ONE)
        return _power(self, k, GR_ONE)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_one(self) -> bool:
        return self.y == 0 and self.x == self.z

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def __eq__(self, other):
        if type(other) is not GaussRat:
            try:
                other = as_gauss(other)
            except TypeError:
                return NotImplemented
        return self.x == other.x and self.y == other.y and self.z == other.z

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.x / self.z, self.y / self.z)

    __complex__ = to_complex

    def as_quad(self):
        """[re_num, re_den, im_num, im_den] for JSON interchange."""
        return [
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        ]

    @classmethod
    def from_quad(cls, quad):
        if len(quad) != 4:
            raise ValueError("Gaussian rational quadruple must have 4 entries")
        if any(isinstance(q, bool) for q in quad):
            raise TypeError("Gaussian rational quadruple %r has a boolean entry" % (quad,))
        if quad[1] == 0 or quad[3] == 0:
            raise ValueError("Gaussian rational quadruple %r has a zero denominator" % (quad,))
        return cls(Fraction(quad[0], quad[1]), Fraction(quad[2], quad[3]))

    def nth_root(self, k: int):
        """An exact k-th root in Q(i), or None when no such root exists.

        With self = (x + i y)/z, every root is rho/z for a Gaussian
        integer rho with rho^k = W = (x + i y) z^(k-1), so the norm of W
        must be an exact k-th power.  Each complex k-th root of W, taken
        from the principal one outwards in argument, seeds rho; exact
        Newton steps in Z[i] refine it, and rho is accepted only when
        rho^k == W.  The principal root is therefore returned when it
        lies in Q(i), and otherwise a root nearest to it in argument.
        Two roots in Q(i) differ by a k-th root of unity in Q(i): only 1
        for odd k, +-1 for k = 2 mod 4, and +-1, +-i for k = 0 mod 4.
        """
        if k <= 0:
            raise ValueError("root order must be positive")
        if k == 1 or self.is_zero():
            return self
        zk = self.z ** (k - 1)
        w = GaussRat._raw(self.x * zk, self.y * zk, 1)
        w_norm = w.x * w.x + w.y * w.y
        norm = _iroot(w_norm, k)
        if norm**k != w_norm:
            return None
        modulus = Fraction(math.isqrt(norm << 128), 1 << 64)  # |rho|, to 2^-64
        # arg W = arg(x + i y), from floats of x and y scaled into range
        shift = max(0, max(abs(self.x), abs(self.y)).bit_length() - 1000)
        theta = math.atan2(self.y >> shift, self.x >> shift)
        for j in sorted(range(k), key=lambda j: (min(j, k - j), j > k - j)):
            phi = (theta + 2 * math.pi * j) / k
            rho = _nearest_gauss_int(
                GaussRat(modulus * Fraction(math.cos(phi)), modulus * Fraction(math.sin(phi)))
            )
            # Newton doubles the correct bits of a seed good to about 50 bits
            for _ in range(norm.bit_length().bit_length() + 3):
                if rho.is_zero():
                    break
                head = rho ** (k - 1)
                if head * rho == w:
                    return GaussRat._raw(rho.x, rho.y, self.z)
                step = _nearest_gauss_int((head * rho * (k - 1) + w) / (head * k))
                if step == rho:
                    break
                rho = step
        return None

    def __repr__(self):
        if self.im == 0:
            return "GaussRat(%s)" % (self.re,)
        return "GaussRat(%s, %s)" % (self.re, self.im)


# Slot setters for the internal constructors, which bypass the guard of
# _Frozen (and are faster than object.__setattr__).
_set_x, _set_y, _set_z = GaussRat.x.__set__, GaussRat.y.__set__, GaussRat.z.__set__


def _power(x, k: int, one):
    """x**k for an integer k >= 0 by square-and-multiply.

    The product starts from x itself and squares only between bits, so
    x**3 costs two products.
    """
    if k < 0:
        raise ValueError("negative exponent %d" % k)
    if k == 0:
        return one
    out = x
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out


def _iroot(n: int, k: int) -> int:
    """The integer part of n^(1/k), for integers n >= 0 and k >= 1."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # above the root
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _nearest_gauss_int(q: GaussRat) -> GaussRat:
    """The Gaussian integer nearest to q, rounding halves up."""
    d = 2 * q.z
    return GaussRat._raw((2 * q.x + q.z) // d, (2 * q.y + q.z) // d, 1)


def as_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError("cannot interpret %r as a Gaussian rational" % (x,))


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)
GR_I = GaussRat(0, 1)


def gauss_roots_of_unity(n: int):
    """The n-th roots of unity that exist inside Q(i)."""
    roots = [GR_ONE]
    if n % 2 == 0:
        roots.append(GaussRat(-1))
    if n % 4 == 0:
        roots.extend([GR_I, GaussRat(0, -1)])
    return roots


# ---------------------------------------------------------------------------
# Integer relation lattices in Z^2


def _bezout(a: int, b: int):
    """(g, s, t) with s a + t b = g, g = +-gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class RelationLattice(_Frozen):
    """A subgroup of Z^2 given by a canonical (HNF) basis of rank 0..2.

    The rows are the pivots of `_echelon`, normalised to (a, b) with
    a > 0, (0, c) with c > 0 and, at rank 2, 0 <= b < c.
    """

    __slots__ = ("rows",)

    def __init__(self, generators=()):
        gens = [(int(r[0]), int(r[1])) for r in generators]
        pivots = _echelon(gens)[0] if gens else ()
        rows = [(row[0], row[1]) if row[col] > 0 else (-row[0], -row[1]) for col, row in pivots]
        if len(rows) == 2:
            rows[0] = (rows[0][0], rows[0][1] % rows[1][1])
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        """Membership of an integer (or integral rational) pair."""
        return self.reduce_exponents(v) == _E00

    def reduce_exponents(self, e):
        """Canonical representative of e (rational pair) modulo the lattice.

        With HNF rows (a, b), a > 0, and (0, c), c > 0, it is the point of
        e + lattice with 0 <= e1 < a and, at rank 2, 0 <= e2 < c; a lone
        row (0, c) puts e2 alone in [0, c).  At rank 0 it is e itself.
        """
        e1, e2 = e
        rows = self.rows
        if rows:
            a, b = rows[0]
            if a != 0:
                t = e1 // a if isinstance(e1, int) else math.floor(e1 / a)
                e1, e2 = e1 - t * a, e2 - t * b
            else:
                t = e2 // b if isinstance(e2, int) else math.floor(e2 / b)
                e2 = e2 - t * b
            if len(rows) == 2:
                c = rows[1][1]
                t = e2 // c if isinstance(e2, int) else math.floor(e2 / c)
                e2 = e2 - t * c
        return (e1 if type(e1) is int else _exp(e1), e2 if type(e2) is int else _exp(e2))

    def add_reduced(self, e, f):
        """reduce_exponents((e1 + f1, e2 + f2)) for two reduced pairs e and f.

        Reduced pairs have 0 <= e1 < a under a pivot row (a, b), a > 0,
        and 0 <= e2 < c under a row (0, c), so each coordinate of the sum
        lies in [0, 2a) or [0, 2c).  One subtraction of (a, b) brings the
        first into range; at rank 2 the HNF has 0 <= b < c, which leaves
        the second in (-c, 2c), and one step by (0, c) ends it.  Entries
        keep reduce_exponents' types: int when integral, Fraction otherwise.
        """
        s1, s2 = e[0] + f[0], e[1] + f[1]
        if type(s1) is not int:
            s1 = _exp(s1)
        if type(s2) is not int:
            s2 = _exp(s2)
        rows = self.rows
        if rows:
            a, b = rows[0]
            if a:
                if s1 >= a:
                    s1, s2 = s1 - a, s2 - b
                if len(rows) == 2:
                    c = rows[1][1]
                    if s2 >= c:
                        s2 -= c
                    elif s2 < 0:
                        s2 += c
            elif s2 >= b:  # a lone row (0, b)
                s2 -= b
        return (s1, s2)

    def coset_order(self, v):
        """Least t >= 1 with t*v in the lattice (v a rational pair); None if infinite."""
        v1, v2 = _frac(v[0]), _frac(v[1])
        if v1 == 0 and v2 == 0:
            return 1
        if self.rank == 0:
            return None
        if self.rank == 1:
            a, b = self.rows[0]
            if v1 * b != v2 * a:
                return None
            alpha = v1 / a if a else v2 / b
            return alpha.denominator
        (a, b), (_, c) = self.rows
        alpha = v1 / a
        beta = (v2 - alpha * b) / c
        return math.lcm(alpha.denominator, beta.denominator)

    def minimal_positive_pair(self):
        """Smallest m1 >= 1 with (m1, -m2) in the lattice and m2 >= 1, as (m1, m2)."""
        if self.rank == 0:
            return None
        if self.rank == 1:
            a, b = self.rows[0]
            return (a, -b) if a > 0 and b < 0 else None
        (a, b), (_, c) = self.rows
        # a > 0 is the least positive m1; the m2 residue is then fixed mod c > 0.
        return (a, (-b) % c or c)

    def __eq__(self, other):
        return isinstance(other, RelationLattice) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "RelationLattice(%r)" % (list(self.rows),)


# ---------------------------------------------------------------------------
# Eigenvalue bases

_WITNESS_TOL = 1e-12

# The clamp of `find_relations` (power products are not clamped) stays until
# the benchmark's numeric section check (bench/workloads.py), which overflows
# complex floats for exponents beyond the box, can check such surfaces.
_RELATION_BOUND = 64


# ---------------------------------------------------------------------------
# Exact relations and power products of Gaussian rationals
#
# Gaussian integers are held here as integer pairs (re, im).

_UNIT_LOG = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}  # u -> k with u = i^k


def _gauss_quotient(a, b):
    """a / b for Gaussian integers when b divides a, else None."""
    n = b[0] * b[0] + b[1] * b[1]
    x, y = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    if x % n or y % n:
        return None
    return (x // n, y // n)


def _gauss_gcd(a, b):
    """A greatest common divisor of two Gaussian integers, by Euclid's algorithm."""
    while b != (0, 0):
        n = b[0] * b[0] + b[1] * b[1]
        x, y = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
        # q, the Gaussian integer nearest to a / b, leaves a remainder of norm <= n / 2
        q0, q1 = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b = b, (a[0] - q0 * b[0] + q1 * b[1], a[1] - q0 * b[1] - q1 * b[0])
    return a


def _strip(a, b):
    """(a / b^e, e) for the largest e with b^e dividing a; b is not a unit."""
    e = 0
    while True:
        q = _gauss_quotient(a, b)
        if q is None:
            return a, e
        a, e = q, e + 1


def _is_unit(a) -> bool:
    return a[0] * a[0] + a[1] * a[1] == 1


def _coprime_base(elements):
    """Pairwise coprime non-units of Z[i] whose powers give each nonzero
    element up to a unit.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    with Euclid's gcd and no factoring: an element that shares a non-unit
    gcd g with a base entry b replaces b by g and by what is left of b and
    of itself once every power of g is divided out, and those are refined
    in turn.  The product of the norms still to place falls by N(g) > 1
    at each split, so the refinement ends.
    """
    base, todo = [], list(elements)
    while todo:
        x = todo.pop()
        if _is_unit(x):
            continue
        for j, b in enumerate(base):
            g = _gauss_gcd(x, b)
            if not _is_unit(g):
                del base[j]
                todo += [g, _strip(b, g)[0], _strip(x, g)[0]]
                break
        else:
            base.append(x)
    return base


def _valuation(base, v):
    """(k, w) with v = i^k prod_j base_j^w_j for a nonzero Gaussian rational
    v, or None when v is no such product.

    Each entry of the pairwise coprime base is divided out of v's numerator
    and denominator as often as it goes.  Z[i] is a UFD, so v is a unit
    times a power product over the base exactly when the two remainders
    differ by a unit: no refinement of the base by v is needed.
    """
    num, den = (v.x, v.y), (v.z, 0)
    w = []
    for b in base:
        num, e = _strip(num, b)
        den, f = _strip(den, b)
        w.append(e - f)
    u = _gauss_quotient(num, den)
    if u is None or not _is_unit(u):
        return None
    return _UNIT_LOG[u], w


def _valuations(values):
    """(base, [(k, w), ...]): each nonzero Gaussian rational as i^k prod_j b_j^w_j
    over one coprime base (b_j) of their numerators and denominators.

    Distinct base entries share no prime, so v1^a v2^b = 1 exactly when
    a w1 + b w2 = 0 and a k1 + b k2 = 0 (mod 4).
    """
    base = _coprime_base([t for v in values for t in ((v.x, v.y), (v.z, 0))])
    return base, [_valuation(base, v) for v in values]


def _echelon(rows):
    """Echelon form of the integer matrix [rows | I], as (pivots, kernel).

    Column by column, unimodular Bezout steps on the rows leave one pivot
    row (col, row) per column that is not yet zero; the rows whose left
    part ends up zero carry a basis of the kernel {x : sum_i x_i rows[i]
    = 0} in their right part.
    """
    m, count = len(rows[0]), len(rows)
    active = [list(r) + [int(i == j) for j in range(count)] for i, r in enumerate(rows)]
    pivots = []
    for col in range(m):
        pivot, rest = None, []
        for r in active:
            if r[col] == 0:
                rest.append(r)
            elif pivot is None:
                pivot = r
            else:
                g, s, t = _bezout(pivot[col], r[col])
                p, q = pivot[col] // g, r[col] // g
                rest.append([p * y - q * x for x, y in zip(pivot, r)])
                pivot = [s * x + t * y for x, y in zip(pivot, r)]
        if pivot is not None:
            pivots.append((col, pivot))
        active = rest
    return pivots, [r[m:] for r in active]


class ValuationSystem(_Frozen):
    """The equation v1^a v2^b = c for fixed nonzero Gaussian rationals v1
    and v2, set up once and then solved for any c.

    It holds a pairwise coprime base B of the numerators and denominators
    of v1 and v2 (`_coprime_base`), their valuation rows [w | k] with
    v = i^k prod_j B_j^w_j, and the echelon form (`_echelon`) of the rows
    [w1 | k1], [w2 | k2] and the slack row [0 | 4] that reads k modulo 4.
    Its kernel is the exact relation lattice {(a, b) : v1^a v2^b = 1}.

    A value c needs no refinement of B: c is stripped by B (`_valuation`)
    and solved by back-substitution through the pivots.  When c's
    remainders do not differ by a unit, no (a, b) solves the equation,
    because every v1^a v2^b is a unit times a power product over B.
    """

    __slots__ = ("base", "pivots", "lattice")

    def __init__(self, v1: GaussRat, v2: GaussRat):
        if v1.is_zero() or v2.is_zero():
            raise ValueError("eigenvalues must be nonzero")
        base, ((k1, w1), (k2, w2)) = _valuations((v1, v2))
        pivots, kernel = _echelon([w1 + [k1], w2 + [k2], [0] * len(w1) + [4]])
        object.__setattr__(self, "base", tuple(base))
        object.__setattr__(self, "pivots", tuple((col, tuple(row)) for col, row in pivots))
        object.__setattr__(self, "lattice", RelationLattice(x[:2] for x in kernel))

    def solve(self, value: GaussRat):
        """Every (a, b) with v1^a v2^b == value, exactly, as (h, lattice) for
        the coset h + lattice, or None.  For value = 1 the lattice is the
        relation lattice of (v1, v2)."""
        found = None if value.is_zero() else _valuation(self.base, value)
        if found is None:
            return None
        k, w = found
        residue, h = w + [k], [0, 0, 0]  # one coefficient per row
        m = len(residue)
        for col, pivot in self.pivots:
            # a remainder left in this column stays: later pivots are zero here
            q = residue[col] // pivot[col]
            residue = [x - q * y for x, y in zip(residue, pivot)]
            h = [x + q * y for x, y in zip(h, pivot[m:])]
        return None if any(residue) else ((h[0], h[1]), self.lattice)


def find_relations(system: ValuationSystem) -> RelationLattice:
    """The exact relation lattice {(a, b) : v1^a v2^b = 1} of a
    `ValuationSystem`, clamped to the box |a|, |b| <= 64: a rank-1 lattice
    whose generator leaves the box is reported as rank 0.  A rank-2 lattice
    needs no clamp, since it arises only for two roots of unity and then
    contains 4 Z^2.
    """
    lattice = system.lattice
    if lattice.rank == 1 and max(map(abs, lattice.rows[0])) > _RELATION_BOUND:
        return RelationLattice()
    return lattice


class EigenBasis(_Frozen):
    """Two eigenvalue generators with a relation lattice and witnesses.

    A formal basis declares its relations, and its witnesses are checked:
    nonzero, and satisfying every declared relation.  A basis with `exact`
    values declares none: it refines them once into `valuations`, their
    `ValuationSystem`, which gives the lattice (`find_relations`) and
    solves every twist given by value.  Its float witnesses are not
    checked, since they may round (2^-1200 becomes 0.0).
    """

    __slots__ = ("names", "lattice", "witness", "exact", "valuations", "_cache")

    def __init__(self, names=("l1", "l2"), relations=(), witness=(0.5, 0.5), exact=None):
        witness = (complex(witness[0]), complex(witness[1]))
        if exact is None:
            valuations = None
            lattice = relations if isinstance(relations, RelationLattice) else RelationLattice(relations)
            if witness[0] == 0 or witness[1] == 0:
                raise ValueError("numeric witnesses must be nonzero")
            for a, b in lattice.rows:
                val = witness[0] ** a * witness[1] ** b
                if abs(val - 1.0) > _WITNESS_TOL * (1 + abs(val)):
                    raise ValueError(
                        "witness %r violates declared relation (%d, %d)" % (witness, a, b)
                    )
        elif relations:
            raise ValueError("an exact basis takes its relations from its values")
        else:
            valuations = ValuationSystem(*exact)
            lattice = find_relations(valuations)
        object.__setattr__(self, "names", (str(names[0]), str(names[1])))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "valuations", valuations)
        object.__setattr__(self, "_cache", {})

    @classmethod
    def from_gauss_values(cls, v1, v2):
        """Basis for concrete Gaussian-rational eigenvalues, with the exact
        lattice of their `ValuationSystem`; a generator beyond |a|, |b| <= 64
        is reported as no relation (`find_relations`)."""
        v1, v2 = as_gauss(v1), as_gauss(v2)
        return cls(("l1", "l2"), (), (v1.to_complex(), v2.to_complex()), exact=(v1, v2))

    def hyperresonance(self):
        """Minimal positive pair (m1, m2) with l1^m1 = l2^m2, or None."""
        return self.lattice.minimal_positive_pair()

    def zero(self):
        out = self._cache.get("zero")
        if out is None:
            out = self._cache["zero"] = Scalar._raw(self, ())
        return out

    def one(self):
        out = self._cache.get("one")
        if out is None:
            out = self._cache["one"] = Scalar._raw(self, _ONE_TERMS)
        return out

    def gauss(self, c):
        return Scalar.monomial(self, c)

    def gen(self, i: int, power=1):
        """The generator l1 (i=0) or l2 (i=1) raised to a rational power."""
        e = [0, 0]
        e[i] = _exp(power)
        return Scalar.monomial(self, GR_ONE, tuple(e))

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, EigenBasis)
            and self.lattice == other.lattice
            and self.witness == other.witness
            and self.exact == other.exact
        )

    def __hash__(self):
        return hash((self.lattice, self.witness))

    def __repr__(self):
        return "EigenBasis(names=%r, lattice=%r, witness=%r)" % (
            self.names,
            self.lattice,
            self.witness,
        )


# ---------------------------------------------------------------------------
# Scalars


def _canonical(acc):
    """The sorted term tuple of acc, a dict from reduced key to term (key, x, y, z), z > 0.

    Each term, any (x + i y)/z with z > 0, is brought to lowest terms, or
    dropped when zero.  A Gaussian integer (z = 1) is in lowest terms
    already, since gcd(x, y, 1) = 1.  Keys are distinct, so the sort
    compares keys only.
    """
    out = []
    for t in acc.values():
        key, x, y, z = t
        if x or y:
            if z != 1:
                g = math.gcd(z, x, y)
                if g > 1:
                    t = (key, x // g, y // g, z // g)
            out.append(t)
    out.sort()
    return tuple(out)


def _accumulate(pairs, add):
    """sum(a * b for a, b in pairs) for pairs of term collections, as an
    unreduced dict from reduced key to term (key, x, y, z), z > 0.

    The one place where two terms on one key merge: a sum pairs each
    operand with the terms of 1 (`_ONE_TERMS`).  Each term product goes
    straight in on its key, found in one step by `add`
    (`RelationLattice.add_reduced`, skipped for a constant factor).
    Two terms on one key add over the lcm of their denominators (Knuth,
    TAOCP vol. 2, 4.5.1): equal denominators, as two Gaussian integers
    have, add numerators only; others are first divided by gcd(w, z).
    Nothing is reduced and zero terms stay, so the steps of
    `HomogPoly.precompose` multiply the terms again as they stand.
    """
    acc = {}
    for ts, us in pairs:
        for e1, x1, y1, z1 in ts:
            for e2, x2, y2, z2 in us:
                key = e2 if e1 == _E00 else e1 if e2 == _E00 else add(e1, e2)
                x, y, z = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, z1 * z2
                t = acc.get(key)
                if t is not None:
                    _, u, v, w = t
                    if w == z:
                        x, y = u + x, v + y
                    else:
                        g = math.gcd(w, z)
                        if g == 1:
                            x, y, z = u * z + x * w, v * z + y * w, w * z
                        else:
                            wg, zg = w // g, z // g
                            x, y, z = u * zg + x * wg, v * zg + y * wg, w * zg
                acc[key] = (key, x, y, z)
    return acc


class Scalar(_Frozen):
    """A finite sum of eigenvalue monomials over a fixed basis.

    The canonical form is a tuple of terms (key, x, y, z), one per
    lattice-reduced exponent pair key, standing for ((x + i y)/z) l^key
    with z > 0 and gcd(x, y, z) = 1: the GaussRat triple, held flat so
    that ring operations work on the integers.  Terms are sorted by key
    and never zero, so zero is the empty sum.  Single-term values are
    the units of the ring; only those admit inverses and roots.

    Terms merge in one kernel: the constructor, sums, products and
    `sum_of_products` add their term products into one accumulator on
    their keys (`_accumulate`), as the Horner steps of
    `HomogPoly.precompose` do, and bring it to canonical form once
    (`_canonical`).  Only two monomials add or multiply directly,
    because most products of the resonance searches are of that kind.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis: EigenBasis, terms):
        """The canonical sum of (GaussRat coefficient, exponent pair) terms."""
        reduce = basis.lattice.reduce_exponents
        ts = [(reduce(e), c.x, c.y, c.z) for c, e in terms]
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _canonical(_accumulate(((ts, _ONE_TERMS),), None)))

    @staticmethod
    def _raw(basis, terms):
        """Internal constructor for already-canonical term tuples."""
        out = object.__new__(Scalar)
        _set_basis(out, basis)
        _set_terms(out, terms)
        return out

    @classmethod
    def monomial(cls, basis, coeff, exps=(0, 0)):
        coeff = as_gauss(coeff)
        if coeff.is_zero():
            return cls._raw(basis, ())
        if exps == _E00:
            key = _E00
        else:
            key = basis.lattice.reduce_exponents((_exp(exps[0]), _exp(exps[1])))
        return cls._raw(basis, ((key, coeff.x, coeff.y, coeff.z),))

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    @property
    def coeff(self) -> GaussRat:
        """Coefficient of a monomial scalar."""
        if self.is_zero():
            return GR_ZERO
        if not self.is_unit():
            raise ScalarDomainError("scalar is a sum of monomials, not a monomial")
        _, x, y, z = self.terms[0]
        return GaussRat._raw(x, y, z)

    @property
    def exps(self):
        """Exponent pair of a monomial scalar (canonical representative)."""
        if self.is_zero():
            return (_frac(0), _frac(0))
        if not self.is_unit():
            raise ScalarDomainError("scalar is a sum of monomials, not a monomial")
        return self.terms[0][0]

    def _check(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.basis is not self.basis and other.basis != self.basis:
                raise BasisMismatchError("scalars over different eigenvalue bases")
            return other
        if isinstance(other, int):
            return self.basis.gauss(other)
        return Scalar.monomial(self.basis, as_gauss(other))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar or other.basis is not self.basis:
            other = self._check(other)
        ts, to = self.terms, other.terms
        if not to:
            return self
        if not ts:
            return other
        if len(ts) == 1 and len(to) == 1:
            (e1, x1, y1, z1), (e2, x2, y2, z2) = ts[0], to[0]
            if e1 != e2:
                return Scalar._raw(self.basis, (ts[0], to[0]) if e1 < e2 else (to[0], ts[0]))
            # two monomials on one (canonical) exponent key: add coefficients
            x, y, z = x1 * z2 + x2 * z1, y1 * z2 + y2 * z1, z1 * z2
            if not (x or y):
                return Scalar._raw(self.basis, ())
            g = math.gcd(z, x, y)
            if g > 1:
                x, y, z = x // g, y // g, z // g
            return Scalar._raw(self.basis, ((e1, x, y, z),))
        return Scalar._raw(self.basis, _canonical(_accumulate(((ts, _ONE_TERMS), (to, _ONE_TERMS)), None)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._raw(self.basis, tuple([(e, -x, -y, z) for e, x, y, z in self.terms]))

    def __sub__(self, other):
        if type(other) is not Scalar or other.basis is not self.basis:
            other = self._check(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar or other.basis is not self.basis:
            other = self._check(other)
        ts, to = self.terms, other.terms
        if not ts:
            return self
        if not to:
            return other
        if len(ts) == 1:
            if len(to) == 1:
                (e1, x1, y1, z1), (e2, x2, y2, z2) = ts[0], to[0]
                # Q(i) is a field, so the product of nonzero coefficients is nonzero
                x, y, z = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, z1 * z2
                g = math.gcd(z, x, y)
                if g > 1:
                    x, y, z = x // g, y // g, z // g
                # a constant factor keeps the other (canonical) key as it is
                if e1 == _E00:
                    e = e2
                elif e2 == _E00:
                    e = e1
                else:
                    e = self.basis.lattice.add_reduced(e1, e2)
                return Scalar._raw(self.basis, ((e, x, y, z),))
        return Scalar._raw(self.basis, _canonical(_accumulate(((ts, to),), self.basis.lattice.add_reduced)))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            k = _frac(k)
            if k.denominator != 1:
                return self.nth_root(k.denominator) ** k.numerator
            k = int(k)
        if k < 0:
            return _power(self.inverse(), -k, self.basis.one())
        return _power(self, k, self.basis.one())

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("zero scalar has no inverse")
        if not self.is_unit():
            raise ScalarDomainError("only monomial scalars are invertible")
        e, x, y, z = self.terms[0]
        # z / (x + i y) = z (x - i y) / (x^2 + y^2)
        c = GaussRat._raw(z * x, -z * y, x * x + y * y)
        return Scalar.monomial(self.basis, c, (-e[0], -e[1]))

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_unit():
            return self * other.inverse()
        return exact_divide(self, other)

    def __rtruediv__(self, other):
        return self._check(other) / self

    def nth_root(self, k: int) -> "Scalar":
        """Some exact k-th root of a monomial scalar.

        The exponent part divides freely; the coefficient root must
        exist in Q(i), otherwise the value is outside the domain.
        """
        if not self.is_unit():
            raise ScalarDomainError("roots are only taken of monomial scalars")
        e, x, y, z = self.terms[0]
        c = GaussRat._raw(x, y, z)
        root = c.nth_root(k)
        if root is None:
            raise ScalarDomainError("no exact %d-th root of %r in Q(i)" % (k, c))
        return Scalar.monomial(self.basis, root, (_frac(e[0]) / k, _frac(e[1]) / k))

    # -- predicates, conversions -----------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar or other.basis is not self.basis:
            try:
                other = self._check(other)
            except (BasisMismatchError, TypeError):
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.basis, self.terms))

    def __bool__(self):
        return not self.is_zero()

    def _pairs(self):
        """(GaussRat coefficient, exponent key) for each term."""
        return [(GaussRat._raw(x, y, z), e) for e, x, y, z in self.terms]

    def sort_key(self):
        return tuple((e, c.re, c.im) for c, e in self._pairs())

    def to_record(self):
        """[[coefficient quadruple, [e1_num, e1_den, e2_num, e2_den]], ...] for JSON."""
        return [
            [c.as_quad(), [e[0].numerator, e[0].denominator, e[1].numerator, e[1].denominator]]
            for c, e in self._pairs()
        ]

    def numeric(self) -> complex:
        w1, w2 = self.basis.witness
        total = 0j
        for (e1, e2), x, y, z in self.terms:
            val = complex(x / z, y / z)
            if e1:
                val *= cmath.exp(float(e1) * cmath.log(w1))
            if e2:
                val *= cmath.exp(float(e2) * cmath.log(w2))
            total += val
        return total

    def __repr__(self):
        if self.is_zero():
            return "Scalar<0>"
        bits = []
        for c, (e1, e2) in self._pairs():
            s = repr(c)
            if e1:
                s += "*%s^%s" % (self.basis.names[0], e1)
            if e2:
                s += "*%s^%s" % (self.basis.names[1], e2)
            bits.append(s)
        return "Scalar<%s>" % " + ".join(bits)


_set_basis, _set_terms = Scalar.basis.__set__, Scalar.terms.__set__


# ---------------------------------------------------------------------------
# Spec operations


def sum_of_products(pairs) -> Scalar:
    """sum(a * b for a, b in pairs), for a nonempty sequence of pairs of
    scalars over one basis.

    The dot products of the exact action and Kronecker proof of `verify`
    and the determinant of `Mat2`: every term product lands in one
    accumulator (`_accumulate`), which is brought to canonical form once,
    so no intermediate sum or product is built.
    """
    basis = pairs[0][0].basis
    acc = _accumulate([(a.terms, b.terms) for a, b in pairs], basis.lattice.add_reduced)
    return Scalar._raw(basis, _canonical(acc))


def is_root_of_unity(a: Scalar, n: int) -> bool:
    """Exact test for a^n = 1.

    Requires a monomial whose coefficient is an n-th root of unity in
    Q(i) and whose exponents, scaled by n, form an integer lattice
    vector.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a.is_zero() or not a.is_unit():
        return False
    c, (e1, e2) = a.coeff, a.exps
    if not (c**n).is_one():
        return False
    return a.basis.lattice.contains((n * e1, n * e2))


# ---------------------------------------------------------------------------
# Exact division by a binomial (needed by conjugacy normal forms)


def exact_divide(a: Scalar, d: Scalar) -> Scalar:
    """Solve x * d = a exactly, for d a monomial or a binomial.

    A binomial is written d = u (1 - t) with u its first monomial and
    t = w l^v.  When v has finite order o modulo the lattice, t^o = w^o
    is a constant and (1 - t) (t^0 + ... + t^(o-1)) = 1 - w^o, so the
    quotient is (a/u) (t^0 + ... + t^(o-1)) / (1 - w^o).  When w^o = 1, d
    is a zero divisor and the quotient is fixed only up to multiples of
    t^0 + ... + t^(o-1).  The exponents of a/u then fall into chains
    gamma, gamma + v, ..., gamma + (o-1) v modulo the lattice, each
    anchored at its least key gamma; a term m of a/u at gamma + p v, p > 0,
    contributes m (t^0 + ... + t^(o-p-1)), so the quotient has no term at
    an anchor and a monomial spreads only up to the end of its chain.
    When v has infinite order, a/u is
    divided by 1 - t level by level, lowest first, along a linear form
    that vanishes on the lattice and is positive on v; a remainder whose
    lowest level lies above the highest level of a/u cannot vanish.
    Raises ScalarDomainError when no exact quotient exists in the
    monomial-sum ring.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by zero scalar")
    if d.is_unit():
        return a * d.inverse()
    if len(d.terms) != 2:
        raise ScalarDomainError("exact division only implemented for binomial divisors")
    basis = a.basis
    if a.is_zero():
        return basis.zero()
    (c1, e1), (c2, e2) = d._pairs()
    # d = u * (1 - t) with u the first monomial and t = w * l^v.
    w = -(c2 / c1)
    v = (e2[0] - e1[0], e2[1] - e1[1])
    rhs = a * Scalar.monomial(basis, c1, e1).inverse()
    t = Scalar.monomial(basis, w, v)
    order = basis.lattice.coset_order(v)
    if order is not None:
        # partial[k] = t^0 + ... + t^(k-1)
        partial = [basis.zero()]
        for i in range(order):
            partial.append(partial[-1] + t**i)
        wo = w**order
        if not wo.is_one():
            x = rhs * partial[order] * basis.gauss(GR_ONE / (GR_ONE - wo))
        else:
            # position of each key along its chain, counted from the first
            # key of the chain met in rhs
            position, x = {}, basis.zero()
            for term in rhs.terms:
                key = term[0]
                if key not in position:
                    for j in range(order):
                        shifted = (key[0] + j * v[0], key[1] + j * v[1])
                        position[basis.lattice.reduce_exponents(shifted)] = j
                x = x + Scalar._raw(basis, (term,)) * partial[-position[key] % order]
    else:
        # phi(e) = nv . e vanishes on the lattice, of rank 0 or 1 since v
        # has infinite order, and is positive on v
        rows = basis.lattice.rows
        nv = (-rows[0][1], rows[0][0]) if rows else v
        if nv[0] * v[0] + nv[1] * v[1] < 0:
            nv = (-nv[0], -nv[1])

        def phi(e):
            return nv[0] * e[0] + nv[1] * e[1]

        top = max(phi(term[0]) for term in rhs.terms)
        x, rest, low = basis.zero(), rhs, None
        while rest:
            last, low = low, min(phi(term[0]) for term in rest.terms)
            # a pass removes the level `last` and adds terms only above it
            assert last is None or low > last, "exact_divide: the lowest level did not rise"
            if low > top:
                raise ScalarDomainError("scalar not divisible by binomial")
            m = Scalar._raw(basis, tuple(term for term in rest.terms if phi(term[0]) == low))
            x = x + m
            rest = rest - m + m * t
    if x * d != a:
        raise ScalarDomainError("scalar not divisible by binomial")
    return x
