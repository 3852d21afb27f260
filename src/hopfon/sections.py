"""Meromorphic sections of flat line bundles and P^1-bundles.

A twisting scalar a (for line bundles) or a projective matrix class g
(for P^1-bundles) over a surface with contraction F determines the
solutions of f(F(z)) = a f(z), respectively f(F(z)) = g . f(z) with g
acting by linear fractional transformations.  Each solvable case is a
closed-form family:

  * diagonal hyperresonant, a = l1^k1 l2^k2:  z1^k1 z2^k2 P(u)/Q(u)
  * diagonal generic,       a = l1^k1 l2^k2:  c z1^k1 z2^k2
  * exceptional,            a = l^k:          c z1^k
  * unsolvable twist:                          only 0 (and infinity)
  * diagonal F, unipotent g:                   only the constant infinity
  * exceptional F, unipotent g = [[a,1],[0,a]]: (z2/a)(l/z1)^m + c, and infinity
    (g = [[a,b],[0,a]] is the class of [[a/b,1],[0,a/b]]: shift b/a)

The solver reduces "a is a power product of the eigenvalues" to exact
lattice membership or, for twists given as plain Gaussian rationals, to
the exact exponent coset of `scalars`.  Either way the exponents are the
coset's canonical point (`RelationLattice.reduce_exponents`): the unique
point without a relation, 0 <= k1 < m1 on a hyperresonant surface (points
differ by hyperresonance shifts), and (0, k) on an exceptional one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .hopf import HopfSurface
from .scalars import EigenBasis, Scalar, as_gauss


class SectionError(ValueError):
    pass


@dataclass(frozen=True)
class SectionFamily:
    """One row of the section tables, with its free parameters left symbolic."""

    variant: str  # zero | monomial | monomial_times_rational | infinity_only
    #               | zero_and_infinity | jordan_family
    exponents: tuple = ()
    free_constant: bool = False
    includes_infinity: bool = False
    jordan_m: int = None
    jordan_shift: Scalar = None  # the shift b/a of g = [[a, b], [0, a]]: f(F(z)) = f(z) + b/a
    hyper: tuple = None
    surface: HopfSurface = None

    def closed_form(self) -> str:
        """Human-readable description of the family."""
        if self.variant == "zero":
            return "0" + (", infinity" if self.includes_infinity else "")
        if self.variant == "zero_and_infinity":
            return "0, infinity"
        if self.variant == "infinity_only":
            return "infinity"
        if self.variant == "monomial":
            k1, k2 = self.exponents
            body = "c * z1^%d * z2^%d" % (k1, k2) if k2 else "c * z1^%d" % k1
        elif self.variant == "monomial_times_rational":
            k1, k2 = self.exponents
            m1, m2 = self.hyper
            body = "z1^%d * z2^%d * P(u)/Q(u), u = z1^%d/z2^%d" % (k1, k2, m1, m2)
        elif self.variant == "jordan_family":
            body = "(z2/a) * (lam/z1)^%d + c" % self.jordan_m
        else:
            raise SectionError("unknown variant %r" % self.variant)
        if self.includes_infinity:
            body += ", infinity"
        return body

    def to_record(self):
        rec = {
            "variant": self.variant,
            "closed_form": self.closed_form(),
            "includes_infinity": self.includes_infinity,
        }
        if self.exponents:
            rec["exponents"] = list(self.exponents)
        if self.variant == "monomial":
            rec["free_constant"] = self.free_constant
        if self.hyper:
            rec["hyper"] = list(self.hyper)
        if self.jordan_m is not None:
            rec["m"] = self.jordan_m
        if self.jordan_shift is not None:
            rec["shift"] = self.jordan_shift.to_record()
        return rec


def solve_power_product(basis: EigenBasis, a: Scalar):
    """Integers (k1, k2) with a = l1^k1 l2^k2, or None.

    Formal route: the coefficient must be 1 and the exponent pair an
    integer vector modulo the lattice; the scalar's key is already the
    canonical point.  For bases with exact Gaussian-rational eigenvalues
    the twist c l1^e1 l2^e2 may also carry a plain number c: the whole
    coset of (k1, k2) with v1^k1 v2^k2 = c v1^e1 v2^e2 is found exactly,
    and its canonical point modulo the exact relation lattice is returned.
    That solve runs against `basis.valuations`, the `ValuationSystem` the
    basis built from its values.
    """
    if a.is_zero():
        return None
    if a.is_unit():
        c, (e1, e2) = a.coeff, a.exps
        if c.is_one() and e1.denominator == 1 and e2.denominator == 1:
            return (int(e1), int(e2))
        if basis.exact is not None and e1.denominator == 1 and e2.denominator == 1:
            coset = basis.valuations.solve(c)
            if coset is None:
                return None
            (h1, h2), lattice = coset
            return lattice.reduce_exponents((h1 + int(e1), h2 + int(e2)))
    return None


def line_bundle_sections(s: HopfSurface, a: Scalar) -> SectionFamily:
    """The meromorphic-section family of the line bundle twisted by a != 0."""
    if a.is_zero():
        raise SectionError("the twist must be nonzero")
    hit = solve_power_product(s.basis, a)
    if hit is None:
        return SectionFamily("zero", surface=s)
    if s.kind == "exceptional":
        # both generators name lam, so the power is the total exponent
        hit = (hit[0] + hit[1], 0)
    hyper = s.hyperresonance()
    if hyper is None:
        return SectionFamily("monomial", exponents=hit, free_constant=True, surface=s)
    return SectionFamily("monomial_times_rational", exponents=hit, hyper=hyper, surface=s)


def proj_bundle_sections(s: HopfSurface, g) -> SectionFamily:
    """Section family of the flat P^1-bundle twisted by a projective class g.

    The matrix must be invertible and supplied diagonal or as a
    unipotent class [[a, b], [0, a]], b != 0.  That class is the Jordan
    block [[a/b, 1], [0, a/b]], whose family (z2/a')(lam/z1)^m + c has
    a' = a/b: the shift is b/a.
    """
    rows = _as_scalar_rows(s.basis, g)
    (a11, a12), (a21, a22) = rows
    if not a21.is_zero():
        raise SectionError("supply g as a diagonal or upper-triangular Jordan block")
    if (a11 * a22).is_zero():
        raise SectionError("g is singular: a projective class needs det g != 0")
    if a12.is_zero():
        # diagonal class: everything is driven by the eigenvalue ratio
        ratio = a11 * a22.inverse()
        base = line_bundle_sections(s, ratio)
        if base.variant == "zero":
            return SectionFamily("zero_and_infinity", includes_infinity=True, surface=s)
        return replace(base, includes_infinity=True)
    if a11 != a22:
        raise SectionError("non-diagonal g must be a single Jordan block [[a,b],[0,a]]")
    if s.kind == "diagonal":
        return SectionFamily("infinity_only", includes_infinity=True, surface=s)
    return SectionFamily(
        "jordan_family",
        jordan_m=s.m,
        jordan_shift=a12 * a11.inverse(),
        includes_infinity=True,
        hyper=None,
        surface=s,
    )


def _as_scalar_rows(basis, g):
    try:
        rows = tuple(tuple(r) for r in (g.entries if hasattr(g, "entries") else g))
    except TypeError as exc:
        raise SectionError("g must be a 2x2 matrix") from exc
    out = []
    for row in rows:
        out.append(
            tuple(
                e if isinstance(e, Scalar) else basis.gauss(as_gauss(e)) for e in row
            )
        )
    if len(out) != 2 or any(len(r) != 2 for r in out):
        raise SectionError("g must be a 2x2 matrix")
    return tuple(out)


# ---------------------------------------------------------------------------
# numeric instantiation, for the functional-equation checks


def instantiate(family: SectionFamily, rng):
    """A concrete numeric section from the family, as a callable z -> value.

    Returns None for empty families; the value may be complex infinity
    for the projective rows that contain the constant infinity
    section.
    """
    s = family.surface
    if family.variant in ("zero",):
        return lambda z: 0j
    if family.variant in ("infinity_only",):
        return lambda z: complex("inf")
    if family.variant == "zero_and_infinity":
        return (lambda z: 0j) if rng.random() < 0.5 else (lambda z: complex("inf"))
    if family.variant == "monomial":
        c = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        k1, k2 = family.exponents

        def f_mono(z):
            return c * z[0] ** k1 * (z[1] ** k2 if k2 else 1)

        return f_mono
    if family.variant == "monomial_times_rational":
        k1, k2 = family.exponents
        m1, m2 = family.hyper
        dp = rng.randint(0, 2)
        dq = rng.randint(0, 2)
        P = [rng.uniform(0.5, 1.5) + 1j * rng.uniform(-0.5, 0.5) for _ in range(dp + 1)]
        Q = [rng.uniform(0.5, 1.5) + 1j * rng.uniform(-0.5, 0.5) for _ in range(dq + 1)]

        def f_rat(z):
            u = z[0] ** m1 / z[1] ** m2
            num = sum(c * u**j for j, c in enumerate(P))
            den = sum(c * u**j for j, c in enumerate(Q))
            return z[0] ** k1 * z[1] ** k2 * num / den

        return f_rat
    if family.variant == "jordan_family":
        c = rng.uniform(-1.0, 1.0) + 1j * rng.uniform(-1.0, 1.0)
        shift = family.jordan_shift.numeric()
        lam = s.basis.witness[0]
        m = family.jordan_m

        def f_jordan(z):
            return z[1] * shift * (lam / z[0]) ** m + c

        return f_jordan
    raise SectionError("unknown variant %r" % family.variant)
