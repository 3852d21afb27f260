"""Conjugacy normal forms in the symmetry group of O(n).

An element (g, p) with diagonalizable matrix part is conjugated so
that g is diagonal, every coefficient of p at a nonresonant degree k
(those with e1^k e2^(n-k) != 1) is killed, and the leading and
trailing surviving resonant coefficients are rescaled to 1.  A
non-diagonalizable matrix part leads to (g, 0) when its eigenvalue is
not an n-th root of unity, and to the unipotent Jordan matrix with
p = Z1^n otherwise.  The normal form is unique up to swapping the two
coordinates except in the scalar-matrix stratum, which is returned
unreduced with a non-uniqueness flag.

Every reduction but one is performed as an honest group conjugation.
The exception is the killing of nonresonant coefficients, which sets
them to zero directly: the conjugator that kills them exists over the
complex numbers but usually not in the monomial-sum scalar ring (see
`_diagonal_kill_nonresonant`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .group import GroupElt, HomogPoly, Mat2
from .scalars import (
    RelationLattice,
    Scalar,
    ScalarDomainError,
    _bezout,
    _echelon,
    _valuations,
    exact_divide,
    gauss_roots_of_unity,
    is_root_of_unity,
)


class NormalFormError(ValueError):
    """Input outside the supported shapes (e.g. non-triangular matrix)."""


@dataclass(frozen=True)
class ResonanceReport:
    resonant_degrees: tuple
    leading: int | None
    trailing: int | None
    lattice_rank: int

    def to_record(self):
        return {
            "resonant_degrees": list(self.resonant_degrees),
            "leading": self.leading,
            "trailing": self.trailing,
            "lattice_rank": self.lattice_rank,
        }


@dataclass(frozen=True)
class NormalFormResult:
    element: GroupElt
    unique: bool
    swap_applied: bool


def eigenvalue_relation_lattice(e1: Scalar, e2: Scalar) -> RelationLattice:
    """The lattice of (a, b) with e1^a e2^b = 1, for monomials e1 = c1 l^v1
    and e2 = c2 l^v2.

    (a, b) must be a relation of the coefficients, c1^a c2^b = 1, with
    a v1 + b v2 in the basis lattice L.  With d a common denominator of v1
    and v2, the second condition reads a d v1 + b d v2 in d L; slack rows
    d L carry it next to the coefficients' valuation rows.  A sum of
    monomials raises ScalarDomainError.
    """
    if not (e1.is_unit() and e2.is_unit()):
        raise ScalarDomainError("relation lattices need monomial scalars")
    _, ((k1, w1), (k2, w2)) = _valuations((e1.coeff, e2.coeff))
    v1, v2 = e1.exps, e2.exps
    d = math.lcm(*(x.denominator for x in v1 + v2))
    zeros = [0] * len(w1)
    rows = [
        w1 + [k1] + [int(d * x) for x in v1],
        w2 + [k2] + [int(d * x) for x in v2],
        zeros + [4, 0, 0],
    ] + [zeros + [0, d * p, d * q] for p, q in e1.basis.lattice.rows]
    kernel = _echelon(rows)[1]
    return RelationLattice(x[:2] for x in kernel)


def _triangular_form(x: GroupElt):
    """Bring the matrix part to upper-triangular by the coordinate swap if needed."""
    g = x.g
    if g.is_upper_triangular():
        return x, False
    if g.is_lower_triangular():
        return _swap_conjugate(x), True
    raise NormalFormError(
        "matrix part is not triangular over the scalar field; diagonalize first"
    )


def resonant_degrees(g: Mat2, n: int, p: HomogPoly = None) -> ResonanceReport:
    """Exact resonant degrees of the (triangular) matrix g on degree-n forms.

    With a polynomial supplied, the leading/trailing markers point at
    its extreme nonzero resonant coefficients; otherwise at the
    extreme resonant degrees.
    """
    if not (g.is_upper_triangular() or g.is_lower_triangular()):
        raise NormalFormError("resonant degrees need a triangular matrix; diagonalize first")
    e1, e2 = g.entries[0][0], g.entries[1][1]
    off = g.entries[0][1] if g.is_upper_triangular() else g.entries[1][0]
    if e1 == e2 and not off.is_zero():
        degrees = (n,) if is_root_of_unity(e1, n) else ()
    else:
        degrees = tuple(k for k in range(n + 1) if (e1**k * e2 ** (n - k)).is_one())
    marks = degrees
    if p is not None:
        marks = tuple(k for k in degrees if not p.coeffs[k].is_zero())
    leading = min(marks) if marks else None
    trailing = max(marks) if marks else None
    return ResonanceReport(degrees, leading, trailing, g.basis.lattice.rank)


def _is_scalar_matrix_mod_roots(g: Mat2, n: int) -> bool:
    """g = z*I with z an n-th root of unity, i.e. the identity in the quotient."""
    if not g.is_diagonal():
        return False
    e1, e2 = g.entries[0][0], g.entries[1][1]
    return e1 == e2 and is_root_of_unity(e1, n)


def _unipotent_reduction(x: GroupElt) -> GroupElt:
    """Kill every coefficient of p below Z1^n for g = [[1,1],[0,1]].

    Conjugating by (I, c Z1^(i+1) Z2^(n-i-1)) shifts the degree-i
    coefficient by c (i+1) and only perturbs lower degrees, so a
    top-down sweep with integer divisions clears everything below the
    top term.
    """
    n = x.degree
    basis = x.basis
    work = x
    for i in range(n - 1, -1, -1):
        coeff = work.p.coeffs[i]
        if coeff.is_zero():
            continue
        p0 = HomogPoly.monomial(basis, n, i + 1, -(coeff / (i + 1)))
        work = work.conjugate_by(GroupElt(Mat2.identity(basis), p0))
        assert work.p.coeffs[i].is_zero()
    return work


def _diagonal_kill_nonresonant(x: GroupElt, degrees) -> GroupElt:
    """Zero the nonresonant coefficients of p for diagonal g.

    With a diagonal matrix, conjugation by (I, p0) moves each
    coefficient independently: a_k picks up b_k (1 - e1^-k e2^-(n-k)),
    and the factor vanishes exactly at the resonant degrees.  Each
    nonresonant a_k is therefore killed by the unique complex b_k
    solving that linear equation; the surviving element has the
    nonresonant slots exactly zero and all other slots untouched, so
    it is constructed directly.  This is the one reduction that is not
    an honest conjugation in the scalar ring: b_k = a_k / (1 - e1^-k
    e2^-(n-k)) is a quotient by a binomial, and when the exponent of
    e1^-k e2^-(n-k) has infinite order modulo the relation lattice (as
    over free generators), a constant a_k has no such quotient in the
    monomial-sum ring.
    """
    n = x.degree
    basis = x.basis
    cs = [
        (c if k in degrees else basis.zero()) for k, c in enumerate(x.p.coeffs)
    ]
    return GroupElt(x.g, HomogPoly(basis, n, cs))


def _solve_rescaling(basis, n, k_lead, k_trail, a_lead, a_trail):
    """(mu1, mu2) with mu1^k mu2^(n-k) matching the two target coefficients.

    With tau = mu1/mu2 the equations read tau^k mu2^n = a_k.  For two
    degrees they become tau^(k_trail - k_lead) = a_trail/a_lead and
    mu2^n = a_lead tau^-k_lead, both solved by exact roots.  Exponents
    divide freely, so whether the second root exists depends only on
    the Q(i) branch of tau, and each root of unity in Q(i) is tried.
    """
    if k_lead == k_trail:
        # x1 k + x2 (n - k) = g, so root^g = a_lead gives mu1 = root^x1, mu2 = root^x2
        g, x1, x2 = _bezout(k_lead, n - k_lead)
        root = a_lead.nth_root(g)
        return root**x1, root**x2
    step = k_trail - k_lead
    tau0 = (a_trail * a_lead.inverse()).nth_root(step)
    for zeta in gauss_roots_of_unity(step):
        tau = tau0 * basis.gauss(zeta)
        try:
            mu2 = (a_lead * tau**-k_lead).nth_root(n)
        except ScalarDomainError:
            continue
        return tau * mu2, mu2
    raise ScalarDomainError("no representable rescaling normalizes the resonant terms")


def _canonical_key(elt: GroupElt):
    gk = tuple(e.sort_key() for row in elt.g.entries for e in row)
    pk = tuple(c.sort_key() for c in elt.p.coeffs)
    return (gk, pk)


def _swap_conjugate(elt: GroupElt) -> GroupElt:
    """Conjugate by the coordinate swap Z1 <-> Z2."""
    basis = elt.basis
    w = GroupElt.of_matrix(
        Mat2(basis, ((basis.zero(), basis.one()), (basis.one(), basis.zero()))),
        elt.degree,
    )
    return elt.conjugate_by(w)


def normal_form(x: GroupElt) -> NormalFormResult:
    """A conjugate of x in normal form.

    The matrix part must be supplied diagonal or triangular.  Raises
    ScalarDomainError when a required exact division or root does not
    exist in the monomial-sum scalar ring.
    """
    n = x.degree
    basis = x.basis
    work, swapped = _triangular_form(x)
    g = work.g
    e1, e2 = g.entries[0][0], g.entries[1][1]
    off = g.entries[0][1]

    if e1 == e2 and not off.is_zero():
        # non-diagonalizable branch
        lam = e1
        if not off.is_unit():
            raise ScalarDomainError("off-diagonal entry is not a monomial; cannot normalize")
        if is_root_of_unity(lam, n):
            work = GroupElt(work.g.scale(lam.inverse()), work.p)  # same quotient element
            off1 = work.g.entries[0][1]
            work = work.conjugate_by(
                GroupElt.of_matrix(Mat2.diag(basis.one(), off1), n)
            )  # matrix part becomes [[1,1],[0,1]]
            work = _unipotent_reduction(work)
            top = work.p.coeffs[n]
            if not top.is_zero():
                lam0 = top.nth_root(n)
                work = work.conjugate_by(
                    GroupElt.of_matrix(Mat2.diag(lam0, lam0), n)
                )
                assert work.p.coeffs[n].is_one()
            return NormalFormResult(work, True, swapped)
        # eigenvalue not an n-th root of unity: the coefficient system
        # a -> a + b (1 - lam^-n) + (lower-degree mixing) is triangular with
        # nonvanishing diagonal, so p is conjugated away entirely.
        g_norm = Mat2(
            basis, ((lam, basis.one()), (basis.zero(), lam))
        )
        return NormalFormResult(GroupElt.of_matrix(g_norm, n), True, swapped)

    if not off.is_zero():
        # distinct eigenvalues: shear to a diagonal matrix
        try:
            xshear = exact_divide(off, e1 - e2)
        except ScalarDomainError as exc:
            raise ScalarDomainError(
                "cannot shear to a diagonal matrix (%s): the eigenvalue "
                "difference e1 - e2 is not a monomial in the formal generators "
                "l1, l2, and the scalar ring keeps them formal, so it cannot "
                "invert it even when the basis holds exact values" % exc
            ) from exc
        h = GroupElt.of_matrix(
            Mat2(basis, ((basis.one(), xshear), (basis.zero(), basis.one()))), n
        )
        work = work.conjugate_by(h)
        assert work.g.is_diagonal()

    g = work.g
    if _is_scalar_matrix_mod_roots(g, n):
        # the scalar-matrix stratum: p is returned unreduced, flagged non-unique
        elt = GroupElt(Mat2.identity(basis), work.p)
        return NormalFormResult(elt, False, swapped)

    report = resonant_degrees(g, n)
    degrees = set(report.resonant_degrees)
    work = _diagonal_kill_nonresonant(work, degrees)
    present = [k for k in sorted(degrees) if not work.p.coeffs[k].is_zero()]
    if present:
        k_lead, k_trail = present[0], present[-1]
        a_lead = work.p.coeffs[k_lead]
        a_trail = work.p.coeffs[k_trail]
        mu1, mu2 = _solve_rescaling(basis, n, k_lead, k_trail, a_lead, a_trail)
        work = work.conjugate_by(GroupElt.of_matrix(Mat2.diag(mu1, mu2), n))
        assert work.p.coeffs[k_lead].is_one() and work.p.coeffs[k_trail].is_one()
        work = _canonicalize_kernel_units(work, present)

    return NormalFormResult(work, True, swapped)


def equal_up_to_swap(a: GroupElt, b: GroupElt) -> bool:
    """Equality of group elements modulo the coordinate swap conjugation."""
    if a == b:
        return True
    return _swap_conjugate(a) == b


def _canonicalize_kernel_units(work: GroupElt, present) -> GroupElt:
    """Fix the residual ambiguity of interior resonant coefficients.

    The rescalings diag(mu1, mu2) that keep the leading and trailing
    coefficients at 1 scale degree k by tau^(k - k_lead), tau = mu1/mu2,
    where tau^step = 1 for step = k_trail - k_lead and tau^-k_lead is an
    n-th power.  These tau are zeta l^w with zeta a step-th root of unity
    in Q(i) and w in (1/step) L / L, L the relation lattice; the n-th
    power condition falls on zeta alone, since exponents divide freely.
    Of the conjugates by this finite group (at most 4 step^rank), the one
    with the least canonical key is returned.
    """
    if len(present) <= 2:
        return work
    n = work.degree
    basis = work.basis
    k_lead, step = present[0], present[-1] - present[0]
    rows = basis.lattice.rows
    best = work
    best_key = _canonical_key(work)
    for zeta, js in product(gauss_roots_of_unity(step), product(range(step), repeat=len(rows))):
        w = tuple(Fraction(sum(j * r[c] for j, r in zip(js, rows)), step) for c in (0, 1))
        tau = Scalar.monomial(basis, zeta, w)
        try:
            mu2 = (tau**-k_lead).nth_root(n)
        except ScalarDomainError:
            continue
        cand = work.conjugate_by(GroupElt.of_matrix(Mat2.diag(tau * mu2, mu2), n))
        key = _canonical_key(cand)
        if key < best_key:
            best, best_key = cand, key
    return best


def is_normal_form(elt: GroupElt) -> bool:
    """Inspection predicate for the three normal-form shapes."""
    n = elt.degree
    g = elt.g
    if g.is_upper_triangular() and not g.entries[0][1].is_zero():
        e1, e2 = g.entries[0][0], g.entries[1][1]
        if e1 != e2 or not g.entries[0][1].is_one():
            return False
        if elt.p.is_zero():
            return True
        # unipotent with p = Z1^n
        if not e1.is_one():
            return False
        return all(
            (c.is_one() if k == n else c.is_zero()) for k, c in enumerate(elt.p.coeffs)
        )
    if not g.is_diagonal():
        return False
    if _is_scalar_matrix_mod_roots(g, n):
        return True
    report = resonant_degrees(g, n, elt.p)
    for k, c in enumerate(elt.p.coeffs):
        if not c.is_zero() and k not in report.resonant_degrees:
            return False
    if report.leading is not None and not elt.p.coeffs[report.leading].is_one():
        return False
    if report.trailing is not None and not elt.p.coeffs[report.trailing].is_one():
        return False
    return True


def is_generic(x: GroupElt) -> bool:
    """Conjugate to (diagonal matrix, 0)?

    True exactly when the matrix part is diagonalizable and the
    reduced polynomial has no surviving resonant term.
    """
    work, _ = _triangular_form(x)
    g = work.g
    e1, e2 = g.entries[0][0], g.entries[1][1]
    if e1 == e2 and not g.entries[0][1].is_zero():
        return False
    nf = normal_form(x)
    return nf.element.p.is_zero()
