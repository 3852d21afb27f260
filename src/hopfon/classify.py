"""Enumeration of O(n)-structures on a Hopf surface, with oracles.

The named families are

  * radial (linear surfaces):       (z1/z2, 1/z2^n),      holonomy (F, 0)
  * eigenstructures (two per diagonal surface):  (z1, z2) and (z2, z1)
  * exceptional eigenstructure (n >= m):  identity map with the Jordan-type
    holonomy whose polynomial part is Z1^m Z2^(n-m)/lam^m
  * hyperresonant families, present exactly when the minimal pair
    (m1, m2) satisfies m2 = n m1 (root factors in the first slot),
    m1 = m2 (factors in the fiber slot, excluded when m1 N = n), or
    m1 = n m2 (factors in the common denominator).

On a diagonal surface every holonomy is read off the developing map:
F multiplies t1 and t2 by the eigenvalue monomials of their exponents
(`diagonal_holonomy`).  The exceptional surface's F is not diagonal,
so its two structures carry their holonomies explicitly.

Admissibility has one gate, `devmaps.is_admissible`, plus an integer
prefilter that is a necessary condition.  The hyperresonant families
are listed where the gate accepts their maps, and
`brute_force_admissible` enumerates every semiadmissible exponent and
degree pattern with roots drawn from a fixed generic pool, keeps the
maps the gate accepts and collapses them modulo the declared
isomorphisms (chart swap, axis rescalings, diagonal conjugation);
`enumerate_structures` must reproduce it row for row.  The prefilter
is the gate's A, B, C, D clauses on integers: the pool polynomials and
the `DevMap` are built only for the candidates that pass.  The clauses
do not decide unbranchedness (ROADMAP item 1,
`test_is_admissible_rejects_the_branched_m2_n_m1_map`).

`reproduce_case_table` derives the feasible degree pattern for every
exponent-slot combination by evaluating the gate's own exponent
constants (`devmaps.exponent_constants` at the (k2, l2) of
`devmaps.z2_exponents`): one free polynomial per feasible row, whose
only excluded degree is the positive-integer root of D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .devmaps import (
    DevMap,
    UniPoly,
    _clause_verdict,
    exponent_constants,
    exponent_list,
    is_admissible,
    z2_exponents,
)
from .group import GroupElt, HomogPoly, Mat2
from .hopf import HopfSurface
from .scalars import GaussRat, as_gauss

DEFAULT_ROOT_POOL = (2, 3, 5, 7, 11, 13)


class ClassifyError(ValueError):
    pass


@dataclass(frozen=True)
class StructureRecord:
    """One O(n)-structure: its developing map, holonomy and provenance.

    `complete` is False on every record, and must be: a complete structure's
    developing map would be a covering map from C^2 - 0 to the total space
    of O(n).  Both are simply connected, so it would be a biholomorphism.
    But H^2(C^2 - 0) = 0, while the total space retracts onto P^1: H^2 = Z.
    """

    kind: str  # radial | eigen | exceptional_eigen | hyperresonant
    dev: DevMap
    hol: GroupElt
    complete: bool
    essential: bool
    provenance: str
    axis: int = None
    case: int = None
    params: tuple = ()
    swap_partner_case: int = None

    def to_record(self):
        rec = {
            "kind": self.kind,
            "provenance": self.provenance,
            "complete": self.complete,
            "essential": self.essential,
            "dev": self.dev.to_record(),
            "holonomy": _holonomy_invariants(self.hol),
        }
        if self.axis is not None:
            rec["axis"] = self.axis
        if self.case is not None:
            rec["case"] = self.case
        if self.params:
            rec["params"] = [as_gauss(p).as_quad() for p in self.params]
        if self.swap_partner_case is not None:
            rec["swap_partner_case"] = self.swap_partner_case
        return rec


def _holonomy_invariants(hol: GroupElt):
    """Quotient-invariant data of the holonomy generator."""
    g = hol.g
    n = hol.degree
    out = {"n": n, "p": [c.to_record() for c in hol.p.coeffs]}
    if g.is_diagonal():
        a, d = g.entries[0][0], g.entries[1][1]
        out["type"] = "diagonal"
        out["ratio"] = (a * d.inverse()).to_record()
        out["den_pow_n"] = (d**n).to_record()
    else:
        out["type"] = "matrix"
        out["matrix"] = [[e.to_record() for e in row] for row in g.entries]
        out["det"] = g.det().to_record()
    return out


# ---------------------------------------------------------------------------
# the named structures


def diagonal_holonomy(s: HopfSurface, dev: DevMap) -> GroupElt:
    """The holonomy generator of dev on the diagonal surface s.

    F scales z1^a z2^b by l1^a l2^b and fixes u = z1^m1/z2^m2, so
    t1(F z) = c1 t1(z) and t2(F z) = c2 t2(z) with c1 = l1^k1 l2^k2 and
    c2 = l1^l1 l2^l2.  A diagonal holonomy diag(a, d) acts by
    (t1, t2) -> (a t1/d, t2/d^n), so a/d = c1 and d^-n = c2: the
    generator is diag(c1 d, d) with d = c2^(-1/n).
    """
    n = dev.n
    c1 = s.l1**dev.k1 * s.l2**dev.k2
    c2 = s.l1**dev.l1 * s.l2**dev.l2
    d = c2 ** Fraction(-1, n)
    return GroupElt.of_matrix(Mat2.diag(c1 * d, d), n)


def _radial_record(s: HopfSurface, n: int) -> StructureRecord:
    dev = DevMap.radial(n, hyper=s.hyperresonance())
    if s.kind == "diagonal":
        hol = diagonal_holonomy(s, dev)
    else:
        basis, lam = s.basis, s.lam
        hol = GroupElt.of_matrix(Mat2(basis, ((lam, basis.zero()), (basis.one(), lam))), n)
    return StructureRecord(
        kind="radial",
        dev=dev,
        hol=hol,
        complete=False,
        essential=False,
        provenance="radial structure on a linear surface",
    )


def _exceptional_eigen_record(s: HopfSurface, n: int) -> StructureRecord:
    basis = s.basis
    lam = s.lam
    m = s.m
    eps = lam ** Fraction(m, n)
    g = Mat2.diag(lam * eps.inverse(), eps.inverse())
    p = HomogPoly.monomial(basis, n, m, lam.inverse() ** m)
    return StructureRecord(
        kind="exceptional_eigen",
        dev=DevMap.identity(n),
        hol=GroupElt(g, p),
        complete=False,
        essential=True,
        provenance="eigenstructure on an exceptional surface",
    )


# The hyperresonant families, one row each: the relation that admits
# the family, the polynomial (0 = P1, 1 = Q1, 2 = P2) that carries the
# root factors, the exponent slots (k1, l1, k2~, l2~) as a function of
# n, the case for one and for several root factors, and the swap
# partner's cases.  Every other polynomial is 1.
_HYPER_FAMILIES = (
    ("m2 = n m1", 0, lambda n: (0, 1, -1, -n), (1, 2), (4, 5)),
    ("m1 = m2", 2, lambda n: (1, 0, -1, -n), (3, 3), None),
    ("m1 = n m2", 1, lambda n: (1, 0, 0, 1), (4, 5), (1, 2)),
)


def _hyper_records(s: HopfSurface, n: int, vals):
    """The hyperresonant records with the root factors vals, in table order.

    Admissibility has one gate, plus an integer prefilter that is a
    necessary condition: a family is present when the gate,
    `is_admissible`, accepts its map.  Its slots are allowed and its
    roots distinct and nonzero (`_check_params`), so that is when the
    clause of the root-carrying polynomial vanishes, exactly under the
    family's relation, and D != 0, the family's side condition.
    """
    hyper = s.hyperresonance()
    N = len(vals)
    for relation, root_slot, slots, cases, partners in _HYPER_FAMILIES:
        polys = [UniPoly([1])] * 3
        polys[root_slot] = UniPoly.from_roots(vals)
        k1, l1, kt2, lt2 = slots(n)
        k2, l2 = z2_exponents(kt2, lt2, [p.degree for p in polys], hyper, n)
        dev = DevMap(k1, k2, l1, l2, *polys, hyper, n)
        if not is_admissible(dev):
            continue
        yield StructureRecord(
            kind="hyperresonant",
            dev=dev,
            hol=diagonal_holonomy(s, dev),
            complete=False,
            essential=False,
            provenance="hyperresonant family, %s, %d root factor(s)" % (relation, N),
            case=cases[N > 1],
            params=tuple(vals),
            swap_partner_case=partners and partners[N > 1],
        )


def _check_params(params):
    vals = [as_gauss(p) for p in params]
    if not vals:
        raise ClassifyError("each hyperresonant parameter list needs a root")
    if any(v.is_zero() for v in vals):
        raise ClassifyError("hyperresonant parameters must be nonzero")
    if len({(v.re, v.im) for v in vals}) != len(vals):
        raise ClassifyError("hyperresonant parameters must be distinct")
    return vals


def enumerate_structures(s: HopfSurface, n: int, hyper_params=None):
    """All O(n)-structures on s, instantiating hyperresonant rows with params.

    hyper_params is a list of parameter lists; each list of length N
    instantiates every hyperresonant family whose side condition
    admits N root factors.  Exceptional surfaces admit structures only
    for n >= m (the empty list is returned otherwise).
    """
    if n < 1:
        raise ClassifyError("the bundle degree n must be >= 1")
    records = []
    if s.kind == "exceptional":
        if n < s.m:
            return []
        if s.m == 1:
            records.append(_radial_record(s, n))
        records.append(_exceptional_eigen_record(s, n))
        return records
    records.append(_radial_record(s, n))
    hyper = s.hyperresonance()
    for axis, dev in ((1, DevMap.identity(n, hyper)), (2, DevMap.swapped_identity(n, hyper))):
        records.append(
            StructureRecord(
                kind="eigen",
                dev=dev,
                hol=diagonal_holonomy(s, dev),
                complete=False,
                essential=True,
                provenance="eigenstructure along axis %d" % axis,
                axis=axis,
            )
        )
    if hyper is None or not hyper_params:
        return records
    for params in hyper_params:
        records.extend(_hyper_records(s, n, _check_params(params)))
    return records


# ---------------------------------------------------------------------------
# canonical forms modulo the declared isomorphisms


def _poly_scale_invariants(p: UniPoly):
    """Scale-class invariants of a monic polynomial with nonzero constant term.

    Rescaling u multiplies the coefficient p_j of the monic polynomial
    by c^(deg-j); the returned tuple is a complete invariant of that
    action, computed without extracting roots.
    """
    lead = p.coeffs[-1]
    monic = p.scale(GaussRat(1) / lead)
    N = monic.degree
    js = [j for j in range(N) if not monic.coeffs[j].is_zero()]
    jstar = max(js)
    pivot = monic.coeffs[jstar]
    inv = []
    for j in range(N):
        c = monic.coeffs[j]
        inv.append((c ** (N - jstar)) / (pivot ** (N - j)))
    return (N, jstar, tuple((v.re, v.im) for v in inv))


def canonical_key(dev: DevMap, n: int):
    """Isomorphism-class key of an admissible map.

    Normalizes the chart by the swap dictionary, recognizes the three
    constant shapes, and tags each nonconstant family by its slot with
    the scale-normalized root polynomial.
    """
    work = dev
    if (work.k1, work.l1) == (-1, -n):
        work = work.hat()
    if (work.k1, work.l1) == (0, 1) and work.tilde_exponents() == (1, 0):
        work = work.hat()
    d1, dq, d3 = work.degrees
    if d1 == dq == d3 == 0:
        for cand in (work, work.hat()):
            sig = (cand.k1, cand.l1, cand.k2, cand.l2)
            if sig == (1, 0, -1, -n):
                return ("radial",)
            if sig == (1, 0, 0, 1):
                return ("eigen", 1)
            if sig == (0, 1, 1, 0):
                return ("eigen", 2)
        raise ClassifyError("unrecognized constant map %r" % (dev,))
    slot = ((work.k1, work.l1), work.tilde_exponents())
    if slot == ((0, 1), (-1, -n)):
        return ("hyper", "m2=n*m1", _poly_scale_invariants(work.P1))
    if slot == ((1, 0), (-1, -n)):
        return ("hyper", "m1=m2", _poly_scale_invariants(work.P2))
    if slot == ((1, 0), (0, 1)):
        return ("hyper", "m1=n*m2", _poly_scale_invariants(work.Q1))
    raise ClassifyError("admissible map in unexpected slot %r" % (slot,))


def brute_force_admissible(s: HopfSurface, n: int, deg_bound: int = 2):
    """Every map `is_admissible` accepts with bounded degrees, modulo declared isomorphisms.

    Enumerates every pair of allowed exponent slots and every degree
    pattern up to deg_bound, with roots instantiated at fixed generic
    pool values, and keeps one accepted map per canonical key.

    Admissibility has one gate, plus an integer prefilter that is a
    necessary condition: the gate's clauses depend only on the
    exponents, the degrees, (m1, m2) and n, so each candidate is decided
    on integers first (`_clause_verdict`), with (k2, l2) formed once per
    slot pair (k2~, l2~) and pattern.  Only a candidate that passes gets
    its pattern's pool polynomials, built once per pattern and kept for
    the call, and a `DevMap` for the gate to judge.
    """
    if s.kind != "diagonal":
        raise ClassifyError("the brute-force oracle runs on diagonal surfaces")
    hyper = s.hyperresonance()
    m1, m2 = hyper or (1, 1)
    slots = exponent_list(n)
    roots = DEFAULT_ROOT_POOL
    degree_patterns = [(0, 0, 0)]
    if hyper is not None:
        degree_patterns = [
            p for p in product(range(deg_bound + 1), repeat=3) if sum(p) <= len(roots)
        ]
    # (degrees, (k2, l2)) for each slot pair (k2~, l2~) and pattern, in loop order
    z2_slots = [
        (degrees, z2_exponents(kt2, lt2, degrees, hyper, n))
        for (kt2, lt2) in slots
        for degrees in degree_patterns
    ]
    pooled = {}  # degree pattern -> (P1, Q1, P2)
    found = {}
    for (k1, l1) in slots:
        for degrees, (k2, l2) in z2_slots:
            constants = exponent_constants(k1, k2, l1, l2, m1, m2, n)
            if not _clause_verdict(*constants, degrees):
                continue
            if degrees not in pooled:
                pooled[degrees] = _pool_polys(roots, degrees)
            d = DevMap(k1, k2, l1, l2, *pooled[degrees], hyper, n)
            if is_admissible(d):
                found.setdefault(canonical_key(d, n), d)
    return [found[k] for k in sorted(found, key=repr)]


def _pool_polys(roots, degrees):
    """(P1, Q1, P2) with degrees (d1, dq, d3) on consecutive pool roots."""
    d1, dq, d3 = degrees
    cuts = (0, d1, d1 + dq, d1 + dq + d3)
    return tuple(UniPoly.from_roots(roots[a:b]) for a, b in zip(cuts, cuts[1:]))


# ---------------------------------------------------------------------------
# the case table
#
# Two identities put the table in closed form.  Only one of P1, Q1, P2
# can be nonconstant: if two of A, B, C vanish so does the third
# (C = n B - A), and A = B = 0 gives D = k1 l2 - l1 k2 = 0.  With one
# nonconstant polynomial of degree t, its clause expression (A for P1,
# C for Q1, B for P2) has no term in t, so the clause is one constant
# that must vanish; and D~ = D + A d1 - B d3 + C dq = D, which is affine
# in t, so the only excluded degree is the positive-integer root of D(t).


# Each clause constant is an integer coefficient tuple over the monomials
# (m1, m2, n*m1, n*m2), in that order: the alphabetical order in which
# `_relation` lists its terms.
_MONOMIALS = ("m1", "m2", "n*m1", "n*m2")

# the free polynomials in table order, each with the index of its clause
# expression in `exponent_constants`' (A, B, C, D)
_POLYS = {"P1": 0, "Q1": 2, "P2": 1}


def _constants(combo, poly, t, n, m1, m2):
    """The gate's (A, B, C, D) at (n, m1, m2) for the combination's map whose
    polynomial poly has degree t and the other two degree 0."""
    k1, l1, kt2, lt2 = (-n if v == "minus_n" else v for v in combo)
    k2, l2 = z2_exponents(kt2, lt2, [t if p == poly else 0 for p in _POLYS], (m1, m2), n)
    return exponent_constants(k1, k2, l1, l2, m1, m2, n)


def _clause_coefficients(combo, poly):
    """The clause constant of poly over the monomials (m1, m2, n*m1, n*m2).

    It is linear in them, so its values at (n, m1, m2) = (0, 1, 0),
    (0, 0, 1), (1, 1, 0) and (1, 0, 1) give the coefficients.
    """
    points = ((0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1))
    c1, c2, c3, c4 = (_constants(combo, poly, 0, *p)[_POLYS[poly]] for p in points)
    return (c1, c2, c3 - c1, c4 - c2)


def _sign_definite(c) -> bool:
    """Whether c is nonzero with every coefficient of one sign, so that it
    vanishes for no positive n, m1, m2."""
    return len({v > 0 for v in c if v}) == 1


def _relation(c):
    """The relation c = 0 as "positive terms == negative terms", or None for c = 0."""
    if not any(c):
        return None

    def side(sign):
        terms = [(v * sign, name) for v, name in zip(c, _MONOMIALS) if v * sign > 0]
        return " + ".join(name if v == 1 else "%d*%s" % (v, name) for v, name in terms) or "0"

    return "%s == %s" % (side(1), side(-1))


@dataclass
class CaseRow:
    combo: tuple  # (k1, l1, kt2_desc, lt2_desc)
    feasible: bool
    impossible: bool
    degrees: dict = field(default_factory=dict)
    relation: str = None
    conditions: tuple = ()
    reason: str = None

    def to_record(self):
        return {
            "k1": self.combo[0],
            "l1": self.combo[1],
            "kt2": self.combo[2],
            "lt2": self.combo[3],
            "feasible": self.feasible,
            "impossible": self.impossible,
            "degrees": self.degrees,
            "relation": self.relation,
            "conditions": list(self.conditions),
            "reason": self.reason,
        }


_COMBOS = (
    (0, 1, -1, "minus_n"),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (1, 0, -1, "minus_n"),
    (1, 0, 0, 1),
    (1, 0, 1, 0),
)


def reproduce_case_table(n: int, m1: int, m2: int):
    """Derive the feasible degree pattern for each exponent-slot combination.

    Each feasible row has one nonconstant polynomial, the first of P1,
    Q1, P2 whose clause constant vanishes and whose D(t) is not
    identically 0; its degree t >= 1 excludes only the positive-integer
    root of D(t).  A clause constant with sign-definite symbolic content
    is a structural failure, one that merely fails at (n, m1, m2) a
    relation failure; combinations with no feasible polynomial and no
    relation failure are marked impossible.
    """
    if n < 1 or m1 < 1 or m2 < 1:
        raise ClassifyError("n, m1, m2 must be positive")
    rows = []
    for combo in _COMBOS:
        row, relational_failure = None, False
        for poly, i in _POLYS.items():
            clause = _clause_coefficients(combo, poly)
            if _sign_definite(clause):
                continue
            at0 = _constants(combo, poly, 0, n, m1, m2)
            if at0[i]:
                relational_failure = True
                continue
            # D is affine in the degree t: D(t) = d0 + slope * t
            d0, slope = at0[3], _constants(combo, poly, 1, n, m1, m2)[3] - at0[3]
            if not (d0 or slope):
                continue
            excluded = []
            if slope:
                root, rem = divmod(-d0, slope)
                if not rem and root >= 1:
                    excluded = [root]
            row = CaseRow(
                combo=combo,
                feasible=True,
                impossible=False,
                degrees={
                    p: {"min": 1, "excluded": excluded} if p == poly else 0
                    for p in _POLYS
                },
                relation=_relation(clause),
                conditions=tuple("deg %s != %d" % (poly, b) for b in excluded),
            )
            break
        if row is None:
            row = CaseRow(
                combo=combo,
                feasible=False,
                impossible=not relational_failure,
                reason=(
                    "no degree pattern satisfies the A,B,C,D constraints"
                    if not relational_failure
                    else "requires a hyperresonance relation that fails here"
                ),
            )
        rows.append(row)
    return rows
