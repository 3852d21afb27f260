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

`brute_force_admissible` enumerates every semiadmissible exponent and
degree pattern with roots drawn from a fixed generic pool, filters by
the exact admissibility certificate, and collapses the survivors
modulo the declared isomorphisms (chart swap, axis rescalings,
diagonal conjugation); `enumerate_structures` must reproduce it row
for row.  `reproduce_case_table` derives the feasible degree pattern
for every exponent-slot combination in closed form from the A, B, C,
D relations: one free polynomial per feasible row, whose only
excluded degree is the positive-integer root of D.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .devmaps import (
    DevMap,
    UniPoly,
    _shape_verdict,
    _unbranched_verdict,
    exponent_list,
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

    A family is present when its map passes the unbranchedness clauses
    of the certificate: the clause of the polynomial that carries the
    roots vanishes exactly under the family's relation, and D != 0 is
    the family's side condition.
    """
    hyper = s.hyperresonance()
    N = len(vals)
    for relation, root_slot, slots, cases, partners in _HYPER_FAMILIES:
        polys = [UniPoly([1])] * 3
        polys[root_slot] = UniPoly.from_roots(vals)
        k1, l1, kt2, lt2 = slots(n)
        k2, l2 = z2_exponents(kt2, lt2, [p.degree for p in polys], hyper, n)
        dev = DevMap(k1, k2, l1, l2, *polys, hyper, n)
        if not _unbranched_verdict(dev):
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


def brute_force_admissible(
    s: HopfSurface, n: int, deg_bound: int = 2, root_pool=DEFAULT_ROOT_POOL
):
    """All admissible maps with bounded degrees, modulo declared isomorphisms.

    Enumerates every pair of allowed exponent slots and every degree
    pattern up to deg_bound, with roots instantiated at fixed generic
    pool values, filters by the exact admissibility certificate, and
    keeps one representative per canonical key.
    """
    if s.kind != "diagonal":
        raise ClassifyError("the brute-force oracle runs on diagonal surfaces")
    hyper = s.hyperresonance()
    slots = exponent_list(n)
    degree_patterns = [(0, 0, 0)]
    if hyper is not None:
        degree_patterns = product(range(deg_bound + 1), repeat=3)
    # the polynomials and their shape verdict depend on the degree pattern only
    roots = list(root_pool)
    shaped = []
    for (d1, dq, d3) in degree_patterns:
        if d1 + dq + d3 > len(roots):
            continue
        P1 = UniPoly.from_roots(roots[:d1])
        Q1 = UniPoly.from_roots(roots[d1 : d1 + dq])
        P2 = UniPoly.from_roots(roots[d1 + dq : d1 + dq + d3])
        if _shape_verdict(P1, Q1, P2):
            shaped.append(((d1, dq, d3), P1, Q1, P2))
    found = {}
    for (k1, l1) in slots:
        for (kt2, lt2) in slots:
            for (degrees, P1, Q1, P2) in shaped:
                k2, l2 = z2_exponents(kt2, lt2, degrees, hyper, n)
                d = DevMap(k1, k2, l1, l2, P1, Q1, P2, hyper, n)
                # the slots are allowed by construction, so only the
                # unbranchedness clauses remain
                if not _unbranched_verdict(d):
                    continue
                key = canonical_key(d, n)
                found.setdefault(key, d)
    return [found[k] for k in sorted(found, key=repr)]


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


class _Sym(dict):
    """Integer combination of the monomials 1, n, m1, n m1, m2, ..."""

    def __add__(self, other):
        out = _Sym(self)
        for k, v in other.items():
            out[k] = out.get(k, 0) + v
        return _Sym({k: v for k, v in out.items() if v})

    def __neg__(self):
        return _Sym({k: -v for k, v in self.items()})

    def __sub__(self, other):
        return self + (-other)

    def value(self, n, m1, m2):
        vals = {
            "1": 1,
            "n": n,
            "m1": m1,
            "n*m1": n * m1,
            "m2": m2,
            "n*m2": n * m2,
            "m1*m2": m1 * m2,
            "n*m1*m2": n * m1 * m2,
        }
        return sum(v * vals[k] for k, v in self.items())

    def always_positive(self):
        return self and all(v > 0 for v in self.values())

    def always_negative(self):
        return self and all(v < 0 for v in self.values())

    def render(self):
        pos = [(k, v) for k, v in sorted(self.items()) if v > 0]
        neg = [(k, -v) for k, v in sorted(self.items()) if v < 0]

        def side(terms):
            if not terms:
                return "0"
            return " + ".join(("%d*%s" % (v, k)) if v != 1 else k for k, v in terms)

        return "%s == %s" % (side(pos), side(neg))


def _sym_times_n(s: _Sym) -> _Sym:
    lift = {"1": "n", "m1": "n*m1", "m2": "n*m2", "m1*m2": "n*m1*m2"}
    out = _Sym()
    for k, v in s.items():
        if k not in lift:
            raise ClassifyError("cannot multiply %s by n symbolically" % k)
        out[lift[k]] = v
    return out


def _slot_sym(v, base: str) -> _Sym:
    """v in {-1, 0, 1, 'minus_n'} times the monomial base ('1', 'm1' or 'm2')."""
    if v == "minus_n":
        return _Sym({("n" if base == "1" else "n*%s" % base): -1})
    return _Sym({base: v}) if v else _Sym()


def _clause_constants(k1, l1, kt2, lt2):
    """The clause constant of each polynomial at degree 0, symbolic in n, m1, m2.

    A = m1 l2 + l1 m2 for P1, B = m1 k2 + k1 m2 for P2 and C = n B - A
    for Q1, with k2 = k2~ and l2 = l2~ when every degree is 0.
    """
    A = _slot_sym(lt2, "m1") + _slot_sym(l1, "m2")
    B = _slot_sym(kt2, "m1") + _slot_sym(k1, "m2")
    return {"P1": A, "Q1": _sym_times_n(B) - A, "P2": B}


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

# the free polynomials in table order
_POLYS = ("P1", "Q1", "P2")


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
    # (k2, l2) gained per unit degree: k2 = k2~ + m2 (d1 - dq), l2 = l2~ + m2 (d3 - n dq)
    step = {"P1": (m2, 0), "Q1": (-m2, -n * m2), "P2": (0, m2)}
    rows = []
    for combo in _COMBOS:
        k1, l1, kt2, lt2 = (-n if v == "minus_n" else v for v in combo)
        clauses = _clause_constants(*combo)
        row = None
        relational_failure = False
        for poly in _POLYS:
            sym = clauses[poly]
            if sym.always_positive() or sym.always_negative():
                continue
            if sym.value(n, m1, m2):
                relational_failure = True
                continue
            # D(t) = k1 l2 - l1 k2 = d0 + slope * t
            dk, dl = step[poly]
            d0 = k1 * lt2 - l1 * kt2
            slope = k1 * dl - l1 * dk
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
                relation=sym.render() if sym else None,
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
