"""Enumeration of O(n)-structures on a Hopf surface, with oracles.

The named families are

  * radial (linear surfaces):       (z1/z2, 1/z2^n),      holonomy (F, 0)
  * eigenstructures (two per diagonal surface):  (z1, z2) and (z2, z1)
    with diagonal holonomy built from an n-th root of the complementary
    eigenvalue
  * exceptional eigenstructure (n >= m):  identity map with the Jordan-type
    holonomy whose polynomial part is Z1^m Z2^(n-m)/lam^m
  * hyperresonant families, present exactly when the minimal pair
    (m1, m2) satisfies m2 = n m1 (root factors in the first slot),
    m1 = m2 (factors in the fiber slot, excluded when m1 N = n), or
    m1 = n m2 (factors in the common denominator).

`brute_force_admissible` enumerates every semiadmissible exponent and
degree pattern with roots drawn from a fixed generic pool, filters by
the exact admissibility certificate, and collapses the survivors
modulo the declared isomorphisms (chart swap, axis rescalings,
diagonal conjugation); `enumerate_structures` must reproduce it row
for row.  `reproduce_case_table` re-derives the feasible degree
patterns for every exponent-slot combination directly from the
A, B, C, D relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .devmaps import (
    DevMap,
    UniPoly,
    _shape_verdict,
    _slot_verdict,
    _unbranched_verdict,
    exponent_list,
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
        g = self.hol.g
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


def _radial_record(s: HopfSurface, n: int) -> StructureRecord:
    basis = s.basis
    if s.kind == "diagonal":
        g = Mat2.diag(s.l1, s.l2)
    else:
        lam = s.lam
        g = Mat2(basis, ((lam, basis.zero()), (basis.one(), lam)))
    return StructureRecord(
        kind="radial",
        dev=DevMap.radial(n, hyper=s.hyperresonance()),
        hol=GroupElt.of_matrix(g, n),
        complete=False,
        essential=False,
        provenance="radial structure on a linear surface",
    )


def _eigen_record(s: HopfSurface, n: int, axis: int) -> StructureRecord:
    basis = s.basis
    if axis == 1:
        e_main, e_other = s.l1, s.l2
        dev = DevMap.identity(n, hyper=s.hyperresonance())
    else:
        e_main, e_other = s.l2, s.l1
        dev = DevMap.swapped_identity(n, hyper=s.hyperresonance())
    root = e_other ** Fraction(1, n)
    g = Mat2.diag(e_main * root.inverse(), root.inverse())
    return StructureRecord(
        kind="eigen",
        dev=dev,
        hol=GroupElt.of_matrix(g, n),
        complete=False,
        essential=True,
        provenance="eigenstructure along axis %d" % axis,
        axis=axis,
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


def _hyper_case12(s, n, params) -> StructureRecord:
    m1, m2 = s.hyperresonance()
    N = len(params)
    dev = DevMap(
        0,
        N * m2 - 1,
        1,
        -n,
        UniPoly.from_roots(params),
        UniPoly([1]),
        UniPoly([1]),
        (m1, m2),
        n,
    )
    root = s.l1 ** Fraction(1, n)
    g = Mat2.diag(s.l1 ** (m1 * N) * root.inverse(), s.l2 * root.inverse())
    case = 1 if N == 1 else 2
    return StructureRecord(
        kind="hyperresonant",
        dev=dev,
        hol=GroupElt.of_matrix(g, n),
        complete=False,
        essential=False,
        provenance="hyperresonant family, m2 = n m1, %d root factor(s)" % N,
        case=case,
        params=tuple(params),
        swap_partner_case=4 if N == 1 else 5,
    )


def _hyper_case3(s, n, params) -> StructureRecord:
    m1, m2 = s.hyperresonance()
    N = len(params)
    dev = DevMap(
        1,
        -1,
        0,
        N * m2 - n,
        UniPoly([1]),
        UniPoly([1]),
        UniPoly.from_roots(params),
        (m1, m2),
        n,
    )
    shift = s.l2 ** Fraction(m2 * N, n)
    g = Mat2.diag(s.l1 * shift.inverse(), s.l2 * shift.inverse())
    return StructureRecord(
        kind="hyperresonant",
        dev=dev,
        hol=GroupElt.of_matrix(g, n),
        complete=False,
        essential=False,
        provenance="hyperresonant family, m1 = m2, %d root factor(s)" % N,
        case=3,
        params=tuple(params),
    )


def _hyper_case45(s, n, params) -> StructureRecord:
    m1, m2 = s.hyperresonance()
    N = len(params)
    dev = DevMap(
        1,
        -N * m2,
        0,
        1 - n * N * m2,
        UniPoly([1]),
        UniPoly.from_roots(params),
        UniPoly([1]),
        (m1, m2),
        n,
    )
    root = s.l2 ** Fraction(1, n)
    g = Mat2.diag(s.l1 * root.inverse(), s.l1 ** (m1 * N) * root.inverse())
    case = 4 if N == 1 else 5
    return StructureRecord(
        kind="hyperresonant",
        dev=dev,
        hol=GroupElt.of_matrix(g, n),
        complete=False,
        essential=False,
        provenance="hyperresonant family, m1 = n m2, %d root factor(s)" % N,
        case=case,
        params=tuple(params),
        swap_partner_case=1 if N == 1 else 2,
    )


def _check_params(params):
    vals = [as_gauss(p) for p in params]
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
    records.append(_eigen_record(s, n, 1))
    records.append(_eigen_record(s, n, 2))
    pair = s.hyperresonance()
    if pair is None or not hyper_params:
        return records
    m1, m2 = pair
    for params in hyper_params:
        vals = _check_params(params)
        N = len(vals)
        if m2 == n * m1 and (N >= 2 or m1 >= 2 or n >= 2):
            records.append(_hyper_case12(s, n, vals))
        if m1 == m2 and m1 * N != n:
            records.append(_hyper_case3(s, n, vals))
        if m1 == n * m2 and (N >= 2 or m2 >= 2 or n >= 2):
            records.append(_hyper_case45(s, n, vals))
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
    if hyper is None:
        degree_patterns = [(0, 0, 0)]
        m2 = 0
    else:
        m2 = hyper[1]
        degree_patterns = [
            (a, b, c)
            for a in range(deg_bound + 1)
            for b in range(deg_bound + 1)
            for c in range(deg_bound + 1)
        ]
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
            shaped.append((d1, dq, d3, P1, Q1, P2))
    found = {}
    for (k1, l1) in slots:
        for (kt2, lt2) in slots:
            for (d1, dq, d3, P1, Q1, P2) in shaped:
                k2 = kt2 + (m2 * (d1 - dq) if hyper else 0)
                l2 = lt2 + (m2 * (d3 - n * dq) if hyper else 0)
                d = DevMap(k1, k2, l1, l2, P1, Q1, P2, hyper, n)
                if not (_slot_verdict(d) and _unbranched_verdict(d)):
                    continue
                key = canonical_key(d, n)
                found.setdefault(key, d)
    return [found[k] for k in sorted(found, key=repr)]


# ---------------------------------------------------------------------------
# the case table


_SLOT_SYMBOL = {-1: (-1, 0), 0: (0, 0), 1: (1, 0), "minus_n": (0, -1)}
_MONOMIALS = ("1", "n", "m1", "n*m1", "m2", "n*m2", "m1*m2", "n*m1*m2")


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

    def scale(self, c):
        return _Sym({k: c * v for k, v in self.items() if c * v})

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


@dataclass
class _Affine:
    """const + sum(coeff_v * degree_v) with symbolic coefficients."""

    const: _Sym
    coeffs: dict  # var -> _Sym

    def value(self, n, m1, m2, degs):
        total = Fraction(self.const.value(n, m1, m2))
        for var, sym in self.coeffs.items():
            total += Fraction(sym.value(n, m1, m2)) * degs.get(var, 0)
        return total


def _combo_exprs(k1, l1, kt2, lt2):
    """A, B, C, D as affine expressions in the degrees, symbolic in n, m1, m2."""
    m1m2 = _Sym({"m1*m2": 1})
    n_m1m2 = _Sym({"n*m1*m2": 1})
    # l2 = lt2 + m2 (d3 - n d2); k2 = kt2 + m2 (d1 - d2)
    A = _Affine(
        _slot_sym(lt2, "m1") + _slot_sym(l1, "m2"),
        {"d3": m1m2, "d2": -n_m1m2},
    )
    B = _Affine(
        _slot_sym(kt2, "m1") + _slot_sym(k1, "m2"),
        {"d1": m1m2, "d2": -m1m2},
    )
    C = _Affine(
        _sym_times_n(B.const) - A.const,
        {
            "d1": _sym_times_n(B.coeffs["d1"]),
            "d2": _sym_times_n(B.coeffs["d2"]) - A.coeffs["d2"],
            "d3": -A.coeffs["d3"],
        },
    )
    # D = k1 (lt2 + m2 (d3 - n d2)) - l1 (kt2 + m2 (d1 - d2))
    d_const = _slot_sym(lt2, "1").scale(k1) + _slot_sym(kt2, "1").scale(-l1)
    d_coeffs = {}
    if k1:
        d_coeffs["d3"] = _Sym({"m2": k1})
        d_coeffs["d2"] = _Sym({"n*m2": -k1})
    if l1:
        d_coeffs["d1"] = d_coeffs.get("d1", _Sym()) + _Sym({"m2": -l1})
        d_coeffs["d2"] = d_coeffs.get("d2", _Sym()) + _Sym({"m2": l1})
    D = _Affine(d_const, d_coeffs)
    return A, B, C, D


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

_COEFF_OF = {"d1": "A", "d2": "C", "d3": "B"}
_POLY_OF = {"d1": "P1", "d2": "Q1", "d3": "P2"}


def reproduce_case_table(n: int, m1: int, m2: int):
    """Derive the feasible degree patterns for each exponent-slot combination.

    For every subset of {P1, Q1, P2} declared nonconstant, the
    admissibility clauses force the matching constants among A, B, C
    to vanish; the resulting linear system in the degrees is solved
    exactly, positivity and integrality are checked, and the
    unbranchedness conditions D != 0, D~ != 0 cut out excluded degree
    values.  Combinations where every subset collapses are marked
    impossible.
    """
    if n < 1 or m1 < 1 or m2 < 1:
        raise ClassifyError("n, m1, m2 must be positive")
    rows = []
    for combo in _COMBOS:
        k1, l1, kt2, lt2 = combo
        A, B, C, D = _combo_exprs(k1, l1, kt2, lt2)
        exprs = {"A": A, "B": B, "C": C}
        outcomes = []
        relational_failure = False
        for subset in _nonempty_subsets(("d1", "d2", "d3")):
            res = _analyze_subset(exprs, D, subset, n, m1, m2, combo)
            if res.get("feasible"):
                outcomes.append(res)
            elif res.get("relational"):
                relational_failure = True
        if outcomes:
            best = outcomes[0]
            rows.append(
                CaseRow(
                    combo=combo,
                    feasible=True,
                    impossible=False,
                    degrees=best["degrees"],
                    relation=best.get("relation"),
                    conditions=tuple(best.get("conditions", ())),
                )
            )
        else:
            rows.append(
                CaseRow(
                    combo=combo,
                    feasible=False,
                    impossible=not relational_failure,
                    reason=(
                        "no degree pattern satisfies the A,B,C,D constraints"
                        if not relational_failure
                        else "requires a hyperresonance relation that fails here"
                    ),
                )
            )
    return rows


def _nonempty_subsets(vars_):
    out = []
    for mask in range(1, 8):
        out.append(tuple(v for i, v in enumerate(vars_) if mask >> i & 1))
    return out


_WINDOW = 12


def _analyze_subset(exprs, D, subset, n, m1, m2, combo):
    """Solve the vanishing constraints for one nonconstant-polynomial subset.

    Constant equations with sign-definite symbolic content are
    structural failures; constant equations that merely fail at the
    given (n, m1, m2) are relation failures.  Degree families are
    validated over the window 1..12 (the unbranchedness constants are
    affine in the degrees, so a single excluded value per free degree
    is the generic outcome).
    """
    equations = []
    relation = None
    for var in subset:
        expr = exprs[_COEFF_OF[var]]
        coeffs = {}
        for v in subset:
            c = expr.coeffs.get(v)
            if c is not None:
                cv = Fraction(c.value(n, m1, m2))
                if cv:
                    coeffs[v] = cv
        const = Fraction(expr.const.value(n, m1, m2))
        if not coeffs:
            sym = expr.const
            if sym.always_positive() or sym.always_negative():
                return {"feasible": False, "relational": False}
            if const != 0:
                return {"feasible": False, "relational": True}
            relation = sym.render() if sym else None
            continue
        equations.append((coeffs, const))
    basis_rows = _row_reduce(equations, subset)
    if basis_rows is None:
        return {"feasible": False, "relational": False}
    pivots, rows, free = basis_rows

    def degrees_for(assign):
        degs = {v: Fraction(assign.get(v, 0)) for v in ("d1", "d2", "d3")}
        for v, row in pivots.items():
            val = -row[-1]
            for f in free:
                val -= row[_VAR_INDEX[f]] * degs[f]
            val /= row[_VAR_INDEX[v]]
            degs[v] = val
        return degs

    def admissible_point(degs):
        for v in subset:
            if degs[v].denominator != 1 or degs[v] < 1:
                return False
        dt = _tilde_D_value(exprs, D, n, m1, m2, degs)
        return D.value(n, m1, m2, degs) != 0 and dt != 0

    if not free:
        degs = degrees_for({})
        if not admissible_point(degs):
            return {"feasible": False, "relational": False}
        degrees_out = {
            _POLY_OF[v]: int(degs[v]) if v in subset else 0 for v in ("d1", "d2", "d3")
        }
        out = {"feasible": True, "degrees": degrees_out, "conditions": []}
        if relation:
            out["relation"] = relation
        return out

    if len(free) > 1:
        grids = [
            {free[0]: a, free[1]: b} for a in range(1, 7) for b in range(1, 7)
        ]
    else:
        grids = [{free[0]: t} for t in range(1, _WINDOW + 1)]
    good, bad = [], []
    for assign in grids:
        degs = degrees_for(assign)
        integral = all(
            degs[v].denominator == 1 and degs[v] >= 1 for v in subset
        )
        if not integral:
            bad.append(None)
            continue
        if admissible_point(degs):
            good.append(assign)
        else:
            bad.append(assign)
    if not good:
        return {"feasible": False, "relational": False}
    conditions = []
    degrees_out = {}
    excluded = {}
    for f in free:
        vals = sorted({a[f] for a in good})
        missing = [t for t in range(1, max(vals) + 1) if t not in vals]
        excluded[f] = missing
    sample = degrees_for(good[0])
    for v in ("d1", "d2", "d3"):
        poly = _POLY_OF[v]
        if v in free:
            degrees_out[poly] = {"min": 1, "excluded": excluded[v]}
            for b in excluded[v]:
                conditions.append("deg %s != %d" % (poly, b))
        elif v in subset:
            if v in pivots and any(pivots[v][_VAR_INDEX[f]] for f in free):
                degrees_out[poly] = {"determined_by": [ _POLY_OF[f] for f in free]}
            else:
                degrees_out[poly] = int(sample[v])
        else:
            degrees_out[poly] = 0
    out = {"feasible": True, "degrees": degrees_out, "conditions": conditions}
    if relation:
        out["relation"] = relation
    return out


_VAR_INDEX = {"d1": 0, "d2": 1, "d3": 2}


def _row_reduce(equations, subset):
    """Gaussian elimination; returns (pivot rows by variable, rows, free vars)."""
    rows = []
    for coeffs, const in equations:
        rows.append(
            [coeffs.get("d1", Fraction(0)), coeffs.get("d2", Fraction(0)),
             coeffs.get("d3", Fraction(0)), const]
        )
    pivots = {}
    r = 0
    order = [v for v in ("d1", "d2", "d3") if v in subset]
    for v in order:
        ci = _VAR_INDEX[v]
        piv = next((ri for ri in range(r, len(rows)) if rows[ri][ci] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for ri in range(len(rows)):
            if ri != r and rows[ri][ci] != 0:
                f = rows[ri][ci] / rows[r][ci]
                rows[ri] = [a - f * b for a, b in zip(rows[ri], rows[r])]
        pivots[v] = rows[r]
        r += 1
    for ri in range(r, len(rows)):
        if all(c == 0 for c in rows[ri][:3]) and rows[ri][3] != 0:
            return None
    free = [v for v in order if v not in pivots]
    return pivots, rows, free


def _tilde_D_value(exprs, D, n, m1, m2, degs):
    a = exprs["A"].value(n, m1, m2, degs)
    b = exprs["B"].value(n, m1, m2, degs)
    d = D.value(n, m1, m2, degs)
    return d + a * (degs["d1"] - degs["d2"]) - b * (degs["d3"] - n * degs["d2"])
