"""Verification: equivariance, immersion, and the group axioms.

Structures are checked on a shell of C^2 minus the origin sized like a
fundamental domain of the contraction, so residuals stay conditioned.
The equivariance residual compares dev(F(z)) with hol . dev(z) using
the chordal metric on the base direction and, after aligning charts,
the fiber difference |a - b| / max(1, |a|, |b|): absolute for fibers
of modulus up to 1 and relative beyond, so that rounding near a pole
of the holonomy, where the fibers grow large, does not fail a correct
map.  Immersion checks evaluate the exact Jacobian factorization at
the samples (including points on the coordinate axes) and cross-check
against central finite differences.  Each sample evaluates the map once with `eval_devmap`,
and its four stencil points with one `eval_stencil_t` call; both read
the map's numeric plan, in which constant polynomials and the chart-T
denominators are folded, by the same float operations as a term-by-term
evaluation, so every printed value is unchanged by the folding.  A NaN
or infinite residual, determinant or difference fails its check: NaN
compares false both ways, so max() or a bare threshold test would let
it pass.

The group axioms of G for degree n are checked in two parts, and the
record depends on n alone.  First an exact proof: associativity,
identity and inverse, and the action law act(xy) = act(x) act(y) on
homogeneous points of O(n), hold as polynomial identities in the
entries, and Kronecker substitution (Kronecker, J. reine angew. Math.
92, 1882) decides each on generic elements with one exact evaluation,
one triple or pair per code path of compose, inverse and
precomposition.  Then the float action `act_affine` is compared with
the exact action at fixed points that reach each of its code paths.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field

from .devmaps import DevMap, EvalError, det_jacobian, eval_devmap, eval_stencil_t
from .group import (
    AffinePoint,
    GroupElt,
    HomogPoly,
    Mat2,
    act_affine,
    chordal,
    compose,
    inverse,
)
from .hopf import HopfSurface
from .scalars import EigenBasis, GaussRat, Scalar, sum_of_products


@dataclass(frozen=True)
class VerifyConfig:
    samples: int = 200
    tol_equiv: float = 1e-9
    tol_jac: float = 1e-5
    seed: int = 0
    annulus: tuple = None  # (r_min, r_max); default from the surface

    def resolve_annulus(self, s: HopfSurface = None):
        if self.annulus is not None:
            r0, r1 = self.annulus
        elif s is not None:
            r0 = min(abs(w) for w in s.basis.witness)
            r1 = 1.0
        else:
            r0, r1 = 0.5, 1.0
        if not (0 < r0 < r1 < math.inf):
            raise ValueError("annulus must satisfy 0 < r_min < r_max < infinity")
        return (r0, r1)


@dataclass
class VerifyReport:
    name: str
    passed: bool
    max_equivariance_residual: float = None
    min_jacobian_magnitude: float = None
    max_fd_mismatch: float = None
    checks: dict = field(default_factory=dict)
    failing_samples: list = field(default_factory=list)

    def to_record(self):
        rec = {"check": self.name, "passed": self.passed, "detail": dict(self.checks)}
        for key in ("max_equivariance_residual", "min_jacobian_magnitude", "max_fd_mismatch"):
            value = getattr(self, key)
            if value is not None:
                # JSON has no NaN or infinity: a non-finite value is written as null
                rec[key] = value if math.isfinite(value) else None
        if self.failing_samples:
            rec["failing_samples"] = [
                [[z[0].real, z[0].imag], [z[1].real, z[1].imag]]
                for z in self.failing_samples[:5]
            ]
        return rec


_TWO_PI_J = 2j * math.pi
_INF = complex("inf")


def _sample_annulus(rng, lo, hi):
    """A point whose coordinates have log-modulus uniform in [lo, hi) and a
    uniform argument: per coordinate, rng.uniform(lo, hi) (inlined) and
    then rng.random()."""
    rand = rng.random
    span = hi - lo
    w1 = math.exp(lo + span * rand()) * cmath.exp(_TWO_PI_J * rand())
    return (w1, math.exp(lo + span * rand()) * cmath.exp(_TWO_PI_J * rand()))


def point_residual(p: AffinePoint, q: AffinePoint, n: int, fiber: str = "abs") -> float:
    """Chordal distance of base directions plus a fiber difference.

    The fiber components a, b are compared after aligning charts, by
    the scaled absolute difference |a - b| / max(1, |a|, |b|) (the
    equivariance and action checks) or chordally, for values that
    random denominators can make unbounded.  The scaling keeps rounding
    from failing a correct map where the fibers are large, as near a
    pole of the holonomy, where c t1 + d is near 0 and the fibers reach
    1e5 and more; below modulus 1 the difference is the absolute one.
    """
    t1p = p.c1 if p.chart == "T" else (1 / p.c1 if p.c1 != 0 else _INF)
    t1q = q.c1 if q.chart == "T" else (1 / q.c1 if q.c1 != 0 else _INF)
    res = chordal(t1p, t1q)
    try:
        a, b = p.c2, q.in_chart(p.chart, n).c2
    except ZeroDivisionError:
        try:
            a, b = p.in_chart(q.chart, n).c2, q.c2
        except ZeroDivisionError:
            return res + 1.0
    if fiber == "chordal":
        return res + chordal(a, b)
    return res + abs(a - b) / max(1.0, abs(a), abs(b))


def check_equivariance(rec, s: HopfSurface, cfg: VerifyConfig = None) -> VerifyReport:
    """dev(F(z)) = hol . dev(z) at annulus samples, with resampling on zero loci.

    A sample whose residual is not below the tolerance, NaN included,
    fails and is listed.
    """
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed)
    lo, hi = map(math.log, cfg.resolve_annulus(s))
    dev, hol, apply_F = rec.dev, rec.hol, s.apply_F
    n = dev.n
    tol = cfg.tol_equiv
    worst = 0.0
    failing = []
    done = 0
    attempts = 0
    max_attempts = max(20, cfg.samples * 10)
    while done < cfg.samples and attempts < max_attempts:
        attempts += 1
        z = _sample_annulus(rng, lo, hi)
        try:
            lhs = eval_devmap(dev, apply_F(z))
            rhs = act_affine(hol, eval_devmap(dev, z), n)
        except (EvalError, ArithmeticError):
            continue
        res = point_residual(lhs, rhs, n)
        if res > worst or res != res:  # max(), except that a NaN is kept
            worst = res
        if not res < tol:
            failing.append(z)
        done += 1
    if done < cfg.samples:
        return VerifyReport(
            "equivariance",
            False,
            checks={"error": "persistent chart failure; record looks malformed"},
        )
    return VerifyReport(
        "equivariance",
        worst < cfg.tol_equiv,
        max_equivariance_residual=worst,
        checks={"samples": done},
        failing_samples=failing,
    )


def check_immersion(rec, cfg: VerifyConfig = None, s: HopfSurface = None) -> VerifyReport:
    """Nonvanishing exact Jacobian at samples, cross-checked by differences.

    The sample set always contains points on both coordinate axes.  A
    map branched along an axis does not yet always fail there: on a
    hyperresonant surface `DetJacobian.eval_numeric` forms u =
    z1^m1/z2^m2, raises ZeroDivisionError on the z2 = 0 axis, and such
    samples are skipped (ROADMAP item 1(a)).  A sample where the map's
    own float evaluation underflows to a division by 0 or overflows, as
    at extreme radii, is listed as failing.  The exact Jacobian of the
    map in chart S is built only when a sample evaluates there.
    """
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed + 1)
    lo, hi = map(math.log, cfg.resolve_annulus(s))
    dev = rec.dev if hasattr(rec, "dev") else rec
    n = dev.n
    det = det_jacobian(dev)
    det_hat = None  # the chart-S Jacobian, built at the first sample that needs it
    samples = [_sample_annulus(rng, lo, hi) for _ in range(cfg.samples)]
    axis = []
    for _ in range(4):
        w = _sample_annulus(rng, lo, hi)
        axis.append((w[0], 0j))
        axis.append((0j, w[1]))
    min_mag = math.inf
    worst_fd = 0.0
    failing = []
    count = 0
    for i, z in enumerate(samples + axis):
        try:
            pt = eval_devmap(dev, z)
        except EvalError:
            continue
        except (ZeroDivisionError, OverflowError):
            # a power of a coordinate underflowed to 0 or overflowed: the map
            # has no value here, which fails the sample like a non-finite one
            failing.append(z)
            continue
        if pt.chart == "T":
            jac = det
        else:
            if det_hat is None:
                det_hat = det_jacobian(dev.hat())
            jac = det_hat
        try:
            val = jac.eval_numeric(z)
        except ZeroDivisionError:
            val = None
        listed = False
        if val is not None:
            mag = abs(val)
            if mag < min_mag or mag != mag:  # min(), except that a NaN is kept
                min_mag = mag
            if not 1e-12 < mag < math.inf:  # vanishing or non-finite
                failing.append(z)
                listed = True
        if i >= len(samples):
            continue
        # the finite-difference cross-check, annulus samples only
        fd = _fd_det(dev, z, n, pt)
        if fd is None:
            continue
        try:
            sym = val if pt.chart == "T" else det.eval_numeric(z)
        except ZeroDivisionError:
            continue
        if sym is None:  # chart T, where det raised above
            continue
        scale = max(1.0, abs(sym))
        mismatch = abs(sym - fd) / scale
        if mismatch > worst_fd or mismatch != mismatch:  # max(), except that a NaN is kept
            worst_fd = mismatch
        if not listed and not math.isfinite(mismatch):
            failing.append(z)
        count += 1
    passed = min_mag > 1e-12 and worst_fd < cfg.tol_jac and count > 0 and not failing
    return VerifyReport(
        "immersion",
        passed,
        min_jacobian_magnitude=min_mag,
        max_fd_mismatch=worst_fd,
        checks={"fd_samples": count},
        failing_samples=failing,
    )


def _fd_det(dev: DevMap, z, n, pt):
    """Central-difference det of the chart-T map at z, where the map's value
    is pt; None where a stencil point fails or the value is large."""
    z1, z2 = z
    try:
        h1 = 1e-6 * max(abs(z1), 1.0)
        h2 = 1e-6 * max(abs(z2), 1.0)
        (pp1, pp2), (pm1, pm2), (qp1, qp2), (qm1, qm2) = eval_stencil_t(dev, z, h1, h2)
        base = pt.in_chart("T", n)
    except (EvalError, ZeroDivisionError, OverflowError):
        return None
    if max(abs(base.c1), abs(base.c2)) > 1e4:
        return None
    j11 = (pp1 - pm1) / (2 * h1)
    j21 = (pp2 - pm2) / (2 * h1)
    j12 = (qp1 - qm1) / (2 * h2)
    j22 = (qp2 - qm2) / (2 * h2)
    return j11 * j22 - j12 * j21


# The code paths the proof covers, in the order it runs them.
PROOF_BRANCHES = (
    "big_cell",
    "diagonal",
    "p_zero",
    "scalar_multiple",
    "action_big_cell",
    "action_diagonal",
    "action_p_zero",
)


def check_group_axioms(n: int) -> VerifyReport:
    """The group law of G for degree n and its action on O(n): proved, then checked in floats.

    1. `_prove_group_law` proves associativity, identity, inverse and
       the action law exactly, once per call, on generic elements over
       its own basis.
    2. `_check_numeric_action` compares the float `act_affine` with the
       exact action at the fixed points of `_action_cases`, which reach
       each of its code paths.  A residual not below 1e-10, NaN
       included, or an `ArithmeticError` at any point fails the record,
       which then names the failing paths.
    """
    failure = _prove_group_law(n)
    if failure is not None:
        return VerifyReport("group_axioms", False, checks=failure)
    cases = _action_cases(n)
    worst, failure = _check_numeric_action(cases, n)
    checks = {"action_trials": len(cases), "proved": list(PROOF_BRANCHES)}
    checks.update(failure or {})
    return VerifyReport(
        "group_axioms",
        failure is None,
        max_equivariance_residual=worst,
        checks=checks,
    )


def _action_cases(n: int):
    """The fixed cases (path, x, chart, (c1, c2)) of the float action check.

    Exact constant elements over a free basis act on points given in
    chart T as (t1, t2) or in chart S as (s1, s2).  Each of two diagonal
    matrices acts on one point per chart; `act_affine` keeps the chart.
    Each of two general matrices [[a, b], [c, d]] acts on four points:
    t1 = 1/4 + i/2 (chart T to T), the pole t1 = -d/c (T to S),
    s1 = 1/3 - i/4 (S to T) and the pole s1 = -c/d (S to S).  Every
    case runs with p = 0 and with p != 0, so each of the 12 paths of
    `act_affine` is reached twice.  The elements are built on every
    call: `act_affine` keeps an element's float action on it.
    """
    basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))

    def q(re, im=0):
        return basis.gauss(GaussRat(re, im))

    zero = basis.zero()
    diagonals = ((q(2, 1), q("1/2", -1)), (q("-3/4"), q(1, 2)))
    generals = ((q(1), q(2), q(1), q("-1/2")), (q(2, -1), q("1/4"), q(0, 1), q("3/2")))
    t1, s1, fiber = q("1/4", "1/2"), q("1/3", "-1/4"), q(1, "-1/3")
    cases = []
    for tag, coeffs in (
        ("p_zero", [zero] * (n + 1)),
        ("p", [q(k + 1, 1 - k) for k in range(n + 1)]),
    ):
        p = HomogPoly._raw(basis, n, coeffs)
        for a, d in diagonals:
            x = GroupElt(Mat2._raw(basis, ((a, zero), (zero, d)), a * d), p)
            cases.append(("diagonal_T_to_T_" + tag, x, "T", (t1, fiber)))
            cases.append(("diagonal_S_to_S_" + tag, x, "S", (s1, fiber)))
        for a, b, c, d in generals:
            x = GroupElt(Mat2._raw(basis, ((a, b), (c, d)), a * d - b * c), p)
            cases.append(("general_T_to_T_" + tag, x, "T", (t1, fiber)))
            cases.append(("general_T_to_S_" + tag, x, "T", (-d / c, fiber)))
            cases.append(("general_S_to_T_" + tag, x, "S", (s1, fiber)))
            cases.append(("general_S_to_S_" + tag, x, "S", (-c / d, fiber)))
    return cases


def _check_numeric_action(cases, n: int):
    """(worst residual, None or the failure detail) of the float `act_affine`
    against `_act_exact` on the cases, read in the chart `act_affine` chose."""
    worst = 0.0
    paths, error = [], None
    for path, x, chart, (c1, c2) in cases:
        one = x.basis.one()
        try:
            out = act_affine(x, AffinePoint._raw(chart, c1.numeric(), c2.numeric()), n)
            w1, w2, tau = _act_exact(x, (c1, one, c2) if chart == "T" else (one, c1, c2))
            # chart T reads (Z1/Z2, tau/Z2^n), chart S (Z2/Z1, tau/Z1^n)
            top, bottom = (w1, w2) if out.chart == "T" else (w2, w1)
            exact = AffinePoint._raw(
                out.chart, (top / bottom).numeric(), (tau / bottom**n).numeric()
            )
        except ArithmeticError as exc:
            paths.append(path)
            error = error or "%s: %s" % (type(exc).__name__, exc)
            continue
        res = point_residual(out, exact, n)
        if res > worst or res != res:  # max(), except that a NaN is kept
            worst = res
        if not res < 1e-10:
            paths.append(path)
    if not paths:
        return worst, None
    failure = {"failed": "action", "paths": list(dict.fromkeys(paths))}
    if error is not None:
        failure["error"] = error
    return worst, failure


def _act_exact(x: GroupElt, point):
    """x = (g, p) on a homogeneous point (Z1, Z2, tau) of O(n): (gZ, tau + p(gZ)).

    Points are taken up to (Z, tau) ~ (s Z, s^n tau), under which an n-th
    root of unity times g acts as g.  `act_affine` reads this map in
    chart T, (t1, t2) = (Z1/Z2, tau/Z2^n), or chart S, (s1, s2) =
    (Z2/Z1, tau/Z1^n); so (x y).pt = x.(y.pt) is the identity
    act(xy) = act(x) act(y), with p_xy(g_x g_y Z) = p_x(g_x g_y Z) +
    p_y(g_y Z).  p is evaluated at gZ directly, not through
    `HomogPoly.precompose`, so the identity pins precomposition to
    p(MZ): the group laws hold for any right action in its place, such
    as p(M^{-T} Z).
    """
    z1, z2, tau = point
    (a, b), (c, d) = x.g.entries
    w1, w2 = sum_of_products(((a, z1), (b, z2))), sum_of_products(((c, z1), (d, z2)))
    n = x.degree
    one = w1.basis.one()
    pow1, pow2 = [one, w1], [one, w2]  # w^k for k = 0..n, one product each
    for _ in range(n - 1):
        pow1.append(pow1[-1] * w1)
        pow2.append(pow2[-1] * w2)
    terms = [(coeff, pow1[k] * pow2[n - k]) for k, coeff in enumerate(x.p.coeffs) if coeff.terms]
    return (w1, w2, sum_of_products([(tau, one)] + terms))


def _law_failure(x: GroupElt, y: GroupElt, z: GroupElt, e: GroupElt):
    """The first of associativity, identity and inverse that fails on x, y, z, or None."""
    if compose(compose(x, y), z) != compose(x, compose(y, z)):
        return "associativity"
    if compose(x, e) != x or compose(e, x) != x:
        return "identity"
    xi = inverse(x)
    if compose(x, xi) != e or compose(xi, x) != e:
        return "inverse"
    return None


def _kronecker_span(n: int) -> int:
    """The widest exponent window an indeterminate of the proof reaches.

    An indeterminate belongs to one element (g, p).  It enters p
    linearly (window 1) and the entries of g with exponent 0 or 1.  The
    entries of g^{-1} = adj(g)/(uv) have exponent -1 or 0 in u and v and
    0 or 1 in b and c, so every entry of g or g^{-1} has window 1.  A
    matrix product in the laws holds g and g^{-1} of one element at most
    once each (g g^{-1} in the inverse law): window 2.  Precomposition
    multiplies a coefficient of p by n entries, and (p.g).g^{-1} in the
    inverse law nests two of them: window 2n.  `GroupElt.__eq__`
    compares p coefficientwise (window 2n), matrix entries (2),
    products of two entries (4) and n-th powers of entries (2n).

    The action law compares act(xy) and act(x) act(y) at (Z1, Z2, tau),
    three more indeterminates (`_act_exact`).  tau enters linearly, and
    p(gZ) multiplies a coefficient by n entries of gZ, so Z1, Z2 and the
    entries of g have exponents 0..n there.  On the right every
    indeterminate stays within 0..n.  On the left p_xy = p_x + p_y.g_x^{-1}
    is evaluated at g_x g_y Z: a coefficient of p_y.g_x^{-1} holds n
    entries of g_x^{-1} (exponents -n..0 in u and v, 0..n in b and c)
    and its monomial n entries of g_x g_y Z (0..n), so x's matrix
    indeterminates reach window 2n, inside the span above.
    """
    return max(2 * n, 4)


def _indeterminates(basis: EigenBasis, base: int, axes=(0, 1)):
    """Independent indeterminates by Kronecker substitution.

    The j-th indeterminate on generator axis i is l_i^(N^j), N = base,
    taken on the axes in turn.  An exponent vector d of the
    indeterminates with every |d_j| < N has sum d_j N^j = 0 only when
    d = 0, so two Laurent polynomials whose exponent windows are
    narrower than N are equal exactly when their substitutions are.
    """
    for power in itertools.count():
        w = base**power
        for axis in axes:
            key = (w, 0) if axis == 0 else (0, w)
            yield Scalar._raw(basis, ((key, 1, 0, 1),))


def _generic_elt(basis: EigenBasis, n: int, t, shape: str, with_p: bool = True) -> GroupElt:
    """(g, p) with fresh indeterminates from t as entries and coefficients.

    A big-cell matrix [[1, 0], [c, 1]] diag(u, v) [[1, b], [0, 1]] =
    [[u, ub], [cu, cub + v]] has the unit determinant uv; the cell is
    Zariski-dense in GL2, so a law on it holds on all of GL2.  A
    diagonal matrix is diag(u, v).
    """
    u, v = next(t), next(t)
    if shape == "diagonal":
        zero = basis.zero()
        rows = ((u, zero), (zero, v))
    else:
        b, c = next(t), next(t)
        ub, cu = u * b, c * u
        rows = ((u, ub), (cu, cu * b + v))
    coeffs = [next(t) for _ in range(n + 1)] if with_p else [basis.zero()] * (n + 1)
    return GroupElt(Mat2._raw(basis, rows, u * v), HomogPoly._raw(basis, n, coeffs))


def _prove_group_law(n: int, base: int = None):
    """Prove associativity, identity and inverse of G for degree n exactly.

    Generic elements over a free basis of their own (never a caller's)
    carry independent indeterminates, sent to monomials by Kronecker
    substitution with a base N above `_kronecker_span(n)`, so one exact
    evaluation per law decides it as a polynomial identity.  One triple
    runs per code path:

    * big_cell: three big-cell elements;
    * diagonal: x and z diagonal, so precomposition by g_x^{-1} takes
      its diagonal path.  The big-cell y is needed: on diagonal
      matrices alone, a diagonal path that swaps the exponents of
      u and v is still an action, and only a product with a
      non-diagonal matrix exposes it;
    * p_zero: big-cell matrices with p = 0, so compose and inverse take
      their p = 0 shortcuts (compose's shortcut with p != 0 beside it
      runs in the big_cell identity law, x e = x);
    * scalar_multiple: for `GroupElt.__eq__`, x == zeta x for zeta a
      primitive n-th root of unity and x != 2x.  Q(i) holds zeta only
      for n | 4, so this pair lives over a basis whose second generator
      is zeta (relation (0, n)), with the indeterminates on l1.

    Then the action law act(xy) = act(x) act(y) (`_act_exact`) at a
    generic point (Z1, Z2, tau), one pair (x, y) per code path of
    compose:

    * action_big_cell: two big-cell elements;
    * action_diagonal: x diagonal, so p_y.g_x^{-1} takes the diagonal
      path of precomposition;
    * action_p_zero: y with p = 0, so compose takes its shortcut, and x
      with p != 0, which the shortcut must keep.

    A compose that swaps the order of its operands, or that follows the
    other convention (g0 g1, p1 + p0.g1), still satisfies the group
    laws; only the action law tells it apart.

    Returns None, or {"failed": law, "branch": path} for the first
    failure, with law "action" for the action law.  A base at or below
    the span raises ValueError.
    """
    span = _kronecker_span(n)
    if base is None:
        base = span + 1
    elif base <= span:
        raise ValueError(
            "Kronecker base %d must exceed the exponent span %d of degree %d" % (base, span, n)
        )
    basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    e = GroupElt.identity(basis, n)
    big, diag, bare = ("big_cell", True), ("diagonal", True), ("big_cell", False)
    for branch, shapes in (
        ("big_cell", (big, big, big)),
        ("diagonal", (diag, big, diag)),
        ("p_zero", (bare, bare, bare)),
    ):
        t = _indeterminates(basis, base)
        x, y, z = (_generic_elt(basis, n, t, shape, with_p) for shape, with_p in shapes)
        failed = _law_failure(x, y, z, e)
        if failed is not None:
            return {"failed": failed, "branch": branch}
    roots = EigenBasis(("l1", "zeta"), [(0, n)], (0.5, cmath.exp(2j * math.pi / n)))
    x = _generic_elt(roots, n, _indeterminates(roots, base, axes=(0,)), "big_cell")
    if x != GroupElt(x.g.scale(roots.gen(1)), x.p) or x == GroupElt(x.g.scale(roots.gauss(2)), x.p):
        return {"failed": "equality", "branch": "scalar_multiple"}
    for branch, shapes in (
        ("action_big_cell", (big, big)),
        ("action_diagonal", (diag, big)),
        ("action_p_zero", (big, bare)),
    ):
        t = _indeterminates(basis, base)
        x, y = (_generic_elt(basis, n, t, shape, with_p) for shape, with_p in shapes)
        point = (next(t), next(t), next(t))
        if _act_exact(compose(x, y), point) != _act_exact(x, _act_exact(y, point)):
            return {"failed": "action", "branch": branch}
    return None


def verify_structure(rec, s: HopfSurface, cfg: VerifyConfig = None):
    """Equivariance plus immersion for one structure record."""
    return [check_equivariance(rec, s, cfg), check_immersion(rec, cfg, s)]
