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
against central finite differences.  Both sample loops bind the map's
float kernel (`devmaps.map_kernel`), F and the holonomy's action
function once, and each sample takes the one path through them: the
kernel's `point` gives the map's value in whichever chart is finite, on
the axes too, and its determinant reader the Jacobian of that chart,
from one exact N, in the same homogenized form.  The kernel repeats the
float operations of a term-by-term evaluation in the same order.  A NaN
or infinite residual, determinant or difference fails its check: NaN
compares false both ways, so max() or a bare threshold test would let
it pass.  So does a modulus that leaves the float range, where abs()
raises OverflowError.  A check whose map, holonomy or Jacobian has an
exact coefficient beyond the float range fails and names that cause.

The group axioms of G for degree n are checked in two parts, and the
record depends on n alone.  First an exact proof: the action law
act(xy) = act(x) act(y) on homogeneous points of O(n), on one pair of
generic elements per code path of compose, and one identity and one
inverse check.  G acts faithfully, so these make compose the product of
G (`_prove_group_law`).  Each is a polynomial identity in the entries,
and Kronecker substitution (Kronecker, J. reine angew. Math. 92, 1882)
decides it with one exact evaluation.  The action law is evaluated at
the adjugate point Z = adj(g_xy) W, which both sides move to
det(g_xy) W, so that p is evaluated at monomials.  Then the float
action `act_affine` is compared with the exact action at fixed points
that reach each of its code paths.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from math import sqrt
from dataclasses import dataclass, field

from .devmaps import EvalError, map_kernel
from .group import (
    AffinePoint,
    GroupElt,
    HomogPoly,
    Mat2,
    _numeric_action,
    _powers,
    act_affine,
    chordal,
    compose,
    inverse,
)
from .hopf import HopfSurface, SurfaceError
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


def _sample_annulus(rng, lo, hi, count):
    """count points whose coordinates have log-modulus uniform in [lo, hi)
    and a uniform argument: per coordinate, rng.uniform(lo, hi) (inlined)
    and then rng.random()."""
    rand, exp, cexp = rng.random, math.exp, cmath.exp
    span = hi - lo
    return [
        (
            exp(lo + span * rand()) * cexp(_TWO_PI_J * rand()),
            exp(lo + span * rand()) * cexp(_TWO_PI_J * rand()),
        )
        for _ in range(count)
    ]


def point_residual(p, q, n: int, fiber: str = "abs") -> float:
    """Chordal distance of base directions plus a fiber difference, for two
    points (chart, c1, c2) of O(n), plain triples or `AffinePoint`s.

    The fiber components a, b are compared after aligning charts, by
    the scaled absolute difference |a - b| / max(1, |a|, |b|) (the
    equivariance and action checks) or chordally, for values that
    random denominators can make unbounded.  The scaling keeps rounding
    from failing a correct map where the fibers are large, as near a
    pole of the holonomy, where c t1 + d is near 0 and the fibers reach
    1e5 and more; below modulus 1 the difference is the absolute one.
    A modulus or power beyond the float range gives an infinite
    residual.
    """
    (cp, p1, p2), (cq, q1, q2) = p, q
    t1p = p1 if cp == "T" else (1 / p1 if p1 != 0 else _INF)
    t1q = q1 if cq == "T" else (1 / q1 if q1 != 0 else _INF)
    try:
        try:
            den = (1 + abs(t1p) ** 2) * (1 + abs(t1q) ** 2)
        except OverflowError:
            den = math.inf
        # chordal(t1p, t1q), whose last branch this is when den is finite
        res = abs(t1p - t1q) / sqrt(den) if den < math.inf else chordal(t1p, t1q)
        # align q's fiber to p's chart, or else p's to q's, as AffinePoint.in_chart does
        try:
            a, b = p2, q2 if cq == cp else q2 / q1**n
        except ZeroDivisionError:
            try:
                a, b = p2 / p1**n, q2
            except ZeroDivisionError:
                return res + 1.0
        if fiber == "chordal":
            return res + chordal(a, b)
        return res + abs(a - b) / max(1.0, abs(a), abs(b))
    except OverflowError:
        return math.inf


_OUT_OF_RANGE = "exact coefficient beyond the float range"


def check_equivariance(rec, s: HopfSurface, cfg: VerifyConfig = None) -> VerifyReport:
    """dev(F(z)) = hol . dev(z) at annulus samples, with resampling on zero loci.

    Each sample compares the kernel's `point` at F(z) with the holonomy's
    action on `point` at z (`point_residual`); a residual not below the
    tolerance, NaN included, fails and is listed.  A batch of samples
    holds no more than the draws still allowed, so the samples are those
    of drawing one at a time.
    """
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed)
    lo, hi = map(math.log, cfg.resolve_annulus(s))
    dev, hol = rec.dev, rec.hol
    n = dev.n
    if hol.degree != n:
        raise ValueError("point and element live on different O(n)")
    try:
        point, F, act = map_kernel(dev).point, s.float_F(), _numeric_action(hol, n)
    except OverflowError:  # the map or the holonomy has no float form
        return VerifyReport("equivariance", False, checks={"error": _OUT_OF_RANGE})
    tol = cfg.tol_equiv
    worst = 0.0
    failing = []
    done = 0
    attempts = 0
    max_attempts = max(20, cfg.samples * 10)
    while done < cfg.samples and attempts < max_attempts:
        for z in _sample_annulus(rng, lo, hi, min(cfg.samples - done, max_attempts - attempts)):
            attempts += 1
            try:
                lhs = point(*F(*z))
                rhs = act(*point(*z))
            except ArithmeticError:
                if not (z[0] or z[1]):
                    raise SurfaceError("the contraction acts on C^2 minus the origin") from None
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

    The sample set always contains points on both coordinate axes.  Each
    sample reads the map from its kernel's `point` (`map_kernel`) and the
    determinant, in homogenized form, from the kernel's reader in the
    chart `point` chose, so a map branched along an axis fails there.  A
    sample where the map's own float evaluation underflows to a division
    by 0 or overflows, as at extreme radii, is listed as failing, as is
    one where the determinant overflows or the modulus of the determinant
    or of the map's chart-T value leaves the float range.  The finite
    differences, from the kernel's stencil, check the annulus samples
    read in chart T that have a determinant: off the axes, `point` picks
    chart S only on a pole of chart T, where chart T's determinant
    divides by zero.
    """
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed + 1)
    lo, hi = map(math.log, cfg.resolve_annulus(s))
    dev = rec.dev if hasattr(rec, "dev") else rec
    try:
        kern = map_kernel(dev)
        point, stencil, det = kern.point, kern.stencil, kern.jacobian()
    except OverflowError:  # the map or N has no float form
        return VerifyReport("immersion", False, checks={"error": _OUT_OF_RANGE})
    samples = _sample_annulus(rng, lo, hi, cfg.samples)
    axis = [p for w in _sample_annulus(rng, lo, hi, 4) for p in ((w[0], 0j), (0j, w[1]))]
    min_mag = math.inf
    worst_fd = 0.0
    failing = []
    count = 0
    for i, z in enumerate(samples + axis):
        z1, z2 = z
        try:
            chart, c1, c2 = point(z1, z2)
            try:
                val = det(z1, z2, chart)
            except ZeroDivisionError:  # a pole of the chart's determinant
                val = None
        except EvalError:
            continue
        except (ZeroDivisionError, OverflowError):
            # a power of a coordinate underflowed to 0 or overflowed: the map
            # or its determinant has no value here, which fails the sample
            failing.append(z)
            continue
        listed = False
        if val is not None:
            try:
                mag = abs(val)
            except OverflowError:  # finite parts whose modulus leaves the float range
                mag = math.inf
            if mag < min_mag or mag != mag:  # min(), except that a NaN is kept
                min_mag = mag
            if not 1e-12 < mag < math.inf:  # vanishing or non-finite
                failing.append(z)
                listed = True
        if i >= len(samples) or chart != "T" or val is None:
            continue
        # the finite-difference cross-check of the chart-T map and determinant
        try:
            h1 = 1e-6 * max(abs(z1), 1.0)
            h2 = 1e-6 * max(abs(z2), 1.0)
            st = stencil(z1, z2, h1, h2)
        except (EvalError, ZeroDivisionError, OverflowError):
            continue
        try:
            if max(abs(c1), abs(c2)) > 1e4:
                continue
        except OverflowError:
            if not listed:
                failing.append(z)
            continue
        pp1, pp2, pm1, pm2, qp1, qp2, qm1, qm2 = st
        j11 = (pp1 - pm1) / (2 * h1)
        j21 = (pp2 - pm2) / (2 * h1)
        j12 = (qp1 - qm1) / (2 * h2)
        j22 = (qp2 - qm2) / (2 * h2)
        fd = j11 * j22 - j12 * j21
        try:
            mismatch = abs(val - fd) / max(1.0, abs(val))
        except OverflowError:
            mismatch = math.inf
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


def check_group_axioms(n: int) -> VerifyReport:
    """The group law of G for degree n and its action on O(n): proved, then checked in floats.

    1. `_prove_group_law` proves the action law, the identity and the
       inverse exactly, once per call, on generic elements over its own
       basis; `proved` lists the branches it ran.
    2. `_check_numeric_action` compares the float `act_affine` with the
       exact action at the fixed points of `_action_cases`, which reach
       each of its code paths.  A residual not below 1e-10, NaN
       included, or an `ArithmeticError` at any point fails the record,
       which then names the failing paths.
    """
    proved = []
    failure = _prove_group_law(n, proved=proved)
    if failure is not None:
        return VerifyReport("group_axioms", False, checks=failure)
    cases = _action_cases(n)
    worst, failure = _check_numeric_action(cases, n)
    checks = {"action_trials": len(cases), "proved": proved}
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
    call, and each `act_affine` call builds its element's float action.
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
            out = act_affine(x, AffinePoint._make((chart, c1.numeric(), c2.numeric())), n)
            w1, w2, tau = _act_exact(x, (c1, one, c2) if chart == "T" else (one, c1, c2))
            # chart T reads (Z1/Z2, tau/Z2^n), chart S (Z2/Z1, tau/Z1^n)
            top, bottom = (w1, w2) if out.chart == "T" else (w2, w1)
            exact = (out.chart, (top / bottom).numeric(), (tau / bottom**n).numeric())
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
    if x.p.is_zero():
        return (w1, w2, tau)
    n = x.degree
    pow1, pow2 = _powers(w1, n), _powers(w2, n)
    terms = [(coeff, pow1[k] * pow2[n - k]) for k, coeff in enumerate(x.p.coeffs) if coeff.terms]
    return (w1, w2, sum_of_products([(tau, pow1[0])] + terms))


def _kronecker_span(n: int) -> int:
    """The widest exponent window an indeterminate of the proof reaches.

    An indeterminate belongs to one element (g, p) or to the point
    (W1, W2, tau).  It enters p linearly (window 1) and the entries of g
    with exponent 0 or 1.  The entries of g^{-1} = adj(g)/(uv) have
    exponent -1 or 0 in u and v and 0 or 1 in b and c, and those of
    (g^{-1})^{-1} exponent 0 or 1, so every entry of these has window 1.
    So has every entry of M, the matrix of xy, and of adj(M): each is a
    sum of products of one entry of g_x and one of g_y.

    The action law compares act(xy) and act(x) act(y) at Z = adj(M) W
    (`_act_exact`), one component after the other, and the Z components
    come first.  On the left M Z = det(M) W, on the right
    g_x g_y adj(M) W: window 2.  Where they differ the check fails,
    whatever the tau components are.  Where they agree as polynomials,
    g_x g_y adj(M) = det(M) I and det M != 0 give g_x g_y = M, so
    det M = det g_x det g_y, the monomial of exponent 1 in the u and v
    of x and y.  Then tau' on the left is tau + det(M)^n p_xy(W): a
    coefficient of p_xy = p_x + p_y.g_x^{-1} holds n entries of g_x^{-1}
    (exponents -n..0 in u and v, 0..n in b and c), so with det(M)^n and
    tau every indeterminate stays within 0..n.  On the right p_y and p_x
    take n entries of g_y adj(M) W and of g_x g_y adj(M) W, which have
    window 2 in the matrix indeterminates: window 2n.  A compose that
    adds p_x.g_y instead reaches 2n on the left as well.

    The identity check compares act(e) at the point with the point, whose
    entries are those of adj(M) W: window 1.  The inverse check compares
    x^{-1} x with e: an entry of g^{-1} g has window 2, and
    p_{x^{-1}x} = -p.g + p.(g^{-1})^{-1} multiplies a coefficient by n
    entries of g or (g^{-1})^{-1}: window n.  `GroupElt.__eq__` compares
    p coefficientwise (n), the matrix entries (2), products of one entry
    with one of e (2) and n-th powers of entries (2n).  scalar_multiple
    compares x with zeta x and 2x: entries (1), products of two entries
    (2) and n-th powers (n).  With n >= 1 the widest window is 2n.
    """
    return 2 * n


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


def _prove_group_law(n: int, base: int = None, proved: list = None):
    """Prove exactly that compose is the group law of G for degree n.

    Generic elements over a free basis of their own (never a caller's)
    carry independent indeterminates, sent to monomials by Kronecker
    substitution with a base N above `_kronecker_span(n)`, so one exact
    evaluation decides each check as a polynomial identity.  The checks
    of `_group_law_checks`, each named by its branch, in order:

    * scalar_multiple: for `GroupElt.__eq__`, x == zeta x for zeta a
      primitive n-th root of unity and x != 2x.  Q(i) holds zeta only
      for n | 4, so this check lives over a basis whose second generator
      is zeta (relation (0, n)), with the indeterminates on l1.  It
      runs first: the inverse check compares with ==;
    * the action law act(xy) = act(x) act(y) (`_act_exact`) at the
      point (Z, tau) with Z = adj(M) W, where M is the matrix of xy and
      W1, W2, tau are fresh indeterminates, one pair (x, y) per code
      path of compose.  M Z = det(M) W, and so is g_x g_y Z when compose
      is right, so p_xy and p_x are evaluated at monomials.  det M is
      computed from the entries, not taken from what compose carried,
      and a pair with det M = 0 fails: adj(M) is then singular, and the
      law at its image would not be the law at every point.
      action_big_cell: two big-cell elements.
      action_diagonal: x diagonal, so p_y.g_x^{-1} takes the diagonal
      path of precomposition.  action_p_zero: y with p = 0, so compose
      takes its shortcut, and x with p != 0, which the shortcut must
      keep;
    * identity: act(e) fixes the point of the last pair;
    * inverse: x^{-1} x == e for the big-cell x of the last pair, whose
      p is not 0.  `GroupElt.inverse` has one code path.

    Why these suffice: G acts faithfully.  act(x) for x = (g, p) maps
    (Z, tau) to (gZ, tau + p(gZ)); its Z part gives back g, and then,
    since g is invertible, tau' - tau = p(gZ) at every gZ gives back p.
    So an element is determined by its map.  The action law at
    Z = adj(M) W, an identity in W, gives it at every Z wherever
    det M != 0, since W -> adj(M) W is onto there; det M is a nonzero
    polynomial, so that is a Zariski-dense set of the entries.  An
    identity in the entries on a Zariski-dense set of each code path's
    inputs holds on all of them, so compose(x, y) is the one element
    whose map is act(x) act(y): compose is composition of maps, carried
    back to pairs, and is associative because composition is.  act(e) = id
    gives act(compose(e, x)) = act(compose(x, e)) = act(x), so e is the
    identity.  x^{-1} x == e up to an n-th root of unity zeta, and
    (zeta I, 0) fixes every point of O(n), so act(x^{-1}) act(x) = id on
    O(n): act(x^{-1}) is the inverse of the bijection act(x), and
    x x^{-1} = e as well.  A one-sided inverse is enough.  Associativity, identity and inverse alone would not do:
    a compose in the swapped order, or under the other convention
    (g0 g1, p1 + p0.g1), satisfies them and fails the action law.

    Returns None, or {"failed": law, "branch": branch} for the first
    check that fails, law being "equality", "action", "identity" or
    "inverse".  The branch of each check that holds is appended to
    `proved` when a list is given.  A base at or below the span raises
    ValueError.
    """
    span = _kronecker_span(n)
    if base is None:
        base = span + 1
    elif base <= span:
        raise ValueError(
            "Kronecker base %d must exceed the exponent span %d of degree %d" % (base, span, n)
        )
    for law, branch, holds in _group_law_checks(n, base):
        if not holds:
            return {"failed": law, "branch": branch}
        if proved is not None:
            proved.append(branch)
    return None


def _group_law_checks(n: int, base: int):
    """(law, branch, holds) for each check of `_prove_group_law`, in order;
    a check is evaluated when the one before it has been taken."""
    roots = EigenBasis(("l1", "zeta"), [(0, n)], (0.5, cmath.exp(2j * math.pi / n)))
    x = _generic_elt(roots, n, _indeterminates(roots, base, axes=(0,)), "big_cell")
    yield "equality", "scalar_multiple", (
        x == GroupElt(x.g.scale(roots.gen(1)), x.p)
        and x != GroupElt(x.g.scale(roots.gauss(2)), x.p)
    )
    basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    big, diag, bare = ("big_cell", True), ("diagonal", True), ("big_cell", False)
    for branch, shapes in (
        ("action_big_cell", (big, big)),
        ("action_diagonal", (diag, big)),
        ("action_p_zero", (big, bare)),
    ):
        t = _indeterminates(basis, base)
        x, y = (_generic_elt(basis, n, t, shape, with_p) for shape, with_p in shapes)
        xy = compose(x, y)
        (a, b), (c, d) = xy.g.entries
        w1, w2 = next(t), next(t)
        # Z = adj(M) W; det M from the entries, not the one compose carried
        z1, z2 = sum_of_products(((d, w1), (-b, w2))), sum_of_products(((-c, w1), (a, w2)))
        point = (z1, z2, next(t))
        holds = bool(sum_of_products(((a, d), (-b, c))).terms) and (
            _act_exact(xy, point) == _act_exact(x, _act_exact(y, point))
        )
        yield "action", branch, holds
    e = GroupElt.identity(basis, n)
    yield "identity", "identity", _act_exact(e, point) == point
    yield "inverse", "inverse", compose(inverse(x), x) == e


def verify_structure(rec, s: HopfSurface, cfg: VerifyConfig = None):
    """Equivariance plus immersion for one structure record."""
    return [check_equivariance(rec, s, cfg), check_immersion(rec, cfg, s)]
