"""Numeric verification: equivariance, immersion, and group axioms.

Structures are checked on a shell of C^2 minus the origin sized like a
fundamental domain of the contraction, so residuals stay conditioned.
The equivariance residual compares dev(F(z)) with hol . dev(z) using
the chordal metric on the base direction and a scaled absolute
difference on the fiber after aligning charts.  Immersion checks
evaluate the exact Jacobian factorization at the samples (including
points on the coordinate axes, where branching along an axis is
visible) and cross-check against central finite differences.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

from .devmaps import DevMap, EvalError, det_jacobian, eval_devmap
from .group import AffinePoint, GroupElt, act_affine, chordal, compose, inverse, random_group_elt
from .hopf import HopfSurface
from .scalars import EigenBasis


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
        if not (0 < r0 < r1):
            raise ValueError("annulus must satisfy 0 < r_min < r_max")
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
        if self.max_equivariance_residual is not None:
            rec["max_equivariance_residual"] = self.max_equivariance_residual
        if self.min_jacobian_magnitude is not None:
            rec["min_jacobian_magnitude"] = self.min_jacobian_magnitude
        if self.max_fd_mismatch is not None:
            rec["max_fd_mismatch"] = self.max_fd_mismatch
        if self.failing_samples:
            rec["failing_samples"] = [
                [[z[0].real, z[0].imag], [z[1].real, z[1].imag]]
                for z in self.failing_samples[:5]
            ]
        return rec


def _sample_annulus(rng, r0, r1):
    def coord():
        r = math.exp(rng.uniform(math.log(r0), math.log(r1)))
        return r * cmath.exp(2j * math.pi * rng.random())

    return (coord(), coord())


def point_residual(p: AffinePoint, q: AffinePoint, n: int, fiber: str = "abs") -> float:
    """Chordal distance of base directions plus a fiber difference.

    The fiber components are compared after aligning charts, by plain
    absolute difference (equivariance checks) or chordally (the group
    action axiom, where random denominators make values unbounded).
    """
    t1p = p.c1 if p.chart == "T" else (1 / p.c1 if p.c1 != 0 else complex("inf"))
    t1q = q.c1 if q.chart == "T" else (1 / q.c1 if q.c1 != 0 else complex("inf"))
    res = chordal(t1p, t1q)

    def fiber_diff(a, b):
        return chordal(a, b) if fiber == "chordal" else abs(a - b)

    try:
        q_al = q.in_chart(p.chart, n)
        res += fiber_diff(p.c2, q_al.c2)
    except ZeroDivisionError:
        try:
            p_al = p.in_chart(q.chart, n)
            res += fiber_diff(p_al.c2, q.c2)
        except ZeroDivisionError:
            res += 1.0
    return res


def check_equivariance(rec, s: HopfSurface, cfg: VerifyConfig = None) -> VerifyReport:
    """dev(F(z)) = hol . dev(z) at annulus samples, with resampling on zero loci."""
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed)
    r0, r1 = cfg.resolve_annulus(s)
    n = rec.dev.n
    worst = 0.0
    failing = []
    done = 0
    attempts = 0
    max_attempts = max(20, cfg.samples * 10)
    while done < cfg.samples and attempts < max_attempts:
        attempts += 1
        z = _sample_annulus(rng, r0, r1)
        try:
            lhs = eval_devmap(rec.dev, s.apply_F(z))
            rhs = act_affine(rec.hol, eval_devmap(rec.dev, z), n)
        except (EvalError, ArithmeticError):
            continue
        res = point_residual(lhs, rhs, n)
        worst = max(worst, res)
        if res >= cfg.tol_equiv:
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

    The sample set always contains points on both coordinate axes; a
    map branched along an axis fails there.
    """
    cfg = cfg or VerifyConfig()
    rng = random.Random(cfg.seed + 1)
    r0, r1 = cfg.resolve_annulus(s)
    dev = rec.dev if hasattr(rec, "dev") else rec
    n = dev.n
    det = det_jacobian(dev)
    det_hat = det_jacobian(dev.hat())
    samples = [(_sample_annulus(rng, r0, r1)) for _ in range(cfg.samples)]
    axis = []
    for _ in range(4):
        w = _sample_annulus(rng, r0, r1)
        axis.append((w[0], 0j))
        axis.append((0j, w[1]))
    min_mag = float("inf")
    worst_fd = 0.0
    failing = []
    count = 0
    for i, z in enumerate(samples + axis):
        try:
            pt = eval_devmap(dev, z)
        except EvalError:
            continue
        try:
            val = (det if pt.chart == "T" else det_hat).eval_numeric(z)
        except ZeroDivisionError:
            val = None
        if val is not None:
            mag = abs(val)
            min_mag = min(min_mag, mag)
            if mag <= 1e-12:
                failing.append(z)
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
        worst_fd = max(worst_fd, abs(sym - fd) / scale)
        count += 1
    passed = min_mag > 1e-12 and worst_fd < cfg.tol_jac and count > 0
    return VerifyReport(
        "immersion",
        passed,
        min_jacobian_magnitude=min_mag,
        max_fd_mismatch=worst_fd,
        checks={"fd_samples": count},
        failing_samples=failing,
    )


def _fd_det(dev: DevMap, z, n, pt, rel=1e-6):
    """Central-difference det of the chart-T map at z, where the map's value
    is pt; None where a stencil point fails or the value is large."""
    z1, z2 = z

    def chart_t(w1, w2):
        return eval_devmap(dev, (w1, w2)).in_chart("T", n)

    try:
        h1 = rel * max(abs(z1), 1.0)
        h2 = rel * max(abs(z2), 1.0)
        pp = chart_t(z1 + h1, z2)
        pm = chart_t(z1 - h1, z2)
        qp = chart_t(z1, z2 + h2)
        qm = chart_t(z1, z2 - h2)
        base = pt.in_chart("T", n)
    except (EvalError, ZeroDivisionError, OverflowError):
        return None
    if max(abs(base.c1), abs(base.c2)) > 1e4:
        return None
    j11 = (pp.c1 - pm.c1) / (2 * h1)
    j21 = (pp.c2 - pm.c2) / (2 * h1)
    j12 = (qp.c1 - qm.c1) / (2 * h2)
    j22 = (qp.c2 - qm.c2) / (2 * h2)
    return j11 * j22 - j12 * j21


def check_group_axioms(n: int, trials: int = 1000, seed: int = 0, basis: EigenBasis = None) -> VerifyReport:
    """Exact associativity/identity/inverse plus the numeric action axiom."""
    basis = basis or EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    rng = random.Random(seed)
    e = GroupElt.identity(basis, n)
    worst_action = 0.0
    for i in range(trials):
        x = random_group_elt(basis, n, rng)
        y = random_group_elt(basis, n, rng)
        z = random_group_elt(basis, n, rng)
        if compose(compose(x, y), z) != compose(x, compose(y, z)):
            return VerifyReport("group_axioms", False, checks={"failed": "associativity", "trial": i})
        if compose(x, e) != x or compose(e, x) != x:
            return VerifyReport("group_axioms", False, checks={"failed": "identity", "trial": i})
        xi = inverse(x)
        if compose(x, xi) != e or compose(xi, x) != e:
            return VerifyReport("group_axioms", False, checks={"failed": "inverse", "trial": i})
    action_trials = min(trials, 200)
    for _ in range(action_trials):
        x = random_group_elt(basis, n, rng)
        y = random_group_elt(basis, n, rng)
        pt = AffinePoint(
            "T",
            rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
            rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2),
        )
        try:
            lhs = act_affine(compose(x, y), pt, n)
            rhs = act_affine(x, act_affine(y, pt, n), n)
        except ArithmeticError:
            continue
        worst_action = max(worst_action, point_residual(lhs, rhs, n, fiber="chordal"))
    passed = worst_action < 1e-10
    return VerifyReport(
        "group_axioms",
        passed,
        max_equivariance_residual=worst_action,
        checks={"trials": trials, "action_trials": action_trials},
    )


def verify_structure(rec, s: HopfSurface, cfg: VerifyConfig = None):
    """Equivariance plus immersion for one structure record."""
    return [check_equivariance(rec, s, cfg), check_immersion(rec, cfg, s)]
