"""The benchmark's three workloads: inputs, ops and correctness checks.

Each workload is a class with the same small interface:

* ``make_inputs(seed)`` builds the seeded input list of one pass from
  plain numbers (ints, ``Fraction`` pairs, complex samples).  The same
  seed always gives the same list.
* ``new_pass()`` returns the per-pass context (shared bases, spec files).
* ``execute(inp, ctx)`` is one op: it goes through hopfon's public
  functions only and returns the program's outputs as plain values.
* ``check(inp, out)`` returns the list of failed checks, empty when the
  op is correct.  Every check compares against arithmetic done here
  with ``Fraction``s and complex doubles, or against a property the
  method must have; none compares against stored program output.

An input's ``known_fault`` is empty, or it lists the failed checks of a
fault of the program that is expected on every run, the first of them
required.  Such an op is counted as failed, not as wrong, as long as it
fails in that way and no other.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

from hopfon import (
    AffinePoint,
    EigenBasis,
    GaussRat,
    GroupElt,
    HomogPoly,
    HopfSurface,
    Mat2,
    Scalar,
    act_affine,
    classify_surface,
    compose,
    inverse,
    line_bundle_sections,
    normal_form,
    proj_bundle_sections,
)
from hopfon import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) Fraction pairs: the benchmark's own exact
# arithmetic, kept apart from hopfon's GaussRat.

G_ONE = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ginv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def gpow(a, k):
    out = G_ONE
    base = a if k >= 0 else ginv(a)
    for _ in range(abs(k)):
        out = gmul(out, base)
    return out


def gnum(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def to_gauss(a) -> GaussRat:
    return GaussRat(a[0], a[1])


def chordal(a: complex, b: complex) -> float:
    """Chordal distance on P^1; an infinite coordinate is the point at infinity."""
    a_inf, b_inf = cmath.isinf(a), cmath.isinf(b)
    if a_inf and b_inf:
        return 0.0
    if a_inf or b_inf:
        return 1 / math.sqrt(1 + abs(b if a_inf else a) ** 2)
    return abs(a - b) / math.sqrt((1 + abs(a) ** 2) * (1 + abs(b) ** 2))


def point_distance(p, q, n: int) -> float:
    """Chordal distance of two points of O(n), given as (chart, c1, c2).

    Base directions are compared as points of P^1 and fibres chordally
    after both points are moved to one chart, (s1, s2) = (1/t1, t2/t1^n).
    """

    def coords(pt, chart):
        kind, c1, c2 = pt
        return (c1, c2) if kind == chart else (1 / c1, c2 / c1**n)

    try:
        (a1, a2), (b1, b2) = coords(p, "T"), coords(q, "T")
    except ZeroDivisionError:  # a base point at t1 = infinity
        (a1, a2), (b1, b2) = coords(p, "S"), coords(q, "S")
    return chordal(a1, b1) + chordal(a2, b2)


def rel_err(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# ---------------------------------------------------------------------------
# group-laws


def _small_gauss(rng, scale=3):
    """(a/b) + i (c/d), the entry distribution of hopfon's group-axiom check."""
    a, b = rng.randint(-scale, scale), rng.randint(1, scale)
    c, d = rng.randint(-scale, scale), rng.randint(1, scale)
    return (Fraction(a, b), Fraction(c, d))


def _nonzero_gauss(rng):
    while True:
        c = _small_gauss(rng)
        if c != (0, 0):
            return c


# name -> (relation rows, numeric witness); each witness satisfies its
# relations exactly in binary floating point.
LATTICE_BASES = {
    "free": ((), (0.5, 0.3)),
    "l1*l2=1": (((1, 1),), (0.5, 2.0)),
    "l1^2=l2": (((2, -1),), (0.5, 0.25)),
}


class GroupLaws:
    """Exact group laws of G = GL(2,C)/mu_n x Sym^n(C^2)* on seeded triples.

    Ops alternate n = 1, 2, 3 and two element kinds.  ``const`` elements
    have constant Gaussian-rational entries over the free basis (the
    traffic of hopfon's own group-axiom check); ``lattice`` elements have
    monomial diagonal entries and two-term off-diagonal entries and
    coefficients over a basis with a relation lattice (the traffic of
    holonomy groups and conjugations).
    """

    name = "group-laws"
    ROUNDS = 160  # each round is (n = 1, 2, 3) x (const, lattice)
    OPS_PER_PASS = 6 * ROUNDS
    NOMINAL_PASS_S = 3.0
    WARMUP_OPS = 6
    MAX_COND = 100

    def make_inputs(self, seed: int):
        rng = random.Random("group-laws:%d" % seed)
        inputs = []
        lattice_names = ("l1*l2=1", "l1^2=l2")
        for r in range(self.ROUNDS):
            for n in (1, 2, 3):
                for kind in ("const", "lattice"):
                    bname = "free" if kind == "const" else lattice_names[(r + n) % 2]
                    make = self._const_elt if kind == "const" else self._lattice_elt
                    elts = [self._conditioned(make, rng, n, bname) for _ in range(3)]
                    pt = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), complex(
                        rng.uniform(-1, 1), rng.uniform(-1, 1)
                    )
                    inputs.append(
                        {"kind": kind, "n": n, "basis": bname, "elts": elts, "point": pt,
                         "known_fault": ()}
                    )
        return inputs

    def _conditioned(self, make, rng, n, bname):
        """An element whose matrix has condition number (|g|_F^2 / |det g|) at
        most MAX_COND at the witness, so that rounding in the float action
        law stays far below its 1e-10 tolerance."""
        while True:
            elt = make(rng, n)
            (a, b), (c, d) = m = self._numeric_matrix(LATTICE_BASES[bname][1], elt)
            if sum(abs(v) ** 2 for row in m for v in row) <= self.MAX_COND * abs(a * d - b * c):
                return elt

    @staticmethod
    def _const_elt(rng, n):
        while True:
            rows = [[[(_small_gauss(rng), (0, 0))] for _ in range(2)] for _ in range(2)]
            (a, b), (c, d) = [[t[0][0] for t in row] for row in rows]
            if gmul(a, d) != gmul(b, c):
                break
        coeffs = [[(_small_gauss(rng), (0, 0))] for _ in range(n + 1)]
        return {"rows": rows, "coeffs": coeffs}

    @staticmethod
    def _lattice_elt(rng, n):
        def mono():
            return (_nonzero_gauss(rng), (rng.randint(-1, 1), rng.randint(-1, 1)))

        def two_term():
            return [mono(), mono()]

        zero = []
        if rng.random() < 0.5:
            rows = [[[mono()], two_term()], [zero, [mono()]]]
        else:
            rows = [[[mono()], zero], [two_term(), [mono()]]]
        coeffs = [two_term() for _ in range(n + 1)]
        return {"rows": rows, "coeffs": coeffs}

    def new_pass(self):
        return {
            name: EigenBasis(("l1", "l2"), rels, wit) for name, (rels, wit) in LATTICE_BASES.items()
        }

    @staticmethod
    def _build(basis, kind, n, elt):
        if kind == "const":
            rows = [[to_gauss(e[0][0]) for e in row] for row in elt["rows"]]
            g = Mat2.from_gauss(basis, rows)
            p = HomogPoly(basis, n, [basis.gauss(to_gauss(c[0][0])) for c in elt["coeffs"]])
            return GroupElt(g, p)

        def scal(terms):
            return Scalar(basis, [(to_gauss(c), e) for c, e in terms])

        g = Mat2(basis, [[scal(e) for e in row] for row in elt["rows"]])
        return GroupElt(g, HomogPoly(basis, n, [scal(c) for c in elt["coeffs"]]))

    def execute(self, inp, bases):
        n = inp["n"]
        basis = bases[inp["basis"]]
        x, y, z = (self._build(basis, inp["kind"], n, e) for e in inp["elts"])
        e = GroupElt.identity(basis, n)
        xy = compose(x, y)
        xy_z = compose(xy, z)
        x_yz = compose(x, compose(y, z))
        xi = inverse(x)
        pt = AffinePoint("T", *inp["point"])
        lhs = act_affine(xy, pt, n)
        rhs = act_affine(x, act_affine(y, pt, n), n)
        return {
            "assoc": xy_z == x_yz,
            "identity": compose(x, e) == x and compose(e, x) == x,
            "inverse": compose(x, xi) == e and compose(xi, x) == e,
            "action": ((lhs.chart, lhs.c1, lhs.c2), (rhs.chart, rhs.c1, rhs.c2)),
            "xy": xy.g.numeric(),
            "xy_z": xy_z.g.numeric(),
        }

    @staticmethod
    def _numeric_matrix(witness, elt):
        w1, w2 = witness
        return [
            [sum(gnum(c) * w1 ** e[0] * w2 ** e[1] for c, e in entry) for entry in row]
            for row in elt["rows"]
        ]

    @staticmethod
    def _matmul(a, b):
        return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]

    @classmethod
    def _product_error(cls, got, mats):
        """Entrywise error of got against the product of mats, relative to
        the product of the entries' absolute values, which bounds the
        rounding error of the float product even where an entry cancels to 0."""
        want = mats[0]
        scale = [[abs(v) for v in row] for row in mats[0]]
        for m in mats[1:]:
            want = cls._matmul(want, m)
            scale = cls._matmul(scale, [[abs(v) for v in row] for row in m])
        return max(abs(got[i][j] - want[i][j]) / scale[i][j]
                   for i in range(2) for j in range(2) if scale[i][j])

    def check(self, inp, out):
        bad = [law for law in ("assoc", "identity", "inverse") if out[law] is not True]
        residual = point_distance(*out["action"], inp["n"])
        if not residual < 1e-10:
            bad.append("action law residual %.3g" % residual)
        witness = LATTICE_BASES[inp["basis"]][1]
        x, y, z = (self._numeric_matrix(witness, e) for e in inp["elts"])
        for key, mats in (("xy", (x, y)), ("xy_z", (x, y, z))):
            err = self._product_error(out[key], mats)
            if not err < 1e-9:
                bad.append("%s matrix differs from the 2x2 complex product by %.3g" % (key, err))
        return bad


# ---------------------------------------------------------------------------
# resonance

# Gaussian integers g and denominators q for the base eigenvalue mu = g/q.
_MU_NUMERATORS = ((1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (-1, 0), (0, 1), (3, 0), (-2, 1))
_MU_DENOMINATORS = (3, 4, 5, 7)
# Generic pairs draw l1 from the support {1+i, 3} and l2 from {2+i, 7}: with
# disjoint prime supports in Z[i], l1^a l2^b = 1 forces a = b = 0.
_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
_ZETAS = ((1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (Fraction(1, 2), 0))
_RHOS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3))

# The fixed surfaces beyond hopfon's relation search bound of 64: l1 = mu^65,
# l2 = mu^64 for mu = 9/10 (and the mirrored pair) have minimal pair (64, 65)
# and (65, 64).  They do not depend on the seed.
BEYOND_BOUND = ((65, 64), (64, 65))


def _gauss(t):
    return (Fraction(t[0]), Fraction(t[1]))


def _class_msg(got, want):
    return "classified %r, built as %r" % (got, want)


def _family_msg(key, variant, hyper, want_variant):
    return "%s family %r with hyper %r, expected %r" % (key, variant, hyper, want_variant)


class Resonance:
    """Seeded diagonal surfaces with a known multiplicative structure.

    Hyperresonant surfaces are built as l1 = mu^a, l2 = mu^b with
    gcd(a, b) = 1, so their minimal pair is (m1, m2) = (b, a); a = b = 1
    gives a homothety.  Generic surfaces use eigenvalues with disjoint
    prime supports.  Each op classifies the surface, solves a line-bundle
    and a diagonal P^1-bundle section family for twists given as plain
    Gaussian rationals, and takes the normal form of a diagonal element
    of G over the surface's basis and of a conjugate of it.
    """

    name = "resonance"
    # per block: 20 hyperresonant, 2 homotheties, 8 generic, 2 beyond the bound
    HYPER, HOMOTHETY, GENERIC = 20, 2, 8
    BLOCK = HYPER + HOMOTHETY + GENERIC + len(BEYOND_BOUND)
    BLOCKS = 5
    OPS_PER_PASS = BLOCKS * BLOCK
    NOMINAL_PASS_S = 1.7
    WARMUP_OPS = 4

    def make_inputs(self, seed: int):
        rng = random.Random("resonance:%d" % seed)
        return [op for _ in range(self.BLOCKS) for op in self._block(rng)]

    def _block(self, rng):
        surfaces = []
        for _ in range(self.HYPER):
            while True:
                a, b = rng.randint(1, 4), rng.randint(1, 4)
                if math.gcd(a, b) == 1 and (a, b) != (1, 1):
                    break
            surfaces.append(("hyperresonant", self._mu(rng), a, b))
        surfaces += [("homothety", self._mu(rng), 1, 1) for _ in range(self.HOMOTHETY)]
        surfaces += [("generic", None, 0, 0) for _ in range(self.GENERIC)]
        rng.shuffle(surfaces)
        inputs = [self._op(rng, *s) for s in surfaces]
        fixed = random.Random("resonance:beyond-bound")
        for i, (a, b) in enumerate(BEYOND_BOUND):
            op = self._op(fixed, "hyperresonant", (Fraction(9, 10), Fraction(0)), a, b)
            # classified generic, so both section families come out monomial
            op["known_fault"] = (
                _class_msg(("generic", None, None), ("hyperresonant", b, a)),
                *(_family_msg(key, "monomial", None, "monomial_times_rational")
                  for key in ("line", "proj")),
            )
            # spread the fixed ops through the block
            inputs.insert((i + 1) * len(inputs) // (len(BEYOND_BOUND) + 1), op)
        return inputs

    @staticmethod
    def _mu(rng):
        while True:
            g = rng.choice(_MU_NUMERATORS)
            q = rng.choice(_MU_DENOMINATORS)
            mod = math.hypot(*g) / q
            if 0.25 <= mod <= 0.9:
                return (Fraction(g[0], q), Fraction(g[1], q))

    @staticmethod
    def _generic_pair(rng):
        while True:
            l1 = gmul(_gauss(rng.choice(_UNITS)),
                      gmul(gpow(_gauss((1, 1)), rng.randint(0, 2)), gpow(_gauss((3, 0)), -rng.randint(1, 2))))
            l2 = gmul(_gauss(rng.choice(_UNITS)),
                      gmul(gpow(_gauss((2, 1)), rng.randint(0, 2)), gpow(_gauss((7, 0)), -rng.randint(1, 2))))
            if all(0.02 <= abs(gnum(v)) <= 0.9 for v in (l1, l2)):
                return l1, l2

    def _op(self, rng, kind, mu, a, b):
        if kind == "generic":
            l1, l2 = self._generic_pair(rng)
            pair, lattice_vec = None, (0, 0)
        else:
            l1, l2 = gpow(mu, a), gpow(mu, b)
            pair, lattice_vec = (b, a), (b, -a)
        k = (rng.randint(-2, 2), rng.randint(-2, 2))
        j = (rng.randint(-2, 2), rng.randint(-2, 2))
        t2 = _nonzero_gauss(rng)
        return {
            "kind": kind,
            "l": (l1, l2),
            "pair": pair,
            "twist": gmul(gpow(l1, k[0]), gpow(l2, k[1])),
            "proj": (gmul(t2, gmul(gpow(l1, j[0]), gpow(l2, j[1]))), t2),
            "element": self._element(rng, lattice_vec),
            "sample_seed": rng.randrange(2**32),
            "known_fault": (),
        }

    @staticmethod
    def _element(rng, v):
        """A diagonal element whose normal form exists in the scalar ring.

        The diagonal entries are zeta * l^(t*v + s*(1, 0)) with v in the
        surface's true relation lattice, so a degree k is resonant exactly
        when k*s1 + (n-k)*s2 = 0 and zeta1^k zeta2^(n-k) = 1.  Resonant
        coefficients are rho1^k rho2^(n-k) with positive rationals rho, so
        the rescaling to 1 needs only roots that exist in Q(i).  The scalar
        stratum (equal entries that are n-th roots of unity), whose normal
        form is not unique, is not drawn.  The conjugator's diagonal entries
        are positive rationals times powers of l2 alone: with an l1 power
        that the lattice reduces, normal_form can pick a root that differs
        from the needed one by l^(v/2) and fail (a FOUND entry in CHANGES.md).
        """
        while True:
            n = rng.randint(1, 3)
            z = [_gauss(rng.choice(_ZETAS)) for _ in range(2)]
            t = [rng.randint(-1, 1) for _ in range(2)]
            s = [rng.randint(-1, 1) for _ in range(2)]
            if s == [0, 0] and z[0] == z[1] and gpow(z[0], n) == G_ONE:
                continue
            break
        exps = [(t[i] * v[0] + s[i], t[i] * v[1]) for i in range(2)]
        rho = (rng.choice(_RHOS), rng.choice(_RHOS))
        coeffs = []
        for deg in range(n + 1):
            resonant = deg * s[0] + (n - deg) * s[1] == 0 and gmul(
                gpow(z[0], deg), gpow(z[1], n - deg)
            ) == G_ONE
            if resonant:
                coeffs.append((rho[0] ** deg * rho[1] ** (n - deg), Fraction(0)))
            else:
                coeffs.append(_small_gauss(rng))
        conj = {
            "diag": [
                (
                    (rng.choice((1, 2, 3, Fraction(1, 2), Fraction(1, 3), Fraction(3, 2))), Fraction(0)),
                    (0, rng.randint(-2, 2)),
                )
                for _ in range(2)
            ],
            "coeffs": [_small_gauss(rng) for _ in range(n + 1)],
        }
        return {"n": n, "diag": list(zip(z, exps)), "coeffs": coeffs, "conj": conj}

    def new_pass(self):
        return None

    def execute(self, inp, _ctx):
        l1, l2 = inp["l"]
        s = HopfSurface.diagonal(to_gauss(l1), to_gauss(l2))
        cls = classify_surface(s)
        basis = s.basis
        line = line_bundle_sections(s, basis.gauss(to_gauss(inp["twist"])))
        t1, t2 = inp["proj"]
        zero = GaussRat(0)
        proj = proj_bundle_sections(s, ((to_gauss(t1), zero), (zero, to_gauss(t2))))

        el = inp["element"]
        n = el["n"]

        def mono(c, e):
            return Scalar.monomial(basis, to_gauss(c), e)

        x = GroupElt(
            Mat2.diag(*(mono(c, e) for c, e in el["diag"])),
            HomogPoly(basis, n, [basis.gauss(to_gauss(c)) for c in el["coeffs"]]),
        )
        cj = el["conj"]
        h = GroupElt(
            Mat2.diag(*(mono(c, e) for c, e in cj["diag"])),
            HomogPoly(basis, n, [basis.gauss(to_gauss(c)) for c in cj["coeffs"]]),
        )
        nf = normal_form(x).element
        nf_conj = normal_form(x.conjugate_by(h)).element
        nf_again = normal_form(nf).element
        return {
            "class": (cls.kind, cls.m1, cls.m2),
            "line": (line.variant, tuple(line.exponents), line.hyper),
            "proj": (proj.variant, tuple(proj.exponents), proj.hyper, proj.includes_infinity),
            "nf_conjugation_invariant": nf_conj == nf,
            "nf_idempotent": nf_again == nf,
            "nf_matrix": nf.g.numeric(),
        }

    def check(self, inp, out):
        bad = []
        kind, pair = inp["kind"], inp["pair"]
        want = (kind, None, None) if pair is None else (kind, pair[0], pair[1])
        if out["class"] != want:
            bad.append(_class_msg(out["class"], want))
        t1, t2 = inp["proj"]
        for key, value in (("line", inp["twist"]), ("proj", gmul(t1, ginv(t2)))):
            variant, exps, hyper = out[key][:3]
            want_variant = "monomial" if pair is None else "monomial_times_rational"
            if variant != want_variant or hyper != pair:
                bad.append(_family_msg(key, variant, hyper, want_variant))
                continue
            if len(exps) != 2 or gmul(gpow(inp["l"][0], exps[0]), gpow(inp["l"][1], exps[1])) != value:
                bad.append("%s exponents %r do not reproduce the twist" % (key, exps))
                continue
            if pair is not None and not 0 <= exps[0] < pair[0]:
                bad.append("%s exponents %r not normalized to 0 <= k1 < m1" % (key, exps))
            err = self._section_residual(inp, exps, pair, value, key == "proj")
            if not err < 1e-9:
                bad.append("%s functional-equation residual %.3g" % (key, err))
        if out["proj"][3] is not True:
            bad.append("P^1-bundle family lacks the infinity section")
        for law in ("nf_conjugation_invariant", "nf_idempotent"):
            if out[law] is not True:
                bad.append(law)
        w = [gnum(v) for v in inp["l"]]
        diag = [gnum(c) * w[0] ** e[0] * w[1] ** e[1] for c, e in inp["element"]["diag"]]
        got = out["nf_matrix"]
        err = max(rel_err(got[0][0], diag[0]), rel_err(got[1][1], diag[1]), abs(got[0][1]), abs(got[1][0]))
        if not err < 1e-9:
            bad.append("normal-form matrix differs from diag(e1, e2) by %.3g" % err)
        return bad

    @staticmethod
    def _section_residual(inp, exps, pair, value, projective):
        """Worst residual of f(F z) = value * f(z) for a section built here,
        relative for the line bundle and chordal for the P^1-bundle.

        The section is z1^k1 z2^k2 P(u)/Q(u), u = z1^m1/z2^m2 on hyperresonant
        surfaces (P = Q = 1 otherwise), with P, Q drawn from the op's seed.
        For the diagonal P^1-bundle, value * f(z) is the Moebius image
        of f(z) under diag(t1, t2).
        """
        rng = random.Random(inp["sample_seed"])
        w1, w2 = (gnum(v) for v in inp["l"])
        a = gnum(value)
        k1, k2 = exps
        P = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)) for _ in range(3)]
        Q = [1, complex(rng.uniform(0.5, 1.5), 0)]

        def f(z1, z2):
            out = z1**k1 * z2**k2
            if pair is not None:
                u = z1 ** pair[0] / z2 ** pair[1]
                out *= sum(c * u**i for i, c in enumerate(P)) / sum(c * u**i for i, c in enumerate(Q))
            return out

        r0 = min(abs(w1), abs(w2))
        worst = 0.0
        for _ in range(8):
            z = [
                math.exp(rng.uniform(math.log(r0), 0.0)) * cmath.exp(2j * math.pi * rng.random())
                for _ in range(2)
            ]
            lhs = f(w1 * z[0], w2 * z[1])
            rhs = a * f(*z)
            worst = max(worst, chordal(lhs, rhs) if projective else rel_err(lhs, rhs))
        return worst


# ---------------------------------------------------------------------------
# cli-verify

RADIAL = "radial structure on a linear surface"
EIGEN = ("eigenstructure along axis 1", "eigenstructure along axis 2")

# (label, spec, extra argv, degrees n): the fixed surface matrix.
CLI_SURFACES = (
    ("generic", {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]},
     ["--deg-bound", "2"], (1, 2, 3)),
    ("hyperresonant", {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]},
     ["--deg-bound", "2", "--params", "2;2,3"], (1, 2, 3)),
    ("homothety", {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 2, 0, 1]},
     ["--deg-bound", "2", "--params", "2;2,3"], (1, 2, 3)),
    ("exceptional-m1", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1}, [], (1, 2, 3)),
    ("exceptional-m2", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 2}, [], (2, 3)),
)


def run_cli(argv):
    """hopfon.cli.main(argv) in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliVerify:
    """``hopfon verify --spec <file> --n N --compact`` over a fixed surface matrix.

    The diagonal surfaces run the bounded brute-force oracle
    (``--deg-bound 2``); the exceptional ones do not, because the oracle
    runs on diagonal surfaces only.  The seed picks each op's ``--seed``,
    which drives the group-axiom trials and the sample points.
    """

    name = "cli-verify"
    OPS_PER_PASS = sum(len(ns) for *_, ns in CLI_SURFACES)
    NOMINAL_PASS_S = 10.8
    WARMUP_OPS = 1

    def __init__(self, spec_dir=None):
        self.spec_dir = spec_dir or os.path.join(OUT_DIR, "specs")

    def make_inputs(self, seed: int):
        rng = random.Random("cli-verify:%d" % seed)
        os.makedirs(self.spec_dir, exist_ok=True)
        inputs = []
        for label, spec, extra, ns in CLI_SURFACES:
            path = os.path.join(self.spec_dir, label + ".json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            for n in ns:
                argv = ["verify", "--spec", path, "--n", str(n), "--compact",
                        "--seed", str(rng.randrange(2**31))] + extra
                inputs.append({"label": label, "n": n, "argv": argv, "known_fault": ()})
        return inputs

    def new_pass(self):
        return None

    def execute(self, inp, _ctx):
        code, stdout, stderr = run_cli(inp["argv"])
        return {"code": code, "stdout": stdout, "stderr": stderr}

    def check(self, inp, out):
        if out["code"] != 0:
            return ["exit code %r: %s" % (out["code"], out["stderr"].strip()[:200])]
        try:
            payload = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return ["output is not JSON: %s" % exc]
        bad = []
        reports = payload.get("reports", [])
        if payload.get("passed") is not True:
            bad.append("verify reported passed = %r" % payload.get("passed"))
        bad += ["report %s failed" % r.get("check") for r in reports if r.get("passed") is not True]
        if inp["label"] in ("generic", "hyperresonant", "homothety"):
            bc = [r for r in reports if r.get("check") == "bounded_completeness"]
            if len(bc) != 1:
                bad.append("no bounded_completeness report")
            else:
                d = bc[0].get("detail", {})
                if d.get("enumerated") != d.get("brute_force") or not d.get("enumerated"):
                    bad.append("enumerated %r against brute force %r" % (d.get("enumerated"), d.get("brute_force")))
        if inp["label"] == "generic":
            structures = {r["structure"] for r in reports if "structure" in r}
            if structures != {RADIAL, *EIGEN}:
                bad.append("generic surface structures %r" % sorted(structures))
        return bad


WORKLOADS = {w.name: w for w in (GroupLaws(), Resonance(), CliVerify())}
