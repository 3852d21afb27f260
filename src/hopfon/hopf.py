"""Primary Hopf surface descriptors.

A surface is the quotient of C^2 minus the origin by a contraction in
one of the two normal forms

    F(z) = (l1 z1, l2 z2)                    (diagonal)
    F(z) = (l z1, l^m z2 + z1^m),  m >= 1    (exceptional)

with all eigenvalue moduli strictly between 0 and 1.  Diagonal
surfaces subdivide by the relation lattice of (l1, l2): a homothety
(l1 = l2), a hyperresonant surface (l1^m1 = l2^m2 for a minimal
positive pair), or generic (no relation).  An exceptional surface
with m = 1 is linear; for m >= 2 it is nonlinear.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import EigenBasis, GaussRat, Scalar, _Frozen, as_gauss


class SurfaceError(ValueError):
    """Invalid contraction data."""


# the modulus tolerance for formal bases, known only through witnesses
_MODULUS_TOL = 1e-12


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _pairs(value) -> bool:
    """Whether value is a JSON list of two-entry lists."""
    return isinstance(value, list) and all(isinstance(v, list) and len(v) == 2 for v in value)


def relation_pairs(value):
    """value, a JSON list of integer relation pairs; SurfaceError otherwise."""
    if not _pairs(value) or not all(_is_int(v) for r in value for v in r):
        raise SurfaceError("formal relations must be integer pairs, got %r" % (value,))
    return value


def witness_pair(value):
    """value, a JSON list of two [re, im] pairs of numbers, as two complex
    numbers; SurfaceError otherwise (a bool is not a number)."""
    if not _pairs(value) or len(value) != 2 or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for w in value for v in w
    ):
        raise SurfaceError("formal witness must list two [re, im] pairs of numbers, got %r" % (value,))
    return [complex(re, im) for re, im in value]


class HopfSurface(_Frozen):
    """Contraction data for a primary Hopf surface, diagonal or exceptional."""

    __slots__ = ("kind", "basis", "m")

    def __init__(self, kind: str, basis: EigenBasis, m: int = None):
        if kind not in ("diagonal", "exceptional"):
            raise SurfaceError("kind must be 'diagonal' or 'exceptional'")
        if kind == "exceptional":
            if not _is_int(m) or m < 1:
                raise SurfaceError("exceptional surfaces need an integer degree m >= 1")
        elif m is not None:
            raise SurfaceError("diagonal surfaces carry no degree")
        count = 1 if kind == "exceptional" else 2
        if basis.exact is not None:
            # |(x + i y)/z| < 1 decided on the integers
            inside = all(0 < c.x**2 + c.y**2 < c.z**2 for c in basis.exact[:count])
        else:
            inside = all(_MODULUS_TOL < abs(w) < 1 - _MODULUS_TOL for w in basis.witness[:count])
        if not inside:
            raise SurfaceError("eigenvalue moduli must lie strictly in (0, 1)")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "m", m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def diagonal(cls, l1, l2) -> "HopfSurface":
        """Diagonal surface with Gaussian-rational eigenvalues.

        The basis refines them once, into its `scalars.ValuationSystem`: it
        gives the relation lattice (`scalars.find_relations`, with a minimal
        pair beyond |m1|, |m2| <= 64 reported as no relation) and solves
        every section twist given by value."""
        basis = EigenBasis.from_gauss_values(as_gauss(l1), as_gauss(l2))
        return cls("diagonal", basis)

    @classmethod
    def diagonal_formal(cls, relations, witness) -> "HopfSurface":
        """Diagonal surface with formal eigenvalues and a declared relation lattice."""
        return cls("diagonal", EigenBasis(("l1", "l2"), relations, witness))

    @classmethod
    def exceptional(cls, lam, m: int) -> "HopfSurface":
        """Exceptional surface (l z1, l^m z2 + z1^m) of degree m.

        Both basis generators name the single eigenvalue, so diagonal-style
        bookkeeping stays usable: the exact values (l, l) give the lattice
        generated by l1 = l2."""
        lam = as_gauss(lam)
        if lam.is_zero():
            # the modulus check, made here because the basis refuses a zero value
            raise SurfaceError("eigenvalue moduli must lie strictly in (0, 1)")
        w = lam.to_complex()
        basis = EigenBasis(("lam", "lam2"), (), (w, w), exact=(lam, lam))
        return cls("exceptional", basis, m=m)

    # -- eigenvalues ---------------------------------------------------------

    @property
    def l1(self) -> Scalar:
        return self.basis.gen(0)

    @property
    def l2(self) -> Scalar:
        return self.basis.gen(1)

    @property
    def lam(self) -> Scalar:
        if self.kind != "exceptional":
            raise SurfaceError("only exceptional surfaces have a single eigenvalue")
        return self.basis.gen(0)

    def is_homothety(self) -> bool:
        return self.kind == "diagonal" and self.l1 == self.l2

    def hyperresonance(self):
        """Minimal positive pair (m1, m2) with l1^m1 = l2^m2, or None."""
        if self.kind != "diagonal":
            return None
        return self.basis.hyperresonance()

    # -- numeric contraction ---------------------------------------------------

    def float_F(self):
        """The contraction as a function of two complex numbers, with its
        float constants bound; it does not check for the origin."""
        if self.kind == "diagonal":
            w1, w2 = self.basis.witness
            return lambda z1, z2: (w1 * z1, w2 * z2)
        lam, m = self.basis.witness[0], self.m
        lam_m = lam**m
        return lambda z1, z2: (lam * z1, lam_m * z2 + z1**m)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_record(cls, rec: dict) -> "HopfSurface":
        if not isinstance(rec, dict):
            raise SurfaceError("surface record must be an object")
        kind = rec.get("type")
        if kind == "diagonal":
            if "formal" in rec:
                f = rec["formal"]
                if not isinstance(f, dict):
                    raise SurfaceError("formal must be an object")
                wit = witness_pair(f.get("witness"))
                rels = relation_pairs(f.get("relations", []))
                return cls.diagonal_formal(rels, wit)
            try:
                l1 = GaussRat.from_quad(rec["lambda1"])
                l2 = GaussRat.from_quad(rec["lambda2"])
            except KeyError as exc:
                raise SurfaceError("diagonal record needs lambda1 and lambda2") from exc
            return cls.diagonal(l1, l2)
        if kind == "exceptional":
            try:
                lam = GaussRat.from_quad(rec["lambda"])
                m = rec["m"]
            except KeyError as exc:
                raise SurfaceError("exceptional record needs lambda and m") from exc
            return cls.exceptional(lam, m)
        raise SurfaceError("surface type must be 'diagonal' or 'exceptional'")

    def __repr__(self):
        if self.kind == "exceptional":
            return "HopfSurface(exceptional, m=%d, lam=%r)" % (self.m, self.basis.witness[0])
        return "HopfSurface(diagonal, witness=%r)" % (self.basis.witness,)


# ---------------------------------------------------------------------------
# classification descriptors


@dataclass(frozen=True)
class SurfaceClass:
    kind: str  # generic | hyperresonant | homothety | exceptional
    m1: int = None
    m2: int = None
    m: int = None

    def to_record(self):
        out = {"kind": self.kind}
        if self.kind in ("hyperresonant", "homothety"):
            out["m1"], out["m2"] = self.m1, self.m2
        if self.kind == "exceptional":
            out["m"] = self.m
        return out


def classify_surface(s: HopfSurface) -> SurfaceClass:
    """Generic / Hyperresonant(m1, m2) / Homothety / Exceptional(m).

    A homothety is reported as the (1, 1) hyperresonance subcase.
    """
    if s.kind == "exceptional":
        return SurfaceClass("exceptional", m=s.m)
    pair = s.hyperresonance()
    if pair is None:
        return SurfaceClass("generic")
    if pair == (1, 1):
        return SurfaceClass("homothety", m1=1, m2=1)
    return SurfaceClass("hyperresonant", m1=pair[0], m2=pair[1])


@dataclass(frozen=True)
class FunctionField:
    kind: str  # constant | rational
    m1: int = None
    m2: int = None

    def to_record(self):
        if self.kind == "constant":
            return {"field": "constants"}
        return {
            "field": "rational",
            "invariant": "z1^%d/z2^%d" % (self.m1, self.m2),
            "m1": self.m1,
            "m2": self.m2,
        }


def function_field(s: HopfSurface) -> FunctionField:
    """Meromorphic function field: rational in z1^m1/z2^m2 iff hyperresonant."""
    pair = s.hyperresonance()
    if s.kind == "diagonal" and pair is not None:
        return FunctionField("rational", m1=pair[0], m2=pair[1])
    return FunctionField("constant")


@dataclass(frozen=True)
class BiholGroup:
    kind: str  # all_linear | diagonal_linear | exceptional_family
    m: int = None

    def to_record(self):
        if self.kind == "exceptional_family":
            return {
                "group": "exceptional_family",
                "maps": "(z1, z2) -> (a z1, a^%d z2 + b z1^%d)" % (self.m, self.m),
                "m": self.m,
            }
        if self.kind == "all_linear":
            return {"group": "all_invertible_linear"}
        return {"group": "invertible_diagonal_linear"}


def bihol_group(s: HopfSurface) -> BiholGroup:
    """Biholomorphism group descriptor of the surface."""
    if s.kind == "exceptional":
        return BiholGroup("exceptional_family", m=s.m)
    if s.is_homothety():
        return BiholGroup("all_linear")
    return BiholGroup("diagonal_linear")
