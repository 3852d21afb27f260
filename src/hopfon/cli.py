"""Command-line front end.

Subcommands: classify | structures | verify | normal-form | sections |
cases.  Input surfaces and group elements are JSON files; all output
is JSON on stdout.  Exit codes: 0 success, 1 verification failure,
2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .classify import (
    DEFAULT_ROOT_POOL,
    ClassifyError,
    brute_force_admissible,
    canonical_key,
    enumerate_structures,
    reproduce_case_table,
)
from .devmaps import DevMapError
from .group import GroupElt, HomogPoly, Mat2
from .hopf import (
    HopfSurface,
    SurfaceError,
    bihol_group,
    classify_surface,
    function_field,
    relation_pairs,
    witness_pair,
)
from .normalform import NormalFormError, normal_form, resonant_degrees
from .scalars import (
    BasisMismatchError,
    EigenBasis,
    GaussRat,
    Scalar,
    ScalarDomainError,
)
from .sections import SectionError, line_bundle_sections, proj_bundle_sections
from .verify import VerifyConfig, check_group_axioms, verify_structure


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputError("cannot open %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            "%s: invalid JSON at line %d column %d: %s"
            % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc


def _surface_from_spec(spec: dict) -> HopfSurface:
    if "surface" in spec:
        spec = spec["surface"]
    try:
        return HopfSurface.from_record(spec)
    except (SurfaceError, KeyError, TypeError, ValueError) as exc:
        raise InputError("surface record: %s" % exc) from exc


def _quad(value, where: str) -> GaussRat:
    try:
        return GaussRat.from_quad(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError("%s: expected [re_num, re_den, im_num, im_den]" % where) from exc


def _positive(value, flag: str):
    """A count or tolerance, rejected unless positive and finite when given.

    NaN fails the comparison, so it is rejected with infinity.
    """
    if value is not None and not 0 < value < math.inf:
        raise InputError("%s must be positive and finite, got %s" % (flag, value))
    return value


def _bundle_degree(spec: dict, args) -> int:
    """The bundle degree: --n when given (and positive), else the spec's 'n'."""
    if args.n is not None:
        return _positive(args.n, "--n")
    n = spec.get("n")
    if n is None:
        raise InputError("the bundle degree is required (--n or spec key 'n')")
    return _integer(n, "spec key 'n'")


def _integer(value, where: str) -> int:
    """A JSON integer, rejecting bools, floats and strings."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("%s must be an integer, got %r" % (where, value))
    return value


def _number(value, where: str):
    """A JSON number, rejecting bools and strings."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError("%s must be a number, got %r" % (where, value))
    return value


def _verify_config(spec: dict, args, s: HopfSurface) -> VerifyConfig:
    """The verify settings of the spec and flags, with the annulus checked on s."""
    over = spec.get("verify", {})
    if not isinstance(over, dict):
        raise InputError("spec key 'verify' must be an object, got %r" % (over,))
    over = dict(over)
    if _positive(getattr(args, "samples", None), "--samples") is not None:
        over["samples"] = args.samples
    if _positive(getattr(args, "tol", None), "--tol") is not None:
        over["tol_equiv"] = args.tol
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    allowed = {"samples", "tol_equiv", "tol_jac", "seed", "annulus"}
    bad = set(over) - allowed
    if bad:
        raise InputError("verify config: unknown keys %s" % sorted(bad))
    for key, check in (("samples", _integer), ("tol_equiv", _number), ("tol_jac", _number)):
        if key in over:
            where = "verify key %r" % key
            _positive(check(over[key], where), where)
    if "seed" in over:
        _integer(over["seed"], "verify key 'seed'")
    if "annulus" in over:
        ann = over["annulus"]
        if not isinstance(ann, list) or len(ann) != 2:
            raise InputError("verify key 'annulus' must be [r_min, r_max], got %r" % (ann,))
        over["annulus"] = tuple(_number(r, "verify key 'annulus'") for r in ann)
    cfg = VerifyConfig(**over)
    try:
        cfg.resolve_annulus(s)
    except ValueError as exc:
        # without the key the annulus comes from the float witnesses, which can round to 0
        where = "verify key 'annulus'" if cfg.annulus is not None else (
            "default annulus from the float eigenvalue moduli %r" % ([abs(w) for w in s.basis.witness],)
        )
        raise InputError("%s: %s" % (where, exc)) from exc
    # F scales by the witnesses: at a zero one the equivariance check is vacuous
    if not all(0 < abs(w) < math.inf for w in s.basis.witness):
        raise InputError(
            "float eigenvalue witness %r has a zero or non-finite entry; "
            "the numeric checks cannot run on it" % (list(s.basis.witness),)
        )
    return cfg


def _emit(payload, args) -> None:
    json.dump(payload, sys.stdout, indent=None if getattr(args, "compact", False) else 2)
    sys.stdout.write("\n")


def cmd_classify(args) -> int:
    spec = _load_json(args.spec)
    s = _surface_from_spec(spec)
    payload = {
        "classification": classify_surface(s).to_record(),
        "function_field": function_field(s).to_record(),
        "bihol_group": bihol_group(s).to_record(),
    }
    _emit(payload, args)
    return 0


def _params_from(spec, args):
    if args.params:
        groups = []
        for chunk in args.params.split(";"):
            try:
                groups.append([Fraction(tok) for tok in chunk.split(",") if tok.strip()])
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError("--params: %r is not a list of rationals: %s" % (chunk, exc)) from exc
        return groups
    raw = spec.get("params")
    if raw is None:
        return None
    if not isinstance(raw, list) or not all(isinstance(group, list) for group in raw):
        raise InputError("spec key 'params' must be a list of lists of quadruples, got %r" % (raw,))
    return [[_quad(q, "params") for q in group] for group in raw]


def cmd_structures(args) -> int:
    spec = _load_json(args.spec)
    s = _surface_from_spec(spec)
    n = _bundle_degree(spec, args)
    params = _params_from(spec, args)
    cfg = _verify_config(spec, args, s) if args.verify else None
    try:
        records = enumerate_structures(s, n, hyper_params=params)
    except ClassifyError as exc:
        raise InputError(str(exc)) from exc
    payload = {"n": n, "count": len(records), "structures": []}
    if s.kind == "exceptional" and n < s.m:
        payload["warning"] = "n < m: an exceptional surface of degree m admits structures only for n >= m"
    failed = False
    for rec in records:
        entry = rec.to_record()
        if args.verify:
            reports = verify_structure(rec, s, cfg)
            entry["verification"] = [r.to_record() for r in reports]
            failed = failed or not all(r.passed for r in reports)
        payload["structures"].append(entry)
    _emit(payload, args)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    _positive(args.deg_bound, "--deg-bound")
    spec = _load_json(args.spec)
    s = _surface_from_spec(spec)
    n = _bundle_degree(spec, args)
    cfg = _verify_config(spec, args, s)
    params = _params_from(spec, args)
    if params is None and args.deg_bound is not None:
        # the oracle draws the roots of a degree-N factor from the pool's prefix
        # of length N, so instantiate the hyperresonant rows with those prefixes
        top = min(args.deg_bound, len(DEFAULT_ROOT_POOL))
        params = [DEFAULT_ROOT_POOL[:N] for N in range(1, top + 1)]
    try:
        records = enumerate_structures(s, n, hyper_params=params)
    except ClassifyError as exc:
        raise InputError(str(exc)) from exc
    axioms = check_group_axioms(n)
    reports = [axioms.to_record()]
    ok = axioms.passed
    for rec in records:
        for rep in verify_structure(rec, s, cfg):
            entry = rep.to_record()
            entry["structure"] = rec.provenance
            reports.append(entry)
            ok = ok and rep.passed
    if args.deg_bound is not None:
        bf = brute_force_admissible(s, n, deg_bound=args.deg_bound)
        keys_bf = sorted({repr(canonical_key(d, n)) for d in bf})
        keys_enum = sorted({repr(canonical_key(r.dev, n)) for r in records})
        match = keys_bf == keys_enum
        reports.append(
            {
                "check": "bounded_completeness",
                "passed": match,
                "detail": {"enumerated": len(keys_enum), "brute_force": len(keys_bf)},
            }
        )
        ok = ok and match
    _emit({"passed": ok, "reports": reports}, args)
    return 0 if ok else 1


def cmd_cases(args) -> int:
    rows = reproduce_case_table(args.n, args.m1, args.m2)
    payload = {
        "n": args.n,
        "m1": args.m1,
        "m2": args.m2,
        "rows": [r.to_record() for r in rows],
        "feasible": sum(1 for r in rows if r.feasible),
        "impossible": sum(1 for r in rows if r.impossible),
    }
    _emit(payload, args)
    return 0


def _element_from_record(rec: dict):
    if not isinstance(rec, dict):
        raise InputError("an element record must be a JSON object, got %r" % (rec,))
    if "basis" in rec:
        braw = rec["basis"]
        if not isinstance(braw, dict):
            raise InputError("element key 'basis' must be an object, got %r" % (braw,))
        if "values" in braw:
            values = braw["values"]
            if not isinstance(values, list) or len(values) != 2:
                raise InputError("basis.values must list two quadruples, got %r" % (values,))
            v1 = _quad(values[0], "basis.values[0]")
            v2 = _quad(values[1], "basis.values[1]")
            try:
                basis = EigenBasis.from_gauss_values(v1, v2)
            except ValueError as exc:
                raise InputError("basis.values: %s" % exc) from exc
        else:
            try:
                witness = witness_pair(braw.get("witness"))
                basis = EigenBasis(("l1", "l2"), relation_pairs(braw.get("relations", [])), witness)
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError("basis record: %s" % exc) from exc
    else:
        basis = EigenBasis(("l1", "l2"), (), (0.5, 0.3))
    try:
        n = _integer(rec["n"], "element key 'n'")
        g_rows = rec["g"]
        p_raw = rec.get("p")
    except KeyError as exc:
        raise InputError("element record needs keys n and g") from exc
    if n < 1:
        raise InputError("element key 'n' must be positive, got %d" % n)

    def scal(v, where):
        if isinstance(v, list) and len(v) == 4 and all(isinstance(t, int) for t in v):
            return basis.gauss(_quad(v, where))
        if isinstance(v, dict):
            c = _quad(v.get("coeff", [1, 1, 0, 1]), where + ".coeff")
            e = v.get("exps", [0, 1, 0, 1])
            try:
                exps = (Fraction(e[0], e[1]), Fraction(e[2], e[3]))
            except (IndexError, KeyError, TypeError, ZeroDivisionError) as exc:
                raise InputError("%s.exps: expected [e1_num, e1_den, e2_num, e2_den]" % where) from exc
            return Scalar.monomial(basis, c, exps)
        raise InputError("%s: expected a quadruple or {coeff, exps}" % where)

    try:
        g = Mat2(
            basis,
            tuple(
                tuple(scal(v, "g[%d][%d]" % (i, j)) for j, v in enumerate(row))
                for i, row in enumerate(g_rows)
            ),
        )
    except (TypeError, ValueError) as exc:
        raise InputError("g: %s" % exc) from exc
    if p_raw is None:
        p = HomogPoly.zero(basis, n)
    else:
        if not isinstance(p_raw, list) or len(p_raw) != n + 1:
            raise InputError("p must list n+1 coefficients")
        p = HomogPoly(basis, n, [scal(v, "p[%d]" % i) for i, v in enumerate(p_raw)])
    return GroupElt(g, p)


def cmd_normal_form(args) -> int:
    rec = _load_json(args.element)
    x = _element_from_record(rec)
    try:
        nf = normal_form(x)
        report = resonant_degrees(nf.element.g, x.degree, nf.element.p)
    except (NormalFormError, ScalarDomainError) as exc:
        raise InputError(str(exc)) from exc
    g = nf.element.g
    payload = {
        "unique": nf.unique,
        "swap_applied": nf.swap_applied,
        "resonance": report.to_record(),
        "g": [[e.to_record() for e in row] for row in g.entries],
        "p": [c.to_record() for c in nf.element.p.coeffs],
    }
    _emit(payload, args)
    return 0


def _json_flag(text: str, flag: str):
    """The JSON value of a flag, with parse errors that name it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s: invalid JSON %r: %s" % (flag, text, exc)) from exc


def cmd_sections(args) -> int:
    spec = _load_json(args.spec)
    s = _surface_from_spec(spec)
    try:
        if args.twist is not None:
            a = s.basis.gauss(_quad(_json_flag(args.twist, "--twist"), "--twist"))
            fam = line_bundle_sections(s, a)
        elif args.power is not None:
            if s.kind != "exceptional":
                raise InputError("--power applies to exceptional surfaces; use --powers")
            fam = line_bundle_sections(s, s.lam ** args.power)
        elif args.powers is not None:
            try:
                k1, k2 = (int(t) for t in args.powers.split(","))
            except ValueError as exc:
                raise InputError("--powers: expected 'k1,k2' with integers k1, k2, got %r" % args.powers) from exc
            fam = line_bundle_sections(s, s.l1**k1 * s.l2**k2)
        elif args.bundle is not None:
            rows = _json_flag(args.bundle, "--bundle")
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise InputError("--bundle: expected [[quad, quad], [quad, quad]], got %r" % (rows,))
            g = tuple(
                tuple(s.basis.gauss(_quad(v, "--bundle")) for v in row) for row in rows
            )
            fam = proj_bundle_sections(s, g)
        else:
            a = s.basis.gauss(_quad(_json_flag(args.jordan, "--jordan"), "--jordan"))
            g = ((a, s.basis.one()), (s.basis.zero(), a))
            fam = proj_bundle_sections(s, g)
    except (SectionError, ScalarDomainError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    _emit(fam.to_record(), args)
    return 0


def _add_common(p, spec=True):
    if spec:
        p.add_argument("--spec", required=True, help="surface spec JSON file")
    p.add_argument("--compact", action="store_true", help="single-line JSON output")
    p.add_argument(
        "--json", action="store_true", default=True,
        help="JSON output (the only format; accepted for interface stability)",
    )


def _classify_args(p):
    _add_common(p)
    p.set_defaults(func=cmd_classify)


def _structures_args(p):
    _add_common(p)
    p.add_argument("--n", type=int, help="bundle degree")
    p.add_argument("--params", help="hyperresonant parameter lists, e.g. '2;2,3'")
    p.add_argument("--verify", action="store_true", help="verify each record")
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_structures)


def _verify_args(p):
    _add_common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--params", help="hyperresonant parameter lists (default with --deg-bound D: the root-pool prefixes of length 1..D)")
    p.add_argument("--deg-bound", dest="deg_bound", type=int, help="run the brute-force completeness oracle")
    p.add_argument("--samples", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)


def _cases_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--compact", action="store_true")
    p.set_defaults(func=cmd_cases)


def _normal_form_args(p):
    p.add_argument("--element", required=True, help="element JSON file")
    p.add_argument("--compact", action="store_true")
    p.set_defaults(func=cmd_normal_form)


def _sections_args(p):
    _add_common(p)
    bundle = p.add_mutually_exclusive_group(required=True)
    bundle.add_argument("--twist", help="line-bundle twist as a JSON quadruple")
    bundle.add_argument("--power", type=int, help="twist lam^k on an exceptional surface")
    bundle.add_argument("--powers", help="twist l1^k1 l2^k2 as 'k1,k2'")
    bundle.add_argument("--bundle", help="diagonal projective class as JSON [[quad,quad],[quad,quad]]")
    bundle.add_argument("--jordan", help="Jordan-block projective class; pass the quad of a")
    p.set_defaults(func=cmd_sections)


# name -> (help, adds the subcommand's arguments), in the order of the usage line
_SUBCOMMANDS = {
    "classify": ("classify a surface spec", _classify_args),
    "structures": ("enumerate the O(n)-structures", _structures_args),
    "verify": ("run the verification suite", _verify_args),
    "cases": ("re-derive the developing-map case table", _cases_args),
    "normal-form": ("conjugacy normal form of a group element", _normal_form_args),
    "sections": ("meromorphic section families", _sections_args),
}


def build_parser(command=None):
    """The argument parser, with every subcommand, or with `command` alone.

    A parser built for one subcommand parses its arguments and prints its
    help and errors byte for byte as the full parser does: its usage line
    still lists every subcommand.
    """
    ap = argparse.ArgumentParser(
        prog="hopfon",
        description="Classify O(n)-structures on primary Hopf surfaces and verify them.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    if command is not None:
        sub.metavar = "{%s}" % ",".join(_SUBCOMMANDS)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a leading subcommand name needs that subcommand's parser alone
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SurfaceError, ClassifyError, SectionError, DevMapError, BasisMismatchError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
