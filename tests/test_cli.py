"""Command-line interface: output schemas, exit codes, round-trips."""

import json
from pathlib import Path

import pytest

from hopfon.cli import main


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def hyper_spec(tmp_path):
    return write(
        tmp_path,
        "hyper.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 4, 0, 1]},
    )


def test_classify_hyperresonant(tmp_path, capsys):
    code, out = run(capsys, ["classify", "--spec", hyper_spec(tmp_path)])
    assert code == 0
    assert out["classification"] == {"kind": "hyperresonant", "m1": 2, "m2": 1}
    assert out["function_field"]["field"] == "rational"


def test_classify_exceptional(tmp_path, capsys):
    spec = write(
        tmp_path, "exc.json", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 3}
    )
    code, out = run(capsys, ["classify", "--spec", spec])
    assert code == 0
    assert out["classification"] == {"kind": "exceptional", "m": 3}


def test_malformed_spec_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type": "diagonal", "lambda1": [1, 2')
    code = main(["classify", "--spec", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


def test_semantically_invalid_spec_exits_2(tmp_path, capsys):
    spec = write(tmp_path, "nope.json", {"type": "spherical"})
    code = main(["classify", "--spec", spec])
    assert code == 2


def test_structures_generic_n1(tmp_path, capsys):
    spec = write(
        tmp_path,
        "gen.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1], "n": 1},
    )
    code, out = run(capsys, ["structures", "--spec", spec])
    assert code == 0
    assert out["count"] == 3


def test_structures_exceptional_below_degree_warns(tmp_path, capsys):
    spec = write(
        tmp_path, "exc2.json", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 2}
    )
    code, out = run(capsys, ["structures", "--spec", spec, "--n", "1"])
    assert code == 0
    assert out["count"] == 0
    assert "n < m" in out["warning"]


def test_structures_hyper_with_params_and_verify(tmp_path, capsys):
    spec = write(
        tmp_path,
        "h12.json",
        {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]},
    )
    code, out = run(
        capsys,
        ["structures", "--spec", spec, "--n", "2", "--params", "2;2,3", "--verify",
         "--samples", "60", "--seed", "5"],
    )
    assert code == 0
    kinds = [s["kind"] for s in out["structures"]]
    assert kinds.count("hyperresonant") == 2
    for s in out["structures"]:
        assert all(r["passed"] for r in s["verification"])


def test_structures_roundtrip_devmaps(tmp_path, capsys):
    from hopfon.devmaps import DevMap

    spec = write(
        tmp_path,
        "h12b.json",
        {
            "type": "diagonal",
            "lambda1": [1, 4, 0, 1],
            "lambda2": [1, 2, 0, 1],
            "n": 2,
            "params": [[[2, 1, 0, 1]]],
        },
    )
    code, out = run(capsys, ["structures", "--spec", spec])
    assert code == 0
    for entry in out["structures"]:
        d = DevMap.from_record(entry["dev"])
        assert d.to_record() == entry["dev"]


def test_cases_output(capsys):
    code, out = run(capsys, ["cases", "--n", "1", "--m1", "1", "--m2", "1"])
    assert code == 0
    assert len(out["rows"]) == 6
    assert out["impossible"] == 2
    assert out["feasible"] == 4


def test_cases_excludes_large_fiber_degree(capsys):
    # m1 = m2 = 1 excludes deg P2 = n, also when n lies beyond small degrees
    code, out = run(capsys, ["cases", "--n", "12", "--m1", "1", "--m2", "1"])
    assert code == 0
    (row,) = [r for r in out["rows"] if (r["k1"], r["l1"], r["kt2"]) == (1, 0, -1)]
    assert row["degrees"]["P2"] == {"min": 1, "excluded": [12]}
    assert row["conditions"] == ["deg P2 != 12"]


def test_verify_command(tmp_path, capsys):
    spec = write(
        tmp_path,
        "gen2.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]},
    )
    code, out = run(
        capsys,
        ["verify", "--spec", spec, "--n", "1", "--samples", "60", "--deg-bound", "2"],
    )
    assert code == 0
    assert out["passed"]
    checks = {r["check"] for r in out["reports"]}
    assert {"group_axioms", "equivariance", "immersion", "bounded_completeness"} <= checks


def test_normal_form_command_identity_poly(tmp_path, capsys):
    element = write(
        tmp_path,
        "elt.json",
        {
            "n": 1,
            "g": [[[2, 1, 0, 1], [0, 1, 0, 1]], [[0, 1, 0, 1], [1, 1, 0, 1]]],
            "p": [[3, 1, 0, 1], [5, 1, 0, 1]],
        },
    )
    code, out = run(capsys, ["normal-form", "--element", element])
    assert code == 0
    assert out["unique"]
    assert out["resonance"]["resonant_degrees"] == [0]
    # nonresonant coefficient killed, resonant one rescaled to 1
    assert out["p"][1] == []
    assert out["p"][0] == [[[1, 1, 0, 1], [0, 1, 0, 1]]]


def test_normal_form_jordan(tmp_path, capsys):
    element = write(
        tmp_path,
        "jordan.json",
        {
            "n": 2,
            "g": [[[1, 1, 0, 1], [1, 1, 0, 1]], [[0, 1, 0, 1], [1, 1, 0, 1]]],
            "p": [[1, 1, 0, 1], [2, 1, 0, 1], [4, 1, 0, 1]],
        },
    )
    code, out = run(capsys, ["normal-form", "--element", element])
    assert code == 0
    # unipotent shape: p = Z1^n
    assert out["p"][0] == [] and out["p"][1] == []
    assert out["p"][2] == [[[1, 1, 0, 1], [0, 1, 0, 1]]]


def test_normal_form_exact_basis_shear_names_its_cause(tmp_path, capsys):
    # l1 - l2 = 1/4 here, but the ring keeps l1, l2 formal and cannot invert it
    def mono(exps):
        return {"coeff": [1, 1, 0, 1], "exps": exps}

    element = write(
        tmp_path,
        "shear.json",
        {
            "n": 1,
            "basis": {"values": [[1, 2, 0, 1], [1, 4, 0, 1]]},
            "g": [[mono([1, 1, 0, 1]), [1, 1, 0, 1]], [[0, 1, 0, 1], mono([0, 1, 1, 1])]],
        },
    )
    code = main(["normal-form", "--element", element])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: cannot shear to a diagonal matrix")
    assert "e1 - e2 is not a monomial in the formal generators l1, l2" in captured.err
    assert "even when the basis holds exact values" in captured.err


_ONE, _ZERO = [1, 1, 0, 1], [0, 1, 0, 1]


@pytest.mark.parametrize(
    "command, element, flags",
    [
        ("normal-form", {"n": 0, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": "x", "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1.5, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": True, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": "3", "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "g": [[{"exps": [1, 0, 0, 1]}, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "g": [[_ONE, _ZERO], [_ZERO, _ONE]], "p": [_ONE, {"exps": [1]}]}, []),
        ("normal-form", {"n": 1, "g": [[_ONE, _ZERO], [_ZERO, _ONE]], "p": 7}, []),
        ("normal-form", {"n": 1, "g": 5}, []),
        ("normal-form", {"n": 1, "g": [[_ONE, _ONE], [_ONE, _ONE]]}, []),
        ("normal-form", {"n": 1, "g": [[_ONE, _ZERO]]}, []),
        ("normal-form", {"n": 1, "basis": {"values": [_ZERO, _ONE]}, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        # the witness satisfies (1, -1), the relation that truncating 1.5 would give
        ("normal-form", {"n": 1, "basis": {"witness": [[0.5, 0], [0.5, 0]], "relations": [[1.5, -1]]},
                         "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "g": [[[True, 1, 0, 1], _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "basis": {"values": 5}, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "basis": {"values": [_ONE]}, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", {"n": 1, "basis": 5, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}, []),
        ("normal-form", [1, 2], []),
        ("structures", None, ["--n", "1", "--params", "x"]),
        ("verify", None, ["--n", "1", "--params", "1/0"]),
        ("sections", None, ["--bundle", "5"]),
        ("sections", None, ["--bundle", json.dumps([[_ONE, _ZERO], [_ZERO, _ZERO]])]),
        # a singular class on a diagonal surface used to give "infinity_only"
        ("sections", None, ["--jordan", json.dumps(_ZERO)]),
    ],
    ids=["n-zero", "n-not-integer", "n-fraction", "n-bool", "n-string", "exps-zero-denominator",
         "exps-too-short", "p-not-list", "g-not-rows", "singular-g", "g-not-2x2", "zero-basis-value",
         "basis-relation-fraction", "entry-bool", "basis-values-int", "basis-values-one-entry",
         "basis-int", "element-not-object", "structures-params-x", "verify-params-1/0",
         "bundle-int", "bundle-zero-diagonal", "jordan-zero-diagonal"],
)
def test_invalid_input_exits_2(tmp_path, capsys, command, element, flags):
    # each of these used to end in a traceback with exit code 1, or in a wrong answer
    if element is None:
        argv = [command, "--spec", hyper_spec(tmp_path)] + flags
    else:
        argv = [command, "--element", write(tmp_path, "elt.json", element)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "witness",
    [[[0.5, 0]], [[0.5, 0], [0.25, 0], [0.125, 0]], [[0.5, 0, 7], [0.25, 0]], [[0.5, False], [0.25, 0]]],
    ids=["one-pair", "three-pairs", "three-entry-pair", "bool-entry"],
)
def test_element_basis_witness_must_list_two_pairs(tmp_path, capsys, witness):
    # one pair used to end in an IndexError traceback with exit code 1, and
    # extra pairs or entries, or a bool read as 0 or 1, passed without a word
    element = {"n": 1, "basis": {"witness": witness}, "g": [[_ONE, _ZERO], [_ZERO, _ONE]]}
    code = main(["normal-form", "--element", write(tmp_path, "elt.json", element)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: basis record: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--power", "1", "--twist", "[1,2,0,1]"], "argument --twist: not allowed with argument --power"),
        ([], "one of the arguments --twist --power --powers --bundle --jordan is required"),
        (["--twist", "notjson"], "error: --twist: invalid JSON"),
        (["--bundle", "xx"], "error: --bundle: invalid JSON"),
        (["--jordan", "notjson"], "error: --jordan: invalid JSON"),
        (["--powers", "a,b"], "error: --powers: expected 'k1,k2'"),
        (["--powers", "1"], "error: --powers: expected 'k1,k2'"),
        (["--powers", "1,2,3"], "error: --powers: expected 'k1,k2'"),
    ],
    ids=["power-and-twist", "no-bundle", "twist-not-json", "bundle-not-json", "jordan-not-json",
         "powers-not-integers", "powers-one-value", "powers-three-values"],
)
def test_sections_takes_one_bundle_and_names_the_flag_it_cannot_parse(tmp_path, capsys, flags, message):
    # --power beside --twist used to be ignored, and these parse errors
    # printed Python's message without the flag
    try:
        code = main(["sections", "--spec", hyper_spec(tmp_path)] + flags)
    except SystemExit as exc:  # argparse rejects the flags themselves
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


_DIAG = {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]}
_GENERIC = {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]}
_EXC = {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 2}


@pytest.mark.parametrize(
    "command, spec",
    [
        (["classify"], {"type": "diagonal", "lambda1": [1, 0, 0, 1], "lambda2": [1, 2, 0, 1]}),
        (["classify"], {"type": "diagonal", "lambda1": [True, 4, 0, 1], "lambda2": [1, 2, 0, 1]}),
        (["classify"], {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1.5}),
        (["classify"], {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": True}),
        (["classify"], {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": "2"}),
        (["classify"], {"type": "diagonal", "formal": {"relations": [[1.5, -2]], "witness": [[0.25, 0], [0.5, 0]]}}),
        (["classify"], {"type": "diagonal", "formal": {"relations": [[2, -1]], "witness": [[0.25, 0]]}}),
        (["structures"], {"surface": _DIAG, "n": 2, "params": 5}),
        (["structures"], {"surface": _DIAG, "n": 2, "params": [5]}),
        (["structures"], {"surface": _DIAG, "n": 2, "params": [[]]}),
        (["structures", "--verify"], {"surface": _DIAG, "n": 2, "verify": 5}),
        (["structures", "--verify"], {"surface": _DIAG, "n": 2, "verify": {"annulus": 5}}),
        (["structures", "--verify"], {"surface": _DIAG, "n": 2, "verify": {"annulus": [1, 0.5]}}),
        (["structures", "--verify"], {"surface": _DIAG, "n": 2, "verify": {"samples": "x"}}),
        (["structures", "--verify"], {"surface": _DIAG, "n": 2, "verify": {"samples": 0}}),
        (["sections", "--jordan", json.dumps(_ZERO)], _EXC),
    ],
    ids=["lambda-zero-denominator", "lambda-bool", "m-fraction", "m-bool", "m-string", "relation-fraction",
         "witness-one-pair", "params-int", "params-flat", "params-empty-group", "verify-int",
         "annulus-int", "annulus-reversed", "samples-string", "samples-zero", "exceptional-jordan-zero"],
)
def test_invalid_spec_exits_2(tmp_path, capsys, command, spec):
    # each of these used to end in a traceback, run with a silently changed
    # value, or report a verification failure (exit 1)
    code = main(command + ["--spec", write(tmp_path, "spec.json", spec)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "spec, by_value, formal, variant, exponents",
    [
        (_DIAG, ["--twist", json.dumps([1, 2**200, 0, 1])], ["--powers", "0,200"],
         "monomial_times_rational", [0, 200]),
        (_DIAG, ["--bundle", json.dumps([[[1, 2**200, 0, 1], _ZERO], [_ZERO, _ONE]])], ["--powers", "0,200"],
         "monomial_times_rational", [0, 200]),
        (_GENERIC, ["--twist", json.dumps([1, 2**70, 0, 1])], ["--powers", "70,0"], "monomial", [70, 0]),
        (_EXC, ["--twist", json.dumps([1, 2**129, 0, 1])], ["--power", "129"], "monomial", [129, 0]),
    ],
    ids=["hyper-2^-200", "hyper-bundle-2^-200", "generic-2^-70", "exceptional-lam^129"],
)
def test_twist_by_value_matches_formal_route(tmp_path, capsys, spec, by_value, formal, variant, exponents):
    # these twists' exponent cosets miss the box |k1|, |k2| <= 64, where the
    # solver once looked, so the by-value route gave "zero" (or "zero_and_infinity")
    path = write(tmp_path, "spec.json", spec)
    code, fam = run(capsys, ["sections", "--spec", path] + by_value)
    assert code == 0
    code, ref = run(capsys, ["sections", "--spec", path] + formal)
    assert code == 0
    assert (fam["variant"], fam["exponents"]) == (ref["variant"], ref["exponents"]) == (variant, exponents)


def test_sections_commands(tmp_path, capsys):
    exc = write(
        tmp_path, "exc3.json", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 2}
    )
    code, out = run(capsys, ["sections", "--spec", exc, "--jordan", "[5,1,0,1]"])
    assert code == 0
    assert out["variant"] == "jordan_family"
    assert out["closed_form"] == "(z2/a) * (lam/z1)^2 + c, infinity"

    code, out = run(capsys, ["sections", "--spec", exc, "--power", "3"])
    assert code == 0
    assert out["variant"] == "monomial" and out["exponents"] == [3, 0]

    hyper = hyper_spec(tmp_path)
    code, out = run(capsys, ["sections", "--spec", hyper, "--powers", "1,1"])
    assert code == 0
    assert out["variant"] == "monomial_times_rational"

    code, out = run(capsys, ["sections", "--spec", hyper, "--twist", "[1,5,0,1]"])
    assert code == 0
    assert out["variant"] == "zero"


def test_sections_bundle_scaled_jordan_block(tmp_path, capsys):
    # [[5, 2], [0, 5]] is the Jordan class with a = 5/2, so its family shifts
    # by b/a = 2/5, which the closed form alone, read with a = 5, misstates
    spec = write(tmp_path, "exc.json", _EXC)
    bundle = [[[5, 1, 0, 1], [2, 1, 0, 1]], [_ZERO, [5, 1, 0, 1]]]
    code, out = run(capsys, ["sections", "--spec", spec, "--bundle", json.dumps(bundle)])
    assert code == 0
    assert out == {"variant": "jordan_family", "closed_form": "(z2/a) * (lam/z1)^2 + c, infinity",
                   "includes_infinity": True, "m": 2, "shift": [[[2, 5, 0, 1], [0, 1, 0, 1]]]}
    code, out = run(capsys, ["sections", "--spec", spec, "--jordan", "[5,1,0,1]"])
    assert code == 0
    assert out["shift"] == [[[1, 5, 0, 1], [0, 1, 0, 1]]]


def test_deterministic_output_under_fixed_seed(tmp_path, capsys):
    spec = write(
        tmp_path,
        "h12c.json",
        {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]},
    )
    argv = ["structures", "--spec", spec, "--n", "2", "--params", "2;2,3",
            "--verify", "--samples", "40", "--seed", "11"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "spec, flags, golden",
    [
        (
            {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]},
            ["--n", "2", "--deg-bound", "2"],
            "verify_hyperresonant_n2_deg2_seed7.json",
        ),
        (
            {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1},
            ["--n", "3"],
            "verify_exceptional_m1_n3_seed7.json",
        ),
    ],
    ids=["hyperresonant", "exceptional"],
)
def test_verify_stdout_matches_golden(tmp_path, capsys, spec, flags, golden):
    # Pins the random stream and the order of every float operation: a
    # changed draw or a reordered sum moves some residual in the last digits.
    argv = ["verify", "--spec", write(tmp_path, "spec.json", spec), "--compact", "--seed", "7"]
    assert main(argv + flags) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("seed", [1383634611, 1353643518])
def test_verify_passes_correct_structures_near_a_holonomy_pole(tmp_path, capsys, seed):
    # At these seeds an equivariance sample of the radial structure lands
    # where c t1 + d is near 0, and the fibers compared there are about 5e5
    # in modulus.  Their absolute difference read rounding as residuals of
    # 1.8e-9 and 7.3e-9, above the 1e-9 tolerance; scaled by the fibers'
    # size it is about 1e-14.
    spec = write(tmp_path, "exc.json", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1})
    code, out = run(capsys, ["verify", "--spec", spec, "--n", "3", "--compact", "--seed", str(seed)])
    assert code == 0 and out["passed"]
    equivariance = [r for r in out["reports"] if r["check"] == "equivariance"]
    assert len(equivariance) == 2
    assert all(r["max_equivariance_residual"] < 1e-12 for r in equivariance)


def test_verify_detects_failure_with_tight_tolerance(tmp_path, capsys):
    spec = write(
        tmp_path,
        "gen3.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]},
    )
    code, out = run(
        capsys,
        ["verify", "--spec", spec, "--n", "1", "--samples", "30", "--tol", "1e-30"],
    )
    assert code == 1
    assert not out["passed"]


def _no_nan(name):
    pytest.fail("the output holds %s, which is not JSON" % name)


def far_out_spec(tmp_path, r_min):
    return write(
        tmp_path,
        "far.json",
        {
            "type": "diagonal",
            "lambda1": [1, 2, 0, 1],
            "lambda2": [1, 3, 0, 1],
            "verify": {"annulus": [r_min, 10 * r_min]},
        },
    )


def test_verify_non_finite_values_fail_and_print_null(tmp_path, capsys):
    # at |z| ~ 1e120 the radial map's t2 = 1/z2^3 and its det J are nan+nanj
    code = main(["verify", "--spec", far_out_spec(tmp_path, 1e120), "--n", "3", "--compact"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_nan)
    assert code == 1 and payload["passed"] is False
    radial = [r for r in payload["reports"] if r.get("structure") == "radial structure on a linear surface"]
    equivariance, immersion = radial
    assert equivariance["passed"] is False
    assert equivariance["max_equivariance_residual"] is None
    assert equivariance["failing_samples"]
    assert immersion["passed"] is False
    assert immersion["min_jacobian_magnitude"] is None and immersion["max_fd_mismatch"] is None
    assert immersion["failing_samples"]


def test_exact_eigenvalue_whose_witness_underflows(tmp_path, capsys):
    # 2^-1200 classifies exactly, but as a float modulus it is 0.0, which
    # leaves no default annulus for the numeric checks
    spec = write(tmp_path, "s.json", {"type": "diagonal", "lambda1": [1, 2**1200, 0, 1],
                                      "lambda2": [1, 2**20, 0, 1]})
    code, out = run(capsys, ["classify", "--spec", spec])
    assert code == 0
    assert out["classification"] == {"kind": "hyperresonant", "m1": 1, "m2": 60}
    for argv in (["verify", "--n", "1"], ["structures", "--n", "1", "--verify"]):
        code = main(argv + ["--spec", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: default annulus"), argv


@pytest.mark.parametrize("n", ["1", "3"])
def test_exact_eigenvalue_whose_witness_underflows_with_an_explicit_annulus(tmp_path, capsys, n):
    # apply_F scales by the witness 0.0, so every sample maps to (0, ...): the
    # numeric checks would pass or fail vacuously, whatever the annulus
    spec = write(tmp_path, "s.json", {"type": "diagonal", "lambda1": [1, 2**1200, 0, 1],
                                      "lambda2": [1, 2**20, 0, 1],
                                      "verify": {"annulus": [0.5, 1.0]}})
    for argv in (["verify", "--n", n], ["structures", "--n", n, "--verify"]):
        code = main(argv + ["--spec", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.startswith("error: float eigenvalue witness [0j, "), argv
        assert "zero or non-finite" in captured.err, argv


def test_verify_group_axioms_record_does_not_depend_on_the_seed(tmp_path, capsys):
    spec = write(tmp_path, "s.json", {"type": "diagonal", "lambda1": [1, 2, 0, 1],
                                      "lambda2": [1, 3, 0, 1]})
    records = []
    for seed in ("0", "1234567"):
        code, out = run(capsys, ["verify", "--spec", spec, "--n", "2", "--seed", seed,
                                 "--samples", "20"])
        assert code == 0
        records.append(out["reports"][0])
    assert records[0]["check"] == "group_axioms" and records[0]["passed"]
    assert records[0] == records[1]


def test_verify_huge_annulus_reports_instead_of_overflowing(tmp_path, capsys):
    # |z|^2 ~ 1e320 leaves the float range inside the chordal distance
    code = main(["verify", "--spec", far_out_spec(tmp_path, 1e160), "--n", "3", "--compact"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_nan)
    assert code in (0, 1)
    assert payload["passed"] is (code == 0)
    assert [r["check"] for r in payload["reports"]][:3] == ["group_axioms", "equivariance", "immersion"]


@pytest.mark.parametrize(
    "l1, l2, flags",
    [([1, 2, 0, 1], [1, 3, 0, 1], ["--n", "3"]), ([1, 4, 0, 1], [1, 2, 0, 1], ["--n", "2", "--params", "2;2,3"])],
    ids=["power-underflows", "power-overflows"],
)
def test_verify_tiny_annulus_fails_samples_instead_of_raising(tmp_path, capsys, l1, l2, flags):
    # at |z| ~ 1e-160 a negative power of a coordinate in eval_devmap leaves the
    # float range: 0.0 ** -3 raises ZeroDivisionError, a complex power OverflowError
    spec = write(
        tmp_path,
        "tiny.json",
        {"type": "diagonal", "lambda1": l1, "lambda2": l2, "verify": {"annulus": [1e-160, 1e-159]}},
    )
    code = main(["verify", "--spec", spec, *flags, "--compact"])
    payload = json.loads(capsys.readouterr().out, parse_constant=_no_nan)
    assert code == 1 and payload["passed"] is False
    immersion = [r for r in payload["reports"] if r["check"] == "immersion"]
    failed = [r for r in immersion if not r["passed"]]
    assert failed and all(r["failing_samples"] for r in failed)


@pytest.mark.parametrize(
    "l1, l2, n",
    [([1, 4, 0, 1], [1, 2, 0, 1], 2), ([1, 2, 0, 1], [1, 2, 0, 1], 1)],
    ids=["readme-hyperresonant", "homothety"],
)
def test_verify_deg_bound_without_params(tmp_path, capsys, l1, l2, n):
    # without params the enumeration takes the oracle's root-pool prefixes
    spec = write(tmp_path, "s.json", {"type": "diagonal", "lambda1": l1, "lambda2": l2})
    code, out = run(capsys, ["verify", "--spec", spec, "--n", str(n), "--deg-bound", "2"])
    assert code == 0 and out["passed"]
    (bc,) = [r for r in out["reports"] if r["check"] == "bounded_completeness"]
    assert bc["passed"] and bc["detail"]["enumerated"] == bc["detail"]["brute_force"]


@pytest.mark.parametrize(
    "flag, value",
    [("--samples", "0"), ("--deg-bound", "0"), ("--tol", "0"), ("--n", "0")],
)
def test_verify_rejects_non_positive_counts(tmp_path, capsys, flag, value):
    # such a value used to fall back to a default or skip the oracle
    spec = write(
        tmp_path,
        "gen4.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]},
    )
    code = main(["verify", "--spec", spec, "--n", "1", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err and "must be positive" in captured.err


@pytest.mark.parametrize("value", ["5", "0", "-5"])
def test_verify_rejects_the_removed_trials_flag(tmp_path, capsys, value):
    # the exact proof decides the group laws, so no random trials repeat it
    spec = write(tmp_path, "s.json", _GENERIC)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--spec", spec, "--n", "1", "--trials", value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --trials" in captured.err


_TINY = {"surface": _GENERIC, "verify": {"annulus": [1e-9, 1e-8]}}


@pytest.mark.parametrize(
    "spec_text, flags",
    [
        # the radial structure fails equivariance here, with residual ~3e3
        (json.dumps(_TINY), ["--tol", "inf"]),
        (json.dumps(_TINY), ["--tol", "nan"]),
        ('{"surface": %s, "verify": {"tol_jac": NaN}}' % json.dumps(_GENERIC), []),
        ('{"surface": %s, "verify": {"tol_equiv": Infinity}}' % json.dumps(_GENERIC), []),
        ('{"surface": %s, "verify": {"annulus": [0.5, 1e400]}}' % json.dumps(_GENERIC), []),
    ],
    ids=["tol-inf", "tol-nan", "tol_jac-nan", "tol_equiv-infinity", "annulus-1e400"],
)
@pytest.mark.parametrize("command", [["verify"], ["structures", "--verify"]])
def test_non_finite_verify_settings_exit_2(tmp_path, capsys, spec_text, flags, command):
    # an infinite tolerance passed any residual, a NaN one failed every check,
    # and a radius of 1e400 parsed as infinity and ran the checks there
    spec = tmp_path / "spec.json"
    spec.write_text(spec_text)
    code = main(command + ["--spec", str(spec), "--n", "2"] + flags)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert "finite" in captured.err or "infinity" in captured.err


def test_structures_rejects_zero_degree_over_spec(tmp_path, capsys):
    # --n 0 used to fall back to the spec's n
    spec = write(
        tmp_path,
        "gen5.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1], "n": 2},
    )
    code = main(["structures", "--spec", spec, "--n", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --n must be positive")


@pytest.mark.parametrize("value", ["x", 1.5])
def test_structures_rejects_non_integer_spec_degree(tmp_path, capsys, value):
    # "x" used to raise a traceback and 1.5 to be truncated to n = 1
    spec = write(
        tmp_path,
        "gen6.json",
        {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1], "n": value},
    )
    code = main(["structures", "--spec", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: spec key 'n' must be an integer")
