"""Compare the command-line outputs of a parent revision with the working tree.

    python3 tools/compare_outputs.py PARENT_REV

Run from the root of a source checkout.  The parent's ``src/`` is taken
with ``git archive`` into a temporary directory, and each side runs in a
process of its own, since both packages are named ``hopfon``.  Each side
runs five groups of commands in process, through ``hopfon.cli.main``,
and three groups of checks:

* ``cli-verify``: the 140 ``hopfon verify`` ops of the benchmark's
  ``cli-verify`` workload for seeds 0-9 (``bench/workloads.py``, imported
  read-only, with its spec files written to the temporary directory);
* ``readme``: the command block of ``README.md``, in a directory holding
  the files it writes;
* ``extreme-annulus``: ``hopfon verify --n N --compact --seed 3`` for
  n = 1..3 on six surfaces (generic, (1/4, 1/2), the homothety,
  (1/8, 1/2), exceptional m = 1 and m = 2; the diagonal ones with
  ``--params "2;2,3"``), each with the default annulus and with the
  annuli (0.5, 1), (1e-9, 1e-8), (1e8, 1e9), (1e-160, 1e-159) and
  (1e120, 1e121): 108 commands;
* ``cases``: ``hopfon cases`` for n, m1, m2 = 1..4: 64 commands;
* ``sections``: ``hopfon sections`` on two exceptional surfaces
  (lambda = 1/2 with m = 1, lambda = (1 + i)/3 with m = 2), the
  hyperresonant (1/4, 1/2), the generic (1/2, 1/3) and a formal surface
  with the relation l1^2 = l2, each with 40 bundles: ``--power`` k for
  k = -3..3, eight ``--powers`` pairs, ten ``--twist`` values, eight
  diagonal ``--bundle`` classes, four ``--jordan`` values and three Jordan
  ``--bundle`` classes [[a, 5], [0, a]]: 200 commands, the ones a surface
  rejects included;
* ``maps``: ``check_immersion`` with the default configuration on maps
  that no command builds, each on its surface: the swapped-chart map
  ``hat()`` of each of the 86 maps of the five ``cli-verify`` surfaces
  (each structure for n = 1..3, n = 2, 3 for m = 2, and its ``hat()``),
  the axis map (z1, z1 - 2 z2^2) on (1/4, 1/2), the homothety
  automorphism (z1, z1 - 2 z2), the double-root map with P1 = (u - 2)^2
  on (1/4, 1/2), and the identity with P1 = Q1 = P2 = 2^400 on the
  generic surface: 90 records, each the report's JSON;
* ``exact``: the exact values of the benchmark's ``group-laws`` and
  ``resonance`` ops for seeds 0-4, which reach lattice bases with
  multi-term scalars: for each ``group-laws`` op, the canonical ``.terms``
  of the matrix entries and coefficients of compose(x, y),
  compose(compose(x, y), z), compose(x, compose(y, z)) and inverse(x),
  with x, y, z built by ``GroupLaws._build``; for each ``resonance`` op,
  the ``repr`` of what its ``execute`` returns.  Each of the 20,000
  entries is kept as the SHA-256 of its ``repr``;
* ``float``: the float values that no command prints: for each
  ``group-laws`` op of seeds 0-4, the two sides ``act_affine(xy, pt)`` and
  ``act_affine(x, act_affine(y, pt))`` of its action law, with x, y built
  by ``GroupLaws._build``, and ``eval_devmap`` of the 86 ``cli-verify``
  maps at eight fixed points, four off the axes and two on each axis.
  Each entry is the SHA-256 of the ``repr`` of a plain (chart, c1, c2)
  tuple, or of the name of the exception raised.

For each group it prints how many outputs (stdout, stderr and exit code)
are byte-identical and which JSON keys changed, list indices written as
``[]``, with the number of commands in which each changed; for ``maps``
and the exact groups (``cases``, ``sections``, ``exact`` and ``float``) it also
names each record that changed.  The exit code is 1 when some command
changed its exit code or a ``passed`` flag, or some output of an exact
group changed, and 0 otherwise: a ``maps`` record is not a command, and
a change there is for the reader to judge by its name.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the groups of exact outputs, in which any change is a changed verdict
EXACT_GROUPS = ("cases", "sections", "exact", "float")

ANNULI = (None, (0.5, 1.0), (1e-9, 1e-8), (1e8, 1e9), (1e-160, 1e-159), (1e120, 1e121))
SECTION_SURFACES = (
    ("exceptional-m1", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1}),
    ("exceptional-m2", {"type": "exceptional", "lambda": [1, 3, 1, 3], "m": 2}),
    ("hyper-4-2", {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]}),
    ("generic", {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]}),
    ("formal", {"type": "diagonal", "formal": {"relations": [[2, -1]], "witness": [[0.5, 0], [0.25, 0]]}}),
)
QUADS = ([1, 1, 0, 1], [1, 2, 0, 1], [1, 4, 0, 1], [2, 1, 0, 1], [1, 6, 0, 1], [3, 1, 0, 1],
         [1, 8, 0, 1], [1, 3, 1, 3], [0, 1, 1, 2], [5, 1, 0, 1])
SECTION_FLAGS = (
    [["--power", str(k)] for k in range(-3, 4)]
    + [["--powers", "%d,%d" % k] for k in ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (-1, 3), (3, 2), (-2, -2))]
    + [["--twist", json.dumps(q)] for q in QUADS]
    + [["--bundle", json.dumps([[q, [0, 1, 0, 1]], [[0, 1, 0, 1], [1, 1, 0, 1]]])] for q in QUADS[1:9]]
    + [["--jordan", json.dumps(q)] for q in QUADS[1:5]]
    + [["--bundle", json.dumps([[q, [5, 1, 0, 1]], [[0, 1, 0, 1], q]])] for q in QUADS[1:4]]
)
SURFACES = (
    ("generic", {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 3, 0, 1]}),
    ("hyper-4-2", {"type": "diagonal", "lambda1": [1, 4, 0, 1], "lambda2": [1, 2, 0, 1]}),
    ("homothety", {"type": "diagonal", "lambda1": [1, 2, 0, 1], "lambda2": [1, 2, 0, 1]}),
    ("hyper-8-2", {"type": "diagonal", "lambda1": [1, 8, 0, 1], "lambda2": [1, 2, 0, 1]}),
    ("exceptional-m1", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 1}),
    ("exceptional-m2", {"type": "exceptional", "lambda": [1, 2, 0, 1], "m": 2}),
)


def _commands(work):
    """(group, name, argv, cwd) of every command, with their files written under work."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import CliVerify

    out = []
    cli_verify = CliVerify(spec_dir=os.path.join(work, "specs"))
    for seed in range(10):
        for inp in cli_verify.make_inputs(seed):
            out.append(("cli-verify", "seed %d %s n=%d" % (seed, inp["label"], inp["n"]), inp["argv"], work))
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", readme, re.S | re.M)
    block = next(b for lang, b in blocks if not lang and "hopfon " in b)
    readme_dir = os.path.join(work, "readme")
    os.makedirs(readme_dir)
    for name, text in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M):
        with open(os.path.join(readme_dir, name), "w") as fh:
            fh.write(text)
    for line in block.splitlines():
        if line.startswith("hopfon "):
            out.append(("readme", line, shlex.split(line)[1:], readme_dir))
    for label, spec in SURFACES:
        for annulus in ANNULI:
            path = os.path.join(work, "extreme", "%s-%s.json" % (label, annulus))
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(dict(spec, verify={"annulus": list(annulus)}) if annulus else spec, fh)
            params = ["--params", "2;2,3"] if spec["type"] == "diagonal" else []
            for n in (1, 2, 3):
                argv = ["verify", "--spec", path, "--n", str(n), "--compact", "--seed", "3"] + params
                out.append(("extreme-annulus", "%s %s n=%d" % (label, annulus, n), argv, work))
    for n in range(1, 5):
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                argv = ["cases", "--n", str(n), "--m1", str(m1), "--m2", str(m2)]
                out.append(("cases", " ".join(argv), argv, work))
    for label, spec in SECTION_SURFACES:
        path = os.path.join(work, "sections", label + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(spec, fh)
        for flags in SECTION_FLAGS:
            out.append(("sections", "%s %s" % (label, " ".join(flags)), ["sections", "--spec", path] + flags, work))
    return out


def _cli_verify_structures():
    """(name, map, surface) of each structure of the five ``cli-verify``
    surfaces, for n = 1..3 (n = 2, 3 for m = 2): 43 maps."""
    from workloads import CLI_SURFACES
    from hopfon import cli
    from hopfon.classify import enumerate_structures

    out = []
    for label, spec, _, ns in CLI_SURFACES:
        s = cli._surface_from_spec(spec)
        params = [[2], [2, 3]] if spec["type"] == "diagonal" else None
        for n in ns:
            for i, rec in enumerate(enumerate_structures(s, n, hyper_params=params)):
                out.append(("%s n=%d #%d" % (label, n, i), rec.dev, s))
    return out


def _map_checks():
    """[group, name, 0, report JSON, ""] of each check of the ``maps`` group."""
    from fractions import Fraction

    from workloads import CLI_SURFACES
    from hopfon import cli
    from hopfon.devmaps import DevMap, UniPoly
    from hopfon.hopf import HopfSurface
    from hopfon.verify import VerifyConfig, check_immersion

    cases = []
    for prefix, dev, s in _cli_verify_structures():
        for name, d in (("hat()", dev), ("hat().hat()", dev.hat())):
            cases.append(("%s %s" % (prefix, name), d.hat(), s))
    quarter, half = (HopfSurface.diagonal(Fraction(1, k), Fraction(1, 2)) for k in (4, 2))
    one, big = UniPoly([1]), UniPoly([2**400])
    cases += [
        ("axis map", DevMap(1, 0, 0, 2, one, one, UniPoly.from_roots([2]), (1, 2), 1), quarter),
        ("homothety automorphism", DevMap(1, 0, 0, 1, one, one, UniPoly.from_roots([2]), (1, 1), 1), half),
        ("double root", DevMap(0, 3, 1, -2, UniPoly.from_roots([2, 2]), one, one, (1, 2), 2), quarter),
        ("2^400 identity", DevMap(1, 0, 0, 1, big, big, big, None, 1), cli._surface_from_spec(CLI_SURFACES[0][1])),
    ]
    return [
        ["maps", name, 0, json.dumps(check_immersion(d, VerifyConfig(), s).to_record()), ""]
        for name, d, s in cases
    ]


def _exact_checks():
    """[group, name, 0, SHA-256 of the value's repr, ""] of each entry of the
    ``exact`` group."""
    import hashlib

    from workloads import GroupLaws, Resonance
    from hopfon import compose, inverse

    def terms(x):
        return [e.terms for row in x.g.entries for e in row], [c.terms for c in x.p.coeffs]

    def resonance_op(inp):
        try:
            return resonance.execute(inp, resonance.new_pass())
        except Exception as exc:  # an exception is a value like any other
            return "raised %s" % type(exc).__name__

    laws, resonance, out = GroupLaws(), Resonance(), []
    for seed in range(5):
        bases = laws.new_pass()
        for i, inp in enumerate(laws.make_inputs(seed)):
            n, basis = inp["n"], bases[inp["basis"]]
            x, y, z = (laws._build(basis, inp["kind"], n, e) for e in inp["elts"])
            xy = compose(x, y)
            values = (
                ("xy", xy), ("(xy)z", compose(xy, z)), ("x(yz)", compose(x, compose(y, z))), ("x^-1", inverse(x))
            )
            out += [("group-laws seed %d #%d %s" % (seed, i, label), terms(v)) for label, v in values]
        out += [
            ("resonance seed %d #%d" % (seed, i), resonance_op(inp))
            for i, inp in enumerate(resonance.make_inputs(seed))
        ]
    return [["exact", name, 0, hashlib.sha256(repr(v).encode()).hexdigest(), ""] for name, v in out]


def _float_checks():
    """[group, name, 0, SHA-256 of the value's repr, ""] of each entry of the
    ``float`` group."""
    import hashlib

    from workloads import GroupLaws
    from hopfon import AffinePoint, act_affine, compose
    from hopfon.devmaps import eval_devmap

    def value(point):
        """point() as a plain (chart, c1, c2), or the exception it raised."""
        try:
            out = point()
        except Exception as exc:  # an exception is a value like any other
            return "raised %s" % type(exc).__name__
        return (out.chart, out.c1, out.c2)

    laws, out = GroupLaws(), []
    for seed in range(5):
        bases = laws.new_pass()
        for i, inp in enumerate(laws.make_inputs(seed)):
            n, basis = inp["n"], bases[inp["basis"]]
            x, y = (laws._build(basis, inp["kind"], n, e) for e in inp["elts"][:2])
            pt = AffinePoint("T", *inp["point"])
            name = "group-laws seed %d #%d" % (seed, i)
            out.append((name + " lhs", value(lambda: act_affine(compose(x, y), pt, n))))
            out.append((name + " rhs", value(lambda: act_affine(x, act_affine(y, pt, n), n))))
    points = (
        (0.7 + 0.2j, 0.5 - 0.4j), (-1.3 + 0.9j, 0.25j), (0.05 - 0.3j, -2.0 + 1.0j), (3.5, -0.6 - 0.6j),
        (0.6 - 0.3j, 0j), (-2.5j, 0j), (0j, 0.6 - 0.3j), (0j, -1.5 + 0.5j),
    )
    for prefix, dev, _ in _cli_verify_structures():
        for name, d in ((prefix, dev), (prefix + " hat()", dev.hat())):
            out += [("%s at %r" % (name, z), value(lambda: eval_devmap(d, z))) for z in points]
    return [["float", name, 0, hashlib.sha256(repr(v).encode()).hexdigest(), ""] for name, v in out]


def _worker(work, result_path):
    """Run every command and check with the hopfon on sys.path and write the
    results as JSON."""
    from hopfon import cli

    results = []
    for group, name, argv, cwd in _commands(work):
        os.chdir(cwd)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is an output like any other
                code = "raised %s" % type(exc).__name__
                traceback.print_exc()
        results.append([group, name, code, stdout.getvalue(), stderr.getvalue()])
    results += _map_checks() + _exact_checks() + _float_checks()
    with open(result_path, "w") as fh:
        json.dump(results, fh)


def _run_side(src, work, label):
    """The results of the commands run with the package in src, in a new process."""
    result_path = os.path.join(work, label + ".json")
    side_work = os.path.join(work, label)
    os.makedirs(side_work)
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", side_work, result_path],
        env=env, check=True,
    )
    with open(result_path) as fh:
        results = json.load(fh)
    # the spec paths differ between the two sides' directories only
    return [
        [g, n, c, o.replace(side_work, "<work>"), e.replace(side_work, "<work>")]
        for g, n, c, o, e in results
    ]


def _changed_keys(a, b, path=""):
    """The paths of the values that differ between two JSON documents."""
    if isinstance(a, dict) and isinstance(b, dict):
        return {p for k in a.keys() | b.keys() for p in _changed_keys(a.get(k), b.get(k), path + "." + k)}
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return {p for x, y in zip(a, b) for p in _changed_keys(x, y, path + "[]")}
    return set() if a == b else {path or "<document>"}


def _diff(old, new):
    """The changed keys of one command's output, "<exit code>" and "<stderr>" included."""
    _, _, code_a, out_a, err_a = old
    _, _, code_b, out_b, err_b = new
    keys = set()
    if code_a != code_b:
        keys.add("<exit code>")
    if err_a != err_b:
        keys.add("<stderr>")
    if out_a != out_b:
        try:
            keys |= _changed_keys(json.loads(out_a), json.loads(out_b))
        except ValueError:
            keys.add("<stdout, not JSON>")
    return keys


def main(argv):
    if len(argv) == 4 and argv[1] == "--worker":
        _worker(argv[2], argv[3])
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        parent_dir = os.path.join(work, "parent")
        os.makedirs(parent_dir)
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", argv[1], "src"], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", parent_dir], input=archive.stdout, check=True)
        old = _run_side(os.path.join(parent_dir, "src"), work, "old")
        new = _run_side(os.path.join(ROOT, "src"), work, "new")
    assert [r[:2] for r in old] == [r[:2] for r in new]
    verdicts_changed = []
    for group in dict.fromkeys(r[0] for r in old):
        pairs = [(a, b) for a, b in zip(old, new) if a[0] == group]
        counts, identical = Counter(), 0
        for a, b in pairs:
            keys = _diff(a, b)
            identical += not keys
            counts.update(keys)
            if group in EXACT_GROUPS and keys or group != "maps" and (
                "<exit code>" in keys or any(k.endswith(".passed") for k in keys)
            ):
                verdicts_changed.append("%s: %s" % (group, a[1]))
        print("%s: %d of %d outputs byte-identical" % (group, identical, len(pairs)))
        for key, count in sorted(counts.items()):
            print("    %s changed in %d" % (key, count))
        if group == "maps" or group in EXACT_GROUPS:
            for a, b in pairs:
                if _diff(a, b):
                    print("    record changed: %s" % a[1])
    for name in verdicts_changed:
        print("exit code, passed flag or exact value changed: %s" % name)
    return 1 if verdicts_changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
