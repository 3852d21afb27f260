"""Run named single-site mutants of ``src/`` against the test suite.

    python3 tools/mutants.py [--list] [--tests PATH]... [NAME ...]

Run from the root of a source checkout.  Each entry of ``MUTANTS`` names
a file of ``src/hopfon``, an exact old text that occurs in it once, the
new text and the property the change breaks.  The tree as git sees it
(tracked and untracked files, ignored ones left out) is copied into a
temporary directory, as ``tools/compare_outputs.py`` takes its parent.
The Tier-1 suite, or the test paths given with ``--tests``, runs there
once unmutated, which must pass, and then once per mutant, with the
mutant applied to that copy alone and undone after its run.  Each run
leaves out ``tests/test_mutants.py``, which checks the list itself.

A mutant is killed when some test fails or errors, or when its run takes
longer than ``TIMEOUT_S``.  The tool prints each verdict with the three
slowest tests of its run (pytest's ``--durations=3``) and the tests that
killed it, and ends with the score, killed of total.  It changes
nothing in the checkout, and its exit code is 0 whatever the score.
NAME arguments run only the named mutants; ``--list`` prints the list
and runs nothing.  Each Tier-1 run takes about 30 s on a 2-core host.

Background: DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "name path old new breaks")

MUTANTS = (
    # the admissibility certificate (devmaps)
    Mutant(
        "clause-A-inverted", "devmaps.py",
        "    if A != 0 and d1:\n",
        "    if A == 0 and d1:\n",
        "A = 0 or P1 constant",
    ),
    Mutant(
        "clause-C-deleted", "devmaps.py",
        '    if C != 0 and dq:\n        return Verdict(False, "C = %d nonzero with nonconstant Q1" % C)\n',
        "",
        "C = 0 or Q1 constant",
    ),
    Mutant(
        "clause-D-deleted", "devmaps.py",
        '    if D == 0:\n        return Verdict(False, "R(u) = D vanishes")\n',
        "",
        "D != 0",
    ),
    Mutant(
        "shape-root-at-0-deleted", "devmaps.py",
        '    for p, name in ((P1, "P1"), (Q1, "Q1"), (P2, "P2")):\n'
        "        if p.has_root_at_zero():\n"
        '            return Verdict(False, "%s has a root at u = 0" % name)\n',
        "",
        "no polynomial has a root at u = 0",
    ),
    Mutant(
        "shape-squarefree-deleted", "devmaps.py",
        '    for p, name in ((P1, "P1"), (Q1, "Q1"), (P2, "P2")):\n'
        "        if not p.squarefree():\n"
        '            return Verdict(False, "%s has a double root" % name)\n',
        "",
        "every polynomial is squarefree",
    ),
    Mutant(
        "shape-coprime-deleted", "devmaps.py",
        '    for (p, q, names) in ((P1, Q1, "P1,Q1"), (P1, P2, "P1,P2"), (Q1, P2, "Q1,P2")):\n'
        "        if not p.coprime_with(q):\n"
        '            return Verdict(False, "%s share a root" % names)\n',
        "",
        "the polynomials are pairwise coprime",
    ),
    Mutant(
        "gate-drops-the-clauses", "devmaps.py",
        "    return _clause_verdict(*exponent_constants(d.k1, d.k2, d.l1, d.l2, *d._m(), d.n), d.degrees)\n",
        "    return Verdict(True)\n",
        "is_admissible decides the A/B/C/D clauses after semiadmissibility",
    ),
    Mutant(
        "slot-list-drops-0-1", "devmaps.py",
        "    return ((-1, -n), (0, 0), (0, 1), (1, 0))\n",
        "    return ((-1, -n), (0, 0), (1, 0))\n",
        "the allowed exponent slots",
    ),
    Mutant(
        "exponent-C-sign", "devmaps.py",
        "    return A, B, n * B - A, k1 * l2 - l1 * k2\n",
        "    return A, B, n * B + A, k1 * l2 - l1 * k2\n",
        "C = n B - A, in the gate and in the case table alike",
    ),
    # the exact Jacobian N and the float kernel (devmaps)
    Mutant(
        "N-B-term-sign", "devmaps.py",
        "        - (P2.derivative() * P1 * Q1).scale(B)\n",
        "        + (P2.derivative() * P1 * Q1).scale(B)\n",
        "N = D P1 P2 Q1 + u (A P1' P2 Q1 - B P2' P1 Q1 + C Q1' P1 P2)",
    ),
    Mutant(
        "det-z1-exponent", "devmaps.py",
        "    return DetJacobian(d.k1 + d.l1 - 1, d.k2 + d.l2 - 1,",
        "    return DetJacobian(d.k1 + d.l1, d.k2 + d.l2 - 1,",
        "det t' has the z1 power k1 + l1 - 1",
    ),
    Mutant(
        "chart-S-minus-N", "devmaps.py",
        "forms[chart] = form(-det.N, d.P1,",
        "forms[chart] = form(det.N, d.P1,",
        "chart S's determinant is -N / P1^(n+2)",
    ),
    Mutant(
        "kernel-z2-shift-sign", "devmaps.py",
        "HD, a, b - m2 * (N.degree - p * D.degree)",
        "HD, a, b + m2 * (N.degree - p * D.degree)",
        "the kernel's homogenized determinant keeps the z2 power",
    ),
    # holonomy (classify)
    Mutant(
        "holonomy-d-exponent-sign", "classify.py",
        "    d = c2 ** Fraction(-1, n)\n",
        "    d = c2 ** Fraction(1, n)\n",
        "diagonal holonomy d = c2^(-1/n)",
    ),
    Mutant(
        "exceptional-p-coefficient", "classify.py",
        "p = HomogPoly.monomial(basis, n, m, lam.inverse() ** m)",
        "p = HomogPoly.monomial(basis, n, m, lam ** m)",
        "exceptional eigenstructure's translation part Z1^m Z2^(n-m)/lam^m",
    ),
    Mutant(
        "exceptional-radial-jordan", "classify.py",
        "((lam, basis.zero()), (basis.one(), lam))",
        "((lam, basis.zero()), (basis.zero(), lam))",
        "radial holonomy of the exceptional surface with m = 1",
    ),
    # the family table (classify)
    Mutant(
        "family-m2-n-m1-l1", "classify.py",
        '    ("m2 = n m1", 0, lambda n: (0, 1, -1, -n), (1, 2), (4, 5)),\n',
        '    ("m2 = n m1", 0, lambda n: (0, 0, -1, -n), (1, 2), (4, 5)),\n',
        "the slots of the m2 = n m1 family (the l1 lead of ROADMAP item 1)",
    ),
    Mutant(
        "family-gate-dropped", "classify.py",
        "        if not is_admissible(dev):\n            continue\n",
        "",
        "a family is listed only where is_admissible accepts its map",
    ),
    Mutant(
        "family-m1-n-m2-dropped", "classify.py",
        '    ("m1 = n m2", 1, lambda n: (1, 0, 0, 1), (4, 5), (1, 2)),\n',
        "",
        "the m1 = n m2 family is listed",
    ),
    # the group-law proof (verify)
    Mutant(
        "kronecker-span-n", "verify.py",
        "    return 2 * n\n\n\ndef _indeterminates",
        "    return n\n\n\ndef _indeterminates",
        "the Kronecker base exceeds every exponent window (2n)",
    ),
    Mutant(
        "kronecker-span-2n-1", "verify.py",
        "    return 2 * n\n\n\ndef _indeterminates",
        "    return 2 * n - 1\n\n\ndef _indeterminates",
        "the Kronecker base exceeds every exponent window (2n)",
    ),
    # the group layer
    Mutant(
        "compose-precomposes-by-g", "group.py",
        "other.p.precompose(g0inv, self.p)",
        "other.p.precompose(self.g, self.p)",
        "(g0, p0)(g1, p1) = (g0 g1, p0 + p1 . g0^-1)",
    ),
    Mutant(
        "horner-drops-plus", "group.py",
        "                    row.append((q.terms, _ONE_TERMS))\n",
        "                    pass\n",
        "the addend of precompose joins its last Horner step",
    ),
    Mutant(
        "eq-ignores-the-root-of-unity", "group.py",
        "    return (r2**n) == (r**n)\n",
        "    return True\n",
        "(g, p) = (zg, p) only for an n-th root of unity z",
    ),
    # the float action and its points (group)
    Mutant(
        "affine-point-skips-chart-check", "group.py",
        "        if chart not in (\"T\", \"S\"):\n            raise ValueError(\"chart must be 'T' or 'S'\")\n",
        "",
        "a point's chart is T or S",
    ),
    Mutant(
        "float-action-diagonal-T", "group.py",
        'chart, c1, c2 = "T", ratio * c1, c2 / dn',
        'chart, c1, c2 = "T", ratio * c1, c2 * dn',
        "diag(a, d) acts by t2 -> t2 / d^n",
    ),
    Mutant(
        "float-action-S-polynomial", "group.py",
        'poly = {"T": coeffs, "S": coeffs[::-1]}',
        'poly = {"T": coeffs, "S": coeffs}',
        "(I, p) adds p(1, s1) in chart S",
    ),
    # normal forms
    Mutant(
        "kill-the-resonant-degrees", "normalform.py",
        "(c if k in degrees else basis.zero())",
        "(c if k not in degrees else basis.zero())",
        "only the nonresonant coefficients are killed",
    ),
    Mutant(
        "rescaling-tau-sign", "normalform.py",
        "mu2 = (a_lead * tau**-k_lead).nth_root(n)",
        "mu2 = (a_lead * tau**k_lead).nth_root(n)",
        "mu2^n = a_lead tau^-k_lead",
    ),
    Mutant(
        "leading-is-the-largest", "normalform.py",
        "    leading = min(marks) if marks else None\n",
        "    leading = max(marks) if marks else None\n",
        "the leading resonant degree is the smallest",
    ),
    # exact relations (scalars)
    Mutant(
        "relation-clamp-dropped", "scalars.py",
        "    if lattice.rank == 1 and max(map(abs, lattice.rows[0])) > _RELATION_BOUND:\n        return RelationLattice()\n",
        "",
        "a rank-1 relation beyond |a|, |b| <= 64 is reported as none",
    ),
    Mutant(
        "valuation-torsion-row-dropped", "scalars.py",
        "w1 + [k1], w2 + [k2], [0] * len(w1) + [4]]",
        "w1 + [k1], w2 + [k2]]",
        "the unit exponents k are read modulo 4",
    ),
    Mutant(
        "lattice-b-unreduced", "scalars.py",
        "rows[0] = (rows[0][0], rows[0][1] % rows[1][1])",
        "rows[0] = (rows[0][0], rows[0][1])",
        "a rank-2 lattice's pivot row (a, b) has 0 <= b < c",
    ),
    # scalar arithmetic (scalars)
    Mutant(
        "lcm-merge-wrong-cofactor", "scalars.py",
        "x, y, z = u * zg + x * wg, v * zg + y * wg, w * zg",
        "x, y, z = u * wg + x * zg, v * wg + y * zg, w * zg",
        "two terms on one key add as u/w + x/z over lcm(w, z)",
    ),
    Mutant(
        "canonical-keeps-zero-terms", "scalars.py",
        "        key, x, y, z = t\n        if x or y:\n",
        "        key, x, y, z = t\n        if True:\n",
        "a canonical scalar has no zero term",
    ),
    Mutant(
        "monomial-sum-key-order", "scalars.py",
        "(ts[0], to[0]) if e1 < e2 else (to[0], ts[0])",
        "(ts[0], to[0]) if e1 > e2 else (to[0], ts[0])",
        "the terms of a sum of two monomials are sorted by key",
    ),
    # immutable values (scalars)
    Mutant(
        "frozen-base-allows-del", "scalars.py",
        '\n    def __delattr__(self, name):\n        raise AttributeError("%s is immutable" % type(self).__name__)\n',
        "",
        "deleting an attribute of a value type raises",
    ),
    # sections
    Mutant(
        "exceptional-power-drops-l2", "sections.py",
        "        hit = (hit[0] + hit[1], 0)\n",
        "        hit = (hit[0], 0)\n",
        "on an exceptional surface the power of lam is the total exponent",
    ),
    Mutant(
        "twist-coset-sign", "sections.py",
        "lattice.reduce_exponents((h1 + int(e1), h2 + int(e2)))",
        "lattice.reduce_exponents((h1 + int(e1), h2 - int(e2)))",
        "c l1^e1 l2^e2 = l1^(h1 + e1) l2^(h2 + e2)",
    ),
)


def _copy_tree(dest):
    """Copy the files git tracks or would track into dest."""
    listed = subprocess.run(
        ["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True,
    ).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):  # a file deleted but still in the index is skipped
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def _run_tests(tree, tests):
    """(passed, killing test ids, last line of the pytest report, the three
    slowest tests as "seconds test id, ...") of one run."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    # the list's own smoke test fails on every mutant, so it is left out
    cmd = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", "--tb=no", "-rfE", "--durations=3",
        "--ignore", os.path.join(tree, "tests", "test_mutants.py"), *tests,
    ]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, [], "timed out after %d s" % TIMEOUT_S, "none"
    lines = proc.stdout.strip().splitlines()
    failed = [ln.split()[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))]
    # a durations line reads "12.34s call     tests/test_x.py::test_y"
    slowest = [" ".join(ln.split()[::2]) for ln in lines if re.match(r"\d+\.\d+s (setup|call|teardown) ", ln)]
    return proc.returncode == 0, failed, lines[-1] if lines else proc.stderr.strip(), ", ".join(slowest) or "none"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME", help="run only these mutants")
    parser.add_argument("--tests", action="append", default=[], metavar="PATH",
                        help="a test path or node id to run instead of Tier-1 (repeatable)")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error("unknown mutant(s): %s" % ", ".join(unknown))
    chosen = [by_name[name] for name in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print("%-30s %-14s %s" % (m.name, m.path, m.breaks))
        return 0
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        passed, failed, summary, slowest = _run_tests(tree, args.tests)
        print("unmutated: %s; slowest: %s" % (summary, slowest), flush=True)
        if not passed:
            print("the unmutated tree fails %s; no mutant was run" % (", ".join(failed) or summary))
            return 2
        killed = 0
        for m in chosen:
            path = os.path.join(tree, "src", "hopfon", m.path)
            with open(path) as fh:
                text = fh.read()
            if text.count(m.old) != 1:
                print("%s: its old text occurs %d times in %s" % (m.name, text.count(m.old), m.path))
                return 2
            with open(path, "w") as fh:
                fh.write(text.replace(m.old, m.new))
            try:
                passed, failed, summary, slowest = _run_tests(tree, args.tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(text)
            killed += not passed
            verdict = "killed" if not passed else "SURVIVED"
            print("%s %s (%s): %s; slowest: %s" % (verdict, m.name, m.breaks, summary, slowest))
            for test in failed:
                print("    " + test)
            sys.stdout.flush()
    print("score: %d of %d mutants killed" % (killed, len(chosen)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
