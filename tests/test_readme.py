"""The README's library tour runs and gives the results its comments state,
its command block runs, and every flag it names exists."""

import argparse
import re
import shlex
from pathlib import Path

from hopfon import classify_surface
from hopfon.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    ns = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), ns)
    # classify_surface(s)            # hyperresonant, (m1, m2) = (1, 2)
    assert classify_surface(ns["s"]).to_record() == {"kind": "hyperresonant", "m1": 1, "m2": 2}
    # for rec in records:            # radial, two eigenstructures, two hyperresonant rows
    records = ns["records"]
    assert [r.kind for r in records] == ["radial", "eigen", "eigen", "hyperresonant", "hyperresonant"]
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["%s True" % r.provenance for r in records]


def test_readme_command_block(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.S | re.M)
    block = next(b for lang, b in blocks if not lang and "hopfon " in b)
    files = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", block, re.S | re.M)
    assert [name for name, _ in files] == ["surface.json", "element.json"]
    for name, text in files:
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("hopfon ")]
    assert len(commands) == 6
    for argv in commands:
        assert main(argv) == 0, argv
        capsys.readouterr()


_FLAG = re.compile(r"--[a-z][a-z0-9-]*")
_FENCE = re.compile(r"^```\w*\n(.*?)^```$", re.S | re.M)


def test_readme_names_only_real_flags():
    # a flag in a `hopfon` command line belongs to its subcommand; one in a
    # backticked span to the subcommand that the last span opening with a
    # subcommand name, earlier in the same paragraph, names
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: set(p._option_string_actions) for name, p in sub.choices.items()}
    text = README.read_text()
    named = []
    for block in _FENCE.findall(text):
        for line in block.splitlines():
            if line.startswith("hopfon "):
                words = shlex.split(line)
                named += [(words[1], w) for w in words[2:] if _FLAG.fullmatch(w)]
    for paragraph in _FENCE.sub("", text).split("\n\n"):
        command = None
        for span in re.findall(r"`([^`]+)`", paragraph):
            words = span.split()
            if words and words[0] in options:
                command = words[0]
            for flag in _FLAG.findall(span):
                assert command is not None, "no subcommand named before %s in %r" % (flag, paragraph)
                named.append((command, flag))
    assert [(c, f) for c, f in named if f not in options[c]] == []
    assert len({f for _, f in named}) >= 10
