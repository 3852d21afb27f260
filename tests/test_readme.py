"""The README's library tour runs and gives the results its comments state,
and its command block runs."""

import re
import shlex
from pathlib import Path

from hopfon import classify_surface
from hopfon.cli import main

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
