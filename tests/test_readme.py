"""The README's library tour runs and gives the results its comments state."""

import re
from pathlib import Path

from hopfon import classify_surface

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
