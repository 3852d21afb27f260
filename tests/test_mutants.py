"""The mutant list of tools/mutants.py stays applicable: each mutant's old
text occurs exactly once in its file of src/hopfon.  The mutants themselves
are not run here.  tools/mutants.py imports only the standard library and
is loaded by path."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_has_exactly_one_site():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) >= 20 and len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        text = (ROOT / "src" / "hopfon" / m.path).read_text()
        assert text.count(m.old) == 1 and m.new != m.old, m.name
