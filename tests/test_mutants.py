"""The mutant table of ``tools/check_mutants.py`` still fits the sources.

Running the mutants takes about 2 minutes, so the tier-1 suite only checks
that each entry's old text occurs exactly once in its file under ``src/``
and that each named test exists: a change that moves the code must update
the table with it.  ``python3 tools/check_mutants.py`` runs them.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("check_mutants",
                                               ROOT / "tools" / "check_mutants.py")
check_mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_mutants)


@pytest.mark.parametrize("mutant", check_mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    assert mutant.file.startswith("src/")
    assert check_mutants.occurrences(ROOT, mutant) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", check_mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    for test in mutant.tests:
        path, *names = test.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {name}(" in text or f"class {name}:" in text for name in names), test
