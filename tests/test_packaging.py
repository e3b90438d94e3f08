"""Every module the tests import comes with ``pip install -e .[test]``.

The tier-1 command runs pytest with ``--continue-on-collection-errors``, so
a test file whose top-level import is missing is dropped whole, with no
failure.  This reads each test file with ``ast`` and checks that every
module it imports is in the standard library, is ``qdesk`` or a sibling
under ``tests/``, or is a requirement in ``pyproject.toml`` (the package's
dependencies or its ``test`` extra).  Each requirement here is imported
under its distribution name.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TESTS = ROOT / "tests"
TEST_FILES = sorted(TESTS.glob("*.py"))


def requirement_names() -> set[str]:
    """Distribution names of the package's dependencies and its ``test`` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    specs = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs}


def imported_modules(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module's code."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_the_test_extra_lists_the_third_party_test_imports():
    assert {"numpy", "pytest", "jsonschema", "hypothesis"} <= requirement_names()


@pytest.mark.parametrize("path", TEST_FILES, ids=lambda path: path.name)
def test_every_import_is_installed_by_the_test_extra(path):
    local = {"qdesk"} | {p.stem for p in TEST_FILES}
    known = set(sys.stdlib_module_names) | local | requirement_names()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert sorted(imported_modules(tree) - known) == []
