"""Every public name in ``src/qdesk`` is product, not test code.

A top-level public name passes when other ``src/`` code refers to it, when
the benchmark names it (it imports or reads the name, or a ``per_layer``
metric in ``BENCHMARK.json`` is named after it), or when it is one of the
library features the README documents that no command calls.  Referees and
test helpers live in ``tests/referees.py`` instead.  The sources are read
with ``ast``; nothing under ``src/`` is run to find the references.
"""

import ast
import json
from pathlib import Path

from test_perfbench_api import REFERENCES, resolve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdesk"

#: Library features the README documents that no command calls.
FEATURES = {"cli.majority_amplify", "gates.route_linear", "statevec.init_basis"}


def defined_names(tree: ast.Module) -> list[str]:
    """Public top-level names a module defines, in order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        names.extend(name for name in targets if not name.startswith("_"))
    return names


def references(module: str, tree: ast.Module, defined: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs a package module's code refers to, outside their own definitions.

    A bare name is one of the module's own top-level names or a name it
    imported from a sibling module; ``mod.name`` reads a name off a
    sibling module it imported.  Docstrings and comments are not code.
    """
    modules: dict[str, str] = {}  # local name -> sibling module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    refs = set()

    def visit(node: ast.AST, inside: set[str]) -> None:
        if isinstance(node, ast.Name):
            target = imported.get(node.id) or ((module, node.id) if node.id in defined else None)
            if target and not (target[0] == module and target[1] in inside):
                refs.add(target)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for statement in tree.body:
        visit(statement, set(defined_names(ast.Module([statement], []))))
    return refs


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def benchmark_names() -> set[tuple[str, str]]:
    """qdesk names the benchmark imports or reads, or times as a ``per_layer`` metric."""
    names = {tuple(ref.split(".")[1:3]) for ref in REFERENCES if ref.count(".") >= 2}
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for metric in per_layer:
        parts = metric["name"].split(".")
        if len(parts) < 3:
            continue
        try:
            resolve(f"qdesk.{parts[0]}.{parts[1]}")
        except (ModuleNotFoundError, AttributeError):
            continue  # a metric of a name that is gone, or of no name at all
        names.add((parts[0], parts[1]))
    return names


def unreached(src: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """``module.name`` for each public top-level name nothing keeps."""
    trees = {path.stem: parse(path) for path in sorted(src.glob("*.py"))}
    defined = {module: defined_names(tree) for module, tree in trees.items()}
    used = set().union(*(references(module, tree, set(defined[module]))
                         for module, tree in trees.items()))
    return [f"{module}.{name}" for module, names in defined.items() for name in names
            if (module, name) not in used | allowed]


def test_every_public_name_in_src_is_reached():
    allowed = benchmark_names() | {tuple(name.split(".")) for name in FEATURES}
    assert unreached(SRC, allowed) == []


def test_the_documented_features_exist_and_no_command_reaches_them():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in FEATURES:
        resolve(f"qdesk.{name}")
        assert f"`{name.split('.')[1]}`" in readme, name
    assert FEATURES <= set(unreached(SRC, set()))


def test_a_name_only_its_own_body_uses_is_not_reached(tmp_path):
    (tmp_path / "a.py").write_text(
        "from . import b\nfrom .b import used\n"
        "LIMIT = 3\n"
        "def kept():\n    return used() + b.read() + LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def documented():\n    '''kept() and b.orphan() in a docstring'''\n"
        "def _private():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "def used():\n    return 1\ndef read():\n    return kept\n"
        "def orphan():\n    pass\n")
    assert unreached(tmp_path, set()) == ["a.kept", "a.recursive", "a.documented", "b.orphan"]
    assert unreached(tmp_path, {("a", "kept"), ("b", "orphan")}) == ["a.recursive",
                                                                      "a.documented"]
