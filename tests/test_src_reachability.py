"""Every public name in ``src/qdesk`` is product, not test code.

A top-level public name passes when other ``src/`` code refers to it, when
the benchmark's code imports or reads it, or when it is one of the library
features the README documents that no command calls.  A metric named after
a function keeps nothing: it reads 0 once nothing runs the function.
Referees and test helpers live in ``tests/referees.py`` instead.  Of
``statevec``'s private names, other modules read only an allow-list.  The
sources are read with ``ast``; nothing under ``src/`` is run to find the
references.
"""

import ast
from pathlib import Path

from test_perfbench_api import REFERENCES, qdesk_references, resolve

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdesk"

#: Library features the README documents that no command calls.
FEATURES = {"statevec.init_basis"}

#: The private ``statevec`` names other modules read: the gate kernel on a
#: handed-over buffer, the basis buffer, the period-finding builder, the
#: amplitude of its H layer, the reader of a period-finding state's input
#: law, which keeps that state's layout beside the code that builds it, and
#: the sampler that draws from a handed-over law.
STATEVEC_PRIVATE = {"_evolve", "_basis", "_period_finding", "_hadamard_amplitude",
                    "_draws", "_input_marginal"}


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


def references(module: str, tree: ast.Module, defined: set[str],
               siblings: set[str]) -> set[tuple[str, str]]:
    """(module, name) pairs a package module's code refers to, outside their own definitions.

    A bare name is one of the module's own top-level names or a name it
    imported from a sibling module or from the package (``from . import
    name``, where name is no sibling, is ``__init__``'s); ``mod.name``
    reads a name off a sibling module it imported, or off a function
    parameter named after a sibling (the CLI hands each command handler
    the module it runs).
    Docstrings and comments are not code.
    """
    modules: dict[str, str] = {}  # local name -> sibling module
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg in siblings:
            modules[node.arg] = node.arg
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in siblings:
                    modules[alias.asname or alias.name] = alias.name
                elif node.module is None:
                    imported[alias.asname or alias.name] = ("__init__", alias.name)
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


def benchmark_names(references: list[str]) -> set[tuple[str, str]]:
    """(module, name) of each dotted ``qdesk.module.name`` the benchmark imports or reads."""
    return {tuple(ref.split(".")[1:3]) for ref in references if ref.count(".") >= 2}


def unreached(src: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """``module.name`` for each public top-level name nothing keeps."""
    trees = {path.stem: parse(path) for path in sorted(src.glob("*.py"))}
    defined = {module: defined_names(tree) for module, tree in trees.items()}
    used = set().union(*(references(module, tree, set(defined[module]), set(trees))
                         for module, tree in trees.items()))
    return [f"{module}.{name}" for module, names in defined.items() for name in names
            if (module, name) not in used | allowed]


def test_every_public_name_in_src_is_reached():
    allowed = benchmark_names(REFERENCES) | {tuple(name.split(".")) for name in FEATURES}
    assert unreached(SRC, allowed) == []


def test_other_modules_read_only_the_allowed_private_statevec_names():
    trees = {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}
    read = {name for module, tree in trees.items() if module != "statevec"
            for source, name in references(module, tree, set(defined_names(tree)), set(trees))
            if source == "statevec" and name.startswith("_")}
    assert read == STATEVEC_PRIVATE


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


def test_a_name_only_a_metric_string_mentions_is_not_reached(tmp_path):
    (tmp_path / "a.py").write_text("def imported():\n    pass\ndef metered():\n    pass\n")
    bench = ast.parse("from qdesk.a import imported\n"
                      "def metrics(c, s):\n"
                      "    return {'a.metered.calls': c('a.metered'), 'a.imported.self_s': s('a.imported')}\n")
    allowed = benchmark_names(sorted(qdesk_references(bench)))
    assert allowed == {("a", "imported")}
    assert unreached(tmp_path, allowed) == ["a.metered"]


def test_a_name_the_benchmark_reads_off_a_module_is_reached(tmp_path):
    (tmp_path / "a.py").write_text("def read():\n    pass\ndef mentioned():\n    pass\n")
    bench = ast.parse("from qdesk import a\nimport qdesk.a as qa\n"
                      "def probe():\n    return a.read, qa.read, 'a.mentioned'\n")
    allowed = benchmark_names(sorted(qdesk_references(bench)))
    assert allowed == {("a", "read")}
    assert unreached(tmp_path, allowed) == ["a.mentioned"]


def test_a_name_imported_from_the_package_is_reached(tmp_path):
    (tmp_path / "__init__.py").write_text("LIMIT = 3\ndef check():\n    pass\n"
                                          "def unused():\n    pass\n")
    (tmp_path / "a.py").write_text("from . import LIMIT, b, check\n"
                                   "def run():\n    return check() + b.read() + LIMIT\n")
    (tmp_path / "b.py").write_text("def read():\n    pass\n")
    assert unreached(tmp_path, {("a", "run")}) == ["__init__.unused"]


def test_a_name_read_off_a_parameter_named_after_its_module_is_reached(tmp_path):
    (tmp_path / "a.py").write_text("def handle(b, other):\n    return b.read() + other.missed()\n")
    (tmp_path / "b.py").write_text("def read():\n    pass\ndef missed():\n    pass\n")
    assert unreached(tmp_path, {("a", "handle")}) == ["b.missed"]
