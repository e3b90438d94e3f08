"""The benchmark's interface to qdesk still exists.

``perfbench/`` imports qdesk names that nothing under ``src/`` uses (the
kernel probe times ``statevec.apply_gate``, the traced pass reads
``simon.gf2_rank``), so they look dead from inside the package.  This
reads the benchmark's sources with ``ast``, without importing or running
them, and checks every qdesk name they import or access in code.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted([*BENCH_DIR.glob("*.py"), *BENCH_DIR.glob("tests/*.py")])


def qdesk_references(tree: ast.AST) -> set[str]:
    """Dotted qdesk names a module imports, or reads off an imported module."""
    refs: set[str] = set()
    modules: dict[str, str] = {}  # local name -> qdesk module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "qdesk":
                    refs.add(alias.name)
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["qdesk"] = "qdesk"
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module.split(".")[0] == "qdesk":
                for alias in node.names:
                    refs.add(f"{node.module}.{alias.name}")
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in modules:
            refs.add(".".join([modules[node.id], *reversed(attrs)]))
    return refs


def resolve(dotted: str):
    """Import the longest module prefix of ``dotted`` and get the rest off it."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


REFERENCES = sorted({ref for path in SOURCES
                     for ref in qdesk_references(ast.parse(path.read_text(encoding="utf-8")))})


def test_the_benchmark_sources_are_read():
    assert BENCH_DIR / "kernel_probe.py" in SOURCES
    assert BENCH_DIR / "tests" / "test_perfbench_trace.py" in SOURCES
    assert {"qdesk.statevec.apply_gate", "qdesk.statevec.apply_permutation",
            "qdesk.statevec.measure_all", "qdesk.simon.gf2_rank", "qdesk.qft.QftSpec",
            "qdesk.gates.expand_to_matrix", "qdesk.cli.main"} <= set(REFERENCES)


@pytest.mark.parametrize("dotted", REFERENCES)
def test_every_referenced_name_exists(dotted):
    resolve(dotted)


def test_references_follow_the_binding_not_the_spelling():
    tree = ast.parse("from qdesk import statevec as sv\nimport qdesk.gates\n"
                     "from qdesk.simon import gf2_rank\n"
                     "sv.apply_gate(s, g).amps\nqdesk.gates.h_op(1)\nother.apply_gate\n")
    assert qdesk_references(tree) == {
        "qdesk.statevec", "qdesk.statevec.apply_gate", "qdesk.gates", "qdesk.gates.h_op",
        "qdesk.simon.gf2_rank",
    }
