"""What a ``python -m qdesk`` process loads and freezes at start-up.

Each command's handler imports its own module, so a process loads only
``cli``, ``gates``, ``statevec`` and the command's modules.  The process
entry freezes what the imports made (``gc.freeze``); an in-process
``cli.main`` never does, so callers that run it many times keep normal
collection.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdesk
from qdesk import cli

# Runs ``python -m <module> <argv>`` through runpy and, at exit, writes the
# qdesk submodules loaded and the collector's freeze count to the file named
# by its first argument.
_LAUNCHER = """\
import atexit, gc, json, runpy, sys
out = sys.argv.pop(1)
module = sys.argv.pop(1)

def record():
    loaded = sorted(m.removeprefix("qdesk.") for m in sys.modules if m.startswith("qdesk."))
    with open(out, "w") as fh:
        json.dump({"modules": loaded, "frozen": gc.get_freeze_count()}, fh)

atexit.register(record)
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

BASE = {"cli", "gates", "statevec"}

COMMANDS = [
    (["circuit-run", "--file", "{circuit}"], BASE),
    (["qft", "--qubits", "3"], BASE | {"qft"}),
    (["factor", "--n", "15", "--max-attempts", "1"], BASE | {"qft", "shor"}),
    (["grover", "--qubits", "3", "--target", "5"], BASE | {"grover"}),
    (["simon", "--n", "3", "--c", "101"], BASE | {"simon"}),
    (["simon-classical", "--n", "3", "--trials", "3"], BASE | {"simon"}),
]

COMMAND_IDS = [argv[0] for argv, _ in COMMANDS]


@pytest.fixture
def circuit(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text("H 1\nCNOT 1,2\n", encoding="utf-8")
    return str(path)


def launch(module, argv, tmp_path):
    """The loaded qdesk submodules and the freeze count at exit of one process."""
    out = tmp_path / "startup.json"
    env = dict(os.environ, PYTHONPATH=str(Path(qdesk.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", _LAUNCHER, str(out), module, *argv],
                   env=env, capture_output=True, check=True)
    return json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_a_command_loads_only_its_own_modules(argv, modules, circuit, tmp_path):
    argv = [arg.format(circuit=circuit) for arg in argv]
    assert set(launch("qdesk", argv, tmp_path)["modules"]) - {"__main__"} == modules


@pytest.mark.parametrize("module", ["qdesk", "qdesk.cli"])
def test_the_process_entry_freezes_the_collector(module, tmp_path):
    assert launch(module, ["qft", "--qubits", "3"], tmp_path)["frozen"] > 0


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS], ids=COMMAND_IDS)
def test_main_in_process_leaves_the_collector_unfrozen(argv, circuit, capsys):
    assert cli.main([arg.format(circuit=circuit) for arg in argv]) == 0
    assert gc.get_freeze_count() == 0
