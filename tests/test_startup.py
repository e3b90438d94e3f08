"""What a ``python -m qdesk`` process loads, and when it freezes the collector.

The front end (argument parsing, the checks of ``config_from_args``, error
reports) runs on the standard library: ``--version``, ``--help``, usage
errors and the errors it finds itself load no numpy and no qdesk module
but ``cli``.  An accepted request loads ``cli``, ``gates`` and the
command's modules.  A ``qft`` request loads ``qft`` and no ``statevec``;
it loads numpy only when the transform is not exact (a cutoff that drops
a coupling, or no swaps), to compute the fidelity after the freeze.
Every other command loads ``statevec`` and with it numpy.  An over-cap
``qft`` exits 3 without numpy.  The process entry freezes what the
imports made (``gc.freeze``) after that load; an in-process ``cli.main``
never does, so callers that run it many times keep normal collection.
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

ROOT = Path(__file__).resolve().parents[1]

# Runs ``python -m <module> <argv>`` through runpy and, at exit, writes the
# modules loaded, the modules loaded when the collector was frozen and the
# freeze count to the file named by its first argument.
_LAUNCHER = """\
import atexit, gc, json, runpy, sys
out = sys.argv.pop(1)
module = sys.argv.pop(1)
record = {"frozen_with": None}
freeze = gc.freeze

def recording_freeze():
    record["frozen_with"] = sorted(sys.modules)
    freeze()

def dump():
    record.update(modules=sorted(sys.modules), frozen=gc.get_freeze_count())
    with open(out, "w") as fh:
        json.dump(record, fh)

gc.freeze = recording_freeze
atexit.register(dump)
runpy.run_module(module, run_name="__main__", alter_sys=True)
"""

BASE = {"cli", "gates", "statevec"}
QFT = {"cli", "gates", "qft"}

COMMANDS = [
    (["circuit-run", "--file", "{circuit}"], BASE),
    (["qft", "--qubits", "3"], QFT),
    (["factor", "--n", "15", "--max-attempts", "1"], BASE | {"qft", "shor"}),
    (["grover", "--qubits", "3", "--target", "5"], BASE | {"grover"}),
    (["simon", "--n", "3", "--c", "101"], BASE | {"simon"}),
    (["simon-classical", "--n", "3", "--trials", "3"], BASE | {"simon"}),
]

COMMAND_IDS = [argv[0] for argv, _ in COMMANDS]

# qft requests: (argv, whether numpy loads)
TRANSFORMS = [
    (["qft", "--qubits", "3"], False),
    (["qft", "--qubits", "9"], False),
    (["qft", "--qubits", "9", "--cutoff", "9"], False),
    (["qft", "--qubits", "3", "--cutoff", "2"], False),  # drops no coupling at k = 3
    (["qft", "--qubits", "3", "--cutoff", "1"], True),
    (["qft", "--qubits", "9", "--cutoff", "2"], True),
    (["qft", "--qubits", "3", "--no-swaps"], True),
    (["qft", "--qubits", "9", "--no-swaps"], True),
]

# requests the front end answers: (argv, exit status)
FRONT_END = [
    (["--version"], 0),
    (["--help"], 0),
    (["qft", "--help"], 0),
    (["grover", "--qubits", "three"], 2),
    (["qft"], 2),
    (["teleport"], 2),
    (["grover", "--qubits", "3"], 1),
    (["simon", "--n", "3", "--c", "12"], 1),
    (["simon", "--n", "3", "--c", "1010"], 1),
    (["grover", "--qubits", "3", "--targets-file", "{missing}"], 1),
    (["grover", "--qubits", "3", "--targets-file", "{circuit}"], 1),
]

ERRORS = [argv for argv, status in FRONT_END if status == 1]


def case_id(argv):
    return "-".join(argv).replace("{", "").replace("}", "")


FRONT_END_IDS = [case_id(argv) for argv, _ in FRONT_END]
ERROR_IDS = [case_id(argv) for argv in ERRORS]


@pytest.fixture
def circuit(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text("H 1\nCNOT 1,2\n", encoding="utf-8")
    return str(path)


def fill(argv, circuit, tmp_path):
    return [arg.format(circuit=circuit, missing=tmp_path / "missing.txt") for arg in argv]


def launch(module, argv, tmp_path, **env):
    """One process's exit status, stdout and start-up record (see ``_LAUNCHER``)."""
    out = tmp_path / "startup.json"
    env = dict(os.environ, PYTHONPATH=str(Path(qdesk.__file__).parents[1]), **env)
    done = subprocess.run([sys.executable, "-c", _LAUNCHER, str(out), module, *argv],
                          env=env, capture_output=True)
    return done.returncode, done.stdout, json.loads(out.read_text(encoding="utf-8"))


def qdesk_modules(names):
    """The qdesk submodules among ``names``, without the package prefix."""
    return {m.removeprefix("qdesk.") for m in names if m.startswith("qdesk.")} - {"__main__"}


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_a_command_loads_only_its_own_modules(argv, modules, circuit, tmp_path):
    code, _, record = launch("qdesk", fill(argv, circuit, tmp_path), tmp_path)
    assert code == 0
    assert qdesk_modules(record["modules"]) == modules


@pytest.mark.parametrize("argv, numpy", TRANSFORMS,
                         ids=[case_id(argv[1:]) for argv, _ in TRANSFORMS])
def test_only_an_inexact_transform_loads_numpy(argv, numpy, tmp_path):
    code, _, record = launch("qdesk", argv, tmp_path)
    assert code == 0
    assert qdesk_modules(record["modules"]) == QFT
    assert ("numpy" in record["modules"]) == numpy
    assert "numpy" not in record["frozen_with"]  # the fidelity loads it, after the freeze


@pytest.mark.parametrize("module", ["qdesk", "qdesk.cli"])
def test_an_over_cap_transform_exits_3_without_numpy(module, tmp_path):
    code, stdout, record = launch(module, ["qft", "--qubits", "25"], tmp_path)
    assert code == 3
    assert json.loads(stdout)["error"] == {
        "type": "resource", "message": "the Fourier transform on k=25 needs 25 qubits (cap 24)"}
    assert "numpy" not in record["modules"]
    assert qdesk_modules(record["modules"]) | {"cli"} == QFT  # cli may run as __main__


@pytest.mark.parametrize("module", ["qdesk", "qdesk.cli"])
@pytest.mark.parametrize("argv, status", FRONT_END, ids=FRONT_END_IDS)
def test_the_front_end_loads_no_numpy(module, argv, status, circuit, tmp_path):
    code, _, record = launch(module, fill(argv, circuit, tmp_path), tmp_path)
    assert code == status
    assert "numpy" not in record["modules"]
    assert qdesk_modules(record["modules"]) <= {"cli"}


def test_a_bad_seed_variable_loads_no_numpy(tmp_path):
    code, stdout, record = launch("qdesk", ["qft", "--qubits", "3"], tmp_path,
                                  QDESK_SEED="seven")
    assert code == 1
    assert b"QDESK_SEED must be an integer" in stdout
    assert "numpy" not in record["modules"]


@pytest.mark.parametrize("argv", ERRORS, ids=ERROR_IDS)
def test_a_front_end_error_report_is_the_in_process_one(argv, circuit, tmp_path, capsys):
    argv = fill(argv, circuit, tmp_path)
    code, stdout, _ = launch("qdesk", argv, tmp_path)
    assert (code, stdout.decode()) == (cli.main(argv), capsys.readouterr().out)


@pytest.mark.parametrize("module", ["qdesk", "qdesk.cli"])
@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_the_entry_freezes_once_the_command_is_loaded(module, argv, modules, circuit,
                                                     tmp_path):
    code, _, record = launch(module, fill(argv, circuit, tmp_path), tmp_path)
    assert code == 0
    # numpy comes with statevec; an exact qft loads neither
    assert ("numpy" in record["frozen_with"]) == ("statevec" in modules)
    assert qdesk_modules(record["frozen_with"]) >= modules - {"cli"}
    assert record["frozen"] > 0


def test_the_installed_script_runs_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qdesk"]
    module, _, name = target.partition(":")
    assert (module, name) == ("qdesk.cli", cli._entry.__name__)


@pytest.mark.parametrize("argv, status", [(argv, 0) for argv, _ in COMMANDS]
                         + [(argv, 1) for argv in ERRORS], ids=COMMAND_IDS + ERROR_IDS)
def test_main_in_process_leaves_the_collector_unfrozen(argv, status, circuit, tmp_path,
                                                       capsys):
    assert cli.main(fill(argv, circuit, tmp_path)) == status
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0
