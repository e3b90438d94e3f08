"""Self-checks of the traced runner and the correctness gate.

    python3 -m pytest perfbench/tests -q

Run from the root of a qdesk checkout.  Requests are small (at most 15
qubits) so the checks take seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import client
from qdesk.qft import QftSpec, build_qft_circuit

ROOT = Path(__file__).resolve().parents[2]
RUNNER = ROOT / "perfbench" / "traced_qdesk.py"


def run_plain(argv):
    proc = subprocess.run(client.qdesk_command(argv), cwd=ROOT, env=client.child_env(ROOT),
                          capture_output=True, check=True)
    return proc.stdout


def run_traced(argv, tmp_path, tag="0"):
    spans_path = tmp_path / f"spans_{tag}.json"
    proc = subprocess.run([sys.executable, str(RUNNER), str(spans_path), tag, *argv],
                          cwd=ROOT, env=client.child_env(ROOT), capture_output=True, check=True)
    return proc.stdout, json.loads(spans_path.read_text())


FACTOR = ["factor", "--n", "21", "--max-attempts", "3", "--seed", "2"]
SIMON = ["simon", "--n", "5", "--c", "10110", "--seed", "3"]
GROVER = ["grover", "--qubits", "8", "--target", "17", "--target", "200", "--seed", "2"]
QFT = ["qft", "--qubits", "5", "--cutoff", "3", "--seed", "1"]


@pytest.mark.parametrize("argv", [FACTOR, SIMON, GROVER, QFT], ids=lambda a: a[0])
def test_traced_report_is_byte_identical_and_counts_repeat(argv, tmp_path):
    plain = run_plain(argv)
    out_a, spans_a = run_traced(argv, tmp_path, "a")
    out_b, spans_b = run_traced(argv, tmp_path, "b")
    assert out_a == plain and out_b == plain
    assert spans_a["calls"] == spans_b["calls"]
    assert spans_a["gate_ops"] == spans_b["gate_ops"]
    assert spans_a["calls"]["cli.main"] == 1


def test_self_times_add_up_to_the_root_span(tmp_path):
    _, spans = run_traced(FACTOR, tmp_path)
    roots = sum(end - start for _, start, end, parent in spans["spans"] if parent < 0)
    assert sum(spans["self_ns"].values()) == roots
    assert min(spans["self_ns"].values()) >= 0


def test_factor_gate_ops_match_the_circuit(tmp_path):
    out, spans = run_traced(FACTOR, tmp_path)
    result = json.loads(out)["result"]
    n = result["N"]
    two_l = 2 * n.bit_length()
    ran_circuit = {a["x"] for a in result["attempts"] if a["measured_c"] is not None}
    assert ran_circuit, "the chosen seed must run the circuit at least once"
    assert spans["calls"]["shor.pre_qft_state"] == len(ran_circuit)
    per_attempt = two_l + len(build_qft_circuit(QftSpec(two_l)).ops)
    assert spans["gate_ops"] == len(ran_circuit) * per_attempt


def test_simon_builds_one_sampling_state_per_round(tmp_path):
    out, spans = run_traced(SIMON, tmp_path)
    assert spans["calls"]["simon.sampling_state"] == json.loads(out)["result"]["rounds"]


def test_wrapped_names_cover_every_module(tmp_path):
    _, spans = run_traced(GROVER, tmp_path)
    modules = {name.split(".")[0] for name in spans["calls"]}
    assert {"statevec", "gates", "grover", "cli"} <= modules
    # imported names are wrapped where they were imported: grover's own
    # reference to the gates oracle builder records a span
    assert spans["calls"]["gates.phase_flip_target"] == 1


@pytest.mark.parametrize("wires", [3, 6, 9])
def test_circuit_reference_matches_dense_expansion(wires):
    import plan as planmod

    ops = checks.parse_ops(planmod.file_text(
        {"kind": "circuit", "wires": wires, "gates": 3 * wires, "seed": wires}))
    dense = checks.dense_distribution(wires, ops)
    assert abs(checks.reference_distribution(wires, ops) - dense).max() < 1e-12


def test_gate_rejects_a_wrong_report():
    gate = checks.Gate(ROOT)
    out = run_plain(SIMON)
    item = {"argv": SIMON, "files": {}, "sha256": checks.digest(out)}
    assert gate.check(item, 0, out) == []
    forged = out.replace(b'"recovered_c": "10110"', b'"recovered_c": "10111"')
    assert forged != out
    problems = gate.check(item, 0, forged)
    assert any("digest" in p for p in problems)
    assert any("recovered_c" in p for p in problems)
    assert gate.check(item, 1, out) == ["exit code 1"]
