import argparse
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qdesk
from qdesk import cli, shor, simon, statevec
from qdesk.cli import (
    CircuitSyntaxError,
    DEFAULT_SEED,
    RunConfig,
    SEED_ENV_VAR,
    circuit_to_text,
    main,
    parse_circuit_text,
    run,
)
from qdesk.gates import Circuit, GateOp, cnot_op, cphase_op, h_op

from conftest import random_state
from referees import distribution_dict, get_report_schema, report_json, report_text


class TestCircuitText:
    def test_bell_circuit(self):
        circ = parse_circuit_text("H 1\nCNOT 1,2\n")
        assert circ.n_wires == 2 and len(circ) == 2

    def test_round_trip(self):
        ops = (h_op(1), cnot_op(1, 4), cphase_op(1, 3, 2, 5))
        circ = Circuit(5, ops)
        text = circuit_to_text(circ)
        assert text == "H 1\nCNOT 1,4\nCPHASE 2,5 j=1 k=3\n"
        again = parse_circuit_text(text)
        assert [op.name for op in again.ops] == ["H", "CNOT", "CPHASE"]
        assert [op.wires for op in again.ops] == [(1,), (1, 4), (2, 5)]

    def test_comments_and_blanks_ignored(self):
        circ = parse_circuit_text("# bell pair\n\nH 1  # put wire 1 in superposition\nCNOT 1,2\n")
        assert len(circ) == 2

    def test_repeated_wire_diagnostic(self):
        with pytest.raises(CircuitSyntaxError, match="repeated wire"):
            parse_circuit_text("CNOT 1,1\n")

    def test_unknown_gate_lists_names(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit_text("H 1\nXX 2\n")
        assert "line 2" in str(err.value)
        assert "CNOT" in str(err.value) and "TOFFOLI" in str(err.value)

    def test_bad_wire_list_position(self):
        with pytest.raises(CircuitSyntaxError, match="column 6"):
            parse_circuit_text("CNOT 1,x\n")

    def test_wrong_wire_count(self):
        with pytest.raises(CircuitSyntaxError, match="takes 2 wires"):
            parse_circuit_text("SWAP 1,2,3\n")

    def test_cphase_needs_params(self):
        with pytest.raises(CircuitSyntaxError, match="j=<int> k=<int>"):
            parse_circuit_text("CPHASE 1,2\n")

    @pytest.mark.parametrize("text, column, message", [
        ("H 1 j=0 k=3\n", 5, "H takes no parameters, got 'j=0'"),
        ("TOFFOLI 1,2,3 k=7\n", 15, "TOFFOLI takes no parameters, got 'k=7'"),
        ("CNOT 1,2 # j=0\nSWAP 1,2  x\n", 11, "SWAP takes no parameters, got 'x'"),
        ("CPHASE 1,2 j=0 k=1 j=3\n", 20, "repeated parameter 'j'"),
        ("CPHASE 1,2 j=0 j=0 k=1\n", 16, "repeated parameter 'j'"),
        ("CPHASE 1,2 j=0 k=--3\n", 16, "bad parameter 'k=--3'"),
        ("H 1_0\n", 3, "bad wire list '1_0'"),
        ("CNOT 1,\u0663\n", 6, "bad wire list '1,\u0663'"),
        ("SWAP +1,2\n", 6, "bad wire list '+1,2'"),
        # a wire token that also occurs inside the gate name
        ("CNOT NOT\n", 6, "bad wire list 'NOT'"),
        ("SWAP AP\n", 6, "bad wire list 'AP'"),
        ("CPHASE PHASE\n", 8, "bad wire list 'PHASE'"),
        ("TOFFOLI OFF\n", 9, "bad wire list 'OFF'"),
        # a missing wire list is named just after the gate name, not at
        # the end of the raw line with its comment or trailing spaces
        ("H\n", 2, "H needs wire indices"),
        ("H # wire one\n", 2, "H needs wire indices"),
        ("CNOT 1,2\n  CNOT   \n", 7, "CNOT needs wire indices"),
        # more digits than int() converts by default (4,300)
        # a long token is echoed as its first 32 characters and its length
        pytest.param("H " + "1" * 4301 + "\n", 3,
                     f"bad wire list {'1' * 32!r}... (4301 characters)",
                     id="wire-of-4301-digits"),
        pytest.param("CPHASE 1,2 j=0 k=" + "1" * 4301 + "\n", 16,
                     f"bad parameter {'k=' + '1' * 30!r}... (4303 characters)",
                     id="k-of-4301-digits"),
    ])
    def test_stray_parameters_and_bad_integers_are_named_at_their_token(self, text, column, message):
        line = text.count("\n")
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit_text(text)
        assert str(err.value) == f"line {line}, column {column}: {message}"
        assert (err.value.line, err.value.column) == (line, column)

    def test_vanishing_phase_is_the_identity(self):
        # 2^5001 does not convert to a float; the phase rounds to exactly 1
        op, = parse_circuit_text("CPHASE 1,2 j=0 k=5000\n").ops
        assert np.array_equal(op.matrix, np.eye(4))

    def test_wire_above_the_wire_count_is_named_at_its_token(self):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit_text("H 1\nCNOT 1,5\n", n_wires=3)
        assert str(err.value) == "line 2, column 6: wire 5 exceeds n_wires=3"
        # 4,300 digits, the most int() converts by default, still read as a wire
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit_text("H " + "9" * 4300 + "\n", n_wires=3)
        assert str(err.value) == ("line 1, column 3: "
                                  f"wire {'9' * 32}... (4300 characters) exceeds n_wires=3")

    @pytest.mark.parametrize("text, column, length", [
        ("H " + "x" * 2**20 + "\n", 3, 2**20),
        ("X" * 2**20 + " 1\n", 1, 2**20),
        ("H 1 " + "j" * 2**20 + "\n", 5, 2**20),
        ("CPHASE 1,2 j=0 k=1" + "0" * 2**20 + "\n", 16, 2**20 + 3),
    ], ids=["wire", "gate", "stray-parameter", "parameter"])
    def test_a_megabyte_token_gives_a_short_message(self, text, column, length):
        with pytest.raises(CircuitSyntaxError) as err:
            parse_circuit_text(text)
        assert err.value.column == column
        assert f"... ({length} characters)" in str(err.value)
        assert len(str(err.value)) < 200

    def test_empty_text_needs_wire_count(self):
        with pytest.raises(ValueError, match="--wires"):
            parse_circuit_text("")
        circ = parse_circuit_text("", n_wires=2)
        assert circ.n_wires == 2 and len(circ) == 0


class TestReports:
    def _run(self, command, params, seed=11):
        return run(RunConfig(command, seed, None, params))

    def test_simon_report(self):
        report = self._run("simon", {"n": 3, "c": "101", "max_rounds": 12}, seed=1)
        assert report.result["recovered_c"] == "101"
        assert report.result["succeeded"] is True

    def test_qft_report_counts(self):
        report = self._run("qft", {"qubits": 6, "cutoff": None, "no_swaps": False})
        assert report.result["hadamard_phase_gates"] == 21
        assert report.result["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_factor_report(self):
        report = self._run("factor", {"n": 15, "max_attempts": 8,
                                      "dump_distribution": None}, seed=42)
        assert sorted(report.result["factors"]) == [3, 5]

    def test_grover_report(self):
        report = self._run("grover", {"qubits": 6, "targets": [17],
                                      "trace_path": None}, seed=9)
        assert report.result["success_probability"] > 0.9
        assert report.result["oracle_calls"] == report.result["iterations"]

    def test_simon_classical_report(self):
        report = self._run("simon-classical", {"n": 5, "trials": 50}, seed=3)
        stats = report.result["queries"]
        assert stats["min"] >= 2 and stats["median"] >= stats["min"]

    def test_circuit_run_report(self, tmp_path):
        path = tmp_path / "bell.qc"
        path.write_text("H 1\nCNOT 1,2\n")
        report = self._run("circuit-run", {"file": str(path), "wires": None})
        serialized = json.loads(report_text(report))
        assert serialized["result"]["distribution"] == {"00": 0.5, "11": 0.5}

    def test_empty_circuit_with_wires(self, tmp_path):
        path = tmp_path / "empty.qc"
        path.write_text("")
        report = self._run("circuit-run", {"file": str(path), "wires": 3})
        assert np.array_equal(np.abs(report.result["distribution"].amps) ** 2, np.eye(8)[0])
        assert json.loads(report_text(report))["result"]["distribution"] == {"000": 1.0}

    def test_reports_validate_against_schema(self, tmp_path):
        schema = get_report_schema()
        path = tmp_path / "bell.qc"
        path.write_text("H 1\nCNOT 1,2\n")
        cases = [
            ("simon", {"n": 2, "c": "11", "max_rounds": None}),
            ("qft", {"qubits": 4, "cutoff": 3, "no_swaps": False}),
            ("factor", {"n": 15, "max_attempts": 8, "dump_distribution": None}),
            ("grover", {"qubits": 4, "targets": [3], "trace_path": None}),
            ("simon-classical", {"n": 4, "trials": 10}),
            ("circuit-run", {"file": str(path), "wires": None}),
        ]
        for command, params in cases:
            report = self._run(command, params, seed=5)
            jsonschema.validate(json.loads(report_text(report)), schema)

    @pytest.mark.parametrize("command, params", [
        ("simon", {"n": 4, "c": "1011", "max_rounds": None}),
        ("qft", {"qubits": 5, "cutoff": 3, "no_swaps": False}),
        ("factor", {"n": 21, "max_attempts": 8, "dump_distribution": None}),
        ("grover", {"qubits": 6, "targets": [3, 40], "trace_path": None}),
        ("simon-classical", {"n": 4, "trials": 10}),
        ("circuit-run", {"wires": None}),
    ], ids=["simon", "qft", "factor", "grover", "simon-classical", "circuit-run"])
    def test_results_hold_only_plain_python_values(self, command, params, tmp_path):
        # the report writer takes no numpy scalar: a result holds the types
        # json writes, and tuples, which _round_floats writes as lists
        if command == "circuit-run":
            path = tmp_path / "ghz.qc"
            path.write_text("H 1\nCNOT 1,2\nCPHASE 2,3 j=1 k=2\n")
            params = {**params, "file": str(path)}
        result = dict(self._run(command, params, seed=5).result)
        if command == "circuit-run":
            # the final state, which the report writes as its outcome law
            assert isinstance(result.pop("distribution"), statevec.StateVector)

        def values(obj):  # obj and every key and value nested in it
            yield obj
            if isinstance(obj, dict):
                obj = [*obj, *obj.values()]
            if isinstance(obj, (list, tuple)):
                for value in obj:
                    yield from values(value)

        assert {type(v) for v in values(result)} <= {dict, list, tuple, str, int, float, bool,
                                                     type(None)}

    def test_payload_reproducible(self):
        config = RunConfig("factor", 18, None,
                           {"n": 21, "max_attempts": 8, "dump_distribution": None})
        assert report_text(run(config)) == report_text(run(config))

    def test_schema_rejects_malformed_report(self):
        schema = get_report_schema()
        report = json.loads(
            report_text(self._run("qft", {"qubits": 3, "cutoff": None, "no_swaps": False}))
        )
        jsonschema.validate(report, schema)
        broken = dict(report)
        del broken["version"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)
        wrong_result = dict(report)
        wrong_result["result"] = {"qubits": 3}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(wrong_result, schema)

    def test_wall_time_not_serialized(self):
        report = self._run("qft", {"qubits": 3, "cutoff": None, "no_swaps": False})
        assert "wall_time" not in report_text(report)

    def test_probabilities_have_twelve_digits(self):
        report = self._run("grover", {"qubits": 5, "targets": [7],
                                      "trace_path": None}, seed=2)
        text = report_text(report)
        value = json.loads(text)["result"]["success_probability"]
        assert value == float(f"{value:.12g}")


class TestMainEntry:
    def test_stdout_byte_identical(self, capsys):
        assert main(["simon", "--n", "3", "--c", "110", "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert main(["simon", "--n", "3", "--c", "110", "--seed", "4"]) == 0
        second = capsys.readouterr().out
        assert first == second and first.startswith("{")

    def test_output_file_written_atomically(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["qft", "--qubits", "4", "--output", str(out), "--seed", "1"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "qft"
        assert not list(tmp_path.glob("*.tmp"))

    def test_env_seed_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "314")
        assert main(["simon", "--n", "2", "--c", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == 314

    def test_default_seed_documented(self, monkeypatch, capsys):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        assert main(["simon", "--n", "2", "--c", "01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["seed"] == DEFAULT_SEED

    def test_domain_error_object(self, capsys):
        code = main(["simon", "--n", "3", "--c", "2bad"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "domain"
        assert "--c" in payload["error"]["message"]

    def test_resource_error_object(self, capsys):
        code = main(["factor", "--n", "3855", "--seed", "1"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "resource"
        assert "qubits" in payload["error"]["message"]

    @pytest.mark.parametrize("argv,qubits", [
        (["grover", "--qubits", "25", "--target", "5"], 25),
        (["simon", "--n", "13", "--c", "1000000000001"], 26),
        (["qft", "--qubits", "25"], 25),
        (["grover", "--qubits", "25", "--target", "99999999999"], 25),
    ], ids=["grover", "simon", "qft", "grover-target-out-of-range"])
    def test_over_cap_requests_exit_3_naming_the_count(self, argv, qubits, capsys):
        assert main(argv) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "resource"
        assert f"needs {qubits} qubits (cap 24)" in payload["error"]["message"]

    def test_grover_negative_qubits_is_a_domain_error(self, capsys):
        assert main(["grover", "--qubits", "-1", "--target", "0"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "type": "domain",
            "message": "search over 2^-1 items must use at least one qubit, got -1",
        }

    # 4,300 digits, the most argparse's int() reads; the library repeats
    # such an integer whole, and the report clips it as it clips a token
    @pytest.mark.parametrize("argv, code, message", [
        (["grover", "--qubits", "4", "--target", "1" * 4300], 1,
         f"target {'1' * 32}... (4300 characters) out of range [0, 16)"),
        (["factor", "--n", "9" * 4299 + "7"], 3,
         f"factoring N={'9' * 32}... (4300 characters) needs "
         f"{3 * int('9' * 4300).bit_length()} qubits (cap 24)"),
        (["grover", "--qubits", "2" * 4300, "--target", "1"], 3,
         f"search over 2^{'2' * 32}... (4300 characters) items needs "
         f"{'2' * 32}... (4300 characters) qubits (cap 24)"),
        (["factor", "--n", "15", "--max-attempts", "-" + "1" * 4300], 1,
         f"max_attempts must be positive, got -{'1' * 32}... (4300 characters)"),
        (["simon-classical", "--n", "3", "--trials", "1" * 4300], 1,
         f"trials={'1' * 32}... (4300 characters) is over the cap of 100000"),
    ], ids=["grover-target", "factor-n", "grover-qubits", "factor-max-attempts",
            "simon-classical-trials"])
    def test_a_4300_digit_argument_is_clipped_in_the_error(self, argv, code, message, capsys):
        assert main(argv) == code
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["message"] == message

    @pytest.mark.parametrize("n", ["0", "9"])
    def test_simon_classical_range_checked_first(self, n, capsys):
        assert main(["simon-classical", "--n", n, "--trials", "3"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["type"] == "domain"
        assert payload["error"]["message"] == f"n must lie in [1, 8] for the baseline, got {n}"

    def test_factor_dump_reuses_the_one_cached_law(self, tmp_path, monkeypatch, capsys):
        builds = []
        power_table = shor._power_table

        def counting(x, n, length):
            builds.append(x)
            return power_table(x, n, length)

        monkeypatch.setattr(shor, "_power_table", counting)
        shor._laws.clear()
        code = main(["factor", "--n", "15", "--seed", "3", "--output", str(tmp_path / "r.json"),
                     "--dump-distribution", str(tmp_path / "dist.json")])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        circuit_xs = [a["x"] for a in report["result"]["attempts"] if a["measured_c"] is not None]
        # one build per circuit attempt, none for the dump of the last one
        assert circuit_xs and builds == circuit_xs
        assert list(shor._laws) == [shor.FactoringInstance(15, circuit_xs[-1])]
        shor.first_register_distribution(shor.FactoringInstance(21, 2))
        shor.first_register_distribution(shor.FactoringInstance(21, 5))
        assert list(shor._laws) == [shor.FactoringInstance(21, 5)]

    def test_factor_distribution_dump(self, tmp_path, capsys):
        dump = tmp_path / "dist.json"
        code = main(["factor", "--n", "15", "--seed", "3",
                     "--dump-distribution", str(dump), "--output",
                     str(tmp_path / "r.json")])
        assert code == 0
        payload = json.loads(dump.read_text())
        assert payload["N"] == 15
        if payload["x"] is not None:
            total = sum(payload["distribution"].values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_factor_dump_after_a_shared_factor_is_empty(self, tmp_path, capsys):
        # seed 0 draws x = 12, which shares a factor with 15: no circuit runs
        dump = tmp_path / "d.json"
        code = main(["factor", "--n", "15", "--seed", "0", "--max-attempts", "1",
                     "--dump-distribution", str(dump)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["attempts"][0]["x"] == 12
        assert report["result"]["attempts"][0]["lucky_gcd"] is True
        assert report["config"]["dump_distribution"] == str(dump)  # echoed: no _path suffix
        assert dump.read_text() == '{\n  "N": 15,\n  "distribution": {},\n  "x": null\n}\n'

    def test_qft_emit_circuit(self, tmp_path, capsys):
        out = tmp_path / "qft.qc"
        code = main(["qft", "--qubits", "3", "--emit-circuit", str(out),
                     "--output", str(tmp_path / "q.json")])
        assert code == 0
        circ = parse_circuit_text(out.read_text())
        assert len(circ) == 3 + 3 + 1  # H + phase stages + final swap

    def test_grover_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(["grover", "--qubits", "5", "--target", "9",
                     "--trace", str(trace), "--output", str(tmp_path / "g.json")])
        assert code == 0
        payload = json.loads(trace.read_text())
        probs = payload["marked_probability"]
        assert len(probs) >= 2 and probs[-1] > probs[0]

    def test_grover_requires_targets(self, capsys):
        assert main(["grover", "--qubits", "4"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert "--target" in payload["error"]["message"]

    def test_grover_targets_file(self, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("3\n12\n9\n")
        code = main(["grover", "--qubits", "4", "--targets-file", str(targets),
                     "--seed", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["targets"] == [3, 9, 12]
        assert payload["result"]["found"] in (3, 9, 12)

    @pytest.mark.parametrize("bad, shown", [
        *((bad, repr(bad)) for bad in ["abc", "2.5", "1_0", "+3", "\u0663", "x" * 32]),
        pytest.param("1" * 4301, f"{'1' * 32!r}... (4301 characters)", id="4301-digits"),
    ])
    def test_grover_targets_file_names_a_bad_line(self, bad, shown, tmp_path, monkeypatch,
                                                  capsys):
        (tmp_path / "targets.txt").write_text(f"3\n\n{bad}\n9\n")
        monkeypatch.chdir(tmp_path)
        assert main(["grover", "--qubits", "4", "--targets-file", "targets.txt"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "type": "domain",
            "message": f"targets.txt, line 3: target must be an integer, got {shown}",
        }

    @pytest.mark.parametrize("rounds", ["0", "2"])
    def test_simon_max_rounds_below_n_is_a_domain_error(self, rounds, capsys):
        assert main(["simon", "--n", "3", "--c", "101", "--max-rounds", rounds]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "type": "domain",
            "message": f"max_rounds must be at least n=3, got {rounds}",
        }

    def test_circuit_run_stray_parameter_exits_1(self, tmp_path, capsys):
        (tmp_path / "stray.qc").write_text("H 1\nTOFFOLI 1,2,3 k=7\n")
        assert main(["circuit-run", "--file", str(tmp_path / "stray.qc")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == {
            "type": "domain",
            "message": "line 2, column 15: TOFFOLI takes no parameters, got 'k=7'",
        }

    def test_circuit_run_full_vocabulary(self, tmp_path, capsys):
        # distribution must equal |U e_0|^2 with U from the dense oracle
        text = "H 1\nCPHASE 1,2 j=0 k=1\nSWAP 2,3\nTOFFOLI 1,2,3\nCNOT 3,1\n"
        path = tmp_path / "mix.qc"
        path.write_text(text)
        assert main(["circuit-run", "--file", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        from qdesk.gates import expand_to_matrix

        u = expand_to_matrix(parse_circuit_text(text))
        expected = np.abs(u[:, 0]) ** 2
        for idx, p in enumerate(expected):
            key = format(idx, "03b")
            reported = payload["result"]["distribution"].get(key, 0.0)
            assert reported == pytest.approx(float(p), abs=1e-9)

    @pytest.mark.parametrize("argv, flag, target", [
        (["qft", "--qubits", "3"], "--output", "missing"),
        (["qft", "--qubits", "3"], "--output", "directory"),
        (["qft", "--qubits", "3"], "--emit-circuit", "missing"),
        (["grover", "--qubits", "3", "--target", "5"], "--trace", "missing"),
        (["factor", "--n", "15", "--seed", "3"], "--dump-distribution", "missing"),
        (["qft", "--qubits", "3"], "--output", "empty"),
        (["qft", "--qubits", "3"], "--emit-circuit", "empty"),
        (["grover", "--qubits", "3", "--target", "5"], "--trace", "empty"),
        (["factor", "--n", "15", "--seed", "3"], "--dump-distribution", "empty"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v)
    def test_unwritable_path_is_one_reproducible_domain_error(self, argv, flag, target,
                                                              tmp_path, monkeypatch, capsys):
        if target == "missing":
            path, reason = tmp_path / "missing" / "out.json", os.strerror(errno.ENOENT)
        elif target == "empty":
            # an empty path is a path, not "no file"; mkstemp puts its temp
            # file in the working directory, which the check below reads
            monkeypatch.chdir(tmp_path)
            path, reason = "", os.strerror(errno.ENOENT)
        else:
            path, reason = tmp_path, os.strerror(errno.EISDIR)
        outputs = []
        for _ in range(2):
            assert main([*argv, flag, str(path)]) == 1
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]) == {
            "error": {"type": "domain", "message": f"cannot write {path}: {reason}"}
        }
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("argv", [
        ["circuit-run", "--file", "bad.txt"],
        ["grover", "--qubits", "3", "--targets-file", "bad.txt"],
    ], ids=lambda a: a[0])
    def test_undecodable_input_file_is_named(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.txt").write_bytes(b"\xff3\n")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "domain", "message": "bad.txt: not UTF-8 text",
        }

    @pytest.mark.parametrize("flag", ["--file", "--targets-file"])
    @pytest.mark.parametrize("target", ["missing", "directory", "empty"])
    def test_unreadable_input_file_is_named(self, flag, target, tmp_path, monkeypatch, capsys):
        argv = ["circuit-run"] if flag == "--file" else ["grover", "--qubits", "3"]
        if target == "missing":
            path, reason = tmp_path / "missing.txt", os.strerror(errno.ENOENT)
        elif target == "empty":
            monkeypatch.chdir(tmp_path)
            path, reason = "", os.strerror(errno.ENOENT)
        else:
            path, reason = tmp_path, os.strerror(errno.EISDIR)
        assert main([*argv, flag, str(path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.out)["error"] == {
            "type": "domain", "message": f"cannot read {path}: {reason}",
        }

    def test_stderr_time_covers_the_whole_command(self, monkeypatch, capsys):
        dumps = cli._dumps

        def slow_dumps(obj):
            time.sleep(0.3)
            return dumps(obj)

        monkeypatch.setattr(cli, "_dumps", slow_dumps)
        assert main(["qft", "--qubits", "2"]) == 0
        err = capsys.readouterr().err
        seconds = re.fullmatch(r"qdesk: qft finished in (\d+\.\d+)s\n", err)
        assert seconds is not None, err
        assert float(seconds.group(1)) >= 0.3


class TestDistributionJson:
    """The streamed circuit-run report, byte for byte against the referee."""

    @staticmethod
    def _circuit_report(tmp_path, text, wires=None):
        path = tmp_path / "circuit.qc"
        path.write_text(text)
        return run(RunConfig("circuit-run", 1, None, {"file": str(path), "wires": wires}))

    @pytest.mark.parametrize("text, wires", [
        ("H 1\nCNOT 1,2\n", None),
        ("", 3),
        ("H 1\n", None),
        # entries at 0 and 2^16: whole 2^15 blocks of zeros between and after
        ("H 1\n", 17),
        ((Path(__file__).parent / "data" / "golden_12wire.qc").read_text(), None),
    ], ids=["bell", "empty-3-wires", "one-wire", "h1-on-17-wires", "golden-12wire"])
    def test_circuit_reports_match_the_referee(self, text, wires, tmp_path):
        report = self._circuit_report(tmp_path, text, wires)
        assert report_text(report) == report_json(report)

    def test_bell_and_empty_entries(self, tmp_path):
        bell = json.loads(report_text(self._circuit_report(tmp_path, "H 1\nCNOT 1,2\n")))
        assert bell["result"]["distribution"] == {"00": 0.5, "11": 0.5}
        assert '\n      "000": 1.0\n    },\n' in report_text(self._circuit_report(tmp_path, "", 3))

    def test_edge_probabilities_match_the_referee(self):
        # |amp|^2 is exactly 1 - 2^-45, which prints 1.0 at 12 digits, and
        # 2^-1074 = 5e-324, the least subnormal; the rest are exact zeros
        amps = np.zeros(8)
        amps[1], amps[4] = 1 - 2.0**-46, 2.0**-537
        state = statevec.StateVector(3, amps)
        assert (np.abs(state.amps) ** 2)[[1, 4]].tolist() == [1 - 2.0**-45, 5e-324]
        report = cli.RunReport("circuit-run", {"seed": 1},
                               {"distribution": state, "n_wires": 3, "ops": 0}, "0")
        text = report_text(report)
        assert text == report_json(report)
        assert '"001": 1.0,\n      "100": 5e-324\n' in text

    def test_distinct_probabilities_over_several_blocks_match_the_referee(self, rng):
        # 2^17 distinct values: four blocks, each over many written chunks
        report = cli.RunReport("circuit-run", {"seed": 1},
                               {"distribution": random_state(rng, 17)}, "0")
        assert report_text(report) == report_json(report)

    @pytest.mark.parametrize("probs", [
        np.zeros(8),
        np.array([0.5, 0.0, 0.0, 0.5]),
        np.array([0.0] * 9 + [1 - 2.0**-45, 0.0, 5e-324, 0.0, 0.0, 0.0, 2.0**-45]),
        np.array([0.0] * 4 + [0.25] * 4 + [0.0] * 4 + [0.25, 0.0, 0.25, 0.0]),
    ], ids=["all-zero", "ends", "edge-values", "zero-blocks"])
    def test_any_probability_array_renders_as_json_dumps(self, probs):
        # blocks of four, so some blocks are all zero and one holds every entry
        width = probs.size.bit_length() - 1
        text = "".join(cli._distribution_chunks(probs.reshape(-1, 4), width, ""))
        assert text == json.dumps(cli._round_floats(distribution_dict(probs)), indent=2)

    @pytest.mark.parametrize("text, wires", [
        ("H 1\n", 17),
        ((Path(__file__).parent / "data" / "golden_12wire.qc").read_text(), None),
    ], ids=["h1-on-17-wires", "golden-12wire"])
    def test_stdout_and_output_file_get_the_same_bytes(self, text, wires, tmp_path,
                                                       monkeypatch, capsys):
        (tmp_path / "c.qc").write_text(text)
        monkeypatch.chdir(tmp_path)
        argv = ["circuit-run", "--file", "c.qc"] + (["--wires", str(wires)] if wires else [])
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--output", "report.json"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == printed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.qc", "report.json"]

    def test_rendering_holds_one_block_of_text(self, tmp_path):
        # 2^18 entries, 8 MB of text; a dict and its text peaked at 101 MB
        report = self._circuit_report(tmp_path, "".join(f"H {w}\n" for w in range(1, 19)))
        tracemalloc.start()
        try:
            size = sum(len(chunk) for chunk in report.chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 2**18 * 30
        assert peak < 10 * 2**20

    def test_a_dense_20_wire_run_holds_about_one_state(self, tmp_path):
        # a 16 MB state and 51 MB of report text; writing the text whole
        # peaked at 520 MB
        path = tmp_path / "h20.qc"
        path.write_text("".join(f"H {w}\n" for w in range(1, 21)))
        assert peak_rss_mb(["circuit-run", "--file", str(path)]) < 150


# A multi-target search from a targets file; its report and --trace sidecar
# digests were recorded from the +-1 diagonal-product search loop that the
# in-place loop replaced.
GROVER_GOLDEN_ARGV = ["grover", "--qubits", "12", "--targets-file", "targets3.txt", "--seed", "5"]
GROVER_TRACE_SHA256 = "04d99739ac9650834bf4c1af009752407d7b3ba65a35183f0015fcc1d87030ed"

# SHA-256 of the report bytes, recorded from the gather/scatter kernel the
# view kernel replaced; circuit files are passed by relative name because
# the report echoes the path.
GOLDEN_REPORTS = [
    (["factor", "--n", "15", "--seed", "42"],
     "487178a17531a799d2b8219ea8d2f0c79916761a102611bfd59638d39542efab"),
    (["grover", "--qubits", "6", "--target", "17", "--seed", "3"],
     "f184fdd195d90a65937ee6cab632d95c108ee58017bdad273a11c31e778e962d"),
    (["simon", "--n", "4", "--c", "0110", "--seed", "7"],
     "55d2208c7508d9e20dd600d2629f848216ebadddb3300f212bfc18f66f1218aa"),
    (["simon-classical", "--n", "5", "--trials", "20", "--seed", "7"],
     "a784f549d004d56cb090af528780894bffe85d7d0110e11027ab0f06e764bce0"),
    (["qft", "--qubits", "6", "--seed", "1"],
     "e85ba22c971d904273cfc8499e77cdcee3db9c8e27eeac98bbf3ca15d2543485"),
    (["circuit-run", "--file", "bell.qc", "--seed", "1"],
     "76374efb4e5d9cdc0283b7dc819e60e1aebb293ade40226fe2449df7f16f7a55"),
    (["circuit-run", "--file", "golden_12wire.qc", "--seed", "1"],
     "2da0b30b1a72ddea3c314a9fbf265f40922f343acfc936ebb81ce60a00440461"),
    (GROVER_GOLDEN_ARGV,
     "c372c5be69967ad24e3098fe578c5e65fc89787c69d3ad9f894615d960b16245"),
]


@pytest.mark.parametrize("argv,sha256", GOLDEN_REPORTS,
                         ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(GOLDEN_REPORTS)])
def test_golden_report_digest(argv, sha256, tmp_path, monkeypatch, capsys):
    (tmp_path / "bell.qc").write_text("H 1\nCNOT 1,2\n")
    (tmp_path / "targets3.txt").write_text("1234\n7\n3000\n")
    shutil.copy(Path(__file__).parent / "data" / "golden_12wire.qc", tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


NO_SWAPS_ARGV = ["qft", "--qubits", "5", "--cutoff", "3", "--no-swaps", "--emit-circuit", "c.qc"]
# its report as it was when the fidelity came from running the circuit on
# every input: the minimum, exactly 0, read as floating-point noise
NO_SWAPS_CIRCUIT_RUN_SHA256 = "4c2e97406c6073940527bce08089461c1039ef359c0e5e51989be968314b5c6b"
NO_SWAPS_CIRCUIT_RUN_FIDELITY = 4.31727098422e-67

# SHA-256 of the report and of each side file, recorded before the config
# keys became the argparse names; they pin the config echo of every option
# and the order in which --target and --targets-file merge.  The qft
# report's digest was re-recorded when its fidelity became exactly 0.0.
CONFIG_ECHO_REPORTS = [
    (NO_SWAPS_ARGV,
     "d8f7b7f7bb525a684ad8aed3828c0b9f4afe2978027b8115090d2ab53e926c88",
     {"c.qc": "5c4ed66c87e5e9f620cec1d5a740c308bffc897f1679a117e01b4557f1e83fb6"}),
    (["grover", "--qubits", "6", "--target", "5", "--targets-file", "t.txt"],
     "ce2dd36cb2c3ffb1fe22cd26dce4d24dee120418907a11c6eee0e491469664ab", {}),
    (["factor", "--n", "21", "--seed", "2", "--max-attempts", "3", "--dump-distribution", "d.json"],
     "b1671dfc207995045877e5b1b86c8a9c377843fcad4635fdad8dfd512a4af353",
     {"d.json": "454029c723e416b64db660fc1597e2ba424dab2fe2456717b1b862c8305f361b"}),
    (["simon", "--n", "5", "--c", "10110", "--max-rounds", "9"],
     "195070cc5abab2329f27c8cde3e5013b1753547b1a58235ec3741ca5f7193c8d", {}),
    (["circuit-run", "--file", "bell.qc", "--wires", "3"],
     "bf0c7fbee16f141bf7786cc869369da769a23e7937747e14ccb938a77250a6fa", {}),
]


@pytest.mark.parametrize("argv,sha256,side_files", CONFIG_ECHO_REPORTS,
                         ids=[argv[0] for argv, _, _ in CONFIG_ECHO_REPORTS])
def test_config_echo_digest(argv, sha256, side_files, tmp_path, monkeypatch, capsys):
    (tmp_path / "bell.qc").write_text("H 1\nCNOT 1,2\n")
    (tmp_path / "t.txt").write_text("9\n\n33\n5\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256
    for name, digest in side_files.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_no_swaps_report_changed_only_in_its_fidelity(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(NO_SWAPS_ARGV) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["fidelity"] == 0.0
    report["result"]["fidelity"] = NO_SWAPS_CIRCUIT_RUN_FIDELITY
    assert hashlib.sha256(cli._dumps(report).encode()).hexdigest() == NO_SWAPS_CIRCUIT_RUN_SHA256


# The benchmark's recorded requests replayed in-process: every class in full
# except factor21, whose first three items stand for it; the rest of that
# tail is left to tools/check_golden.py.  The golden file is only read here,
# and perfbench/plan.py is only imported for the input files it writes.
BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN_ITEMS = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))["items"]
GOLDEN_QFT_ITEMS = [item for item in GOLDEN_ITEMS if item["argv"][0] == "qft"]
GOLDEN_FULL_CLASSES = (
    "qft9", "qft10", "qft11", "circuit12", "circuit14", "circuit16",
    "grover16t1", "grover16t2", "grover16t3", "grover16t4", "grover17t1", "grover18",
    "factor18", "simon9", "simon10",
)
GOLDEN_REPLAYED = (
    [item for item in GOLDEN_ITEMS if item["class"] in GOLDEN_FULL_CLASSES]
    + [item for item in GOLDEN_ITEMS if item["class"] == "factor21"][:3]
)
_plan_spec = importlib.util.spec_from_file_location("perfbench_plan", BENCH_DIR / "plan.py")
BENCH_PLAN = importlib.util.module_from_spec(_plan_spec)
sys.modules[_plan_spec.name] = BENCH_PLAN  # where its dataclasses look it up
_plan_spec.loader.exec_module(BENCH_PLAN)


def _golden_id(item):
    # a class fixes the size; requests of one class differ in N, the first
    # target or targets file, or the circuit file too
    argv = item["argv"]
    operand = {"factor": argv[2], "grover": argv[4], "circuit-run": argv[2]}.get(argv[0])
    operand = f"-{Path(operand).stem}" if operand else ""
    return f"{item['class']}{operand}-seed{argv[-1]}"


def test_the_golden_file_holds_twelve_qft_requests():
    assert len(GOLDEN_QFT_ITEMS) == 12


def test_every_golden_class_is_replayed():
    assert {item["class"] for item in GOLDEN_REPLAYED} == {item["class"] for item in GOLDEN_ITEMS}
    left_out = [item for item in GOLDEN_ITEMS if item not in GOLDEN_REPLAYED]
    assert left_out == [item for item in GOLDEN_ITEMS if item["class"] == "factor21"][3:]


@pytest.mark.parametrize("item", GOLDEN_REPLAYED, ids=_golden_id)
def test_golden_benchmark_report_digest(item, tmp_path, monkeypatch, capsys):
    # circuit-run reports echo the relative .perfbench_work/ path of their file
    BENCH_PLAN.write_inputs(tmp_path, [item])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    assert main(item["argv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == item["sha256"]


# SHA-256 of each --help text at 80 columns
HELP_DIGESTS = {
    "qdesk": "672995819111d015ada1dea9dfb415f129784dd128d160791fd4959b3c9a01c9",
    "factor": "a36374fa5b6395acdf1849c2151e57b6d68cc2e5e80a8fd7c811497cdaed9af2",
    "grover": "a9b1ca1c1e82ef122dd37a2ad51a38adcc279d8879fe1a378ef7330c65cabcb9",
    "simon": "a6e68ae04cdcc65bd1ffafa4007b2223d22ffded106cb713db68e86c83e17c3f",
    "simon-classical": "8df811f5e12489f01ee7bf70f376d226d6523ce4efd710330dd82ccd9574277a",
    "qft": "1800e68ca1c9483423d302cecc4406dfc1669904c5c246dbedda6ccbfdaf197d",
    "circuit-run": "a969760cf00f08e994c2bb5c86fa5efd2e18b348a9c15763cb152c4c9051fda5",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_help_text_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"] if command == "qdesk" else [command, "--help"])
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


def usage_error(argv, monkeypatch, capsys, stock=False):
    """The stderr text of a usage error, with the stock ``error`` if asked."""
    if stock:
        monkeypatch.setattr(cli._Parser, "error", argparse.ArgumentParser.error)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


# each token argparse repeats, and the length the clipped message names
@pytest.mark.parametrize("argv, length", [
    (["factor", "--n", "9" * 4301], 4301),
    (["factor", "--n", "abc" + "9" * 4301], 4304),
    (["factor", "--n=abc" + "9" * 4301], 4304),
    (["x" * 4307], 4307),
    (["factor", "--n", "15", "y" * 4307], 4307),
    (["grover", "--qubits", "4", "--t=" + "5" * 4000], 4004),
    (["factor", "-h" + "z" * 4300], 4300),
], ids=["invalid-int", "invalid-text", "invalid-after-equals", "invalid-choice",
        "unrecognized", "ambiguous", "ignored-after-one-dash-flag"])
def test_usage_errors_clip_a_long_token(argv, length, monkeypatch, capsys):
    clipped = usage_error(argv, monkeypatch, capsys)
    stock = usage_error(argv, monkeypatch, capsys, stock=True)
    assert len(stock.encode()) > 4000
    assert len(clipped.encode()) < 1024
    assert f"... ({length} characters)" in clipped
    # the usage text and the message's own words stay
    *usage, message = clipped.splitlines()
    assert stock.splitlines()[:-1] == usage
    assert message.split(": ")[:3] == stock.splitlines()[-1].split(": ")[:3]


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "abc"],
    ["factor", "--n", "a" * 32],
    ["bogus"],
    ["factor", "--n", "15", "extra"],
    ["grover", "--qubits", "4", "--t=5"],
    ["factor"],
])
def test_usage_errors_with_short_tokens_read_as_stock_argparse(argv, monkeypatch, capsys):
    assert (usage_error(argv, monkeypatch, capsys)
            == usage_error(argv, monkeypatch, capsys, stock=True))


def test_golden_grover_trace_sidecar_digest(tmp_path, monkeypatch, capsys):
    (tmp_path / "targets3.txt").write_text("1234\n7\n3000\n")
    monkeypatch.chdir(tmp_path)
    assert main(GROVER_GOLDEN_ARGV + ["--trace", "trace.json"]) == 0
    out = capsys.readouterr().out
    assert (GROVER_GOLDEN_ARGV, hashlib.sha256(out.encode()).hexdigest()) in GOLDEN_REPORTS
    sidecar = (tmp_path / "trace.json").read_bytes()
    assert hashlib.sha256(sidecar).hexdigest() == GROVER_TRACE_SHA256


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.integers(-3, 12), st.integers(25, 40)),
       targets=st.lists(st.integers(), min_size=1, max_size=4))
@example(k=-1, targets=[0])
@example(k=25, targets=[99999999999])
@example(k=1, targets=[0, 1])
@example(k=12, targets=[4095, 0, 7])
def test_grover_arguments_keep_the_error_contract(k, targets):
    argv = ["grover", f"--qubits={k}", "--seed=1"] + [f"--target={t}" for t in targets]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text and "shift count" not in text
    payload = json.loads(out.getvalue())
    distinct = set(targets)
    if k > statevec.MAX_QUBITS:
        expected = 3
    elif k < 1 or not all(0 <= t < 1 << k for t in distinct) or len(distinct) == 1 << k:
        expected = 1
    else:
        expected = 0
    assert code == expected
    if code == 0:
        jsonschema.validate(payload, get_report_schema())
        assert payload["result"]["targets"] == sorted(distinct)
    else:
        assert payload["error"]["type"] == ("resource" if code == 3 else "domain")


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(-2, 8), st.integers(13, 40)),
       c=st.text(alphabet="01", max_size=42),
       max_rounds=st.one_of(st.none(), st.integers(-2, 40)))
@example(n=3, c="101", max_rounds=0)
@example(n=1, c="1", max_rounds=None)
@example(n=4, c="0000", max_rounds=None)
@example(n=13, c="0" * 13, max_rounds=0)
@example(n=0, c="", max_rounds=None)
def test_simon_arguments_keep_the_error_contract(n, c, max_rounds):
    argv = ["simon", f"--n={n}", f"--c={c}", "--seed=1"]
    if max_rounds is not None:
        argv.append(f"--max-rounds={max_rounds}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text and "invalid literal" not in text
    payload = json.loads(out.getvalue())
    # checked in order: bit string, its length, register size, nonzero shift, rounds
    if not c or len(c) != n:
        expected = 1
    elif 2 * n > statevec.MAX_QUBITS:
        expected = 3
    elif int(c, 2) == 0 or (max_rounds is not None and max_rounds < n):
        expected = 1
    else:
        expected = 0
    assert code == expected
    if code == 0:
        jsonschema.validate(payload, get_report_schema())
        result = payload["result"]
        assert result["c"] == c
        assert result["rounds"] <= (4 * n if max_rounds is None else max_rounds)
        assert result["recovered_c"] == (c if result["succeeded"] else None)
    else:
        assert payload["error"]["type"] == ("resource" if code == 3 else "domain")


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.integers(-3, 8), st.integers(13, 40)),
       cutoff=st.one_of(st.none(), st.integers(-2, 14)),
       no_swaps=st.booleans())
@example(k=0, cutoff=None, no_swaps=False)
@example(k=4, cutoff=0, no_swaps=True)
@example(k=4, cutoff=5, no_swaps=False)
@example(k=13, cutoff=14, no_swaps=False)
@example(k=24, cutoff=None, no_swaps=True)
@example(k=25, cutoff=-2, no_swaps=False)
def test_qft_arguments_keep_the_error_contract(k, cutoff, no_swaps):
    argv = ["qft", f"--qubits={k}", "--seed=1"]
    if cutoff is not None:
        argv.append(f"--cutoff={cutoff}")
    if no_swaps:
        argv.append("--no-swaps")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    text = out.getvalue() + err.getvalue()
    assert "Traceback" not in text
    payload = json.loads(out.getvalue())
    # checked in order: register size, then the cutoff against it
    if k > statevec.MAX_QUBITS:
        expected = 3
    elif k < 1 or (cutoff is not None and not 1 <= cutoff <= k):
        expected = 1
    else:
        expected = 0
    assert code == expected
    if code == 0:
        jsonschema.validate(payload, get_report_schema())
        result = payload["result"]
        assert (result["qubits"], result["cutoff"], result["swaps"]) == (k, cutoff, not no_swaps)
        assert result["total_ops"] == sum(result["gate_counts"].values())
        assert isinstance(result["fidelity"], float) and 0.0 <= result["fidelity"] <= 1.0
    else:
        assert payload["error"]["type"] == ("resource" if code == 3 else "domain")


def run_main(argv):
    """Run the CLI in-process; return the exit code and the parsed stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, json.loads(out.getvalue())


def expect_error_or_report(code, expected, payload):
    assert code == expected
    if code == 0:
        jsonschema.validate(payload, get_report_schema())
    else:
        assert payload["error"]["type"] == ("resource" if code == 3 else "domain")


ARITY = {"H": 1, "CNOT": 2, "SWAP": 2, "TOFFOLI": 3, "CPHASE": 2}

gate_lines = st.tuples(
    st.sampled_from(sorted(ARITY) + ["XX"]),
    st.lists(st.one_of(st.integers(-1, 9), st.integers(25, 30)), min_size=1, max_size=4),
    st.lists(st.tuples(st.sampled_from("jk"), st.integers(-2, 12)), max_size=3),
)


def circuit_exit_code(lines, wires):
    """The exit code the contract promises, worked out line by line."""
    top = 0
    for name, ws, params in lines:
        keys = [key for key, _ in params]
        if name not in ARITY or len(ws) != ARITY[name] or len(set(ws)) != len(ws):
            return 1
        if min(ws) < 1 or (params and name != "CPHASE") or len(set(keys)) != len(keys):
            return 1
        if name == "CPHASE" and (sorted(keys) != ["j", "k"]
                                 or not 0 <= dict(params)["j"] < dict(params)["k"]):
            return 1
        top = max(top, *ws)
    n_wires = top if wires is None else wires
    if n_wires < max(top, 1):
        return 1
    return 3 if n_wires > statevec.MAX_QUBITS else 0


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(gate_lines, max_size=6),
       wires=st.one_of(st.none(), st.integers(-1, 10), st.integers(25, 26)))
@example(lines=[("H", [1], [("j", 0), ("k", 3)])], wires=None)
@example(lines=[("CPHASE", [1, 2], [("j", 0), ("k", 1), ("j", 3)])], wires=None)
@example(lines=[("CNOT", [1, 25], [])], wires=None)
@example(lines=[("H", [3], [])], wires=2)
@example(lines=[], wires=None)
@example(lines=[], wires=25)
@example(lines=[("CPHASE", [2, 1], [("k", 4), ("j", 1)]), ("TOFFOLI", [3, 1, 2], [])], wires=4)
def test_circuit_run_keeps_the_error_contract(lines, wires):
    text = "".join(
        f"{name} {','.join(map(str, ws))}" + "".join(f" {key}={v}" for key, v in params) + "\n"
        for name, ws, params in lines
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "random.qc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["circuit-run", f"--file={path}", "--seed=1"]
        if wires is not None:
            argv.append(f"--wires={wires}")
        code, payload = run_main(argv)
    expect_error_or_report(code, circuit_exit_code(lines, wires), payload)
    if code == 0:
        result = payload["result"]
        assert (result["n_wires"], result["ops"]) == (wires or max(max(ws) for _, ws, _ in lines),
                                                     len(lines))
        assert math.isclose(sum(result["distribution"].values()), 1.0, abs_tol=1e-9)


def distinct_prime_factors(n):
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


@settings(max_examples=40, deadline=None)
@given(n=st.one_of(st.integers(-3, 40), st.integers(256, 5000),
                   # those that exit before a circuit runs: up to 24 qubits
                   st.sampled_from([n for n in range(41, 256)
                                    if n % 2 == 0 or distinct_prime_factors(n) < 2])),
       max_attempts=st.integers(-1, 3))
@example(n=243, max_attempts=1)
@example(n=251, max_attempts=1)
@example(n=254, max_attempts=1)
@example(n=15, max_attempts=0)
@example(n=9, max_attempts=2)
@example(n=37, max_attempts=1)
@example(n=3855, max_attempts=1)
@example(n=4096, max_attempts=1)
@example(n=35, max_attempts=3)
@example(n=441, max_attempts=1)
@example(n=3 * 10**400 + 3, max_attempts=1)
@example(n=100000000000031, max_attempts=1)
def test_factor_arguments_keep_the_error_contract(n, max_attempts):
    code, payload = run_main(["factor", f"--n={n}", f"--max-attempts={max_attempts}", "--seed=1"])
    # checked in order: attempts; N < 15 or even; register size; two distinct
    # primes (the register size bounds the trial division behind the last)
    if max_attempts < 1 or n < 15 or n % 2 == 0:
        expected = 1
    elif 3 * n.bit_length() > statevec.MAX_QUBITS:
        expected = 3
    elif distinct_prime_factors(n) < 2:
        expected = 1
    else:
        expected = 0
    expect_error_or_report(code, expected, payload)
    if code == 0:
        result = payload["result"]
        assert result["N"] == n and 1 <= len(result["attempts"]) <= max_attempts
        if result["succeeded"]:
            assert all(1 < f < n and n % f == 0 for f in result["factors"])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(-3, 12), trials=st.integers(-3, 30))
@example(n=0, trials=5)
@example(n=9, trials=5)
@example(n=1, trials=1)
@example(n=8, trials=0)
@example(n=8, trials=simon.BASELINE_MAX_TRIALS + 1)
@example(n=3, trials=int("9" * 4300))
def test_simon_classical_arguments_keep_the_error_contract(n, trials):
    start = time.perf_counter()
    code, payload = run_main(["simon-classical", f"--n={n}", f"--trials={trials}", "--seed=1"])
    expected = 0 if 1 <= n <= 8 and 1 <= trials <= simon.BASELINE_MAX_TRIALS else 1
    expect_error_or_report(code, expected, payload)
    if code != 0:
        # refused before the first trial runs
        assert time.perf_counter() - start < 1.0
    if code == 0:
        queries = payload["result"]["queries"]
        # a collision needs two queries and is forced after 2^(n-1) + 1
        assert 2 <= queries["min"] <= queries["median"] <= queries["max"] <= (1 << (n - 1)) + 1


# Waits for the command in its arguments and prints its exit code and peak
# RSS in KB.  On Linux a child's ru_maxrss starts from the high-water RSS of
# the process it was spawned from, so a child spawned straight from the test
# process would report at least the test process's own peak.
_PEAK_RSS_LAUNCHER = """\
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def peak_rss_mb(argv):
    """Peak RSS of one ``python -m qdesk`` process, from ``os.wait4``.

    The process is spawned from a fresh interpreter (``_PEAK_RSS_LAUNCHER``),
    so the reading is the command's own, above a floor of about 10 MB.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(qdesk.__file__).parents[1]))
    launched = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, sys.executable, "-m", "qdesk", *argv],
        env=env, capture_output=True, text=True, check=True)
    code, kilobytes = map(int, launched.stdout.split())
    assert code == 0, argv
    return kilobytes / 1024


def test_factoring_holds_one_state_end_to_end():
    # a 21-qubit attempt (a 32 MB state) against a 12-qubit one that runs
    # the same code on a 64 KB state: the difference is what the large
    # state costs, 32 MB for the state and 1 MB of kernel scratch when
    # one buffer carries the run, about twice that when each stage keeps
    # its input alive next to a new state
    state_mb = (16 << 21) / 2**20
    excess = (peak_rss_mb(["factor", "--n", "119", "--seed", "2", "--max-attempts", "1"])
              - peak_rss_mb(["factor", "--n", "15", "--seed", "1", "--max-attempts", "1"]))
    assert excess < 1.25 * state_mb


def test_the_factor_dump_holds_no_second_state_end_to_end(tmp_path):
    # the dump reads the law the attempts drew from: the run with it peaks
    # where the plain run does, not a 32 MB state above it
    argv = ["factor", "--n", "119", "--seed", "3", "--max-attempts", "2"]
    plain = peak_rss_mb(argv)
    dumped = peak_rss_mb(argv + ["--dump-distribution", str(tmp_path / "dist.json")])
    assert abs(dumped - plain) < 2


@pytest.mark.parametrize("call, message", [
    (lambda: circuit_to_text(Circuit(1, (GateOp(np.eye(2), (1,), "ID"),))),
     "gate 'ID' has no text form"),
    (lambda: run(RunConfig("nope", 0, None, {})), "unknown command 'nope'"),
], ids=["gate-without-text", "unknown-command"])
def test_calls_from_outside_the_parser_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
