"""Correctness gate for every request the benchmark sends.

A request passes when it exits 0, its report bytes hash to the golden
digest recorded from the seed commit, the report validates against
``src/qdesk/report_schema.json``, and a semantic referee for its command
agrees with the content.  The referees recompute the answer by an
independent route where one exists (modular arithmetic, GF(2) inner
products, the two-amplitude search recurrence, a tensor-contraction
simulator) instead of trusting the program's own code path.

Checks run after the timed loop, never inside a timed request.  Verdicts
are memoised per report digest, since equal bytes get an equal verdict.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import plan as planmod

#: Probabilities in reports carry 12 significant digits.
PROB_TOL = 1e-9

#: Worst-case fidelity promised for the cutoff ceil(log2 k) + 2.
QFT_CUTOFF_FIDELITY = 0.99


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flags(argv: list[str]) -> dict[str, list[str]]:
    """``--name value`` pairs of a request argv (values kept in order)."""
    out: dict[str, list[str]] = {}
    for name, value in zip(argv[1::2], argv[2::2]):
        out.setdefault(name, []).append(value)
    return out


class Gate:
    """Runs the checks for one checkout; holds the memoised verdicts."""

    def __init__(self, root: Path):
        if str(root / "src") not in sys.path:
            sys.path.insert(0, str(root / "src"))
        import jsonschema  # installed with the package's test extra

        schema_path = root / "src" / "qdesk" / "report_schema.json"
        schema = json.loads(schema_path.read_text(encoding="utf-8"))
        self._validator = jsonschema.Draft202012Validator(schema)
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def check(self, item: dict, returncode: int, out: bytes) -> list[str]:
        """Problems found with one request's outcome (empty when correct)."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        got = digest(out)
        problems = []
        if got != item["sha256"]:
            problems.append(f"report digest {got[:12]} != golden {item['sha256'][:12]}")
        key = (planmod.request_key(item["argv"]), got)
        if key not in self._verdicts:
            self._verdicts[key] = self._inspect(item, out)
        return problems + self._verdicts[key]

    def _inspect(self, item: dict, out: bytes) -> list[str]:
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"report is not JSON: {exc}"]
        error = next(self._validator.iter_errors(report), None)
        if error is not None:
            return [f"schema: {error.message}"]
        referee = REFEREES[item["argv"][0]]
        try:
            return referee(item, report["result"])
        except (KeyError, TypeError, ValueError) as exc:
            return [f"referee could not read the report: {exc!r}"]


# ---------------------------------------------------------------------------
# referees
# ---------------------------------------------------------------------------

def _order(x: int, n: int) -> int:
    r, v = 1, x % n
    while v != 1:
        v = v * x % n
        r += 1
    return r


def referee_factor(item: dict, result: dict) -> list[str]:
    f = flags(item["argv"])
    n = int(f["--n"][0])
    problems = []
    if result["N"] != n:
        problems.append(f"N {result['N']} != {n}")
    if len(result["attempts"]) > int(f["--max-attempts"][0]):
        problems.append("more attempts than --max-attempts")
    if result["succeeded"]:
        p, q = result["factors"]
        if p * q != n or not (1 < p < n and 1 < q < n):
            problems.append(f"factors {p} x {q} do not split N={n}")
    q_total = 1 << (2 * n.bit_length())
    for a in result["attempts"]:
        x = a["x"]
        if not 2 <= x <= n - 2:
            problems.append(f"x={x} outside [2, N-2]")
            continue
        if a["lucky_gcd"]:
            if math.gcd(x, n) == 1:
                problems.append(f"lucky gcd claimed for coprime x={x}")
            continue
        c, r = a["measured_c"], a["recovered_r"]
        if c is None or not 0 <= c < q_total:
            problems.append(f"measured c={c} outside [0, {q_total})")
        if r is not None and r != _order(x, n):
            problems.append(f"recovered r={r} is not the order of {x} mod {n}")
        failure = a["failure"]
        if failure == "cf miss" and r is not None:
            problems.append("cf miss reported with a recovered order")
        if failure == "odd r" and (r is None or r % 2 == 0):
            problems.append(f"odd r claimed for r={r}")
        if failure == "x^{r/2} == -1" and (r is None or pow(x, r // 2, n) != n - 1):
            problems.append(f"x^(r/2) = -1 claimed for x={x}, r={r}")
        if failure is None and a["factors"] is None:
            problems.append("attempt neither failed nor split N")
    return problems


def referee_simon(item: dict, result: dict) -> list[str]:
    c = flags(item["argv"])["--c"][0]
    problems = []
    if result["recovered_c"] != c or not result["succeeded"]:
        problems.append(f"recovered_c {result['recovered_c']} != c {c}")
    if result["rounds"] != len(result["samples"]):
        problems.append("rounds != number of samples")
    c_int = int(c, 2)
    for y in result["samples"]:
        if bin(int(y, 2) & c_int).count("1") % 2:
            problems.append(f"sample {y} is not orthogonal to c")
            break
    return problems


def search_success_probability(n_items: int, t: int, iterations: int) -> float:
    """Marked mass after ``iterations`` steps, by the two-amplitude recurrence.

    ``t == 1`` uses the package's published recurrence; several targets use
    the same recurrence with t marked and N - t unmarked amplitudes.
    """
    if t == 1:
        from qdesk import grover

        beta = grover.analytic_recurrence(n_items, iterations)[-1].beta
        return beta * beta
    alpha = beta = 1.0 / math.sqrt(n_items)
    for _ in range(iterations):
        m = ((n_items - t) * alpha - t * beta) / n_items
        alpha, beta = 2 * m - alpha, 2 * m + beta
    return t * beta * beta


def referee_grover(item: dict, result: dict) -> list[str]:
    f = flags(item["argv"])
    k = int(f["--qubits"][0])
    if "--targets-file" in f:
        (spec,) = item["files"].values()
        targets = sorted(spec["values"])
    else:
        targets = sorted(int(v) for v in f["--target"])
    n_items, t = 1 << k, len(targets)
    iterations = round(math.pi / 4 * math.sqrt(n_items / t) - 0.5)
    problems = []
    if result["targets"] != targets or result["n_items"] != n_items:
        problems.append("targets or n_items differ from the request")
    if result["iterations"] != iterations or result["oracle_calls"] != iterations:
        problems.append(f"iterations {result['iterations']} != schedule {iterations}")
    expected = search_success_probability(n_items, t, iterations)
    if abs(result["success_probability"] - expected) > PROB_TOL:
        problems.append(
            f"success_probability {result['success_probability']} != analytic {expected:.12g}"
        )
    if result["success"] != (result["found"] in targets):
        problems.append("success flag disagrees with found")
    return problems


def referee_qft(item: dict, result: dict) -> list[str]:
    f = flags(item["argv"])
    k = int(f["--qubits"][0])
    cutoff = int(f["--cutoff"][0]) if "--cutoff" in f else None
    counts = result["gate_counts"]
    problems = []
    if counts.get("H") != k or counts.get("SWAP", 0) != k // 2:
        problems.append(f"gate counts {counts} wrong for k={k}")
    if sum(counts.values()) != result["total_ops"]:
        problems.append("total_ops != sum of gate counts")
    fidelity = result["fidelity"]
    if cutoff is None:
        if counts.get("CPHASE") != k * (k - 1) // 2:
            problems.append(f"exact transform has {counts.get('CPHASE')} phases")
        if fidelity is None or abs(fidelity - 1.0) > PROB_TOL:
            problems.append(f"exact fidelity {fidelity} != 1")
    else:
        if cutoff == math.ceil(math.log2(k)) + 2 and (
            fidelity is None or fidelity < QFT_CUTOFF_FIDELITY
        ):
            problems.append(f"cutoff fidelity {fidelity} < {QFT_CUTOFF_FIDELITY}")
    return problems


# --- circuit reference ------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _reference_matrix(name: str, params: dict) -> np.ndarray:
    if name == "H":
        return _H
    if name == "CPHASE":
        return np.diag([1, 1, 1, np.exp(2j * np.pi / 2 ** (params["k"] + 1 - params["j"]))])
    # CNOT, SWAP, TOFFOLI: permutation matrices of their basis maps
    dim = {"CNOT": 4, "SWAP": 4, "TOFFOLI": 8}[name]
    perm = {"CNOT": [0, 1, 3, 2], "SWAP": [0, 2, 1, 3],
            "TOFFOLI": [0, 1, 2, 3, 4, 5, 7, 6]}[name]
    m = np.zeros((dim, dim), dtype=complex)
    m[perm, range(dim)] = 1.0
    return m


def parse_ops(text: str) -> list[tuple[str, tuple[int, ...], dict]]:
    ops = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        params = dict(tok.split("=") for tok in tokens[2:])
        ops.append((tokens[0], tuple(int(w) for w in tokens[1].split(",")),
                    {k: int(v) for k, v in params.items()}))
    return ops


def reference_distribution(wires: int, ops) -> np.ndarray:
    """Output distribution by tensor contraction on a (2,)*n array.

    Wire 1 is axis 0, the most significant bit, as in the package.  This
    is a different algorithm from the package's gather/scatter kernel.
    """
    psi = np.zeros((2,) * wires, dtype=complex)
    psi[(0,) * wires] = 1.0
    for name, ws, params in ops:
        k = len(ws)
        u = _reference_matrix(name, params).reshape((2,) * (2 * k))
        axes = [w - 1 for w in ws]
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return (np.abs(psi) ** 2).reshape(-1)


def dense_distribution(wires: int, ops) -> np.ndarray:
    """Output distribution from ``gates.expand_to_matrix`` (at most 10 wires)."""
    from qdesk import gates

    builders = {"H": gates.h_op, "CNOT": gates.cnot_op, "SWAP": gates.swap_op,
                "TOFFOLI": gates.toffoli_op}
    circuit_ops = [
        gates.cphase_op(p["j"], p["k"], *ws) if name == "CPHASE" else builders[name](*ws)
        for name, ws, p in ops
    ]
    u = gates.expand_to_matrix(gates.Circuit(wires, tuple(circuit_ops)))
    return np.abs(u[:, 0]) ** 2


def referee_circuit(item: dict, result: dict) -> list[str]:
    (spec,) = item["files"].values()
    wires = spec["wires"]
    ops = parse_ops(planmod.file_text(spec))
    if wires <= 10:
        probs = dense_distribution(wires, ops)
    else:
        probs = reference_distribution(wires, ops)
    problems = []
    if result["n_wires"] != wires or result["ops"] != len(ops):
        problems.append("n_wires or ops differ from the circuit file")
    reported = np.zeros(1 << wires)
    for bits, p in result["distribution"].items():
        reported[int(bits, 2)] = p
    worst = float(np.max(np.abs(reported - probs) - PROB_TOL * probs))
    if worst > PROB_TOL:
        problems.append(f"distribution deviates from the reference by {worst:.3e}")
    return problems


REFEREES = {
    "factor": referee_factor,
    "simon": referee_simon,
    "grover": referee_grover,
    "qft": referee_qft,
    "circuit-run": referee_circuit,
}
