"""Time the public state-vector operations at one register size.

    python kernel_probe.py N_QUBITS REPEATS

Builds a seeded random normalised state of N_QUBITS qubits and times, each
REPEATS times (the median is printed), ``StateVector`` construction,
``apply_gate`` for one gate of each kind, ``apply_permutation`` with an XOR
relabelling of the basis, and ``measure_all`` with 1024 shots.  Prints one
JSON object of seconds.  The parent reads this process's peak RSS.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from qdesk import gates, statevec

SHOTS = 1024


def gate_set(n: int) -> dict[str, gates.GateOp]:
    """One gate per kind, on wires spread over the register."""
    mid = n // 2
    return {
        "H": gates.h_op(mid),
        "CNOT": gates.cnot_op(1, n),
        "SWAP": gates.swap_op(2, n - 1),
        "TOFFOLI": gates.toffoli_op(1, mid, n),
        "CPHASE": gates.cphase_op(0, 3, 3, n - 2),
    }


def timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe(n: int, repeats: int) -> dict[str, float]:
    rng = np.random.default_rng(n)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    result = {"StateVector": timed(lambda: statevec.StateVector(n, amps), repeats)}
    state = statevec.StateVector(n, amps, copy=False)
    del amps
    for kind, op in gate_set(n).items():
        result[f"gate.{kind}"] = timed(lambda: statevec.apply_gate(state, op), repeats)
    perm = np.arange(1 << n, dtype=np.intp) ^ ((1 << n) - 1 - 5)
    result["apply_permutation"] = timed(lambda: statevec.apply_permutation(state, perm), repeats)
    result["measure_all"] = timed(lambda: statevec.measure_all(state, n, SHOTS), repeats)
    return result


if __name__ == "__main__":
    print(json.dumps(probe(int(sys.argv[1]), int(sys.argv[2]))))
