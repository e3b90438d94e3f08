import json

import numpy as np
import pytest

from qdesk import cli, statevec
from qdesk.gates import Circuit


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_state(rng, n):
    """Haar-ish random normalized state on n qubits."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return statevec.StateVector(n, amps)


def random_unitary(rng, dim):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def qft_fidelity(circuit: Circuit) -> float:
    """Worst-case overlap of the circuit with the exact transform on its k wires.

    The circuit-evaluation referee for ``qft.phase_form_fidelity``: it
    returns min over basis inputs a of |<exact output | circuit output>|^2
    for any circuit, by running it on all 2^k inputs (about 4 s at k = 12).
    Exact outputs are generated directly from the phase formula, so this
    does not require the dense matrix.  The inputs run 16 at a time (1 or 4
    for k < 4) as one state on k + 4 qubits whose low wires index the
    batch, with the circuit on the top k wires.
    """
    k = circuit.n_wires
    dim = 1 << k
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    scale = 1.0 / np.sqrt(dim)
    worst = 1.0
    idx = np.arange(dim)
    # an even number of batch wires loads each input at amplitude
    # 2^-(low/2), a power of two, so scaling back by 2^(low/2) is exact
    low = min(4, k - k % 2)
    width = 1 << low
    lift = 1 << (low // 2)
    slots = np.arange(width)
    inputs = np.zeros(dim * width, dtype=np.complex128)
    columns = np.empty((width, dim), dtype=np.complex128)
    for first in range(0, dim, width):
        inputs[((first + slots) << low) | slots] = 1.0 / lift
        out = statevec._Machine(inputs.view()).run(circuit).freeze().amps
        # contiguous rows, so np.vdot sums each one as it summed a single state
        np.multiply(out.reshape(dim, width).T, lift, out=columns)
        inputs.fill(0)
        for a, column in zip(range(first, first + width), columns):
            exact = roots[(a * idx) % dim] * scale
            overlap = abs(np.vdot(exact, column)) ** 2
            worst = min(worst, overlap)
    return float(worst)


def distribution_dict(probs: np.ndarray) -> dict[str, float]:
    """Zero-padded n-bit strings mapped to the 2^n probabilities, zeros omitted."""
    width = probs.size.bit_length() - 1
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(probs) if p > 0.0}


def report_json(report: cli.RunReport) -> str:
    """The report text as the dict-building serializer wrote it.

    The byte-identity referee for ``RunReport.to_json``: a state under
    "distribution" becomes the dict of its nonzero outcome probabilities,
    and the whole report goes through one ``json.dumps``.  It holds the
    2^n-entry dict and its text at once (about 100 MB at 18 wires), which
    is what the streamed report avoids.
    """
    result = dict(report.result)
    if isinstance(result.get("distribution"), statevec.StateVector):
        result["distribution"] = distribution_dict(statevec.distribution(result["distribution"]))
    obj = {"command": report.command, "config": report.config,
           "result": result, "version": report.version}
    return json.dumps(cli._round_floats(obj), indent=2, sort_keys=True) + "\n"
