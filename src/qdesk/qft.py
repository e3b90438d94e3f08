"""Quantum Fourier transform circuits built by the add-one-qubit recursion.

The builder grows the transform one wire at a time: the transform on the
first ``m - 1`` wires is followed by the controlled phases that couple wire
``m`` to the already-transformed wires, and a final Hadamard on wire ``m``.
That recursion writes the output bit of value 2^j onto wire j+1, i.e. in
bit-reversed order, so by default the builder appends floor(k/2) swaps to
deliver the standard-order matrix; a flag disables them when the caller
prefers to reindex.

An approximate transform with cutoff m drops every controlled phase whose
angle falls below 2*pi / 2^(m+1), keeping at most m couplings per wire and
trading an exponentially small fidelity loss for an O(k log k) gate count.
The m+1 in the threshold is deliberate: it is the coarsest cut that keeps
the worst-case fidelity above 0.99 at m = ceil(log2 k) + 2 for desk-scale
k, which is the guarantee the acceptance suite pins down.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import statevec
from .gates import Circuit, cphase_op, h_op, swap_op

#: dft_matrix builds a dense 2^k x 2^k array; keep it a test-scale oracle.
DFT_MATRIX_MAX_QUBITS = 10

#: qft_fidelity runs the circuit on every basis input, 16 inputs per run;
#: 2^12 inputs is the largest that stays interactive.
FIDELITY_MAX_QUBITS = 12


@dataclass(frozen=True)
class QftSpec:
    """Parameters of a transform circuit build."""

    k: int
    approx_cutoff: int | None = None
    include_bit_reversal_swaps: bool = True

    def __post_init__(self):
        statevec.require_qubits(self.k, f"the Fourier transform on k={self.k}")
        if self.approx_cutoff is not None and not 1 <= self.approx_cutoff <= self.k:
            raise ValueError(
                f"approx_cutoff must lie in [1, {self.k}], got {self.approx_cutoff}"
            )


def dft_matrix(k: int) -> np.ndarray:
    """Dense transform matrix with entry (b, a) = 2^(-k/2) exp(2 pi i a b / 2^k)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > DFT_MATRIX_MAX_QUBITS:
        raise ValueError(
            f"dft_matrix refuses k={k} (> {DFT_MATRIX_MAX_QUBITS}; dense matrix only)"
        )
    dim = 1 << k
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def build_qft_circuit(spec: QftSpec) -> Circuit:
    """Build the transform circuit for ``spec``.

    With no cutoff the circuit holds exactly k Hadamards and k(k-1)/2
    controlled phases; with swaps on, its expanded matrix equals
    :func:`dft_matrix`.
    """
    k = spec.k
    cutoff = spec.approx_cutoff
    ops = []
    for stage in range(1, k + 1):
        for j in range(stage - 1):
            # angle of this coupling is 2*pi / 2^(stage - j)
            if cutoff is not None and (stage - j) > cutoff + 1:
                continue
            ops.append(cphase_op(j, stage - 1, stage, j + 1))
        ops.append(h_op(stage))
    if spec.include_bit_reversal_swaps:
        for w in range(1, k // 2 + 1):
            ops.append(swap_op(w, k + 1 - w))
    return Circuit(k, tuple(ops))


def gate_counts(circuit: Circuit) -> dict[str, int]:
    """Tally circuit ops by gate name."""
    return dict(Counter(op.name for op in circuit.ops))


def qft_fidelity(circuit: Circuit) -> float:
    """Worst-case overlap of the circuit with the exact transform on its k wires.

    Returns min over basis inputs a of |<exact output | circuit output>|^2.
    Exact outputs are generated directly from the phase formula, so this
    does not require the dense matrix and runs up to k = 12.  The inputs
    run 16 at a time (1 or 4 for k < 4) as one state on k + 4 qubits whose
    low wires index the batch, with the circuit on the top k wires.
    """
    k = circuit.n_wires
    if k > FIDELITY_MAX_QUBITS:
        raise statevec.CapacityError(
            f"qft_fidelity runs 2^k circuit evaluations; k={k} exceeds "
            f"{FIDELITY_MAX_QUBITS}"
        )
    dim = 1 << k
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    scale = 1.0 / np.sqrt(dim)
    worst = 1.0
    idx = np.arange(dim)
    # 16 inputs per run was the fastest of 4, 16, 64 and 256 at k = 11; an
    # even number of batch wires loads each input at amplitude 2^-(low/2),
    # a power of two, so scaling back by 2^(low/2) is exact.
    low = min(4, k - k % 2)
    width = 1 << low
    lift = 1 << (low // 2)
    slots = np.arange(width)
    # one buffer is every batch's machine and one more holds the columns;
    # the output check covers the input too, since the input is exactly
    # normalised and the circuit is unitary
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
