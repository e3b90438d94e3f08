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

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import statevec
from .gates import Circuit, cphase_op, h_op, swap_op

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


def build_qft_circuit(spec: QftSpec) -> Circuit:
    """Build the transform circuit for ``spec``.

    With no cutoff the circuit holds exactly k Hadamards and k(k-1)/2
    controlled phases; with swaps on, its expanded matrix is the dense
    transform with entry (b, a) = 2^(-k/2) exp(2 pi i a b / 2^k).
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


def _bit_sums(part: np.ndarray) -> np.ndarray:
    """Column i: the rows of part summed over the set bits of i, msb first."""
    return part @ np.indices((2,) * part.shape[1]).reshape(-1, 1 << part.shape[1])


def phase_form_fidelity(circuit: Circuit) -> float:
    """Worst-case overlap of an H, CPHASE and SWAP circuit with the exact transform.

    On basis input a, wire w ends in (|0> + e^{i phi_w}|1>)/sqrt(2), phi_w an
    integer form over the input bits in units of 2*pi / 2^(k+1).  The overlap
    is the product of (1 + cos(phi_w - 2*pi*a / 2^w)) / 2 (Coppersmith,
    arXiv:quant-ph/0201067), minimised over all 2^k inputs 2^14 at a time.
    Any op outside that form raises ValueError.
    """
    k = circuit.n_wires
    modulus = 1 << (k + 1)
    holds = list(range(k))  # the input wire whose qubit each wire now carries
    form = np.zeros((k, k), dtype=np.int64)  # row c: qubit c's phase form
    for op in circuit.ops:
        carried = [holds[w - 1] for w in op.wires]
        after = [form[c, c] != 0 for c in carried]  # past its H: its own bit is in
        if op.name == "H" and not after[0]:  # pi times the bit it holds
            form[carried[0], carried[0]] = modulus >> 1
        elif op.name == "SWAP":
            holds[op.wires[0] - 1], holds[op.wires[1] - 1] = carried[::-1]
        elif op.name == "CPHASE" and not all(after) and op.params[1] - op.params[0] <= k:
            if any(after):  # its angle times the other's bit; else a global phase
                target, bit = carried if after[0] else carried[::-1]
                form[target, bit] += modulus >> (op.params[1] + 1 - op.params[0])
        else:
            raise ValueError(f"{op.name} on wires {op.wires} leaves the phase form")
    if not form.diagonal().all():
        raise ValueError(f"wire {holds.index(form.diagonal().argmin()) + 1} never gets an H")
    weights = 1 << np.arange(k - 1, -1, -1)  # of the input bits in a
    delta = (form[holds] - np.outer(2 * weights, weights)) % modulus  # minus 2*pi*a / 2^w
    split = max(0, k - 14)
    low, high = _bit_sums(delta[:, split:]), _bit_sums(delta[:, :split])
    mixed = high.any(axis=1)  # the wires whose delta reads a high bit

    def factors(sums):
        return (1 + np.cos((sums % modulus) * math.ldexp(2 * math.pi, -(k + 1)))) / 2

    low_only, low = factors(low[~mixed]).prod(axis=0), low[mixed]
    worst = 1.0
    for offset in high[mixed].T:
        worst = min(worst, (low_only * factors(low + offset[:, None]).prod(axis=0)).min())
        if worst == 0.0:  # no factor is negative
            break
    return float(worst)
