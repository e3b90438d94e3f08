"""Gate library, circuit IR, matrix expansion and nearest-neighbour routing.

Matrices are plain complex numpy arrays.  A ``GateOp`` binds a small unitary
(1 to 3 qubits) to an ordered list of distinct wires; the first wire in the
list is the most significant bit of the gate's own matrix index.  Wires are
numbered from 1 and wire 1 is the most significant bit of a basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

UNITARY_TOL = 1e-10

#: Maximum wire count accepted by expand_to_matrix (dense 2^n x 2^n product).
EXPAND_MAX_WIRES = 10


def _as_unitary(matrix: np.ndarray) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"gate matrix must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim not in (2, 4, 8):
        raise ValueError(f"gate matrix must act on 1-3 qubits, got dimension {dim}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("gate matrix contains non-finite entries")
    defect = np.max(np.abs(m @ m.conj().T - np.eye(dim)))
    if defect > UNITARY_TOL:
        raise ValueError(f"gate matrix is not unitary (max |M M+ - I| = {defect:.3e})")
    return m


def _slice_index(row: int, k: int) -> tuple:
    """Index of matrix row ``row``'s slice in a view whose first k axes are the gate's."""
    return tuple((row >> (k - 1 - i)) & 1 for i in range(k)) + (...,)


def _kernel_structure(m: np.ndarray) -> tuple[tuple | None, tuple | None]:
    """The slices a diagonal or single-swap matrix touches, for the kernel.

    Returns ``(phase_rows, swap_rows)``.  For a diagonal matrix,
    ``phase_rows`` pairs the slice index of every row whose entry is not 1
    with that entry as a read-only 1x1 matrix.  For the identity with two
    rows exchanged (SWAP, CNOT, TOFFOLI), ``swap_rows`` holds the two slice
    indices.  Every other matrix gives ``(None, None)``.
    """
    dim = m.shape[0]
    k = dim.bit_length() - 1
    diagonal = np.diagonal(m)
    moved = [int(r) for r in np.flatnonzero(diagonal != 1)]
    if np.array_equal(m, np.diag(diagonal)):
        entries = []
        for r in moved:
            entry = m[r:r + 1, r:r + 1].copy()
            entry.setflags(write=False)
            entries.append((_slice_index(r, k), entry))
        return tuple(entries), None
    if len(moved) == 2:
        exchanged = np.eye(dim)
        exchanged[moved] = exchanged[moved[::-1]]
        if np.array_equal(m, exchanged):
            return None, tuple(_slice_index(r, k) for r in moved)
    return None, None


@dataclass(frozen=True, eq=False)
class GateOp:
    """A small unitary bound to an ordered tuple of distinct wires.

    ``phase_rows`` and ``swap_rows`` are read from the matrix once, when
    the op is built (see :func:`_kernel_structure`); the state-vector
    kernel routes diagonal and single-swap gates on them.
    """

    matrix: np.ndarray
    wires: tuple[int, ...]
    name: str = "U"
    params: tuple = ()
    phase_rows: tuple | None = field(init=False, repr=False)
    swap_rows: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_unitary(self.matrix)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        wires = tuple(int(w) for w in self.wires)
        if len(wires) != self.arity:
            raise ValueError(
                f"gate acts on {self.arity} qubits but {len(wires)} wires given"
            )
        if len(set(wires)) != len(wires):
            raise ValueError(f"repeated wire index in {wires}")
        if any(w < 1 for w in wires):
            raise ValueError(f"wires are numbered from 1, got {wires}")
        object.__setattr__(self, "wires", wires)
        phase_rows, swap_rows = _kernel_structure(m)
        object.__setattr__(self, "phase_rows", phase_rows)
        object.__setattr__(self, "swap_rows", swap_rows)

    @property
    def arity(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


@dataclass(frozen=True, eq=False)
class Circuit:
    """An ordered sequence of gate ops over ``n_wires`` quantum wires."""

    n_wires: int
    ops: tuple[GateOp, ...] = ()

    def __post_init__(self):
        if self.n_wires < 1:
            raise ValueError("circuit needs at least one wire")
        ops = tuple(self.ops)
        for op in ops:
            if not isinstance(op, GateOp):
                raise TypeError(f"circuit ops must be GateOp, got {type(op).__name__}")
            if max(op.wires) > self.n_wires:
                raise ValueError(
                    f"op {op.name} on wires {op.wires} exceeds n_wires={self.n_wires}"
                )
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)


# ---------------------------------------------------------------------------
# matrix constructors
# ---------------------------------------------------------------------------

def hadamard() -> np.ndarray:
    """The 2x2 transform with entries +-1/sqrt(2)."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def cnot() -> np.ndarray:
    """Controlled NOT: flips the second (target) bit iff the first is 1."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]],
        dtype=np.complex128,
    )


def toffoli() -> np.ndarray:
    """Doubly controlled NOT: identity except the last two rows swapped."""
    m = np.eye(8, dtype=np.complex128)
    m[[6, 7]] = m[[7, 6]]
    return m


def swap_gate() -> np.ndarray:
    """Exchange two qubits (permutation of the middle basis states)."""
    return np.array(
        [[1, 0, 0, 0],
         [0, 0, 1, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1]],
        dtype=np.complex128,
    )


def controlled_phase(j: int, k: int) -> np.ndarray:
    """Two-qubit phase gate diag(1, 1, 1, exp(2*pi*i / 2^(k+1-j))).

    Applies the phase exactly when both qubits are 1.  Requires 0 <= j < k;
    the phase shrinks exponentially as k - j grows.
    """
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    if j >= k:
        raise ValueError(f"need j < k, got j={j}, k={k}")
    # ldexp scales 2*pi by 2^(j-k-1) exactly and underflows to 0 for any
    # k; dividing by the int 2^(k+1-j) overflows once it passes 2^1023
    phase = np.exp(1j * math.ldexp(2 * math.pi, j - k - 1))
    return np.diag([1, 1, 1, phase]).astype(np.complex128)


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------

def h_op(wire: int) -> GateOp:
    return GateOp(hadamard(), (wire,), "H")


def cnot_op(control: int, target: int) -> GateOp:
    return GateOp(cnot(), (control, target), "CNOT")


def toffoli_op(control_a: int, control_b: int, target: int) -> GateOp:
    return GateOp(toffoli(), (control_a, control_b, target), "TOFFOLI")


def swap_op(wire_a: int, wire_b: int) -> GateOp:
    return GateOp(swap_gate(), (wire_a, wire_b), "SWAP")


def cphase_op(j: int, k: int, wire_a: int, wire_b: int) -> GateOp:
    return GateOp(controlled_phase(j, k), (wire_a, wire_b), "CPHASE", params=(j, k))


def hadamard_layer(n_wires: int) -> Circuit:
    """H on each of wires 1..n_wires, in order (the superposition load)."""
    return Circuit(n_wires, tuple(h_op(w) for w in range(1, n_wires + 1)))


# ---------------------------------------------------------------------------
# diagonal phase oracles
# ---------------------------------------------------------------------------

def phase_flip_target(n: int, predicate: Callable[[int], bool]) -> np.ndarray:
    """Diagonal transform negating exactly the indices the predicate marks.

    The predicate must be total over [0, 2^n); it is evaluated once per
    basis index when the diagonal is built.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    signs = np.ones(1 << n, dtype=np.float64)
    for i in range(1 << n):
        if predicate(i):
            signs[i] = -1.0
    return signs


# ---------------------------------------------------------------------------
# dense expansion (test oracle) and routing
# ---------------------------------------------------------------------------

def embed_in_full_matrix(matrix: np.ndarray, wires: Sequence[int], n: int) -> np.ndarray:
    """Tensor-extend a small gate matrix to the full 2^n x 2^n unitary.

    Built entry by entry from index arithmetic so it can serve as an
    independent oracle for the state-vector kernel.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    k = m.shape[0].bit_length() - 1
    positions = [n - w for w in wires]
    mask = 0
    for p in positions:
        mask |= 1 << p
    dim = 1 << n
    full = np.zeros((dim, dim), dtype=np.complex128)
    for b in range(dim):
        g_in = 0
        for col, p in enumerate(positions):
            g_in |= ((b >> p) & 1) << (k - 1 - col)
        rest = b & ~mask
        for g_out in range(1 << k):
            b_out = rest
            for col, p in enumerate(positions):
                b_out |= ((g_out >> (k - 1 - col)) & 1) << p
            full[b_out, b] = m[g_out, g_in]
    return full


def expand_to_matrix(circuit: Circuit) -> np.ndarray:
    """Multiply out a circuit into its full unitary (small n only)."""
    if circuit.n_wires > EXPAND_MAX_WIRES:
        raise ValueError(
            f"expand_to_matrix refuses n_wires={circuit.n_wires} "
            f"(> {EXPAND_MAX_WIRES}; dense matrix would not fit)"
        )
    total = np.eye(1 << circuit.n_wires, dtype=np.complex128)
    for op in circuit.ops:
        total = embed_in_full_matrix(op.matrix, op.wires, circuit.n_wires) @ total
    return total


def route_linear(circuit: Circuit) -> Circuit:
    """Rewrite a circuit so two-qubit gates touch only adjacent wires.

    A non-adjacent pair (i, j) is handled by swapping wire i step by step
    next to j, applying the gate there, and mirroring the swaps back, so
    the overall unitary is unchanged.  Adds 2*(|i-j|-1) swaps per gate,
    at most 2*(n-1).
    """
    routed: list[GateOp] = []
    for op in circuit.ops:
        if op.arity == 3:
            raise ValueError(
                f"route_linear handles gates on at most 2 wires, got {op.name}"
            )
        if op.arity == 1:
            routed.append(op)
            continue
        i, j = op.wires
        if abs(i - j) == 1:
            routed.append(op)
            continue
        step = 1 if i < j else -1
        # carry wire i's qubit to the slot adjacent to j: i, i+step, ..., j-2*step
        swaps = [swap_op(a, a + step) for a in range(i, j - step, step)]
        routed.extend(swaps)
        moved = j - step
        routed.append(GateOp(op.matrix, (moved, j), op.name, op.params))
        routed.extend(reversed(swaps))
    return Circuit(circuit.n_wires, tuple(routed))
