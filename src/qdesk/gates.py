"""Gate library, circuit IR and dense matrix expansion.

Matrices are plain complex numpy arrays.  A ``GateOp`` binds a small unitary
(1 to 3 qubits) to an ordered list of distinct wires; the first wire in the
list is the most significant bit of the gate's own matrix index.  Wires are
numbered from 1 and wire 1 is the most significant bit of a basis index.

The named gates (H, CNOT, SWAP, TOFFOLI, CPHASE) are one table,
:data:`NAMED_GATES`, which the circuit text format reads too.  An op a
builder makes (``h_op`` and its kin) holds its name, wires and params and
builds its matrix from that table the first time the matrix is read, so
numpy is imported only where a matrix is built: a circuit can be built,
counted and written out without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    import numpy as np

UNITARY_TOL = 1e-10

#: Maximum wire count accepted by expand_to_matrix (dense 2^n x 2^n product).
EXPAND_MAX_WIRES = 10


def _as_unitary(matrix: np.ndarray) -> np.ndarray:
    import numpy as np

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
    """Index fixing a view's first k axes (the gate's) to row ``row``; more may follow."""
    return tuple((row >> (k - 1 - i)) & 1 for i in range(k))


@dataclass(frozen=True, eq=False)
class GateOp:
    """A small unitary bound to an ordered tuple of distinct wires.

    A given matrix is checked at construction and kept as a read-only
    copy.  A builder passes ``matrix=None`` with the name of a gate in
    :data:`NAMED_GATES`: the op then holds its name, wires and params, and
    its read-only matrix is built from the table on its first read (see
    :meth:`__getattr__`).  :attr:`changed_rows` is read from the matrix
    once, on the op's first run; the state-vector kernel routes on it.
    """

    matrix: np.ndarray | None
    wires: tuple[int, ...]
    name: str = "U"
    params: tuple = ()

    def __post_init__(self):
        if self.matrix is None:
            if self.name not in NAMED_GATES:
                raise ValueError(f"no named gate {self.name!r}; valid names: "
                                 f"{', '.join(sorted(NAMED_GATES))}")
            arity = NAMED_GATES[self.name].wires
            object.__delattr__(self, "matrix")  # until __getattr__ builds it
        else:
            m = _as_unitary(self.matrix).copy()
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
            arity = m.shape[0].bit_length() - 1
        wires = tuple(int(w) for w in self.wires)
        if len(wires) != arity:
            raise ValueError(
                f"gate acts on {arity} qubits but {len(wires)} wires given"
            )
        if len(set(wires)) != len(wires):
            raise ValueError(f"repeated wire index in {wires}")
        if any(w < 1 for w in wires):
            raise ValueError(f"wires are numbered from 1, got {wires}")
        object.__setattr__(self, "wires", wires)

    def __getattr__(self, attr: str):
        """Reached only for an attribute the op lacks: a named op's matrix, on its first read."""
        if attr != "matrix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {attr!r}")
        m = NAMED_GATES[self.name].matrix(*self.params)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        return m

    @property
    def arity(self) -> int:
        return len(self.wires)

    @cached_property
    def changed_rows(self) -> tuple | None:
        """The rows a permutation-times-diagonal matrix changes; None for any other matrix.

        Such a matrix has one nonzero in every row and column: row r of its
        product is that entry times the row c it reads.  Each row but an
        entry 1 at c = r is ``(r's slice, c's slice, entry)``, slices as
        :func:`_slice_index` gives them, the entry a read-only 1x1 matrix or
        None for 1.  The identity changes no rows, ``()``.
        """
        import numpy as np

        m = self.matrix
        dim = m.shape[0]
        # a unitary has a nonzero in every row and every column, so dim
        # nonzeros are exactly one in each; flatnonzero lists them row by row
        flat = np.flatnonzero(m)
        if flat.size != dim:
            return None
        rows = []
        for r, c in enumerate((flat % dim).tolist()):
            entry = m[r:r + 1, c:c + 1]  # a view of the read-only matrix
            if entry[0, 0] == 1:
                if c == r:
                    continue
                entry = None
            rows.append((_slice_index(r, self.arity), _slice_index(c, self.arity), entry))
        return tuple(rows)


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
    import numpy as np

    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)


def cnot() -> np.ndarray:
    """Controlled NOT: flips the second (target) bit iff the first is 1."""
    import numpy as np

    return np.array(
        [[1, 0, 0, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1],
         [0, 0, 1, 0]],
        dtype=np.complex128,
    )


def toffoli() -> np.ndarray:
    """Doubly controlled NOT: identity except the last two rows swapped."""
    import numpy as np

    m = np.eye(8, dtype=np.complex128)
    m[[6, 7]] = m[[7, 6]]
    return m


def swap_gate() -> np.ndarray:
    """Exchange two qubits (permutation of the middle basis states)."""
    import numpy as np

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
    import numpy as np

    phase = np.exp(1j * _phase_angle(j, k))
    return np.diag([1, 1, 1, phase]).astype(np.complex128)


def _phase_angle(j: int, k: int) -> float:
    """The angle 2*pi / 2^(k+1-j) of ``controlled_phase(j, k)``, once 0 <= j < k is checked."""
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    if j >= k:
        raise ValueError(f"need j < k, got j={j}, k={k}")
    # ldexp scales 2*pi by 2^(j-k-1) exactly and underflows to 0 for any
    # k; dividing by the int 2^(k+1-j) overflows once it passes 2^1023
    return math.ldexp(2 * math.pi, j - k - 1)


# ---------------------------------------------------------------------------
# op builders and the named-gate table
# ---------------------------------------------------------------------------

def h_op(wire: int) -> GateOp:
    return GateOp(None, (wire,), "H")


def cnot_op(control: int, target: int) -> GateOp:
    return GateOp(None, (control, target), "CNOT")


def toffoli_op(control_a: int, control_b: int, target: int) -> GateOp:
    return GateOp(None, (control_a, control_b, target), "TOFFOLI")


def swap_op(wire_a: int, wire_b: int) -> GateOp:
    return GateOp(None, (wire_a, wire_b), "SWAP")


def cphase_op(j: int, k: int, wire_a: int, wire_b: int) -> GateOp:
    _phase_angle(j, k)  # j and k are checked now, the matrix built on its first read
    return GateOp(None, (wire_a, wire_b), "CPHASE", params=(j, k))


class NamedGate(NamedTuple):
    """A gate the builders make by name."""

    wires: int
    op: Callable[..., GateOp]  # its builder: the params, then the wires
    matrix: Callable[..., np.ndarray]  # its matrix, from an op's params


#: The named gates, which are the circuit text format's gates.
NAMED_GATES: dict[str, NamedGate] = {
    "H": NamedGate(1, h_op, hadamard),
    "CNOT": NamedGate(2, cnot_op, cnot),
    "SWAP": NamedGate(2, swap_op, swap_gate),
    "TOFFOLI": NamedGate(3, toffoli_op, toffoli),
    "CPHASE": NamedGate(2, cphase_op, controlled_phase),
}


def hadamard_layer(n_wires: int) -> Circuit:
    """H on each of wires 1..n_wires, in order (the superposition load)."""
    return Circuit(n_wires, tuple(h_op(w) for w in range(1, n_wires + 1)))


# ---------------------------------------------------------------------------
# dense expansion (test oracle)
# ---------------------------------------------------------------------------

def embed_in_full_matrix(matrix: np.ndarray, wires: Sequence[int], n: int) -> np.ndarray:
    """Tensor-extend a small gate matrix to the full 2^n x 2^n unitary.

    Built entry by entry from index arithmetic so it can serve as an
    independent oracle for the state-vector kernel.
    """
    import numpy as np

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
    import numpy as np

    total = np.eye(1 << circuit.n_wires, dtype=np.complex128)
    for op in circuit.ops:
        total = embed_in_full_matrix(op.matrix, op.wires, circuit.n_wires) @ total
    return total
