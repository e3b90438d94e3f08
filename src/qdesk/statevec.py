"""Dense state-vector core: gate application, probabilities, measurement.

Conventions
-----------
* Wires are numbered 1..n and wire 1 is the MOST significant bit of a basis
  index; the basis state labelled by the bit string ``b1 b2 ... bn`` has
  integer index ``int("b1b2...bn", 2)``.
* A :class:`StateVector` is an immutable value; every public operation
  returns a new state.  Normalization is checked (tolerance 1e-10) and never
  silently repaired - an unnormalized array is an error.  Inside the
  package, a run evolves one private :class:`_Machine` buffer in place.
* Randomness comes from numpy's PCG64 bit generator.  Measurement samples
  are drawn by inverse-CDF lookup of uniform variates on the cumulative
  distribution, so a fixed seed reproduces the exact sample sequence on any
  platform.  Sub-seeds for independent streams are derived with
  :func:`derive_seed` (a ``numpy.random.SeedSequence`` over the master seed
  and an index path).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

import numpy as np

from .gates import Circuit, GateOp, hadamard

#: Hard cap on the simulated register: 2^24 complex doubles is 256 MB; one
#: such state, 1-2 MB of scratch and ~35 MB of interpreter peak near 295 MB.
MAX_QUBITS = 24

#: Tolerance on sum |amp|^2 = 1 and on unit-modulus diagonal factors.
NORM_TOL = 1e-10

# The gate kernel works on blocks of 2^15 amplitudes (512 KB, so its two
# scratch arrays fit a 2 MB L2 cache).  Over 2^12..2^17 on a 21-qubit
# QFT, 2^14..2^16 came out fastest: smaller blocks pay more per-block
# Python overhead (1.5x the QFT time at 2^12), larger ones spill out of
# the cache.
_BLOCK_BITS = 15


class CapacityError(ValueError):
    """Raised when a request would exceed the qubit budget."""


def require_qubits(needed: int, what: str) -> None:
    """Check a register size before anything is allocated for it.

    Below one qubit is a ValueError; above MAX_QUBITS is a CapacityError
    that reads "<what> needs N qubits (cap 24)".
    """
    if needed < 1:
        raise ValueError(f"{what} must use at least one qubit, got {needed}")
    if needed > MAX_QUBITS:
        raise CapacityError(f"{what} needs {needed} qubits (cap {MAX_QUBITS})")


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard PCG64 generator for a given seed.

    Seeds are reduced modulo 2^64, so negative integers are accepted and
    map to a fixed stream.
    """
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def derive_seed(master: int, *path: int) -> int:
    """Derive a deterministic 64-bit sub-seed from a master seed and indices.

    Uses ``numpy.random.SeedSequence`` on the entropy tuple
    ``(master, *path)``, which is documented, stable across platforms and
    collision-resistant between distinct paths.
    """
    entropy = [int(master) & 0xFFFFFFFFFFFFFFFF] + [int(p) & 0xFFFFFFFFFFFFFFFF for p in path]
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, np.uint64)[0])


class StateVector:
    """Normalized complex amplitudes over the 2^n computational basis states."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray, *, copy: bool = True):
        n_qubits = int(n_qubits)
        require_qubits(n_qubits, "a state vector")
        arr = np.array(amps, dtype=np.complex128, copy=copy)
        if arr.shape != (1 << n_qubits,):
            raise ValueError(
                f"amplitude array must have length 2^{n_qubits}, got shape {arr.shape}"
            )
        # a finite sum of non-negative squares has only finite terms
        norm_sq = float(np.vdot(arr, arr).real)
        if not np.isfinite(norm_sq) and not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(
                f"state is not normalized: sum |amp|^2 = {norm_sq!r} "
                f"(tolerance {NORM_TOL}); states are never renormalized silently"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "amps", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits})"


def init_basis(n_qubits: int, index: int) -> StateVector:
    """Return the basis state with amplitude 1 at ``index``.

    Wire 1 is the most significant bit of the index: ``init_basis(3, 4)``
    puts the excitation on wire 1 (binary 100).
    """
    return _Machine.basis(n_qubits, index).freeze()


class _Machine:
    """One register evolved in place in the one writable buffer it owns.

    Steps return the machine, so they chain; :meth:`freeze` validates the
    buffer once and hands it to a :class:`StateVector`, keeping no reference.
    """

    def __init__(self, amps: np.ndarray):
        self.n_qubits = amps.size.bit_length() - 1  # a buffer of 2^n amplitudes
        self.amps = amps

    @classmethod
    def basis(cls, n_qubits: int, index: int) -> _Machine:
        """A machine holding the basis state with amplitude 1 at ``index``."""
        require_qubits(n_qubits, "a basis state")
        dim = 1 << n_qubits
        index = int(index)
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range [0, {dim})")
        amps = np.zeros(dim, dtype=np.complex128)
        amps[index] = 1.0
        return cls(amps)

    @classmethod
    def period_finding(cls, transform: Circuit, table: np.ndarray, out_bits: int) -> _Machine:
        """|0>, H on the input register, the XOR oracle, then ``transform``.

        The input register is the top m = ``transform.n_wires`` wires, above
        the ``out_bits`` the oracle writes.  H^m is the Fourier transform
        over Z_2^m (Simon) and the QFT the one over Z_(2^2L) (order
        finding); a measured outcome ``>> out_bits`` reads the input register.

        The state is built without the H layer or the oracle pass: the
        amplitude (1/sqrt 2)^m, multiplied up as the H layer multiplies it,
        goes at (a, table[a]) of a zeroed buffer.  Seen as a 2^m x 2^out_bits
        matrix, the buffer's column w is then nonzero only when the table
        takes the value w, and ``transform`` (U on the input register, the
        identity on the output) maps each column to U times it, so a column
        the table never takes stays zero.  The transform runs on the live
        columns only: a power-of-two number of them at a time is gathered
        into one block of at most 2^14 amplitudes (one column when a column
        is larger), padded with dead columns, run as its own machine and
        scattered back.  The kernel's product on a column does not depend on
        the columns beside it, so the state is ``np.array_equal`` to the
        full-width run's (the tests compare the two).
        """
        m = transform.n_wires
        table = _oracle_table(table, 1 << m, out_bits)
        amps = np.zeros(1 << (m + out_bits), dtype=np.complex128)
        by_column = amps.reshape(1 << m, -1)
        by_column[np.arange(1 << m), table] = _hadamard_amplitude(m)
        live = np.zeros(1 << out_bits, dtype=bool)
        live[table] = True
        del table  # freed here when the caller kept no reference
        count = np.count_nonzero(live)
        # half a kernel block, so a block and the kernel's two scratch
        # arrays hold 768 KB; the 2^out_bits columns are a multiple of
        # width, so a last block always has dead columns to pad with
        width = min(max((1 << (_BLOCK_BITS - 1)) >> m, 1), by_column.shape[1])
        order = np.concatenate((np.flatnonzero(live), np.flatnonzero(~live)))
        block = np.empty((1 << m, width), dtype=amps.dtype)
        for start in range(0, count, width):
            columns = order[start:start + width]
            # the default mode="raise" gathers into a hidden copy of block
            np.take(by_column, columns, axis=1, out=block, mode="clip")
            cls(block.reshape(-1)).run(transform)
            by_column[:, columns] = block
        return cls(amps)

    def run(self, circuit: Circuit) -> _Machine:
        """The gate kernel: apply a circuit's ops in order, in place.

        The circuit acts on the top wires (see :func:`run_circuit`).  Views
        the buffer as a (2,)*n tensor (wire w is axis w-1) and, per gate,
        moves its wires' axes to the front (its first wire the high bit), so
        row r of the 2^k x 2^(n-k) unfolding is the slice ``full[r's bits]``.
        Each gate then runs one column block at a time: a block fixes the
        first n - 15 of the other axes (the highest wires the gate does not
        touch) to one prefix, so it holds 2^15 amplitudes, 512 KB; a state
        of 2^15 amplitudes or fewer is one block.  A block is 2^(15-k) whole
        columns of the unfolding, at least 2^12 for gates of up to three
        wires, and its product is bit-identical to those columns of the
        whole-state product (the tests compare blocked and unblocked runs).
        Three paths per block, all bit-identical to the first:

        * dense (H, any other gate): gather the block into one scratch array,
          multiply its unfolding by the matrix into the other, write back;
        * diagonal (CPHASE, ``GateOp.phase_rows``): gather each slice whose
          entry is not 1, multiply it as a (1,1) @ (1,m) ``np.matmul`` (the
          BLAS product; numpy's ``*`` differs by an ulp), write it back;
        * single swap (SWAP, CNOT, TOFFOLI, ``GateOp.swap_rows``): gather both
          slices and write each back in the other's place.  Both go through
          scratch, because assigning one view of the buffer to another makes
          numpy copy the source into a hidden temporary.

        The fast paths use prefixes of the scratch arrays and need at least 4
        columns: with 1 or 2, the (1,1) product differs from the dense one in
        most cases.  The two block-sized scratch arrays are allocated once
        per call and no gate allocates, so apart from the buffer a call holds
        1 MB at most.
        """
        if circuit.n_wires > self.n_qubits:
            raise ValueError(
                f"circuit needs {circuit.n_wires} wires but state has {self.n_qubits}")
        n = self.n_qubits
        tensor = self.amps.reshape((2,) * n)
        lead = max(n - _BLOCK_BITS, 0)
        prefixes = list(itertools.product((0, 1), repeat=lead))
        gathered = np.empty(self.amps.size >> lead, dtype=self.amps.dtype)
        product = np.empty_like(gathered)
        for gate in circuit.ops:
            k = len(gate.wires)
            full = np.moveaxis(tensor, [w - 1 for w in gate.wires], range(k))
            shape = full.shape[:k] + full.shape[k + lead:]
            width = gathered.size >> k
            part_in = gathered[:width].reshape(shape[k:])
            part_out = product[:width].reshape(shape[k:])
            for prefix in prefixes:
                view = full[(slice(None),) * k + prefix]
                if width >= 4 and gate.phase_rows is not None:
                    for row, entry in gate.phase_rows:
                        np.copyto(part_in, view[row])
                        np.matmul(entry, part_in.reshape(1, width), out=part_out.reshape(1, width))
                        view[row] = part_out
                elif width >= 4 and gate.swap_rows is not None:
                    row_a, row_b = gate.swap_rows
                    np.copyto(part_in, view[row_a])
                    np.copyto(part_out, view[row_b])
                    view[row_a] = part_out
                    view[row_b] = part_in
                else:
                    np.copyto(gathered.reshape(shape), view)
                    np.matmul(gate.matrix, gathered.reshape(1 << k, -1),
                              out=product.reshape(1 << k, -1))
                    view[...] = product.reshape(shape)
        return self

    def freeze(self) -> StateVector:
        """Validate the buffer once and return it as an immutable state."""
        amps, self.amps = self.amps, None
        return StateVector(self.n_qubits, amps, copy=False)


def _hadamard_amplitude(m: int) -> np.complex128:
    """Each amplitude of H^m|0>, (1/sqrt 2)^m multiplied up as the H layer multiplies it."""
    h, amp = hadamard()[0, 0], np.complex128(1)
    for _ in range(m):
        amp = h * amp
    return amp


def _oracle_table(table: np.ndarray, rows: int, out_bits: int) -> np.ndarray:
    """An XOR-oracle table as intp, checked to hold one ``out_bits``-bit value per row."""
    table = np.asarray(table, dtype=np.intp)
    if table.shape != (rows,):
        raise ValueError(f"oracle table must have {rows} entries, got shape {table.shape}")
    if np.any(table >> out_bits):
        raise ValueError(f"oracle table entries must be {out_bits}-bit values")
    return table


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply a gate to the wires it names, returning the new state.

    A one-op :func:`run_circuit` over the whole register, so the full
    2^n x 2^n operator is never built; the ``Circuit`` it builds checks
    the gate's wires against the state.
    """
    return run_circuit(state, Circuit(state.n_qubits, (gate,)))


def run_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply every op of a circuit in order.

    The circuit may have fewer wires than the state; its wires then act on
    the top (most significant) wires of the register, which is how a
    transform is applied to the leading register of a larger machine.
    ``GateOp`` and ``Circuit`` have already checked every op's wires
    against 1 and ``n_wires``.
    """
    return _Machine(state.amps.copy()).run(circuit).freeze()


def apply_diagonal(state: StateVector, phases: np.ndarray) -> StateVector:
    """Multiply amplitudes entrywise by unit-modulus diagonal factors."""
    phases = np.asarray(phases)
    if phases.shape != state.amps.shape:
        raise ValueError(
            f"diagonal has shape {phases.shape}, state needs {state.amps.shape}"
        )
    if np.max(np.abs(np.abs(phases.astype(np.complex128)) - 1.0)) > NORM_TOL:
        raise ValueError("diagonal factors must have unit modulus")
    return StateVector(state.n_qubits, state.amps * phases, copy=False)


def apply_permutation(state: StateVector, perm: np.ndarray) -> StateVector:
    """Apply a classical reversible map on basis states: new[perm[s]] = old[s].

    The map must be a bijection of [0, 2^n); such a permutation of basis
    vectors is unitary, which is how classical oracles enter the machine.
    """
    perm = np.asarray(perm, dtype=np.intp)
    dim = state.amps.size
    if perm.shape != (dim,):
        raise ValueError(f"permutation must have length {dim}, got {perm.shape}")
    counts = np.bincount(perm, minlength=dim)
    if perm.min() < 0 or perm.max() >= dim or counts.max() != 1:
        raise ValueError("permutation is not a bijection of the basis indices")
    amps = np.empty_like(state.amps)
    amps[perm] = state.amps
    return StateVector(state.n_qubits, amps, copy=False)


def distribution(state: StateVector) -> np.ndarray:
    """Measurement probabilities |amp|^2 for every basis index."""
    return np.abs(state.amps) ** 2


def probability_blocks(state: StateVector) -> Iterator[np.ndarray]:
    """|amp|^2 one kernel block at a time, in index order.

    Each block is a new array of 2^15 probabilities (the whole state when
    it is smaller), so a caller may work in it; joined, the blocks are
    :func:`distribution` bit for bit.
    """
    amps = state.amps
    for block in amps.reshape(-1, min(amps.size, 1 << _BLOCK_BITS)):
        yield np.abs(block) ** 2


def marginal(state: StateVector, high_bits: int) -> np.ndarray:
    """Measurement distribution of the top ``high_bits`` wires alone.

    Sums the outcome probabilities over the remaining low wires; entry i
    is the probability that wires 1..high_bits read the integer i.
    """
    if not 1 <= high_bits <= state.n_qubits:
        raise ValueError(f"high_bits={high_bits} out of range [1, {state.n_qubits}]")
    return distribution(state).reshape(1 << high_bits, -1).sum(axis=1)


def _cdf_blocks(state: StateVector) -> Iterator[np.ndarray]:
    """The outcome CDF one kernel block at a time, in index order.

    Joined, the blocks are the whole-array ``cumsum`` of the probabilities
    bit for bit, except that the last entry is 1.0: the top bin is guarded
    against rounding.
    """
    carry, end = 0.0, 0
    for cdf in probability_blocks(state):
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        carry = cdf[-1]
        end += cdf.size
        if end == state.amps.size:
            cdf[-1] = 1.0
        yield cdf


def measure_all(state: StateVector, rng_seed: int, shots: int) -> list[int]:
    """Draw ``shots`` independent basis-index samples from the state.

    Deterministic for a fixed seed: uniform variates from the seeded PCG64
    stream are mapped through the inverse CDF of the outcome distribution.
    The CDF is built and searched one kernel block at a time, which is the
    whole-array ``cumsum`` and ``searchsorted`` bit for bit.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    u = make_rng(rng_seed).random(shots)
    idx = 0
    for cdf in _cdf_blocks(state):
        idx += np.searchsorted(cdf, u, side="right")
    return [int(i) for i in np.minimum(idx, state.amps.size - 1)]


def _row_cdf(state: StateVector, low_bits: int) -> np.ndarray:
    """:func:`measure_all`'s CDF at the last index of each run of 2^low_bits.

    Entry y is the CDF at index (y + 1) 2^low_bits - 1, so for a variate u,
    ``searchsorted(_row_cdf(state, b), u, side="right")`` is the index
    :func:`measure_all` draws for u, shifted right by b: the top wires'
    outcome, without building the CDF again.
    """
    row, start, ends = 1 << low_bits, 0, []
    for cdf in _cdf_blocks(state):
        ends.append(cdf[(row - 1 - start) % row::row].copy())
        start += cdf.size
    return np.concatenate(ends)
