"""Dense state-vector core: gate application, probabilities, measurement.

Conventions
-----------
* Wires are numbered 1..n and wire 1 is the MOST significant bit of a basis
  index; the basis state labelled by the bit string ``b1 b2 ... bn`` has
  integer index ``int("b1b2...bn", 2)``.
* A :class:`StateVector` is an immutable value; every public operation
  returns a new state.  Normalization is checked (tolerance 1e-10) and never
  silently repaired - an unnormalized array is an error.  Inside the
  package, a run evolves a buffer in place (:func:`_evolve`) and the state
  it returns shares that buffer, read-only.
* Randomness comes from numpy's PCG64 bit generator.  Measurement samples
  are drawn by inverse-CDF lookup of uniform variates on the cumulative
  distribution, so a fixed seed reproduces the exact sample sequence on any
  platform.  Sub-seeds for independent streams are derived with
  :func:`derive_seed` (a ``numpy.random.SeedSequence`` over the master seed
  and an index path).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

import numpy as np

# the qubit budget lives in the package, which loads no numpy; these are its objects
from . import MAX_QUBITS, CapacityError, require_qubits
from .gates import Circuit, GateOp, hadamard

#: Tolerance on sum |amp|^2 = 1.
NORM_TOL = 1e-10

# The gate kernel works on blocks of 2^15 amplitudes (512 KB, so its two
# scratch arrays fit a 2 MB L2 cache).  Over 2^12..2^17 on a 21-qubit
# QFT, 2^14..2^16 came out fastest: smaller blocks pay more per-block
# Python overhead (1.5x the QFT time at 2^12), larger ones spill out of
# the cache.
_BLOCK_BITS = 15


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
        arr = (np.array if copy else np.asarray)(amps, dtype=np.complex128)
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
    return StateVector(n_qubits, _basis(n_qubits, index), copy=False)


def _basis(n_qubits: int, index: int) -> np.ndarray:
    """A new buffer holding the basis state with amplitude 1 at ``index``."""
    require_qubits(n_qubits, "a basis state")
    dim = 1 << n_qubits
    index = int(index)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def _period_finding(transform: Circuit, table: np.ndarray, out_bits: int) -> StateVector:
    """|0>, H on the input register, the XOR oracle, then ``transform``.

    The input register is the top m = ``transform.n_wires`` wires, above
    the ``out_bits`` the oracle writes.  H^m is the Fourier transform
    over Z_2^m (Simon) and the QFT the one over Z_(2^2L) (order
    finding).  Neither algorithm reads the output register, so the
    state keeps only the values the table takes: row a is the input
    value a, and the columns are the distinct table values in ascending
    order, padded with zero columns to a power of two and never fewer
    than 2 (with one, numpy's matrix-vector product rounds differently).
    Only :func:`_input_marginal` reads this layout.

    The amplitude (1/sqrt 2)^m, multiplied up as the H layer multiplies
    it, goes at (a, column of table[a]), and ``transform`` runs once.
    Its product on a column does not depend on the columns beside it, so
    each column is bit for bit the full run's column at that value, and
    the full run's other columns are exactly zero (the tests compare them).
    """
    m = transform.n_wires
    values, column = np.unique(_oracle_table(table, 1 << m, out_bits), return_inverse=True)
    width = max(1 << (values.size - 1).bit_length(), 2)
    amps = np.zeros(width << m, dtype=np.complex128)
    amps.reshape(-1, width)[np.arange(1 << m), column] = _hadamard_amplitude(m)
    del table, column  # the table is freed here when the caller kept no reference
    return _evolve(amps, transform)


def _evolve(amps: np.ndarray, circuit: Circuit) -> StateVector:
    """The gate kernel: apply a circuit's ops in order to ``amps``, in place.

    ``amps`` is a writable buffer of 2^n amplitudes that the caller hands
    over: the state returned shares it and marks it read-only.  The
    circuit acts on the top wires (see :func:`run_circuit`).  Views the
    buffer as a (2,)*n tensor (wire w is axis w-1) and, per gate,
    moves its wires' axes to the front (its first wire the high bit), so
    row r of the 2^k x 2^(n-k) unfolding is the slice ``full[r's bits]``.
    Each gate then runs one column block at a time: a block fixes the
    first n - 15 of the other axes (the highest wires the gate does not
    touch) to one prefix, so it holds 2^15 amplitudes, 512 KB; a state
    of 2^15 amplitudes or fewer is one block.  A block is 2^(15-k) whole
    columns of the unfolding, at least 2^12 for gates of up to three
    wires, and its product is bit-identical to those columns of the
    whole-state product (the tests compare blocked and unblocked runs).
    Two paths per block, the second bit-identical to the first:

    * dense (H, any other gate): gather the block into one scratch array,
      multiply its unfolding by the matrix into the other, write back;
    * changed rows (CPHASE, SWAP, CNOT, TOFFOLI, any permutation times a
      diagonal; ``GateOp.changed_rows``): gather the slice each changed
      row reads into that row's place in the first scratch array, then
      write each to its row, through a (1,1) @ (1,m) ``np.matmul`` into
      the second where its entry is not 1 (the BLAS product; numpy's
      ``*`` differs by an ulp).  Sources go through scratch, because
      assigning one view of the buffer to another makes numpy copy the
      source into a hidden temporary.

    The changed-rows path needs at least 4 columns: with 1 or 2, the
    (1,1) product differs from the dense one in most cases.  The two
    block-sized scratch arrays are allocated once per call and no gate
    allocates, so apart from the buffer a call holds 1 MB at most.
    """
    n = amps.size.bit_length() - 1
    if circuit.n_wires > n:
        raise ValueError(f"circuit needs {circuit.n_wires} wires but state has {n}")
    tensor = amps.reshape((2,) * n)
    lead = max(n - _BLOCK_BITS, 0)
    prefixes = list(itertools.product((0, 1), repeat=lead))
    gathered = np.empty(amps.size >> lead, dtype=amps.dtype)
    product = np.empty_like(gathered)
    # a block's axes: the gate's k wires, then the n - lead - k it leaves free
    block_in, block_out = (a.reshape((2,) * (n - lead)) for a in (gathered, product))
    for gate in circuit.ops:
        axes = [w - 1 for w in gate.wires]
        k = len(axes)
        # np.moveaxis(tensor, axes, range(k)), without its checks, which
        # took most of a one-block gate's time
        full = tensor.transpose(axes + [a for a in range(n) if a not in axes])
        width = gathered.size >> k
        rows = gate.changed_rows if width >= 4 else None
        if rows is not None:  # each changed row with its slot in the block scratch
            slots = [(row, read, entry, block_in[row]) for row, read, entry in rows]
        for prefix in prefixes:
            if rows is not None:
                # a slice index followed by the prefix is that row of the block
                for _, read, _, part in slots:
                    np.copyto(part, full[read + prefix])
                for row, _, entry, part in slots:
                    if entry is not None:
                        out = block_out[row]
                        np.matmul(entry, part.reshape(1, width), out=out.reshape(1, width))
                        part = out
                    full[row + prefix] = part
            else:
                view = full[(slice(None),) * k + prefix]
                np.copyto(block_in, view)
                np.matmul(gate.matrix, gathered.reshape(1 << k, -1),
                          out=product.reshape(1 << k, -1))
                view[...] = block_out
    return StateVector(n, amps, copy=False)


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
    return _evolve(state.amps.copy(), circuit)


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


def probability_blocks(state: StateVector) -> Iterator[np.ndarray]:
    """|amp|^2 one kernel block at a time, in index order.

    Each block is a new array of 2^15 probabilities (the whole state when
    it is smaller), so a caller may work in it; joined, the blocks are
    ``np.abs(state.amps) ** 2`` bit for bit.
    """
    amps = state.amps
    for block in amps.reshape(-1, min(amps.size, 1 << _BLOCK_BITS)):
        yield np.abs(block) ** 2


def measure_all(state: StateVector, rng_seed: int, shots: int) -> list[int]:
    """Draw ``shots`` independent basis-index samples from the state.

    Deterministic for a fixed seed: uniform variates from the seeded PCG64
    stream are mapped through the inverse CDF of the outcome distribution.
    The CDF is built and searched one kernel block at a time, its top bin
    set to 1.0, which is the whole-array ``cumsum`` and ``searchsorted`` bit for bit.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    u = make_rng(rng_seed).random(shots)
    idx, carry, end = 0, 0.0, 0
    for cdf in probability_blocks(state):
        cdf[0] += carry
        np.cumsum(cdf, out=cdf)
        carry = cdf[-1]
        end += cdf.size
        if end == state.amps.size:
            cdf[-1] = 1.0
        idx += np.searchsorted(cdf, u, side="right")
    return idx.tolist()


def _draws(law: np.ndarray, seeds: Iterable[int]) -> Iterator[int]:
    """One outcome of the probability array ``law`` per seed, by inverse CDF.

    ``law`` is handed over: on the first draw its pairwise sum is checked
    against 1 (it is never renormalized) and it becomes its own CDF, the
    top bin set to 1.0.  The CDF's last entry would not do for the check:
    it drifts by 2.9e-10 on a 2^24 search law.  Seed s draws on
    ``make_rng(s).random()``, as ``measure_all(state, s, 1)`` does on a
    state with this law.
    """
    total = float(law.sum())
    if not abs(total - 1.0) <= NORM_TOL:  # a NaN fails too
        raise ValueError(f"law is not normalized: sum p = {total!r} (tolerance {NORM_TOL})")
    cdf = np.cumsum(law, out=law)
    cdf[-1] = 1.0
    for seed in seeds:
        yield int(np.searchsorted(cdf, make_rng(seed).random(), side="right"))


def _input_marginal(state: StateVector, m: int) -> np.ndarray:
    """The marginal on the top m wires of a period-finding state: each row's probabilities summed.

    The row of an input value holds its live columns and zero pad columns,
    so its sum is the full register's marginal at that value.  A row wider
    than a block is summed block by block, and its blocks' sums in turn.
    """
    row = 1 << (state.n_qubits - m)
    sums = np.concatenate([p.reshape(-1, min(row, p.size)).sum(axis=1)
                           for p in probability_blocks(state)])
    return sums.reshape(-1, max(row >> _BLOCK_BITS, 1)).sum(axis=1)
