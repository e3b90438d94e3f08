import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qdesk
from qdesk import gates, shor, simon, statevec
from qdesk.qft import QftSpec, build_qft_circuit
from qdesk.statevec import (
    CapacityError,
    StateVector,
    apply_gate,
    apply_permutation,
    derive_seed,
    init_basis,
    measure_all,
    require_qubits,
    run_circuit,
)

from conftest import random_state, random_unitary
from referees import (
    FixedVariates,
    VariatesBySeed,
    apply_xor_oracle,
    expand_live_columns,
    extract_register,
    gate_by_gate_period_finding,
    marginal,
)

INV_SQRT2 = 1 / math.sqrt(2)


class TestInitBasis:
    def test_single_qubit_zero(self):
        state = init_basis(1, 0)
        assert np.allclose(state.amps, [1, 0])

    def test_two_qubit_last_index(self):
        # index 3 is the 11 string under the MSB-first convention
        state = init_basis(2, 3)
        assert np.allclose(state.amps, [0, 0, 0, 1])

    def test_wire_one_is_most_significant(self):
        # setting only wire 1 of three gives binary 100 = index 4
        state = init_basis(3, 4)
        assert state.amps[4] == 1.0
        assert np.count_nonzero(state.amps) == 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            init_basis(2, 4)

    def test_qubit_cap(self):
        with pytest.raises(CapacityError):
            init_basis(statevec.MAX_QUBITS + 1, 0)

    def test_require_qubits_names_the_count(self):
        require_qubits(statevec.MAX_QUBITS, "a full register")
        with pytest.raises(ValueError, match="at least one qubit, got 0"):
            require_qubits(0, "an empty job")
        with pytest.raises(CapacityError, match=r"^a wide job needs 25 qubits \(cap 24\)$"):
            require_qubits(25, "a wide job")

    def test_the_budget_is_the_packages(self):
        # the package holds it, so a request is checked without numpy
        assert statevec.MAX_QUBITS == qdesk.MAX_QUBITS == 24
        assert statevec.CapacityError is qdesk.CapacityError
        assert statevec.require_qubits is qdesk.require_qubits


class TestStateVectorInvariants:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            StateVector(1, np.array([np.nan, 0.0]))

    # the norm is computed first and the entries are checked only when it
    # is not finite, so an overflowing norm of finite amplitudes must still
    # read as unnormalized
    @pytest.mark.parametrize("amps, message", [
        ([np.inf, 0.0], "amplitudes must be finite"),
        ([np.nan, 1.0], "amplitudes must be finite"),
        ([1e200, 0.0], "not normalized: sum |amp|^2 = inf"),
    ])
    def test_messages_keep_their_order(self, amps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            StateVector(1, np.array(amps))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_copy_false_converts_what_it_cannot_share(self):
        # numpy 2 refuses np.array(..., copy=False) whenever it must convert
        assert StateVector(1, np.array([1.0, 0.0]), copy=False).amps.dtype == np.complex128
        assert np.array_equal(StateVector(1, [0.6, 0.8j], copy=False).amps, [0.6, 0.8j])
        amps = np.array([0.6, 0.8j])
        assert np.shares_memory(StateVector(1, amps, copy=False).amps, amps)

    def test_immutable(self):
        state = init_basis(1, 0)
        with pytest.raises((ValueError, AttributeError)):
            state.amps[0] = 0.5


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = apply_gate(init_basis(1, 0), gates.h_op(1))
        assert np.allclose(state.amps, [INV_SQRT2, INV_SQRT2], atol=1e-12)

    def test_cnot_flips_target(self):
        # control wire 1 is set, so the target wire 2 flips: 10 -> 11
        state = apply_gate(init_basis(2, 0b10), gates.cnot_op(1, 2))
        assert np.allclose(state.amps, [0, 0, 0, 1])

    def test_identity_gate(self, rng):
        eye = gates.GateOp(np.eye(2, dtype=complex), (2,), "I")
        state = random_state(rng, 3)
        assert np.allclose(apply_gate(state, eye).amps, state.amps)

    def test_cnot_creates_bell_pair(self):
        # oracle: multiply the 4x4 matrix against the input column directly
        amps = np.array([INV_SQRT2, 0, INV_SQRT2, 0], dtype=complex)
        expected = gates.cnot() @ amps
        state = apply_gate(StateVector(2, amps), gates.cnot_op(1, 2))
        assert np.allclose(state.amps, expected, atol=1e-12)
        assert np.allclose(state.amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)

    def test_wire_out_of_range(self):
        with pytest.raises(ValueError, match=r"op H on wires \(3,\) exceeds n_wires=2"):
            apply_gate(init_basis(2, 0), gates.h_op(3))

    def test_repeated_wire_rejected(self):
        with pytest.raises(ValueError, match="repeated wire"):
            gates.GateOp(gates.cnot(), (1, 1))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            gates.GateOp(np.array([[1, 0], [0, 2]], dtype=complex), (1,))

    def test_norm_preserved_on_random_circuits(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 7))
            state = random_state(rng, n)
            arity = int(rng.integers(1, min(3, n) + 1))
            wires = tuple(int(w) + 1 for w in rng.choice(n, arity, replace=False))
            gate = gates.GateOp(random_unitary(rng, 1 << arity), wires)
            out = apply_gate(state, gate)
            assert abs(np.vdot(out.amps, out.amps).real - 1.0) < 1e-10

    def test_linearity(self, rng):
        # apply(a*s1 + b*s2) = a*apply(s1) + b*apply(s2); s1, s2 built
        # orthonormal so the combination is itself a unit state
        for _ in range(10):
            n = int(rng.integers(2, 7))
            s1 = random_state(rng, n)
            raw = random_state(rng, n).amps
            raw = raw - np.vdot(s1.amps, raw) * s1.amps
            s2 = StateVector(n, raw / np.linalg.norm(raw))
            theta, phi = rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi)
            alpha = math.cos(theta) * np.exp(1j * phi)
            beta = math.sin(theta)
            combo = StateVector(n, alpha * s1.amps + beta * s2.amps)
            wires = tuple(int(w) + 1 for w in rng.choice(n, 2, replace=False))
            gate = gates.GateOp(random_unitary(rng, 4), wires)
            lhs = apply_gate(combo, gate).amps
            rhs = alpha * apply_gate(s1, gate).amps + beta * apply_gate(s2, gate).amps
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_matches_dense_tensor_extension(self, rng):
        # view kernel against the independently built full matrix
        for _ in range(40):
            n = int(rng.integers(1, 6))
            state = random_state(rng, n)
            arity = int(rng.integers(1, min(3, n) + 1))
            wires = tuple(int(w) + 1 for w in rng.choice(n, arity, replace=False))
            gate = gates.GateOp(random_unitary(rng, 1 << arity), wires)
            dense = gates.embed_in_full_matrix(gate.matrix, gate.wires, n) @ state.amps
            assert np.max(np.abs(apply_gate(state, gate).amps - dense)) < 1e-10

    @pytest.mark.parametrize("n", range(6, 11))
    def test_every_gate_kind_matches_dense_oracle_up_to_ten_wires(self, n, rng):
        # descending and non-adjacent wire orders, beyond criterion 1's n <= 5
        ops = [
            gates.h_op(n - 1),
            gates.cnot_op(n - 1, 2),
            gates.cnot_op(1, n),
            gates.swap_op(n, 3),
            gates.toffoli_op(n - 1, 1, 4),
            gates.toffoli_op(n, n - 2, 2),
            gates.cphase_op(1, 3, n, 2),
            gates.cphase_op(0, 2, 4, 1),
            gates.GateOp(random_unitary(rng, 8), (n, 1, 3)),
            gates.GateOp(random_unitary(rng, 8), (2, n, 4)),
        ]
        if n >= 9:
            ops += [gates.cnot_op(9, 2), gates.toffoli_op(7, 1, 4)]
        state = random_state(rng, n)
        for op in ops:
            dense = gates.embed_in_full_matrix(op.matrix, op.wires, n) @ state.amps
            err = np.max(np.abs(apply_gate(state, op).amps - dense))
            assert err <= 1e-12, (op.name, op.wires, err)


def allocating_kernel(amps, matrix, axes):
    """The kernel before scratch buffers: a fresh gather and product per gate."""
    k = len(axes)
    view = np.moveaxis(amps.reshape((2,) * (amps.size.bit_length() - 1)), axes, range(k))
    view[...] = (matrix @ view.reshape(1 << k, -1)).reshape(view.shape)


class TestScratchBuffers:
    @pytest.mark.parametrize("n", [12, 15, 17])
    def test_bit_identical_to_the_allocating_kernel(self, n, rng):
        # from 2^15 amplitudes on, a state-sized temporary passes malloc's
        # mmap threshold; reversed and non-adjacent wires throughout
        ops = (
            gates.h_op(n),
            gates.cnot_op(n, 2),
            gates.swap_op(n - 1, 3),
            gates.toffoli_op(n, 1, n // 2),
            gates.cphase_op(1, 3, n - 2, 2),
            gates.GateOp(random_unitary(rng, 8), (n, 2, n // 2)),
            gates.h_op(1),
        )
        state = random_state(rng, n)
        before = state.amps.copy()
        expected = state.amps.copy()
        for op in ops:
            one = StateVector(n, expected)
            one_before = one.amps.copy()
            allocating_kernel(expected, op.matrix, [w - 1 for w in op.wires])
            assert np.array_equal(apply_gate(one, op).amps, expected), op.name
            assert np.array_equal(one.amps, one_before)
        assert np.array_equal(run_circuit(state, gates.Circuit(n, ops)).amps, expected)
        assert np.array_equal(state.amps, before)


def dense_view_kernel(amps, ops):
    """The view kernel before the diagonal and swap paths: every gate dense."""
    tensor = amps.reshape((2,) * (amps.size.bit_length() - 1))
    gathered = np.empty_like(amps)
    product = np.empty_like(amps)
    for matrix, axes in ops:
        k = len(axes)
        view = np.moveaxis(tensor, axes, range(k))
        np.copyto(gathered.reshape(view.shape), view)
        np.matmul(matrix, gathered.reshape(1 << k, -1), out=product.reshape(1 << k, -1))
        view[...] = product.reshape(view.shape)


def structured_gates(rng, arity):
    """Gates on ``arity`` wires that are a permutation times a diagonal, as (matrix, name)."""
    dim = 1 << arity
    found = []
    for row in range(dim):  # one non-1 entry, in each row in turn
        phases = np.ones(dim, dtype=np.complex128)
        phases[row] = np.exp(2j * np.pi * rng.random())
        found.append((np.diag(phases), f"diag@{row}"))
    found.append((np.diag(np.exp(2j * np.pi * rng.random(dim))), "diag"))
    perm = rng.permutation(dim)
    found.append((np.diag(np.exp(2j * np.pi * rng.random(dim))) @ np.eye(dim)[perm],
                  f"phased{perm.tolist()}"))
    if arity == 1:
        found.append((np.diag([1.0, -1.0]).astype(np.complex128), "Z"))
        found += [(np.array([[0, 1], [1, 0]], dtype=np.complex128), "X"),
                  (np.array([[0, -1j], [1j, 0]]), "Y")]
    elif arity == 2:
        found += [(gates.controlled_phase(j, k), f"CPHASE{j},{k}")
                  for j, k in ((0, 1), (0, 2), (1, 3), (0, 5))]
        found += [(gates.cnot(), "CNOT"), (gates.swap_gate(), "SWAP"),
                  (np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128), "CZ"),
                  (np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]]),
                   "iSWAP")]
    else:
        fredkin = np.eye(8, dtype=np.complex128)[[0, 1, 2, 3, 4, 6, 5, 7]]
        found += [(gates.toffoli(), "TOFFOLI"), (fredkin, "FREDKIN"),
                  (np.eye(8, dtype=np.complex128)[[1, 2, 0, 3, 4, 5, 6, 7]], "3-cycle")]
    return found


class TestStructuredPaths:
    def test_structure_is_read_once_from_the_matrix(self):
        assert gates.h_op(1).changed_rows is None
        cphase = gates.cphase_op(0, 2, 1, 2)
        (row, read, entry), = cphase.changed_rows
        assert row == read == (1, 1)
        assert entry.shape == (1, 1) and not entry.flags.writeable
        assert entry[0, 0] == gates.controlled_phase(0, 2)[3, 3]
        for op, a, b in [(gates.cnot_op(1, 2), (1, 0), (1, 1)),
                         (gates.swap_op(1, 2), (0, 1), (1, 0)),
                         (gates.toffoli_op(1, 2, 3), (1, 1, 0), (1, 1, 1))]:
            assert op.changed_rows == ((a, b, None), (b, a, None)), op.name
        assert gates.GateOp(np.eye(4), (1, 2)).changed_rows == ()
        cycle = np.eye(8)[[1, 2, 0, 3, 4, 5, 6, 7]]
        assert gates.GateOp(cycle, (1, 2, 3)).changed_rows == (
            ((0, 0, 0), (0, 0, 1), None),
            ((0, 0, 1), (0, 1, 0), None),
            ((0, 1, 0), (0, 0, 0), None),
        )
        # two nonzeros in rows 2 and 3 and in columns 2 and 3
        controlled_h = np.eye(4, dtype=np.complex128)
        controlled_h[2:, 2:] = gates.hadamard()
        assert gates.GateOp(controlled_h, (1, 2)).changed_rows is None
        # read on the first run and kept; a built circuit reads none
        fresh = gates.cphase_op(0, 2, 1, 2)
        assert "changed_rows" not in vars(fresh)
        apply_gate(random_state(np.random.default_rng(1), 4), fresh)
        kept = vars(fresh)["changed_rows"]
        apply_gate(random_state(np.random.default_rng(2), 4), fresh)
        assert fresh.changed_rows is kept
        circuit = build_qft_circuit(QftSpec(9))
        assert not any("changed_rows" in vars(op) for op in circuit.ops)

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_bit_identical_to_the_dense_kernel_on_every_wire_tuple(self, arity, rng):
        # n = arity and arity + 1 stay on the dense path (fewer than 4 columns)
        for n in range(arity, 9):
            found = structured_gates(rng, arity)
            for wires in itertools.permutations(range(1, n + 1), arity):
                axes = [w - 1 for w in wires]
                state = random_state(rng, n)
                expected = state.amps.copy()
                for matrix, name in found:
                    one = expected.copy()
                    dense_view_kernel(expected, [(matrix, axes)])
                    got = apply_gate(StateVector(n, one), gates.GateOp(matrix, wires, name))
                    assert np.array_equal(got.amps, expected), (name, n, wires)
                circuit = gates.Circuit(n, tuple(gates.GateOp(m, wires, name) for m, name in found))
                assert np.array_equal(run_circuit(state, circuit).amps, expected), (n, wires)

    def test_swaps_allocate_no_hidden_temporary(self, rng):
        # the copy and the two scratch arrays; assigning one slice of the
        # state to another would add a quarter (SWAP) or an eighth
        # (TOFFOLI), since numpy cannot rule out overlap unless wire 1 is
        # one of the gate's wires.  At 15 qubits the state is one kernel
        # block, so the scratch arrays are state-sized and the temporary
        # would be a quarter of the state; at 16 it would be a quarter of
        # a block and hide under this bound
        n = 15
        state = random_state(rng, n)
        circuit = gates.Circuit(n, (gates.swap_op(2, n), gates.toffoli_op(n, 3, 5)))
        tracemalloc.start()
        try:
            run_circuit(state, circuit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * state.amps.nbytes + state.amps.nbytes // 16

    # above 15 qubits the kernel runs column blocks of 2^15 amplitudes:
    # 2, 8, 32 and 64 blocks per gate at n = 16, 18, 20 and 21
    @pytest.mark.parametrize("n", [9, 12, 16, 18, 20, 21])
    def test_bit_identical_to_the_dense_kernel_on_mixed_circuits(self, n, rng):
        ops = []
        for _ in range(40):
            arity = int(rng.integers(1, 4))
            wires = tuple(int(w) + 1 for w in rng.choice(n, arity, replace=False))
            pool = structured_gates(rng, arity) + [(random_unitary(rng, 1 << arity), "U")]
            if arity == 1:
                pool.append((gates.hadamard(), "H"))
            matrix, name = pool[int(rng.integers(len(pool)))]
            ops.append(gates.GateOp(matrix, wires, name))
        state = random_state(rng, n)
        expected = state.amps.copy()
        dense_view_kernel(expected, [(op.matrix, [w - 1 for w in op.wires]) for op in ops])
        assert np.array_equal(run_circuit(state, gates.Circuit(n, tuple(ops))).amps, expected)


class TestBlockedKernelMemory:
    # n = 20 runs 32 blocks per gate.  The input state is built before
    # tracing starts, so the peak is the new state and 1 MB of block
    # scratch; a second state-sized array would double it
    N = 20

    def test_dense_layer_holds_no_state_sized_scratch(self, rng):
        state = random_state(rng, self.N)
        nbytes = state.amps.nbytes
        tracemalloc.start()
        try:
            run_circuit(state, gates.hadamard_layer(self.N))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes + nbytes // 4

    def test_xor_oracle_builds_no_permutation(self, rng):
        state = random_state(rng, self.N)
        nbytes = state.amps.nbytes
        table = np.arange(1 << (self.N - 7)) * 5 % 128
        tracemalloc.start()
        try:
            apply_xor_oracle(state, table, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes + nbytes // 4


class TestBlasThreads:
    @pytest.mark.parametrize(
        "preset, seen",
        [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3"), ({"OMP_NUM_THREADS": "2"}, "None")],
    )
    def test_one_blas_thread_unless_the_caller_chose(self, preset, seen):
        # the count must be in the environment before numpy loads OpenBLAS,
        # so only a fresh interpreter shows what importing qdesk does
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(preset, PYTHONPATH=str(Path(qdesk.__file__).parents[1]))
        code = "import os, qdesk; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, check=True)
        assert child.stdout.strip() == seen

class TestDistribution:
    def test_bell_pair(self):
        amps = np.array([INV_SQRT2, 0, 0, INV_SQRT2])
        probs = np.abs(StateVector(2, amps).amps) ** 2
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_basis_state(self):
        probs = np.abs(init_basis(3, 5).amps) ** 2
        assert probs[5] == 1.0 and probs.sum() == 1.0

    def test_double_hadamard_uniform(self):
        # oracle: expand H (x) H explicitly and apply to the zero column
        hh = np.kron(gates.hadamard(), gates.hadamard())
        expected = np.abs(hh @ np.array([1, 0, 0, 0])) ** 2
        state = init_basis(2, 0)
        for w in (1, 2):
            state = apply_gate(state, gates.h_op(w))
        assert np.allclose(np.abs(state.amps) ** 2, expected, atol=1e-12)
        assert np.allclose(np.abs(state.amps) ** 2, 0.25, atol=1e-12)

    def test_sums_to_one(self, rng):
        for n in (1, 3, 5):
            probs = np.abs(random_state(rng, n).amps) ** 2
            assert abs(probs.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [1, 15, 17])
    def test_probability_blocks_join_to_the_distribution(self, n, rng):
        state = random_state(rng, n)
        blocks = list(statevec.probability_blocks(state))
        assert [b.size for b in blocks] == [min(1 << n, 1 << 15)] * (1 << max(n - 15, 0))
        assert np.array_equal(np.concatenate(blocks), np.abs(state.amps) ** 2)
        assert all(b.flags.writeable and not np.shares_memory(b, state.amps) for b in blocks)


class TestMeasureAll:
    def test_deterministic_state(self):
        samples = measure_all(init_basis(2, 3), rng_seed=99, shots=10)
        assert samples == [3] * 10

    def test_seed_determinism(self, rng):
        state = random_state(rng, 4)
        assert measure_all(state, 7, 100) == measure_all(state, 7, 100)

    def test_equal_superposition_frequency(self):
        state = apply_gate(init_basis(1, 0), gates.h_op(1))
        samples = measure_all(state, rng_seed=5, shots=10_000)
        freq0 = samples.count(0) / 10_000
        assert 0.47 <= freq0 <= 0.53  # 3 sigma of binomial(1e4, 1/2)

    def test_uniform_two_qubit_frequencies(self):
        state = init_basis(2, 0)
        for w in (1, 2):
            state = apply_gate(state, gates.h_op(w))
        shots = 40_000
        samples = measure_all(state, rng_seed=13, shots=shots)
        for outcome in range(4):
            freq = samples.count(outcome) / shots
            assert 0.236 <= freq <= 0.264  # 3 sigma of binomial(4e4, 1/4)

    def test_empirical_matches_distribution(self, rng):
        # law of large numbers at 1e4 shots, 3 sigma per outcome
        state = random_state(rng, 3)
        probs = np.abs(state.amps) ** 2
        shots = 10_000
        samples = measure_all(state, rng_seed=3, shots=shots)
        for outcome, p in enumerate(probs):
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(samples.count(outcome) / shots - p) <= 3 * sigma + 1e-9


def inverse_cdf_reference(state, rng_seed, shots):
    """The whole-array sampler: one 2^n CDF and one searchsorted."""
    probs = np.abs(state.amps) ** 2
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = statevec.make_rng(rng_seed).random(shots)
    idx = np.searchsorted(cdf, u, side="right")
    return [int(i) for i in np.minimum(idx, probs.size - 1)]


class TestBlockedSampling:
    # 2, 8 and 32 blocks of 2^15 amplitudes
    @pytest.mark.parametrize("n", [16, 18, 20])
    @pytest.mark.parametrize("shots", [1, 1024])
    def test_equals_the_whole_array_inverse_cdf(self, n, shots, rng):
        state = random_state(rng, n)
        for seed in (0, 7, 2**40 + 3):
            assert measure_all(state, seed, shots) == inverse_cdf_reference(state, seed, shots)

    def test_top_bin_guard_and_block_edges(self, monkeypatch):
        # a total that rounds below 1 and a zero last amplitude: variates
        # past the unguarded total must land on the top bin; variates at
        # and next to the first block's last CDF entry test that "entries
        # <= u" adds up across blocks and that only the last block gets
        # the 1.0 guard
        n = 16
        amps = np.full(1 << n, math.sqrt((1 - 4e-11) / ((1 << n) - 1)), dtype=np.complex128)
        amps[-1] = 0
        state = StateVector(n, amps)
        cdf = np.cumsum(np.abs(state.amps) ** 2)
        assert cdf[-1] < 1.0
        edge = (1 << 15) - 1
        u = [0.0, cdf[edge - 1], cdf[edge], cdf[edge + 1], np.nextafter(cdf[edge], 1.0),
             cdf[-2], np.nextafter(cdf[-1], 1.0), (1 + cdf[-1]) / 2, np.nextafter(1.0, 0.0)]
        monkeypatch.setattr(statevec, "make_rng", lambda seed: FixedVariates(u))
        got = measure_all(state, 0, len(u))
        assert got == inverse_cdf_reference(state, 0, len(u))
        assert got[-3:] == [(1 << n) - 1] * 3

    def test_holds_no_state_sized_float_array(self, rng):
        state = random_state(rng, 20)
        nbytes = state.amps.nbytes
        tracemalloc.start()
        try:
            measure_all(state, 3, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes // 8


class TestDraws:
    """A draw from a register's law is the register of measure_all's outcome on the same variate."""

    # one block (n = 8), and 2 and 32 blocks of 2^15 amplitudes
    @pytest.mark.parametrize("n", [8, 16, 20])
    def test_draws_are_measure_all_outcomes_shifted(self, n, rng, monkeypatch):
        state = random_state(rng, n)
        for low_bits in sorted({0, 1, n // 2, n - 1, n}):
            for seed in (0, 7, 2**40 + 3):
                u = [*statevec.make_rng(seed).random(512), np.nextafter(1.0, 0.0)]
                expected = [i >> low_bits for i in measure_all(state, seed, 512)]
                # the law of the top n - low_bits wires
                law = (np.abs(state.amps) ** 2).reshape(1 << (n - low_bits), -1).sum(axis=1)
                with monkeypatch.context() as m:
                    m.setattr(statevec, "make_rng", VariatesBySeed(u))
                    got = list(statevec._draws(law, range(len(u))))
                assert got[:-1] == expected
                # the top variate lands in the last of the 2^(n - low_bits) rows
                assert got[-1] == (1 << (n - low_bits)) - 1

    def test_top_bin_guard_and_block_edges(self, monkeypatch):
        # the law of TestBlockedSampling's guard state: its total rounds
        # below 1 and its last bin is empty, so variates past the unguarded
        # total must land on the top bin; variates at and next to CDF
        # entries, the first kernel block's last among them, test that a
        # draw counts the entries <= u
        n = 16
        law = np.full(1 << n, (1 - 4e-11) / ((1 << n) - 1))
        law[-1] = 0
        cdf = np.cumsum(law)
        assert cdf[-1] < 1.0
        edge = (1 << 15) - 1
        u = [0.0, cdf[edge - 1], cdf[edge], cdf[edge + 1], np.nextafter(cdf[edge], 1.0),
             cdf[-2], np.nextafter(cdf[-1], 1.0), (1 + cdf[-1]) / 2, np.nextafter(1.0, 0.0)]
        monkeypatch.setattr(statevec, "make_rng", VariatesBySeed(u))
        got = list(statevec._draws(law.copy(), range(len(u))))
        assert got == [int(i) for i in np.minimum(np.searchsorted(cdf, u, side="right"), law.size - 1)]
        assert got[1:5] == [edge, edge + 1, edge + 2, edge + 1]
        assert got[-3:] == [(1 << n) - 1] * 3

    def test_works_in_the_law_it_is_handed(self, rng):
        # the CDF is built in the caller's array: no second law-sized array
        law = np.abs(random_state(rng, 20).amps) ** 2
        tracemalloc.start()
        try:
            next(statevec._draws(law, [3]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert law[-1] == 1.0
        assert peak < law.nbytes // 8


class TestExtractRegister:
    def test_top_span(self):
        assert extract_register(0b1011, 4, 1, 2) == 2

    def test_bottom_span(self):
        assert extract_register(0b1011, 4, 3, 4) == 3

    def test_zero_index(self):
        assert extract_register(0, 6, 2, 5) == 0

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            extract_register(3, 4, 3, 2)

    def test_out_of_range_span(self):
        with pytest.raises(ValueError):
            extract_register(3, 4, 1, 5)

    def test_index_width_checked(self):
        with pytest.raises(ValueError, match="basis index"):
            extract_register(16, 4, 1, 2)


class TestPermutationAndDiagonal:
    def test_permutation_moves_amplitudes(self):
        state = init_basis(2, 1)
        perm = np.array([3, 2, 1, 0])
        out = apply_permutation(state, perm)
        assert out.amps[2] == 1.0

    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            apply_permutation(init_basis(2, 0), np.array([0, 0, 1, 2]))

    def test_xor_oracle_writes_table_into_low_register(self):
        # a on wires 1..2, w on wires 3..5: (a, w) -> (a, w XOR table[a])
        table = np.array([5, 0, 7, 2])
        for a in range(4):
            for w in range(8):
                out = apply_xor_oracle(init_basis(5, (a << 3) | w), table, 3)
                assert out.amps[(a << 3) | (w ^ table[a])] == 1.0

    def test_xor_oracle_refuses_wide_table_entries(self):
        # 4 is not a 2-bit value; OR-ing it into the index would alias
        for table in ([0, 4], [-1, 0]):
            with pytest.raises(ValueError, match="2-bit values"):
                apply_xor_oracle(init_basis(3, 0), np.array(table), 2)

    # (table kind, input bits, out_bits): rows are moved in chunks of
    # 2^(14 - out_bits), so out_bits 4 and 10 take many chunks, 5 and 6
    # one partial chunk, and 14 and 15 one row per chunk
    @pytest.mark.parametrize("kind, in_bits, out_bits", [
        ("shor", 16, 4), ("shor", 3, 5), ("shor", 2, 14), ("shor", 2, 15),
        ("simon", 6, 6), ("simon", 10, 10), ("simon", 3, 14), ("simon", 2, 15),
    ])
    def test_xor_oracle_is_the_explicit_permutation(self, kind, in_bits, out_bits, rng):
        if kind == "shor":
            # x^a mod N for an N of out_bits bits: 15, 21, 8633 = 89 * 97
            # and 19781 = 131 * 151
            modulus = {4: 15, 5: 21, 14: 8633, 15: 19781}[out_bits]
            table = np.array([pow(7, a, modulus) for a in range(1 << in_bits)])
        else:
            # a Simon table's n-bit entries are also out_bits-bit values
            table = simon.make_oracle(in_bits, 1, rng_seed=in_bits).table
        state = random_state(rng, in_bits + out_bits)
        a = np.arange(1 << in_bits)[:, np.newaxis]
        w = np.arange(1 << out_bits)[np.newaxis, :]
        perm = ((a << out_bits) | (w ^ table[:, np.newaxis])).ravel()
        expected = apply_permutation(state, perm).amps
        assert np.array_equal(apply_xor_oracle(state, table, out_bits).amps, expected)

    # a wrong size must not reach numpy's reshape, whose message would leak
    @pytest.mark.parametrize("table, out_bits, message", [
        ([0, 1, 2], 2, "oracle table must have 4 entries, got shape (3,)"),
        ([[0, 1], [2, 3]], 2, "oracle table must have 4 entries, got shape (2, 2)"),
        ([0] * 16, 2, "oracle table must have 4 entries, got shape (16,)"),
        ([0], 5, "out_bits=5 out of range [0, 4]"),
        ([0], -1, "out_bits=-1 out of range [0, 4]"),
    ])
    def test_xor_oracle_refuses_a_table_of_the_wrong_size(self, table, out_bits, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            apply_xor_oracle(init_basis(4, 0), np.array(table), out_bits)

    def test_marginal_sums_low_wires(self, rng):
        state = random_state(rng, 5)
        probs = np.abs(state.amps) ** 2
        expected = [probs[a << 3:(a + 1) << 3].sum() for a in range(4)]
        assert np.allclose(marginal(state, 2), expected, atol=1e-15)
        assert np.array_equal(marginal(state, 5), probs)
        with pytest.raises(ValueError, match="high_bits"):
            marginal(state, 6)


class TestRunCircuit:
    def test_matches_sequential_application(self, rng):
        circ = gates.Circuit(3, (gates.h_op(1), gates.cnot_op(1, 3), gates.h_op(2)))
        state = random_state(rng, 3)
        step = state
        for op in circ.ops:
            step = apply_gate(step, op)
        assert np.allclose(run_circuit(state, circ).amps, step.amps, atol=1e-12)

    def test_subcircuit_acts_on_top_wires(self):
        # one-wire circuit on a two-qubit state touches only wire 1
        circ = gates.Circuit(1, (gates.h_op(1),))
        out = run_circuit(init_basis(2, 0), circ)
        assert np.allclose(out.amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-12)

    def test_circuit_wider_than_state_rejected(self):
        with pytest.raises(ValueError):
            run_circuit(init_basis(1, 0), gates.Circuit(2, (gates.h_op(2),)))

    def test_the_kernel_state_is_the_buffer_it_was_handed_read_only(self):
        amps = statevec._basis(3, 0)
        state = statevec._evolve(amps, gates.hadamard_layer(3))
        assert np.shares_memory(state.amps, amps)
        with pytest.raises(ValueError, match="read-only"):
            amps[0] = 0


def assert_period_finding_is_the_gate_by_gate_run(transform, table, out_bits):
    # expand_live_columns asserts the layout and that the pad columns are 0
    state = statevec._period_finding(transform, table, out_bits)
    amps = expand_live_columns(state, table, out_bits).amps
    full = gate_by_gate_period_finding(transform, table, out_bits).amps
    assert np.array_equal(amps, full)
    # a column the oracle never writes is untouched by U (x) I
    dead = np.setdiff1d(np.arange(1 << out_bits), table)
    assert not np.any(full.reshape(-1, 1 << out_bits)[:, dead])


# every factoring instance up to 18 qubits with x = 2..8, and two at 21
FACTORING_CASES = [
    (n, x) for n in range(15, 64) if shor.is_trivial_case(n) == "composite-ok"
    for x in range(2, 9) if math.gcd(n, x) == 1
] + [(65, 2), (119, 3)]


class TestPeriodFinding:
    @pytest.mark.parametrize("n, x", FACTORING_CASES)
    def test_order_finding_state_is_the_gate_by_gate_state(self, n, x):
        inst = shor.FactoringInstance(n, x)
        powers = shor._power_table(x, n, 1 << (2 * inst.L))
        transform = build_qft_circuit(QftSpec(2 * inst.L))
        assert_period_finding_is_the_gate_by_gate_run(transform, powers, inst.L)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_simon_state_is_the_gate_by_gate_state_for_every_shift(self, n):
        for c in range(1, 1 << n):
            table = simon.make_oracle(n, c, rng_seed=c).table
            assert_period_finding_is_the_gate_by_gate_run(gates.hadamard_layer(n), table, n)

    def test_the_state_keeps_the_values_the_table_takes_in_ascending_order(self):
        # rows are the input values; the columns are the values 1, 5 and 9,
        # then one pad column
        state = statevec._period_finding(gates.Circuit(2), np.array([9, 1, 5, 1]), 4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[[0, 1, 2, 3], [2, 0, 1, 0]] = statevec._hadamard_amplitude(2)
        assert state.n_qubits == 4
        assert np.array_equal(state.amps.reshape(4, 4), expected)

    @pytest.mark.parametrize("distinct, width", [(1, 2), (2, 2), (3, 4), (4, 4), (5, 8), (16, 16)])
    def test_the_columns_are_a_power_of_two_and_at_least_two(self, distinct, width):
        table = np.arange(16) % distinct * 3 % 16
        state = statevec._period_finding(gates.hadamard_layer(4), table, 4)
        assert state.n_qubits == 4 + width.bit_length() - 1

    @pytest.mark.parametrize("table, out_bits", [
        ([0, 1, 2], 2), ([[0, 1], [2, 3]], 2), ([0] * 16, 2), ([0, 4, 0, 0], 2), ([0, -1, 0, 0], 2),
    ])
    def test_table_checks_are_the_xor_oracle_checks(self, table, out_bits):
        with pytest.raises(ValueError) as oracle_error:
            apply_xor_oracle(init_basis(2 + out_bits, 0), np.array(table), out_bits)
        with pytest.raises(ValueError, match=f"^{re.escape(str(oracle_error.value))}$"):
            statevec._period_finding(gates.hadamard_layer(2), np.array(table), out_bits)


class TestInputMarginal:
    # at 17 qubits a row of the top wire's marginal is 2^16 amplitudes, two
    # kernel blocks; the top two wires' rows are one block each
    @pytest.mark.parametrize("m", [1, 2])
    def test_rows_of_a_block_or_wider_are_the_full_state_marginal(self, m, rng):
        state = random_state(rng, 17)
        assert np.allclose(statevec._input_marginal(state, m), marginal(state, m),
                           rtol=0, atol=1e-15)
        expected = np.zeros(1 << m)
        expected[5 >> (17 - m)] = 1.0
        assert np.array_equal(statevec._input_marginal(init_basis(17, 5), m), expected)


class TestSeeding:
    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)

    def test_negative_seed_accepted(self):
        a = statevec.make_rng(-3).random(4)
        b = statevec.make_rng(-3).random(4)
        assert np.array_equal(a, b)

    def test_derive_seed_separates_paths(self):
        seeds = {derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100

    def test_streams_differ_between_seeds(self, rng):
        state = random_state(rng, 4)
        many = [tuple(measure_all(state, s, 20)) for s in range(8)]
        assert len(set(many)) > 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: apply_permutation(init_basis(2, 0), np.arange(3)), ValueError,
     r"permutation must have length 4, got \(3,\)"),
    (lambda: measure_all(init_basis(2, 0), 0, 0), ValueError, "shots must be positive, got 0"),
    (lambda: setattr(init_basis(1, 0), "amps", None), AttributeError, "StateVector is immutable"),
], ids=["short-permutation", "no-shots", "assigned-field"])
def test_bad_calls_are_named(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
