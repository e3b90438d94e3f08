import math
import tracemalloc

import numpy as np
import pytest

from qdesk import statevec
from qdesk.gates import Circuit, cnot_op, expand_to_matrix, h_op, toffoli_op
from qdesk.qft import (
    QftSpec,
    build_qft_circuit,
    dft_matrix,
    gate_counts,
    qft_fidelity,
)


class TestDftMatrix:
    def test_k1_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(dft_matrix(1), expected, atol=1e-12)

    def test_k2_entries(self):
        expected = 0.5 * np.array(
            [[1, 1, 1, 1],
             [1, 1j, -1, -1j],
             [1, -1, 1, -1],
             [1, -1j, -1, 1j]]
        )
        assert np.allclose(dft_matrix(2), expected, atol=1e-12)

    def test_zero_row_uniform(self):
        for k in (1, 3, 5):
            assert np.allclose(dft_matrix(k)[0], 2 ** (-k / 2), atol=1e-12)

    def test_unitary(self):
        for k in range(1, 7):
            m = dft_matrix(k)
            assert np.max(np.abs(m @ m.conj().T - np.eye(1 << k))) < 1e-10

    def test_refuses_large_k(self):
        with pytest.raises(ValueError):
            dft_matrix(11)


class TestBuildCircuit:
    def test_base_case_single_hadamard(self):
        circ = build_qft_circuit(QftSpec(1))
        assert len(circ) == 1 and circ.ops[0].name == "H"

    def test_gate_count_law(self):
        # the add-one-qubit recursion adds m gates at stage m: k(k+1)/2 total
        for k in range(1, 11):
            circ = build_qft_circuit(QftSpec(k, include_bit_reversal_swaps=False))
            counts = gate_counts(circ)
            assert counts.get("H", 0) == k
            assert counts.get("CPHASE", 0) == k * (k - 1) // 2
            assert len(circ) == k * (k + 1) // 2

    def test_matches_dense_matrix(self):
        for k in range(1, 7):
            circ = build_qft_circuit(QftSpec(k))
            dev = np.max(np.abs(expand_to_matrix(circ) - dft_matrix(k)))
            assert dev < 1e-9, (k, dev)

    def test_without_swaps_output_is_bit_reversed(self):
        k = 3
        circ = build_qft_circuit(QftSpec(k, include_bit_reversal_swaps=False))
        raw = expand_to_matrix(circ)
        rev = [int(format(b, f"0{k}b")[::-1], 2) for b in range(1 << k)]
        assert np.max(np.abs(raw[rev] - dft_matrix(k))) < 1e-9

    def test_cutoff_drops_small_phases(self):
        k, cutoff = 8, 5
        circ = build_qft_circuit(QftSpec(k, approx_cutoff=cutoff))
        n_phase = gate_counts(circ).get("CPHASE", 0)
        assert n_phase < k * (k - 1) // 2
        assert n_phase <= k * (cutoff - 1)
        # at most `cutoff` couplings survive per stage
        expected = sum(min(stage - 1, cutoff) for stage in range(2, k + 1))
        assert n_phase == expected

    def test_cutoff_equal_k_drops_nothing(self):
        k = 6
        full = build_qft_circuit(QftSpec(k))
        cut = build_qft_circuit(QftSpec(k, approx_cutoff=k))
        assert gate_counts(full) == gate_counts(cut)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            QftSpec(0)
        with pytest.raises(ValueError):
            QftSpec(4, approx_cutoff=5)


class TestFidelity:
    def test_exact_circuit_fidelity_one(self):
        for k in (1, 3, 5):
            circ = build_qft_circuit(QftSpec(k))
            assert qft_fidelity(circ) == pytest.approx(1.0, abs=1e-9)

    def test_identity_circuit(self):
        # overlap of a basis state with a uniform-magnitude column is 2^-k
        assert qft_fidelity(Circuit(2)) == pytest.approx(0.25, abs=1e-12)

    def test_no_cutoff_equals_cutoff_k(self):
        k = 5
        circ = build_qft_circuit(QftSpec(k, approx_cutoff=k))
        assert qft_fidelity(circ) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_cutoff(self):
        k = 8
        fids = [
            qft_fidelity(build_qft_circuit(QftSpec(k, approx_cutoff=m)))
            for m in range(2, k + 1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[-1] == pytest.approx(1.0, abs=1e-9)

    def test_log_cutoff_high_fidelity(self):
        k = 8
        cutoff = math.ceil(math.log2(k)) + 2
        circ = build_qft_circuit(QftSpec(k, approx_cutoff=cutoff))
        assert qft_fidelity(circ) >= 0.99


def per_input_fidelity(k, circuit):
    """qft_fidelity as it ran before batching: one circuit run per basis input."""
    dim = 1 << k
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    scale = 1.0 / np.sqrt(dim)
    worst = 1.0
    idx = np.arange(dim)
    for a in range(dim):
        out = statevec.run_circuit(statevec.init_basis(k, a), circuit)
        exact = roots[(a * idx) % dim] * scale
        worst = min(worst, abs(np.vdot(exact, out.amps)) ** 2)
    return float(worst)


class TestBatchedFidelity:
    @pytest.mark.parametrize("k", range(1, 10))
    def test_exact_transform_equals_the_per_input_loop(self, k):
        circ = build_qft_circuit(QftSpec(k))
        assert qft_fidelity(circ) == per_input_fidelity(k, circ)

    @pytest.mark.parametrize("k", range(1, 8))
    def test_every_cutoff_and_swap_setting_equals_the_per_input_loop(self, k):
        for cutoff in range(1, k + 1):
            for swaps in (True, False):
                circ = build_qft_circuit(QftSpec(k, cutoff, swaps))
                assert qft_fidelity(circ) == per_input_fidelity(k, circ), (cutoff, swaps)

    def test_identity_is_exactly_one_quarter(self):
        assert qft_fidelity(Circuit(2)) == 0.25 == per_input_fidelity(2, Circuit(2))

    def test_circuit_that_is_not_a_transform(self):
        circ = Circuit(5, (h_op(2), cnot_op(2, 5), toffoli_op(5, 1, 3), h_op(4)))
        assert qft_fidelity(circ) == per_input_fidelity(5, circ) < 0.5

    def test_batches_share_one_buffer(self):
        # the input buffer is every batch's machine: the peak is it, the
        # column buffer, the kernel's two block-sized scratch arrays (each
        # a batch at this size) and the per-input rows; a per-batch copy
        # of the input would add one batch more
        k = 10
        circ = build_qft_circuit(QftSpec(k))
        tracemalloc.start()
        try:
            qft_fidelity(circ)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * (16 << (k + 4))


class TestTransformProperties:
    def test_uniform_superposition_maps_to_zero(self):
        # column sums of the transform force this analytically
        k = 5
        state = statevec.init_basis(k, 0)
        for w in range(1, k + 1):
            state = statevec.apply_gate(state, h_op(w))
        out = statevec.run_circuit(state, build_qft_circuit(QftSpec(k)))
        assert abs(out.amps[0] - 1.0) < 1e-10
        assert np.max(np.abs(out.amps[1:])) < 1e-10

    def test_transform_of_basis_state_phases(self):
        # circuit output equals the analytic column for a handful of inputs
        k = 6
        circ = build_qft_circuit(QftSpec(k))
        dim = 1 << k
        for a in (0, 1, 17, 63):
            out = statevec.run_circuit(statevec.init_basis(k, a), circ)
            expected = np.exp(2j * np.pi * a * np.arange(dim) / dim) / math.sqrt(dim)
            assert np.max(np.abs(out.amps - expected)) < 1e-10


class TestFftReferee:
    """The circuit against numpy's FFT, which shares no code with the gate kernel.

    With entry (b, a) = e^{+2 pi i ab/2^k} / sqrt(2^k), the transform of a
    state is ``np.fft.ifft(amps, norm="ortho")``.  The largest gaps seen on
    random states were under 7e-17 from k = 12 to 20; the bound comes from
    those, not from the kernel under test.
    """

    @pytest.mark.parametrize("k", [12, 16, 20])
    def test_circuit_matches_the_fft_on_a_random_state(self, k):
        rng = np.random.default_rng(k)
        amps = rng.standard_normal(2 << k).view(np.complex128)
        amps /= np.sqrt(np.vdot(amps, amps).real)
        gap = np.fft.ifft(amps, norm="ortho")
        gap -= statevec.run_circuit(statevec.StateVector(k, amps, copy=False),
                                    build_qft_circuit(QftSpec(k))).amps
        assert np.max(np.abs(gap)) <= 1e-14
