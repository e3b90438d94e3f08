import math
import re
import tracemalloc

import numpy as np
import pytest

from qdesk import statevec
from qdesk.gates import Circuit, GateOp, cnot_op, cphase_op, expand_to_matrix, h_op, swap_op
from qdesk.qft import (
    QftSpec,
    build_qft_circuit,
    gate_counts,
    phase_form_fidelity,
)

from referees import dft_matrix, qft_fidelity


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


def report_digits(value):
    """The 12 significant digits a report keeps."""
    return f"{value:.12g}"


REFEREE_CASES = [(k, cutoff) for k in range(1, 11) for cutoff in (None, *range(1, k + 1))] + [
    (k, cutoff) for k in (11, 12) for cutoff in (None, math.ceil(math.log2(k)) + 2)]


class TestPhaseFormFidelity:
    @pytest.mark.parametrize("k,cutoff", REFEREE_CASES, ids=[f"{k}-{c}" for k, c in REFEREE_CASES])
    def test_built_transforms_agree_with_the_circuit_referee(self, k, cutoff):
        circ = build_qft_circuit(QftSpec(k, cutoff))
        assert report_digits(phase_form_fidelity(circ)) == report_digits(qft_fidelity(circ))

    @pytest.mark.parametrize("k", [*range(2, 9), 16, 24])
    def test_without_swaps_the_minimum_is_exactly_zero(self, k):
        # the referee's circuit run leaves floating-point noise instead
        for cutoff in (None, *range(1, k + 1)):
            circ = build_qft_circuit(QftSpec(k, cutoff, include_bit_reversal_swaps=False))
            assert phase_form_fidelity(circ) == 0.0
            if k <= 8:
                assert qft_fidelity(circ) < 1e-60

    # k = 20 and 24 also hold wires whose delta reads the high input bits,
    # and at cutoff 1 the minimum lies far below every other input's value
    @pytest.mark.parametrize("k,m,pinned", [
        (16, 7, 0.9990454705652257), (20, 7, 0.9984449194439483), (20, 1, None), (20, 2, None),
        (24, 7, 0.997843698189),
    ])
    def test_matches_the_closed_form_at_the_all_ones_input(self, k, m, pinned):
        # with swaps, qubit c drops its couplings to the input bits s > c + m,
        # of angle 2*pi / 2^(s - c + 1): all positive and summing below
        # pi / 2^m, so every |delta_c| peaks together at a = 2^k - 1
        closed = math.prod(
            math.cos(sum(math.pi / 2 ** (s - c + 1) for s in range(c + m + 1, k + 1))) ** 2
            for c in range(1, k + 1))
        fidelity = phase_form_fidelity(build_qft_circuit(QftSpec(k, m)))
        assert fidelity == pytest.approx(closed, rel=1e-13, abs=1e-15)
        if pinned is not None:
            assert report_digits(fidelity) == report_digits(pinned)

    @pytest.mark.parametrize("variant", ["global-phase", "reversed-cphase", "relabelled"])
    def test_other_product_form_circuits_agree_with_the_circuit_referee(self, variant):
        ops = build_qft_circuit(QftSpec(6, 3)).ops

        def rewire(op, wires):
            return GateOp(op.matrix, tuple(wires), op.name, op.params)

        if variant == "global-phase":  # a CPHASE before either wire's H
            ops = (cphase_op(0, 2, 2, 5), *ops)
        elif variant == "reversed-cphase":  # the wire past its H named first
            ops = tuple(rewire(op, op.wires[::-1]) if op.name == "CPHASE" else op for op in ops)
        else:  # the same unitary, with wires 1 and 6 swapped away and back
            rename = {1: 6, 6: 1}
            ops = (swap_op(1, 6), *(rewire(op, (rename.get(w, w) for w in op.wires)) for op in ops),
                   swap_op(1, 6))
        circ = Circuit(6, ops)
        assert report_digits(phase_form_fidelity(circ)) == report_digits(qft_fidelity(circ))

    def test_log_cutoff_keeps_fidelity_above_0_99_up_to_the_cap(self):
        fidelities = {}
        for k in range(6, statevec.MAX_QUBITS + 1):
            circ = build_qft_circuit(QftSpec(k, math.ceil(math.log2(k)) + 2))
            fidelities[k] = phase_form_fidelity(circ)
        worst = min(fidelities, key=fidelities.get)
        assert fidelities[worst] > 0.99
        assert (worst, fidelities[worst]) == (16, pytest.approx(0.9955894618844, abs=1e-12))

    @pytest.mark.parametrize("circuit,message", [
        (Circuit(2), "wire 1 never gets an H"),
        (Circuit(2, (h_op(1), h_op(2), h_op(1))), "H on wires (1,)"),
        (Circuit(2, (h_op(1), h_op(2), cphase_op(0, 1, 2, 1))), "CPHASE on wires (2, 1)"),
        (Circuit(2, (h_op(1), cnot_op(1, 2), h_op(2))), "CNOT on wires (1, 2)"),
    ], ids=["identity", "second-H", "cphase-after-both-H", "cnot"])
    def test_refuses_a_circuit_outside_the_phase_form(self, circuit, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            phase_form_fidelity(circuit)

    def test_memory_does_not_scale_with_the_input_count(self):
        # 16 times the inputs at k = 20; one more table row per wire
        peaks = {}
        for k in (16, 20):
            circ = build_qft_circuit(QftSpec(k, 7))
            tracemalloc.start()
            try:
                phase_form_fidelity(circ)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[20] < 1.5 * peaks[16]


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
