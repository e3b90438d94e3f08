import math

import numpy as np
import pytest

from qdesk.gates import (
    Circuit,
    GateOp,
    cnot,
    cnot_op,
    controlled_phase,
    expand_to_matrix,
    h_op,
    hadamard,
    hadamard_layer,
    phase_flip_target,
    route_linear,
    swap_gate,
    toffoli,
    toffoli_op,
)

from qdesk import shor, simon, statevec
from qdesk.qft import QftSpec, build_qft_circuit

from conftest import random_state, random_unitary
from referees import apply_xor_oracle, inversion_about_mean_composed, phase_flip_zero, uniform_state

INV_SQRT2 = 1 / math.sqrt(2)


def unitarity_defect(m):
    return np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))


class TestConstructors:
    def test_hadamard_entries(self):
        h = hadamard()
        assert h[0, 0] == pytest.approx(0.70710678, abs=1e-8)
        assert h[1, 1] == pytest.approx(-INV_SQRT2)
        assert np.allclose(np.abs(h), INV_SQRT2)

    def test_hadamard_squares_to_identity(self):
        h = hadamard()
        assert np.max(np.abs(h @ h - np.eye(2))) < 1e-12

    def test_cnot_permutation(self):
        m = cnot()
        # input 10 (column 2) maps to output 11 (row 3); 00 stays put
        assert m[3, 2] == 1 and m[2, 3] == 1
        assert m[0, 0] == 1 and m[1, 1] == 1
        assert np.allclose(m @ m, np.eye(4))  # own inverse

    def test_toffoli_swaps_last_pair(self):
        m = toffoli()
        assert m[6, 7] == 1 and m[7, 6] == 1  # 111 <-> 110
        assert m[3, 3] == 1  # 011 fixed
        assert np.allclose(m[:6, :6], np.eye(6))

    def test_toffoli_computes_and(self):
        m = toffoli()
        for a in (0, 1):
            for b in (0, 1):
                idx_in = (a << 2) | (b << 1)
                out = int(np.argmax(np.abs(m[:, idx_in])))
                assert out & 1 == (a & b)

    def test_swap_gate(self):
        m = swap_gate()
        assert m[1, 2] == 1 and m[2, 1] == 1
        assert np.allclose(m @ m, np.eye(4))

    def test_controlled_phase_adjacent(self):
        # j = k-1 gives the quarter phase i
        for j, k in ((0, 1), (3, 4)):
            m = controlled_phase(j, k)
            assert m[3, 3] == pytest.approx(1j)

    def test_controlled_phase_diagonal_unitary(self):
        for j, k in ((0, 1), (1, 3), (0, 5)):
            m = controlled_phase(j, k)
            assert np.count_nonzero(m - np.diag(np.diagonal(m))) == 0
            assert unitarity_defect(m) < 1e-12

    def test_controlled_phase_rejects_bad_order(self):
        with pytest.raises(ValueError):
            controlled_phase(2, 2)

    def test_all_constructors_unitary(self):
        for m in (hadamard(), cnot(), toffoli(), swap_gate(), controlled_phase(1, 4)):
            assert unitarity_defect(m) < 1e-10


class TestPhaseFlips:
    def test_zero_flip(self):
        signs = phase_flip_zero(2)
        assert signs[0] == -1 and np.all(signs[1:] == 1)

    def test_zero_flip_involution(self):
        signs = phase_flip_zero(3)
        assert np.all(signs * signs == 1)

    def test_target_flip_single(self):
        signs = phase_flip_target(2, lambda i: i == 3)
        assert signs[3] == -1 and np.sum(signs < 0) == 1

    def test_target_flip_always_false(self):
        assert np.all(phase_flip_target(3, lambda i: False) == 1)

    def test_target_flip_two_solutions(self):
        # oracle: build the diagonal matrix explicitly and compare
        marked = {1, 6}
        signs = phase_flip_target(3, lambda i: i in marked)
        dense = np.diag([-1.0 if i in marked else 1.0 for i in range(8)])
        assert np.allclose(np.diag(signs), dense)


class TestGateOpAndCircuit:
    def test_wire_count_must_match_arity(self):
        with pytest.raises(ValueError):
            GateOp(cnot(), (1,))

    def test_wires_start_at_one(self):
        with pytest.raises(ValueError):
            GateOp(hadamard(), (0,))

    def test_circuit_validates_wires(self):
        with pytest.raises(ValueError):
            Circuit(2, (h_op(3),))

    def test_matrix_frozen(self):
        op = h_op(1)
        with pytest.raises((ValueError, RuntimeError)):
            op.matrix[0, 0] = 5.0


class TestExpandToMatrix:
    def test_empty_circuit_is_identity(self):
        assert np.allclose(expand_to_matrix(Circuit(3)), np.eye(8))

    def test_single_hadamard(self):
        assert np.allclose(expand_to_matrix(Circuit(1, (h_op(1),))), hadamard())

    def test_cnot_twice_is_identity(self):
        circ = Circuit(2, (cnot_op(1, 2), cnot_op(1, 2)))
        assert np.allclose(expand_to_matrix(circ), np.eye(4), atol=1e-12)

    def test_refuses_large_circuits(self):
        with pytest.raises(ValueError, match="refuses"):
            expand_to_matrix(Circuit(11))

    def test_application_order(self):
        # H then CNOT on 2 wires equals the textbook entangler matrix
        circ = Circuit(2, (h_op(1), cnot_op(1, 2)))
        full = expand_to_matrix(circ)
        col = full[:, 0]
        assert np.allclose(col, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-12)

    def test_random_products_unitary(self, rng):
        for _ in range(5):
            ops = []
            for _ in range(6):
                arity = int(rng.integers(1, 3))
                wires = tuple(int(w) + 1 for w in rng.choice(4, arity, replace=False))
                ops.append(GateOp(random_unitary(rng, 1 << arity), wires))
            full = expand_to_matrix(Circuit(4, tuple(ops)))
            assert unitarity_defect(full) < 1e-9


class TestRouteLinear:
    def test_adjacent_untouched(self):
        circ = Circuit(4, (cnot_op(1, 2),))
        routed = route_linear(circ)
        assert len(routed) == 1 and routed.ops[0].wires == (1, 2)

    def test_distant_pair_gets_mirror_swaps(self):
        circ = Circuit(4, (cnot_op(1, 4),))
        routed = route_linear(circ)
        names = [op.name for op in routed.ops]
        assert names == ["SWAP", "SWAP", "CNOT", "SWAP", "SWAP"]
        assert np.max(np.abs(expand_to_matrix(routed) - expand_to_matrix(circ))) < 1e-9

    def test_descending_pair(self):
        circ = Circuit(5, (cnot_op(5, 2),))
        routed = route_linear(circ)
        assert all(abs(op.wires[0] - op.wires[1]) == 1 for op in routed.ops)
        assert np.max(np.abs(expand_to_matrix(routed) - expand_to_matrix(circ))) < 1e-9

    def test_chain_of_adjacent_gates_unchanged(self):
        ops = tuple(cnot_op(w, w + 1) for w in range(1, 4))
        circ = Circuit(4, ops)
        assert route_linear(circ).ops == ops

    def test_rejects_three_qubit_gates(self):
        with pytest.raises(ValueError, match="at most 2"):
            route_linear(Circuit(3, (toffoli_op(1, 2, 3),)))

    def test_swap_budget(self, rng):
        # at most 2*(n-1) swaps added per two-qubit gate
        n = 8
        for _ in range(10):
            wires = tuple(int(w) + 1 for w in rng.choice(n, 2, replace=False))
            circ = Circuit(n, (cnot_op(*wires),))
            routed = route_linear(circ)
            assert len(routed) <= 1 + 2 * (n - 1)

    def test_random_circuits_preserve_unitary(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 9))
            ops = []
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.4:
                    ops.append(h_op(int(rng.integers(1, n + 1))))
                else:
                    wires = tuple(int(w) + 1 for w in rng.choice(n, 2, replace=False))
                    ops.append(GateOp(random_unitary(rng, 4), wires))
            circ = Circuit(n, tuple(ops))
            routed = route_linear(circ)
            for op in routed.ops:
                if op.arity == 2:
                    assert abs(op.wires[0] - op.wires[1]) == 1
            dev = np.max(np.abs(expand_to_matrix(routed) - expand_to_matrix(circ)))
            assert dev < 1e-9


class TestHadamardLayer:
    def test_layer_is_h_on_each_wire_in_order(self):
        layer = hadamard_layer(4)
        assert layer.n_wires == 4
        assert [op.name for op in layer.ops] == ["H"] * 4
        assert [op.wires for op in layer.ops] == [(1,), (2,), (3,), (4,)]

    @staticmethod
    def _h_gate_by_gate(state, wires):
        for w in range(1, wires + 1):
            state = statevec.apply_gate(state, h_op(w))
        return state

    def _uniform(self, k):
        expected = self._h_gate_by_gate(statevec.init_basis(k, 0), k)
        return uniform_state(k), expected

    def _sampling(self, n):
        oracle = simon.make_oracle(n, (1 << n) - 1 - (n > 1), rng_seed=n)
        state = self._h_gate_by_gate(statevec.init_basis(2 * n, 0), n)
        state = apply_xor_oracle(state, oracle.table, n)
        return simon.sampling_state(oracle), self._h_gate_by_gate(state, n)

    def _order_finding(self, nx):
        n, x = nx
        inst = shor.FactoringInstance(n, x)
        two_l = 2 * inst.L
        state = self._h_gate_by_gate(statevec.init_basis(inst.n_qubits, 0), two_l)
        powers = [pow(x, a, n) for a in range(1 << two_l)]
        state = apply_xor_oracle(state, powers, inst.L)
        expected = statevec.run_circuit(state, build_qft_circuit(QftSpec(two_l)))
        return shor.order_finding_state(inst), expected

    def _composed(self, k):
        state = random_state(np.random.default_rng(k), k)
        expected = self._h_gate_by_gate(state, k)
        expected = statevec.apply_diagonal(expected, phase_flip_zero(k))
        expected = self._h_gate_by_gate(expected, k)
        expected = statevec.apply_diagonal(expected, np.full(1 << k, -1.0))
        return inversion_about_mean_composed(state), expected

    @pytest.mark.parametrize(
        "builder,size",
        [("_uniform", k) for k in range(1, 13)]
        + [("_sampling", n) for n in range(1, 7)]
        + [pytest.param("_order_finding", (n, x), id=f"_order_finding-{n}-{x}")
           for n, x in [(15, 7), (21, 2), (35, 3)]]
        + [("_composed", k) for k in range(1, 7)],
    )
    def test_layer_states_equal_the_gate_by_gate_states(self, builder, size):
        # the same kernel calls in the same order, so equal to the last bit
        got, expected = getattr(self, builder)(size)
        assert np.array_equal(got.amps, expected.amps)
