import math

import numpy as np
import pytest

from qdesk.gates import (
    NAMED_GATES,
    Circuit,
    GateOp,
    cnot,
    cnot_op,
    controlled_phase,
    cphase_op,
    expand_to_matrix,
    h_op,
    hadamard,
    hadamard_layer,
    swap_gate,
    swap_op,
    toffoli,
    toffoli_op,
)

from qdesk import shor, simon, statevec
from qdesk.qft import QftSpec, build_qft_circuit

from conftest import random_state, random_unitary
from referees import (
    apply_xor_oracle,
    expand_live_columns,
    inversion_about_mean_composed,
    phase_flip_zero,
    uniform_state,
)

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


# (op from its builder, the constructor's matrix)
NAMED_CASES = [
    (lambda: h_op(2), hadamard),
    (lambda: cnot_op(3, 1), cnot),
    (lambda: swap_op(1, 2), swap_gate),
    (lambda: toffoli_op(2, 3, 1), toffoli),
    *[(lambda j=j, k=k: cphase_op(j, k, 1, 2), lambda j=j, k=k: controlled_phase(j, k))
      for j, k in ((0, 1), (0, 2), (1, 4), (2, 9), (0, 60), (3, 2000))],
]
NAMED_IDS = ["H", "CNOT", "SWAP", "TOFFOLI", "CPHASE0,1", "CPHASE0,2", "CPHASE1,4", "CPHASE2,9",
             "CPHASE0,60", "CPHASE3,2000"]


class TestNamedOps:
    @pytest.mark.parametrize("build, constructor", NAMED_CASES, ids=NAMED_IDS)
    def test_the_matrix_is_the_constructors_bit_for_bit(self, build, constructor):
        op, expected = build(), constructor()
        assert op.matrix.dtype == expected.dtype == np.complex128
        assert op.matrix.shape == expected.shape
        assert op.matrix.tobytes() == expected.tobytes()
        assert op.matrix is op.matrix  # built once, then kept

    @pytest.mark.parametrize("build, constructor", NAMED_CASES, ids=NAMED_IDS)
    def test_the_matrix_is_read_only(self, build, constructor):
        op = build()
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] = 5.0

    @pytest.mark.parametrize("build, constructor", NAMED_CASES, ids=NAMED_IDS)
    def test_the_arity_is_the_tables_and_the_matrix_agrees(self, build, constructor):
        op = build()
        assert "matrix" not in vars(op)  # the arity is known before the matrix is built
        assert op.arity == len(op.wires) == NAMED_GATES[op.name].wires
        assert op.matrix.shape == (1 << op.arity,) * 2

    def test_the_table_holds_the_builders_the_text_format_names(self):
        assert {name: (gate.wires, gate.op) for name, gate in NAMED_GATES.items()} == {
            "H": (1, h_op), "CNOT": (2, cnot_op), "SWAP": (2, swap_op),
            "TOFFOLI": (3, toffoli_op), "CPHASE": (2, cphase_op)}

    def test_a_builder_checks_its_arguments_before_any_matrix_exists(self):
        with pytest.raises(ValueError, match="^need j < k, got j=2, k=2$"):
            cphase_op(2, 2, 1, 2)
        with pytest.raises(ValueError, match="repeated wire index"):
            cnot_op(2, 2)
        with pytest.raises(ValueError, match="gate acts on 3 qubits but 2 wires given"):
            GateOp(None, (1, 2), "TOFFOLI")
        with pytest.raises(ValueError, match="^no named gate 'U'; valid names: CNOT, CPHASE"):
            GateOp(None, (1,))

    def test_an_unread_attribute_is_still_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'matrices'"):
            h_op(1).matrices


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
        expected = self._h_gate_by_gate(apply_xor_oracle(state, oracle.table, n), n)
        return expand_live_columns(simon.sampling_state(oracle), oracle.table, n), expected

    def _order_finding(self, nx):
        n, x = nx
        inst = shor.FactoringInstance(n, x)
        two_l = 2 * inst.L
        state = self._h_gate_by_gate(statevec.init_basis(inst.n_qubits, 0), two_l)
        powers = [pow(x, a, n) for a in range(1 << two_l)]
        state = apply_xor_oracle(state, powers, inst.L)
        expected = statevec.run_circuit(state, build_qft_circuit(QftSpec(two_l)))
        return expand_live_columns(shor.order_finding_state(inst), powers, inst.L), expected

    def _composed(self, k):
        state = random_state(np.random.default_rng(k), k)
        expected = self._h_gate_by_gate(state, k)
        expected = statevec.StateVector(k, expected.amps * phase_flip_zero(k), copy=False)
        expected = self._h_gate_by_gate(expected, k)
        expected = statevec.StateVector(k, expected.amps * np.full(1 << k, -1.0), copy=False)
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


@pytest.mark.parametrize("build, error, message", [
    (lambda: GateOp(np.ones((2, 4)), (1,)), ValueError,
     r"gate matrix must be square, got shape \(2, 4\)"),
    (lambda: GateOp(np.eye(16), (1, 2, 3, 4)), ValueError,
     "gate matrix must act on 1-3 qubits, got dimension 16"),
    (lambda: GateOp(np.array([[1, 0], [0, np.nan]]), (1,)), ValueError,
     "gate matrix contains non-finite entries"),
    (lambda: Circuit(0), ValueError, "circuit needs at least one wire"),
    (lambda: Circuit(1, ("H",)), TypeError, "circuit ops must be GateOp, got str"),
    (lambda: controlled_phase(-1, 2), ValueError, "j must be non-negative, got -1"),
], ids=["non-square", "four-qubits", "non-finite", "no-wires", "not-a-GateOp", "negative-j"])
def test_bad_gates_and_circuits_are_named(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
