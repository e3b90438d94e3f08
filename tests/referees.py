"""Referees: the closed forms and explicit constructions the tests check qdesk against.

No command runs any of these, so they live beside the tests rather than in
the package (``tests/test_src_reachability.py`` keeps it that way):

* Shor: the outcome law of order finding, term by term and in closed form;
* Grover: the uniform state, the reflection about the mean both from the
  mean formula and as -(H^k) Z0 (H^k) built from gates, one iteration and
  the marked probability on the whole state, and the search run over it;
* Simon: one measured round of the gate-by-gate state, and the binary
  inner product of its law;
* state vector: the XOR oracle as an in-place row permutation, period
  finding gate by gate, the full-width state a period-finding state keeps
  the live columns of, the marginal of the top wires, the integer on a
  span of wires, and chosen variates in place of seeded ones;
* QFT: the dense transform matrix, and the worst-case fidelity from
  running a circuit on every basis input;
* CLI: the report schema, the streamed report's text joined, and the
  dict-building report serializer that the streamed one replaced.
"""

import json
from importlib import resources
from types import SimpleNamespace
from typing import Any

import numpy as np

from qdesk import cli, grover, shor, simon, statevec
from qdesk.gates import Circuit, hadamard_layer

# ---------------------------------------------------------------------------
# shor: the analytic outcome law
# ---------------------------------------------------------------------------


def analytic_outcome_probability(inst: shor.FactoringInstance, c: int, a0: int) -> float:
    """Probability of measuring (c, x^a0 mod N), from the geometric sum.

    The exponents contributing to the value x^a0 are a0, a0+r, a0+2r, ...;
    there are floor(Q/r) + eta of them where Q = 2^(2L) and eta is 1
    exactly when a0 < Q mod r.  Their phases exp(2 pi i b r c / Q) are
    summed directly and the squared magnitude normalized by Q^2.
    """
    q_total = 1 << (2 * inst.L)
    if not 0 <= c < q_total:
        raise ValueError(f"c={c} out of range [0, {q_total})")
    r = shor.multiplicative_order(inst.x, inst.N)
    if not 0 <= a0 < r:
        raise ValueError(f"a0={a0} is not a least exponent for order r={r}")
    eta = 1 if a0 < q_total % r else 0
    count = q_total // r + eta
    b = np.arange(count)
    angles = (b * r % q_total) * c % q_total  # phase numerators reduced mod Q
    amplitude = np.exp(2j * np.pi * angles / q_total).sum()
    return float(abs(amplitude) ** 2) / q_total**2


def analytic_distribution(inst: shor.FactoringInstance) -> np.ndarray:
    """Analytic joint outcome distribution over the full 3L-qubit register.

    The closed form of :func:`analytic_outcome_probability` for every c at
    once.  With t = r c mod Q, a sum of ``count`` phases exp(2 pi i b t / Q)
    is a Dirichlet kernel: its squared magnitude is
    sin^2(pi count t / Q) / sin^2(pi t / Q), and count^2 where t = 0.  Only
    two counts occur, floor(Q/r) and floor(Q/r) + 1, so the law over c is
    evaluated twice and written into the column of each value x^a0.
    """
    L = inst.L
    q_total = 1 << (2 * L)
    r = shor.multiplicative_order(inst.x, inst.N)
    orbit = [pow(inst.x, a0, inst.N) for a0 in range(r)]
    t = np.arange(q_total, dtype=np.int64) * r % q_total
    spread = t != 0
    denominator = np.sin(np.pi * t[spread] / q_total) ** 2
    laws = {}
    for count in (q_total // r, q_total // r + 1):
        law = np.full(q_total, float(count * count))
        # count * t is reduced mod Q first: sin^2(pi x) has period 1 in x
        law[spread] = np.sin(np.pi * (count * t[spread] % q_total) / q_total) ** 2 / denominator
        laws[count] = law / q_total**2
    probs = np.zeros(1 << inst.n_qubits)
    by_value = probs.reshape(q_total, 1 << L)
    for a0, value in enumerate(orbit):
        by_value[:, value] = laws[q_total // r + (1 if a0 < q_total % r else 0)]
    return probs


# ---------------------------------------------------------------------------
# grover: the uniform state, the reflection about the mean and the full-state run
# ---------------------------------------------------------------------------


def uniform_state(k: int) -> statevec.StateVector:
    """Equal superposition of all 2^k indices, built from Hadamards."""
    return statevec._evolve(statevec._basis(k, 0), hadamard_layer(k))


def _reflect_inplace(amps: np.ndarray) -> None:
    """Replace each amplitude a_i by 2m - a_i (m the mean amplitude)."""
    np.subtract(2.0 * amps.mean(), amps, out=amps)


def inversion_about_mean(state: statevec.StateVector) -> statevec.StateVector:
    """The reflection :func:`grover_iterate` applies after its oracle flip, on a copy of the state."""
    amps = state.amps.copy()
    _reflect_inplace(amps)
    return statevec.StateVector(state.n_qubits, amps, copy=False)


def grover_iterate(state: statevec.StateVector,
                   problem: grover.SearchProblem) -> statevec.StateVector:
    """One full search iteration: oracle sign flip, then inversion about mean."""
    amps = state.amps.copy()
    amps[problem.marked] *= -1
    _reflect_inplace(amps)
    return statevec.StateVector(state.n_qubits, amps, copy=False)


def marked_probability(state: statevec.StateVector, problem: grover.SearchProblem) -> float:
    """Total probability mass on the marked indices."""
    return float(sum(np.abs(state.amps[problem.marked]) ** 2))


def run_grover_full_state(problem: grover.SearchProblem,
                          rng_seed: int) -> tuple[grover.GroverResult, statevec.StateVector]:
    """``run_grover`` as two passes over all 2^k amplitudes per iteration, and its measured state.

    The uniform state's buffer is iterated in place: negate the marked
    amplitudes, then reflect every amplitude about the mean.  The
    marked probability is summed from a gather of the marked amplitudes.
    """
    marked = problem.marked
    amps = np.full(problem.N, statevec._hadamard_amplitude(problem.k))
    iterations = grover.iteration_schedule(problem.N, marked.size)
    trace = [float(sum(np.abs(amps[marked]) ** 2))]
    for _ in range(iterations):
        amps[marked] *= -1
        _reflect_inplace(amps)
        trace.append(float(sum(np.abs(amps[marked]) ** 2)))
    state = statevec.StateVector(problem.k, amps, copy=False)
    outcome = statevec.measure_all(state, rng_seed, 1)[0]
    result = grover.GroverResult(
        found=outcome,
        success=outcome in marked,
        success_probability=trace[-1],
        iterations=iterations,
        oracle_calls=iterations,
        trace=tuple(trace),
    )
    return result, state


def phase_flip_zero(n: int) -> np.ndarray:
    """Diagonal transform sending index 0 to -1 times itself, others unchanged."""
    if n < 1:
        raise ValueError("need at least one qubit")
    signs = np.ones(1 << n, dtype=np.float64)
    signs[0] = -1.0
    return signs


def inversion_about_mean_composed(state: statevec.StateVector) -> statevec.StateVector:
    """The same reflection as -(H^k) Z0 (H^k), built from the gates."""
    n = state.n_qubits
    layer = hadamard_layer(n)
    state = statevec.run_circuit(state, layer)
    state = statevec.StateVector(n, state.amps * phase_flip_zero(n), copy=False)
    state = statevec.run_circuit(state, layer)
    return statevec.StateVector(n, state.amps * np.full(1 << n, -1.0), copy=False)


# ---------------------------------------------------------------------------
# simon: one round and the inner product over F_2
# ---------------------------------------------------------------------------


def simon_sample(oracle: simon.SimonOracle, rng_seed: int) -> int:
    """Run one quantum round and return the measured first-register value y.

    The round measures the whole 2n-qubit state, built gate by gate (see
    :func:`gate_by_gate_period_finding`).  Every returned y satisfies
    y . c = 0 (mod 2) with certainty.
    """
    state = gate_by_gate_period_finding(hadamard_layer(oracle.n), oracle.table, oracle.n)
    return statevec.measure_all(state, rng_seed, 1)[0] >> oracle.n


def dot_mod2(a: int, b: int) -> int:
    """Binary inner product of two bit vectors."""
    return bin(a & b).count("1") & 1


# ---------------------------------------------------------------------------
# statevec: the XOR oracle, register extraction and chosen variates
# ---------------------------------------------------------------------------


class FixedVariates:
    """A stand-in generator that hands out chosen uniform variates."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, shots):
        assert shots == self.u.size
        return self.u.copy()


class VariatesBySeed:
    """A stand-in for ``statevec.make_rng`` whose generator for seed i hands out u[i].

    With it, ``statevec._draws(law, range(len(u)))`` draws on the variates
    u, so one ``measure_all`` call on the same u (through
    :class:`FixedVariates`) checks them all.
    """

    def __init__(self, u):
        self.u = [float(v) for v in u]

    def __call__(self, seed: int) -> SimpleNamespace:
        return SimpleNamespace(random=lambda: self.u[seed])


def apply_xor_oracle(state: statevec.StateVector, table: np.ndarray,
                     out_bits: int) -> statevec.StateVector:
    """Apply the reversible oracle (a, w) -> (a, w XOR table[a]) to a copy of the state.

    The low ``out_bits`` wires hold w and the wires above them hold a, so
    ``table`` has one entry per value of a, each an ``out_bits``-bit value;
    the table is checked as ``statevec._period_finding`` checks it.  XOR
    permutes each row of fixed a, so no bijection check is needed.  Each
    chunk of rows, about one kernel block, is copied into one scratch
    array and put back permuted, so no 2^n-entry permutation is built.
    """
    n = state.n_qubits
    if not 0 <= out_bits <= n:
        raise ValueError(f"out_bits={out_bits} out of range [0, {n}]")
    amps = state.amps.copy()
    rows = amps.size >> out_bits
    table = statevec._oracle_table(table, rows, out_bits)
    by_row = amps.reshape(rows, -1)
    w = np.arange(1 << out_bits, dtype=np.intp)
    step = min(max((1 << statevec._BLOCK_BITS) >> out_bits, 1), rows)
    scratch = np.empty((step, 1 << out_bits), dtype=amps.dtype)
    for start in range(0, rows, step):
        chunk = slice(start, start + step)
        np.copyto(scratch, by_row[chunk])
        np.put_along_axis(by_row[chunk], w ^ table[chunk, np.newaxis], scratch, axis=1)
    return statevec.StateVector(n, amps, copy=False)


def gate_by_gate_period_finding(transform: Circuit, table: np.ndarray,
                                out_bits: int) -> statevec.StateVector:
    """|0>, H on each input wire, the XOR oracle, then the transform, on all m + out_bits wires."""
    m = transform.n_wires
    state = statevec.run_circuit(statevec.init_basis(m + out_bits, 0), hadamard_layer(m))
    return statevec.run_circuit(apply_xor_oracle(state, table, out_bits), transform)


def expand_live_columns(state: statevec.StateVector, table: np.ndarray,
                        out_bits: int) -> statevec.StateVector:
    """The full-width state that a ``statevec._period_finding`` state stands for.

    Row a of ``state`` is the input value a, and its columns are the
    distinct ``table`` values in ascending order, then zero pad columns up
    to a power of two (at least 2).  Asserts that layout and that every pad
    column is exactly 0, then puts each kept column back at its output
    value of a 2^out_bits-column state whose other columns are 0.
    """
    table = np.asarray(table)
    values = np.unique(table)
    by_row = state.amps.reshape(table.size, -1)
    assert by_row.shape[1] == max(1 << (values.size - 1).bit_length(), 2)
    assert not np.any(by_row[:, values.size:])
    full = np.zeros((table.size, 1 << out_bits), dtype=np.complex128)
    full[:, values] = by_row[:, :values.size]
    return statevec.StateVector(table.size.bit_length() - 1 + out_bits, full.reshape(-1), copy=False)


def marginal(state: statevec.StateVector, high_bits: int) -> np.ndarray:
    """Measurement distribution of the top ``high_bits`` wires alone.

    Sums the outcome probabilities over the remaining low wires; entry i
    is the probability that wires 1..high_bits read the integer i.
    """
    if not 1 <= high_bits <= state.n_qubits:
        raise ValueError(f"high_bits={high_bits} out of range [1, {state.n_qubits}]")
    return (np.abs(state.amps) ** 2).reshape(1 << high_bits, -1).sum(axis=1)


def extract_register(index: int, n_qubits: int, first_wire: int, last_wire: int) -> int:
    """Read the integer carried by a contiguous wire span of a basis index.

    The span is inclusive and MSB-first: wires (1, 2) of index 0b1011 on
    four qubits give 0b10 = 2.
    """
    if first_wire > last_wire:
        raise ValueError(f"empty wire span ({first_wire}, {last_wire})")
    if first_wire < 1 or last_wire > n_qubits:
        raise ValueError(
            f"wire span ({first_wire}, {last_wire}) outside [1, {n_qubits}]"
        )
    index = int(index)
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"index {index} is not a {n_qubits}-qubit basis index")
    width = last_wire - first_wire + 1
    return (index >> (n_qubits - last_wire)) & ((1 << width) - 1)


# ---------------------------------------------------------------------------
# qft: the dense matrix and the circuit-evaluation fidelity
# ---------------------------------------------------------------------------

#: dft_matrix builds a dense 2^k x 2^k array; keep it a test-scale oracle.
DFT_MATRIX_MAX_QUBITS = 10


def dft_matrix(k: int) -> np.ndarray:
    """Dense transform matrix with entry (b, a) = 2^(-k/2) exp(2 pi i a b / 2^k)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > DFT_MATRIX_MAX_QUBITS:
        raise ValueError(
            f"dft_matrix refuses k={k} (> {DFT_MATRIX_MAX_QUBITS}; dense matrix only)"
        )
    dim = 1 << k
    idx = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(idx, idx) / dim) / np.sqrt(dim)


def qft_fidelity(circuit: Circuit) -> float:
    """Worst-case overlap of the circuit with the exact transform on its k wires.

    The circuit-evaluation referee for ``qft.phase_form_fidelity``: it
    returns min over basis inputs a of |<exact output | circuit output>|^2
    for any circuit, by running it on all 2^k inputs (about 4 s at k = 12).
    Exact outputs are generated directly from the phase formula, so this
    does not require the dense matrix.  The inputs run 16 at a time (1 or 4
    for k < 4) as one state on k + 4 qubits whose low wires index the
    batch, with the circuit on the top k wires.
    """
    k = circuit.n_wires
    dim = 1 << k
    roots = np.exp(2j * np.pi * np.arange(dim) / dim)
    scale = 1.0 / np.sqrt(dim)
    worst = 1.0
    idx = np.arange(dim)
    # an even number of batch wires loads each input at amplitude
    # 2^-(low/2), a power of two, so scaling back by 2^(low/2) is exact
    low = min(4, k - k % 2)
    width = 1 << low
    lift = 1 << (low // 2)
    slots = np.arange(width)
    inputs = np.zeros(dim * width, dtype=np.complex128)
    columns = np.empty((width, dim), dtype=np.complex128)
    for first in range(0, dim, width):
        inputs[((first + slots) << low) | slots] = 1.0 / lift
        # the kernel's state marks the array it is handed read-only, so it
        # gets a view and ``inputs`` stays writable for the next batch
        out = statevec._evolve(inputs.view(), circuit).amps
        # contiguous rows, so np.vdot sums each one as it summed a single state
        np.multiply(out.reshape(dim, width).T, lift, out=columns)
        inputs.fill(0)
        for a, column in zip(range(first, first + width), columns):
            exact = roots[(a * idx) % dim] * scale
            overlap = abs(np.vdot(exact, column)) ** 2
            worst = min(worst, overlap)
    return float(worst)


# ---------------------------------------------------------------------------
# cli: the report schema and the dict-building serializer
# ---------------------------------------------------------------------------


def get_report_schema() -> dict[str, Any]:
    """Load the frozen JSON schema the reports validate against."""
    text = resources.files("qdesk").joinpath("report_schema.json").read_text()
    return json.loads(text)


def distribution_dict(probs: np.ndarray) -> dict[str, float]:
    """Zero-padded n-bit strings mapped to the 2^n probabilities, zeros omitted."""
    width = probs.size.bit_length() - 1
    return {format(i, f"0{width}b"): float(p) for i, p in enumerate(probs) if p > 0.0}


def report_text(report: cli.RunReport) -> str:
    """The whole report text: ``report.chunks()`` joined, as ``_emit`` writes it."""
    return "".join(report.chunks())


def report_json(report: cli.RunReport) -> str:
    """The report text as the dict-building serializer wrote it.

    The byte-identity referee for :func:`report_text`: a state under
    "distribution" becomes the dict of its nonzero outcome probabilities,
    and the whole report goes through one ``json.dumps``.  It holds the
    2^n-entry dict and its text at once (about 100 MB at 18 wires), which
    is what the streamed report avoids.
    """
    result = dict(report.result)
    if isinstance(result.get("distribution"), statevec.StateVector):
        result["distribution"] = distribution_dict(np.abs(result["distribution"].amps) ** 2)
    obj = {"command": report.command, "config": report.config,
           "result": result, "version": report.version}
    return json.dumps(cli._round_floats(obj), indent=2, sort_keys=True) + "\n"
