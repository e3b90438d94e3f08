"""Check that the tests still kill every mutant in the table.

Run from the root of a qdesk checkout:

    python3 tools/check_mutants.py

Each entry of ``MUTANTS`` names a file under ``src/qdesk``, an exact piece
of its text, the text that replaces it, and the test node ids that must
fail once it is replaced.  The checkout, without its git and cache
directories, is copied to the git-ignored ``.mutants_work/``.  There the
named tests first run on the unchanged code, where they must all pass;
then each mutant is applied alone and each of its own tests runs in a
pytest call of its own with ``-x``, which stops at the test's first failing
case.  A call that exits 1 means that test killed the mutant, 0 that the
mutant survived it, and any other exit status (a collection or usage
error) is a tool error.  A mutant is killed when every named test kills
it.  Each mutant's line gives its time, and the last line the number not
killed and the whole run's time.  The exit status is 1 if any old text
does not occur exactly once in its file, if a named test fails on the
unchanged code, if any mutant survives, or on any tool error.  ``tests/test_mutants.py`` checks the
table against the sources in the tier-1 suite, so a change that moves the
code must update its entries with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

WORK_DIR = ".mutants_work"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout's root
    old: str
    new: str
    tests: tuple[str, ...]


_STATEVEC = "src/qdesk/statevec.py"
_GATES = "src/qdesk/gates.py"
_CLI = "src/qdesk/cli.py"
_GROVER = "src/qdesk/grover.py"
_SHOR = "src/qdesk/shor.py"
_QFT = "src/qdesk/qft.py"
_EVERY_TUPLE = ("tests/test_statevec.py::TestStructuredPaths::"
                "test_bit_identical_to_the_dense_kernel_on_every_wire_tuple")
_MIXED = ("tests/test_statevec.py::TestStructuredPaths::"
          "test_bit_identical_to_the_dense_kernel_on_mixed_circuits")
_STRUCTURE = ("tests/test_statevec.py::TestStructuredPaths::"
              "test_structure_is_read_once_from_the_matrix")
_SINE_LAW = "tests/test_grover.py::TestInPlaceLoop::test_trace_is_the_sine_squared_law"
_FULL_STATE_LOOP = "tests/test_grover.py::TestInPlaceLoop::test_run_tracks_the_full_state_loop"
_SAMPLING_GUARD = "tests/test_statevec.py::TestBlockedSampling::test_top_bin_guard_and_block_edges"
_DRAWS_GUARD = "tests/test_statevec.py::TestDraws::test_top_bin_guard_and_block_edges"
_FOUND = "tests/test_grover.py::TestInPlaceLoop::test_found_is_measure_all_on_the_filled_state"
_PHASE_FORM = ("tests/test_qft.py::TestPhaseFormFidelity::"
               "test_built_transforms_agree_with_the_circuit_referee")
_SHORTCUT = ("tests/test_qft.py::TestPhaseFormFidelity::"
             "test_the_exact_shortcut_never_changes_a_value")

MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "write each row inside the gather loop", _STATEVEC,
        "                for _, read, _, part in slots:\n"
        "                    np.copyto(part, full[read + prefix])\n"
        "                for row, _, entry, part in slots:\n",
        "                for row, read, entry, part in slots:\n"
        "                    np.copyto(part, full[read + prefix])\n",
        (_EVERY_TUPLE, _MIXED),
    ),
    Mutant(
        "no width >= 4 guard", _STATEVEC,
        "rows = gate.changed_rows if width >= 4 else None",
        "rows = gate.changed_rows",
        (_EVERY_TUPLE,),
    ),
    Mutant(
        "skip the entry product", _STATEVEC,
        "np.matmul(entry, part.reshape(1, width), out=out.reshape(1, width))",
        "out = part",
        (_EVERY_TUPLE, _MIXED),
    ),
    Mutant(
        "* in place of np.matmul", _STATEVEC,
        "np.matmul(entry, part.reshape(1, width), out=out.reshape(1, width))",
        "np.multiply(entry, part.reshape(1, width), out=out.reshape(1, width))",
        (_EVERY_TUPLE,),
    ),
    Mutant(
        "accept two nonzeros in a row", _GATES,
        "        if flat.size != dim:\n",
        "        if flat.size > 2 * dim:\n",
        (_STRUCTURE,),
    ),
    Mutant(
        "reverse the slice bit order", _GATES,
        "(row >> (k - 1 - i)) & 1",
        "(row >> i) & 1",
        (_STRUCTURE, _EVERY_TUPLE),
    ),
    Mutant(
        "an entry 1 never moves a row", _GATES,
        "                if c == r:\n"
        "                    continue\n"
        "                entry = None\n",
        "                continue\n",
        (_STRUCTURE, _EVERY_TUPLE),
    ),
    Mutant(
        "copy=False copies", _STATEVEC,
        "(np.array if copy else np.asarray)",
        "(np.array if copy else np.array)",
        ("tests/test_statevec.py::TestStateVectorInvariants::"
         "test_copy_false_converts_what_it_cannot_share",),
    ),
    Mutant(
        "run_circuit evolves the caller's buffer", _STATEVEC,
        "return _evolve(state.amps.copy(), circuit)",
        "return _evolve(state.amps, circuit)",
        ("tests/test_statevec.py::TestApplyGate::test_hadamard_on_zero",),
    ),
    Mutant(
        "the kernel freezes a copy", _STATEVEC,
        "return StateVector(n, amps, copy=False)",
        "return StateVector(n, amps)",
        ("tests/test_shor.py::TestFactorPipeline::test_order_finding_state_holds_one_state",
         "tests/test_simon.py::TestCostAccounting::test_sampling_state_holds_one_state",
         "tests/test_statevec.py::TestRunCircuit::"
         "test_the_kernel_state_is_the_buffer_it_was_handed_read_only"),
    ),
    Mutant(
        "an empty --output is stdout", _CLI,
        "    if output_path is not None:\n",
        "    if output_path:\n",
        ("tests/test_cli.py::TestMainEntry::"
         "test_unwritable_path_is_one_reproducible_domain_error",),
    ),
    Mutant(
        "the unmarked amplitudes weigh N, not N - t", _GROVER,
        "(n_items - count) * a",
        "n_items * a",
        (_SINE_LAW, _FULL_STATE_LOOP),
    ),
    Mutant(
        "the marked amplitudes weigh 1, not t", _GROVER,
        "+ count * b) / n_items",
        "+ b) / n_items",
        (_SINE_LAW, _FULL_STATE_LOOP),
    ),
    Mutant(
        "the oracle leaves b as it is", _GROVER,
        "    b = -b\n",
        "",
        (_SINE_LAW, _FULL_STATE_LOOP),
    ),
    Mutant(
        "the marked mass of one target", _GROVER,
        "trace.append(float(count * abs(b) ** 2))",
        "trace.append(float(abs(b) ** 2))",
        (_SINE_LAW, _FULL_STATE_LOOP),
    ),
    Mutant(
        "no 2-column floor", _STATEVEC,
        "width = max(1 << (values.size - 1).bit_length(), 2)",
        "width = 1 << (values.size - 1).bit_length()",
        ("tests/test_statevec.py::TestPeriodFinding::"
         "test_the_columns_are_a_power_of_two_and_at_least_two",),
    ),
    Mutant(
        "the marginal summed on half rows", _STATEVEC,
        "row = 1 << (state.n_qubits - m)\n",
        "row = 1 << (state.n_qubits - m - 1)\n",
        ("tests/test_shor.py::TestCircuit::test_dump_is_the_full_state_marginal_and_the_law",
         "tests/test_statevec.py::TestInputMarginal::"
         "test_rows_of_a_block_or_wider_are_the_full_state_marginal"),
    ),
    Mutant(
        "the 1.0 guard on every block", _STATEVEC,
        "        if end == state.amps.size:\n"
        "            cdf[-1] = 1.0\n",
        "        cdf[-1] = 1.0\n",
        (_SAMPLING_GUARD, _FOUND),
    ),
    Mutant(
        "measure_all counts entries < u", _STATEVEC,
        'idx += np.searchsorted(cdf, u, side="right")',
        'idx += np.searchsorted(cdf, u, side="left")',
        (_SAMPLING_GUARD,),
    ),
    Mutant(
        "a draw counts CDF entries < u", _STATEVEC,
        'yield int(np.searchsorted(cdf, make_rng(seed).random(), side="right"))',
        'yield int(np.searchsorted(cdf, make_rng(seed).random(), side="left"))',
        (_DRAWS_GUARD,),
    ),
    Mutant(
        "no top bin guard on a draw", _STATEVEC,
        "    cdf[-1] = 1.0\n"
        "    for seed in seeds:\n",
        "    for seed in seeds:\n",
        (_DRAWS_GUARD,),
    ),
    Mutant(
        "a law's total read from its CDF", _STATEVEC,
        "total = float(law.sum())",
        "total = float(np.cumsum(law)[-1])",
        ("tests/test_grover.py::TestInPlaceLoop::test_cap_law_is_checked_on_its_sum_not_its_cdf",),
    ),
    Mutant(
        "a NaN law passes the check", _STATEVEC,
        "if not abs(total - 1.0) <= NORM_TOL:",
        "if abs(total - 1.0) > NORM_TOL:",
        ("tests/test_grover.py::TestInPlaceLoop::test_a_leaky_or_nan_pair_is_not_a_law",),
    ),
    Mutant(
        "renormalise instead of raising", _STATEVEC,
        "            raise ValueError(\n"
        "                f\"state is not normalized: sum |amp|^2 = {norm_sq!r} \"\n"
        "                f\"(tolerance {NORM_TOL}); states are never renormalized silently\"\n"
        "            )\n",
        "            arr = arr / np.sqrt(norm_sq)\n",
        ("tests/test_statevec.py::TestStateVectorInvariants::test_rejects_unnormalized",),
    ),
    Mutant(
        "capacity checked after the trial division", _SHOR,
        "    if n >= 2 and n % 2:\n"
        "        statevec.require_qubits(3 * n.bit_length(), f\"factoring N={n}\")\n"
        "    kind = is_trivial_case(n)\n",
        "    kind = is_trivial_case(n)\n"
        "    if n >= 2 and n % 2:\n"
        "        statevec.require_qubits(3 * n.bit_length(), f\"factoring N={n}\")\n",
        ("tests/test_shor.py::TestFactorPipeline::"
         "test_an_over_cap_n_is_refused_before_the_trial_division",),
    ),
    Mutant(
        "the last QFT op dropped", _QFT,
        "    return Circuit(k, tuple(ops))",
        "    return Circuit(k, tuple(ops[:-1]))",
        ("tests/test_qft.py::TestBuildCircuit::test_gate_count_law", _PHASE_FORM),
    ),
    Mutant(
        "an H adds pi/2, not pi", _QFT,
        "form[carried[0]][carried[0]] = modulus >> 1",
        "form[carried[0]][carried[0]] = modulus >> 2",
        (_PHASE_FORM,),
    ),
    Mutant(
        "a CPHASE angle doubled", _QFT,
        "form[target][bit] += modulus >> (op.params[1] + 1 - op.params[0])",
        "form[target][bit] += modulus >> (op.params[1] - op.params[0])",
        (_PHASE_FORM,),
    ),
    Mutant(
        "the exact shortcut on any zero delta", _QFT,
        "if all(d == 0 for row in delta for d in row):",
        "if any(d == 0 for row in delta for d in row):",
        (_SHORTCUT, _PHASE_FORM),
    ),
    Mutant(
        "a named op's params reversed", _GATES,
        "m = NAMED_GATES[self.name].matrix(*self.params)",
        "m = NAMED_GATES[self.name].matrix(*self.params[::-1])",
        ("tests/test_gates.py::TestNamedOps::test_the_matrix_is_the_constructors_bit_for_bit",),
    ),
)


def occurrences(root: Path, mutant: Mutant) -> int:
    """How many times the mutant's old text occurs in its file."""
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def pytest(work: Path, *args: str) -> subprocess.CompletedProcess:
    """pytest with ``args`` on the copy in ``work``, with its own ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=work, env=env, capture_output=True, text=True)


def mutant_runs(work: Path, mutant: Mutant) -> dict[str, subprocess.CompletedProcess]:
    """Each named test's own ``-x`` run with the mutant applied in ``work``."""
    target = work / mutant.file
    original = target.read_text(encoding="utf-8")
    target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        return {test: pytest(work, "-x", test) for test in mutant.tests}
    finally:
        target.write_text(original, encoding="utf-8")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "qdesk" / "__init__.py").is_file():
        print("run from the root of a qdesk checkout", file=sys.stderr)
        return 2
    began, bad = time.perf_counter(), 0
    for mutant in MUTANTS:
        count = occurrences(root, mutant)
        if count != 1:
            bad += 1
            print(f"BAD TABLE {mutant.name}: old text occurs {count} times in {mutant.file}")
    if bad:
        return 1
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root, work, ignore=shutil.ignore_patterns(
        ".git", WORK_DIR, "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
    named = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
    baseline = pytest(work, *named)
    if baseline.returncode != 0:
        print("the named tests do not pass on the unchanged code:\n"
              f"{baseline.stdout}{baseline.stderr}")
        return 1
    for mutant in MUTANTS:
        start = time.perf_counter()
        runs = mutant_runs(work, mutant)
        errors = {test: run for test, run in runs.items() if run.returncode not in (0, 1)}
        alive = [test for test, run in runs.items() if run.returncode == 0]
        for test, run in errors.items():
            print(f"pytest exited {run.returncode} on {test}:\n{run.stdout}{run.stderr}")
        verdict = (f"TOOL ERROR ({', '.join(errors)})" if errors
                   else f"SURVIVED ({', '.join(alive)})" if alive else "killed")
        print(f"{mutant.name}: {verdict} in {time.perf_counter() - start:.1f} s", flush=True)
        bad += bool(errors or alive)
    print(f"{len(MUTANTS)} mutants, {bad} not killed in {time.perf_counter() - began:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
