import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qdesk import grover, statevec
from qdesk.cli import main
from qdesk.gates import phase_flip_target
from qdesk.grover import (
    AmplitudePair,
    SearchProblem,
    analytic_recurrence,
    grover_iterate,
    iteration_schedule,
    marked_probability,
    run_grover,
)

from conftest import random_state
from referees import (
    inversion_about_mean,
    inversion_about_mean_composed,
    run_grover_full_state,
    uniform_state,
)


def run_and_capture(problem, rng_seed, monkeypatch):
    """``run_grover``'s result and the frozen state it measured."""
    measured = []
    measure_all = statevec.measure_all

    def record(state, seed, shots):
        measured.append(state)
        return measure_all(state, seed, shots)

    monkeypatch.setattr(statevec, "measure_all", record)
    result = run_grover(problem, rng_seed)
    (state,) = measured
    return result, state


def assert_runs_equal(problem, rng_seed, monkeypatch):
    """``run_grover`` gives the full-state loop's trace and final state, bit for bit."""
    result, state = run_and_capture(problem, rng_seed, monkeypatch)
    expected, expected_state = run_grover_full_state(problem, rng_seed)
    label = (problem.k, problem.marked.size, problem.marked[:4].tolist())
    assert np.array(result.trace).tobytes() == np.array(expected.trace).tobytes(), label
    assert state.amps.tobytes() == expected_state.amps.tobytes(), label
    assert result == expected, label


def simulate_success(k, target, iterations):
    """Marked probability after a given iteration count (sweep oracle)."""
    problem = SearchProblem(k, (target,))
    state = uniform_state(k)
    for _ in range(iterations):
        state = grover_iterate(state, problem)
    return marked_probability(state, problem)


class TestInversionAboutMean:
    def test_basis_state_example(self):
        state = statevec.StateVector(2, np.array([1, 0, 0, 0], dtype=complex))
        out = inversion_about_mean(state)
        assert np.allclose(out.amps, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_uniform_fixed_point(self):
        state = uniform_state(3)
        out = inversion_about_mean(state)
        assert np.allclose(out.amps, state.amps, atol=1e-12)

    def test_involution(self, rng):
        state = random_state(rng, 4)
        twice = inversion_about_mean(inversion_about_mean(state))
        assert np.allclose(twice.amps, state.amps, atol=1e-12)

    def test_composed_equals_direct(self, rng):
        for n in range(1, 9):
            state = random_state(rng, n)
            direct = inversion_about_mean(state)
            composed = inversion_about_mean_composed(state)
            assert np.max(np.abs(direct.amps - composed.amps)) < 1e-12, n

    def test_hadamard_layer_squares_to_identity(self, rng):
        from qdesk.gates import h_op

        state = random_state(rng, 5)
        out = state
        for _ in range(2):
            for w in range(1, 6):
                out = statevec.apply_gate(out, h_op(w))
        assert np.max(np.abs(out.amps - state.amps)) < 1e-12


class TestIterate:
    def test_four_items_one_step_exact(self):
        problem = SearchProblem(2, (3,))
        state = grover_iterate(uniform_state(2), problem)
        assert abs(state.amps[3] - 1.0) < 1e-12
        assert np.max(np.abs(state.amps[:3])) < 1e-12

    def test_amplitude_update_rule(self):
        # one step sends (alpha, beta) to (2m - alpha, 2m + beta) with the
        # oracle sign folded into the mean
        k, t = 3, 5
        problem = SearchProblem(k, (t,))
        state = uniform_state(k)
        n_items = 1 << k
        alpha = beta = 1 / math.sqrt(n_items)
        out = grover_iterate(state, problem)
        m = ((n_items - 1) * alpha - beta) / n_items
        assert out.amps[0].real == pytest.approx(2 * m - alpha, abs=1e-12)
        assert out.amps[t].real == pytest.approx(2 * m + beta, abs=1e-12)

    def test_zero_targets_two_steps_identity(self, rng):
        problem = SearchProblem(3, ())
        state = random_state(rng, 3)
        out = grover_iterate(grover_iterate(state, problem), problem)
        assert np.allclose(out.amps, state.amps, atol=1e-12)

    def test_norm_preserved(self, rng):
        problem = SearchProblem(5, (17,))
        state = random_state(rng, 5)
        out = grover_iterate(state, problem)
        assert abs(np.vdot(out.amps, out.amps).real - 1) < 1e-10


class TestSchedule:
    def test_four_items(self):
        assert iteration_schedule(4, 1) == 1

    def test_thousand_items(self):
        assert iteration_schedule(1024, 1) == 25

    def test_four_items_two_targets(self):
        assert iteration_schedule(4, 2) == 1

    def test_sweep_confirms_thousand_item_count(self):
        # brute-force sweep: the scheduled count maximizes success
        probs = [simulate_success(10, 777, j) for j in range(1, 41)]
        best = int(np.argmax(probs)) + 1
        assert best == iteration_schedule(1024, 1) == 25

    def test_sweep_confirms_small_cases(self):
        assert simulate_success(2, 3, 1) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_target_count(self):
        with pytest.raises(ValueError):
            iteration_schedule(8, 0)
        with pytest.raises(ValueError):
            iteration_schedule(8, 8)


class TestRunGrover:
    def test_four_items_deterministic(self):
        for seed in range(5):
            result = run_grover(SearchProblem(2, (3,)), rng_seed=seed)
            assert result.found == 3 and result.success
            assert result.success_probability == pytest.approx(1.0, abs=1e-10)

    def test_large_search_high_success(self):
        result = run_grover(SearchProblem(10, (123,)), rng_seed=4)
        assert result.success_probability >= 0.99
        assert result.iterations == 25

    def test_trace_unimodal_to_schedule(self):
        result = run_grover(SearchProblem(10, (777,)), rng_seed=3)
        diffs = np.diff(result.trace)
        assert np.all(diffs > 0)  # rises all the way to the scheduled stop

    def test_oracle_call_counter(self):
        for k in (4, 6, 8):
            result = run_grover(SearchProblem(k, (1,)), rng_seed=0)
            assert result.oracle_calls == result.iterations
            assert result.oracle_calls == iteration_schedule(1 << k, 1)

    def test_call_growth_tracks_square_root(self):
        calls = {
            k: run_grover(SearchProblem(k, (0,)), rng_seed=1).oracle_calls
            for k in (4, 8, 12)
        }
        # least-squares fit of calls = c * sqrt(N)
        roots = {k: math.sqrt(1 << k) for k in calls}
        c = sum(calls[k] * roots[k] for k in calls) / sum(roots[k] ** 2 for k in calls)
        for k in calls:
            assert abs(calls[k] - c * roots[k]) / (c * roots[k]) <= 0.15

    def test_multiple_targets(self):
        marked = {3, 12, 9}
        problem = SearchProblem(4, marked)
        result = run_grover(problem, rng_seed=2)
        assert result.success_probability > 0.9
        assert result.found in marked


class TestInPlaceLoop:
    @pytest.mark.parametrize("k", range(2, 11))
    def test_loop_trace_equals_stepping_the_public_iteration(self, k):
        rng = np.random.default_rng(k)
        for t in range(1, min(4, (1 << k) - 1) + 1):
            marked = {int(i) for i in rng.choice(1 << k, t, replace=False)}
            problem = SearchProblem(k, marked)
            result = run_grover(problem, rng_seed=k)
            state = uniform_state(k)
            stepped = [marked_probability(state, problem)]
            for _ in range(result.iterations):
                state = grover_iterate(state, problem)
                stepped.append(marked_probability(state, problem))
            assert result.trace == tuple(stepped), (k, t)

    def test_direct_fill_is_the_hadamard_layer_run_byte_for_byte(self):
        # the amplitude the search starts from; the signs of zero included:
        # tobytes, not array_equal
        for k in range(1, 21):
            fill = np.full(1 << k, statevec._hadamard_amplitude(k))
            assert fill.tobytes() == uniform_state(k).amps.tobytes(), k

    def test_step_equals_the_diagonal_product_it_replaced(self, rng):
        # the old step: multiply by the +-1 oracle diagonal, then 2m - a
        for k, marked in ((1, {1}), (3, {0, 5}), (6, {17, 40, 63}), (9, {1, 2, 3, 500})):
            problem = SearchProblem(k, marked)
            state = random_state(rng, k)
            flipped = state.amps * phase_flip_target(k, marked.__contains__)
            expected = 2.0 * flipped.mean() - flipped
            assert np.array_equal(grover_iterate(state, problem).amps, expected), k

    @pytest.mark.parametrize("k", range(1, 21))
    def test_run_equals_the_full_state_loop_bit_for_bit(self, k, monkeypatch):
        n_items = 1 << k
        rng = np.random.default_rng(1000 + k)
        sets = [rng.choice(n_items, t, replace=False) for t in range(1, min(4, n_items - 1) + 1)]
        sets += [[0], [n_items - 1]]
        if k >= 2:
            sets.append([1, n_items // 2 + 1])  # one in each half
        if k >= 3:
            sets.append([i for i in (2, 3, 5, 40, 63) if i < n_items][:n_items - 1])  # one leaf
        for i, marked in enumerate(sets):
            assert_runs_equal(SearchProblem(k, marked), i, monkeypatch)

    @pytest.mark.parametrize("k, count", [(12, 1 << 10), (16, (1 << 15) - 1)])
    def test_large_marked_sets_equal_the_full_state_loop(self, k, count, monkeypatch):
        marked = np.random.default_rng(count).choice(1 << k, count, replace=False)
        assert_runs_equal(SearchProblem(k, marked), 5, monkeypatch)

    @pytest.mark.parametrize("marked", [
        pytest.param(range(0, 1 << 20, 4), id="2^18-targets"),
        pytest.param(range(17, 1 << 20, 64), id="one-per-leaf"),
    ])
    def test_large_targets_file_reports_the_full_state_loops_bytes(self, marked, tmp_path,
                                                                   monkeypatch):
        targets = tmp_path / "targets.txt"
        targets.write_text("".join(f"{t}\n" for t in marked))
        argv = ["grover", "--qubits", "20", "--targets-file", str(targets), "--seed", "9",
                "--trace", str(tmp_path / "trace.json")]
        reports = []
        for _ in range(2):
            assert main(argv + ["--output", str(tmp_path / "report.json")]) == 0
            reports.append([(tmp_path / f).read_bytes() for f in ("report.json", "trace.json")])
            monkeypatch.setattr(grover, "run_grover",
                                lambda problem, seed: run_grover_full_state(problem, seed)[0])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("k, target, iterations", [(20, 0x5A5A5, 804), (24, 0xA5A5A5, 3216)])
    def test_long_run_tracks_the_recurrence_without_drift(self, k, target, iterations, monkeypatch):
        result, state = run_and_capture(SearchProblem(k, (target,)), 7, monkeypatch)
        assert result.iterations == iterations
        track = analytic_recurrence(1 << k, result.iterations)
        assert len(result.trace) == len(track)
        for i, (p, pair) in enumerate(zip(result.trace, track)):
            assert abs(p - pair.beta**2) <= 1e-12, i
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) <= statevec.NORM_TOL
        unmarked = np.abs(state.amps.real - track[-1].alpha)  # one real array beside the state
        unmarked[target] = 0.0
        assert np.max(unmarked) <= 1e-12
        assert abs(state.amps[target] - track[-1].beta) <= 1e-12

    def test_final_state_is_still_validated(self, monkeypatch):
        step = grover._iterate_pair

        def leaky_step(*args):
            return tuple(amp * (1 + 1e-6) for amp in step(*args))

        monkeypatch.setattr(grover, "_iterate_pair", leaky_step)
        with pytest.raises(ValueError, match="not normalized"):
            run_grover(SearchProblem(6, (17,)), rng_seed=0)

    def test_search_holds_one_state(self):
        # the loop runs on two amplitudes and the state is filled once,
        # after it; a second state-sized array would double the peak
        k = 18
        problem = SearchProblem(k, (5,))
        tracemalloc.start()
        try:
            run_grover(problem, rng_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (16 << k)


class TestTwoValueSum:
    @pytest.mark.parametrize("k", range(21))
    def test_sum_and_mean_are_numpys_bit_for_bit(self, k):
        n_items = 1 << k
        rng = np.random.default_rng(2000 + k)
        counts = sorted({c for c in (1, 2, 3, 70, n_items // 3, n_items) if 1 <= c <= n_items})
        sets = [np.sort(rng.choice(n_items, count, replace=False)) for count in counts]
        sets.append(np.arange(k % 5, n_items, 1 << (k // 2)))  # leaves that share a pattern
        for marked, real in itertools.product(sets, (False, True)):
            (ar, ai), (br, bi) = rng.standard_normal((2, 2)) * 10.0 ** rng.integers(-9, 3)
            if real:  # as in a search: zero imaginary parts, here of both signs
                ai, bi = -0.0, 0.0
            a, b = np.complex128(complex(ar, ai)), np.complex128(complex(br, bi))
            amps = np.full(n_items, a)
            amps[marked] = b
            total = grover._two_value_sum(k, marked)(a, b)
            broke = (f"numpy's complex add.reduce no longer matches grover._two_value_sum "
                     f"(k={k}, {marked.size} marked): the assumed pairwise summation, a leaf of "
                     f"64 complex entries (PW_BLOCKSIZE = 128 doubles) and two halves above "
                     f"it, added to a zero start, does not hold for this numpy")
            assert total.tobytes() == np.add.reduce(amps).tobytes(), broke
            assert (total / np.intp(n_items)).tobytes() == amps.mean().tobytes(), broke


class TestAnalyticRecurrence:
    def test_first_step_four_items(self):
        track = analytic_recurrence(4, 1)
        assert track[1].beta == pytest.approx(1.0, abs=1e-12)
        assert track[1].alpha == pytest.approx(0.0, abs=1e-12)

    def test_uniform_start(self):
        track = analytic_recurrence(64, 0)
        assert track[0] == AmplitudePair(1 / 8, 1 / 8)

    def test_norm_invariant(self):
        for n_items in (4, 16, 64, 1024):
            for pair in analytic_recurrence(n_items, 30):
                total = (n_items - 1) * pair.alpha**2 + pair.beta**2
                assert abs(total - 1.0) < 1e-12

    def test_matches_full_simulation_everywhere(self):
        for k in (2, 4, 6, 10):
            n_items = 1 << k
            target = n_items - 2
            steps = iteration_schedule(n_items, 1) + 3
            track = analytic_recurrence(n_items, steps)
            problem = SearchProblem(k, (target,))
            state = uniform_state(k)
            for i in range(1, steps + 1):
                state = grover_iterate(state, problem)
                pair = track[i]
                assert np.max(np.abs(state.amps.imag)) < 1e-12
                unmarked = np.delete(state.amps.real, target)
                assert np.max(np.abs(unmarked - pair.alpha)) < 1e-12, (k, i)
                assert abs(state.amps[target].real - pair.beta) < 1e-12, (k, i)


class TestSearchProblem:
    def test_single_target_out_of_range(self):
        with pytest.raises(ValueError):
            SearchProblem(2, (4,))

    def test_marked_indices_are_one_read_only_index_array(self):
        problem = SearchProblem(4, [9, 3, 9, np.int64(3), 0])
        assert problem.marked.dtype == np.intp
        assert problem.marked.tolist() == [0, 3, 9]
        assert not problem.marked.flags.writeable

    def test_empty_marked_set_is_allowed(self):
        problem = SearchProblem(3, set())
        assert problem.marked.dtype == np.intp
        assert problem.marked.size == 0
        assert not problem.marked.flags.writeable

    @pytest.mark.parametrize("bad", [-1, 16, 10**30])
    def test_out_of_range_target_is_named(self, bad):
        with pytest.raises(ValueError, match=rf"^target {bad} out of range \[0, 16\)$"):
            SearchProblem(4, [3, bad])

    def test_marked_probability(self):
        problem = SearchProblem(2, (1,))
        assert marked_probability(uniform_state(2), problem) == pytest.approx(0.25)
