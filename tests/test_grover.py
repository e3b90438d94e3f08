import math
import tracemalloc

import numpy as np
import pytest

from qdesk import grover, statevec
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
from referees import inversion_about_mean, inversion_about_mean_composed, uniform_state


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
        # the signs of zero included: tobytes, not array_equal
        for k in range(1, 21):
            assert statevec._Machine.uniform(k).amps.tobytes() == uniform_state(k).amps.tobytes(), k

    def test_step_equals_the_diagonal_product_it_replaced(self, rng):
        # the old step: multiply by the +-1 oracle diagonal, then 2m - a
        for k, marked in ((1, {1}), (3, {0, 5}), (6, {17, 40, 63}), (9, {1, 2, 3, 500})):
            problem = SearchProblem(k, marked)
            state = random_state(rng, k)
            flipped = state.amps * phase_flip_target(k, marked.__contains__)
            expected = 2.0 * flipped.mean() - flipped
            assert np.array_equal(grover_iterate(state, problem).amps, expected), k

    def test_long_run_tracks_the_recurrence_without_drift(self, monkeypatch):
        k, target = 20, 0x5A5A5
        measured = []
        measure_all = statevec.measure_all

        def record(state, rng_seed, shots):
            measured.append(state)
            return measure_all(state, rng_seed, shots)

        monkeypatch.setattr(statevec, "measure_all", record)
        result = run_grover(SearchProblem(k, (target,)), rng_seed=7)
        assert result.iterations == 804
        track = analytic_recurrence(1 << k, result.iterations)
        assert len(result.trace) == len(track)
        for i, (p, pair) in enumerate(zip(result.trace, track)):
            assert abs(p - pair.beta**2) <= 1e-12, i
        (state,) = measured
        assert abs(np.vdot(state.amps, state.amps).real - 1.0) <= statevec.NORM_TOL
        unmarked = np.delete(state.amps.real, target)
        assert np.max(np.abs(unmarked - track[-1].alpha)) <= 1e-12
        assert abs(state.amps[target] - track[-1].beta) <= 1e-12

    def test_final_state_is_still_validated(self, monkeypatch):
        step = grover._iterate_inplace

        def leaky_step(amps, marked):
            step(amps, marked)
            amps *= 1 + 1e-6

        monkeypatch.setattr(grover, "_iterate_inplace", leaky_step)
        with pytest.raises(ValueError, match="not normalized"):
            run_grover(SearchProblem(6, (17,)), rng_seed=0)

    def test_search_holds_one_state(self):
        # the loop runs on the uniform state's own buffer, so the peak is
        # that state; a copy of the uniform state would double it
        k = 18
        problem = SearchProblem(k, (5,))
        tracemalloc.start()
        try:
            run_grover(problem, rng_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (16 << k)


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
