import math
import tracemalloc

import numpy as np
import pytest

from qdesk import grover, statevec
from qdesk.cli import main
from qdesk.grover import (
    AmplitudePair,
    SearchProblem,
    analytic_recurrence,
    iteration_schedule,
    run_grover,
)

from conftest import random_state
from referees import (
    FixedVariates,
    VariatesBySeed,
    grover_iterate,
    inversion_about_mean,
    inversion_about_mean_composed,
    marked_probability,
    run_grover_full_state,
    uniform_state,
)


def run_and_capture(problem, rng_seed, monkeypatch):
    """``run_grover``'s result and the final amplitude pair (a, b) its law came from."""
    h = statevec._hadamard_amplitude(problem.k)
    pairs = [(h, h)]
    step = grover._iterate_pair

    def record(*args):
        pairs.append(step(*args))
        return pairs[-1]

    monkeypatch.setattr(grover, "_iterate_pair", record)
    result = run_grover(problem, rng_seed)
    return result, pairs[-1]


def filled(problem, a, b):
    """The 2^k state of a pair: a at every unmarked index, b at every marked one."""
    amps = np.full(problem.N, a)
    amps[problem.marked] = b
    return statevec.StateVector(problem.k, amps, copy=False)


# The pair loop rounds the mean ((N - t) a + t b) / N where the full-state
# loop sums all 2^k amplitudes, so the two agree to rounding, not in the
# last bits.  Largest gaps measured with numpy 2.4 on the cases below: 8.9e-15
# to the sin^2 law (k = 19, t = 1), 3.0e-14 to the full-state trace
# (k = 20, t = 3), 1.1e-14 in the final amplitudes (k = 20) and 4.8e-15 to
# the stepped referee (k <= 10).
LOOP_TOL = 1e-13


def assert_runs_agree(problem, rng_seed, monkeypatch):
    """``run_grover`` within LOOP_TOL of the full-state loop's trace and state, with its outcome."""
    result, pair = run_and_capture(problem, rng_seed, monkeypatch)
    state = filled(problem, *pair)
    expected, expected_state = run_grover_full_state(problem, rng_seed)
    label = (problem.k, problem.marked.size, problem.marked[:4].tolist())
    assert len(result.trace) == len(expected.trace), label
    assert np.max(np.abs(np.subtract(result.trace, expected.trace))) <= LOOP_TOL, label
    assert np.max(np.abs(state.amps - expected_state.amps)) <= LOOP_TOL, label
    assert (result.found, result.success, result.iterations, result.oracle_calls) == (
        expected.found, expected.success, expected.iterations, expected.oracle_calls), label


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

    @staticmethod
    def oracle_signs(state, problem):
        """The diagonal the step applied before its reflection, undone by reflecting again."""
        return inversion_about_mean(grover_iterate(state, problem)).amps / state.amps

    def test_oracle_flips_a_single_target(self, rng):
        signs = self.oracle_signs(random_state(rng, 2), SearchProblem(2, (3,)))
        assert np.allclose(signs, [1, 1, 1, -1], atol=1e-12)

    def test_oracle_with_no_target_flips_nothing(self, rng):
        signs = self.oracle_signs(random_state(rng, 3), SearchProblem(3, ()))
        assert np.allclose(signs, 1.0, atol=1e-12)

    def test_oracle_two_targets_is_the_dense_diagonal(self, rng):
        marked = {1, 6}
        signs = self.oracle_signs(random_state(rng, 3), SearchProblem(3, marked))
        dense = np.diag([-1.0 if i in marked else 1.0 for i in range(8)])
        assert np.allclose(np.diag(signs), dense, atol=1e-12)

    @pytest.mark.parametrize("k, marked", [(2, (0,)), (3, (2, 7)), (6, (1, 20, 33, 63))])
    def test_marked_probability_is_the_mass_on_the_targets(self, k, marked, rng):
        problem = SearchProblem(k, marked)
        assert marked_probability(uniform_state(k), problem) == pytest.approx(len(marked) / (1 << k))
        state = random_state(rng, k)
        probs = np.abs(state.amps) ** 2
        assert marked_probability(state, problem) == pytest.approx(probs[list(marked)].sum())


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
    def test_loop_trace_tracks_stepping_the_full_state_iteration(self, k):
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
            assert np.max(np.abs(np.subtract(result.trace, stepped))) <= LOOP_TOL, (k, t)

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
            signs = np.ones(1 << k)
            signs[list(marked)] = -1.0
            flipped = state.amps * signs
            expected = 2.0 * flipped.mean() - flipped
            assert np.array_equal(grover_iterate(state, problem).amps, expected), k

    @pytest.mark.parametrize("k", range(1, 21))
    def test_trace_is_the_sine_squared_law(self, k):
        # t marked of N: sin^2 theta = t / N, and j steps rotate by 2j theta,
        # so the marked probability after j steps is sin^2((2j + 1) theta)
        n_items = 1 << k
        for t in range(1, min(4, n_items - 1) + 1):
            result = run_grover(SearchProblem(k, range(t)), rng_seed=t)
            theta = math.asin(math.sqrt(t / n_items))
            law = np.sin((2 * np.arange(result.iterations + 1) + 1) * theta) ** 2
            assert len(result.trace) == law.size, (k, t)
            assert np.max(np.abs(np.subtract(result.trace, law))) <= LOOP_TOL, (k, t)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_large_marked_sets_follow_the_sine_squared_law(self, k):
        # the pair loop weighs the t marked amplitudes by t, so the law holds
        # at any t; a quarter marked has theta = pi/6 and one step reaches
        # 3 theta = pi/2.  Largest gap measured with numpy 2.4: 3.3e-15
        # (k = 19, t = N/4)
        n_items = 1 << k
        for t in sorted({n_items // 4, n_items // 3, n_items // 2, n_items - 1} - {0}):
            result = run_grover(SearchProblem(k, range(t)), rng_seed=t)
            theta = math.asin(math.sqrt(t / n_items))
            law = np.sin((2 * np.arange(result.iterations + 1) + 1) * theta) ** 2
            assert len(result.trace) == law.size, (k, t)
            assert np.max(np.abs(np.subtract(result.trace, law))) <= LOOP_TOL, (k, t)
            if k >= 2 and t == n_items // 4:
                assert (result.iterations, result.success) == (1, True), k

    @pytest.mark.parametrize("k", range(1, 21))
    def test_run_tracks_the_full_state_loop(self, k, monkeypatch):
        n_items = 1 << k
        rng = np.random.default_rng(1000 + k)
        sets = [rng.choice(n_items, t, replace=False) for t in range(1, min(4, n_items - 1) + 1)]
        sets += [[0], [n_items - 1]]
        if k >= 2:
            sets.append([1, n_items // 2 + 1])  # one in each half
        if k >= 3:
            sets.append([i for i in (2, 3, 5, 40, 63) if i < n_items][:n_items - 1])  # one leaf
        for i, marked in enumerate(sets):
            assert_runs_agree(SearchProblem(k, marked), i, monkeypatch)

    @pytest.mark.parametrize("k, count", [(12, 1 << 10), (16, (1 << 15) - 1)])
    def test_large_marked_sets_track_the_full_state_loop(self, k, count, monkeypatch):
        marked = np.random.default_rng(count).choice(1 << k, count, replace=False)
        assert_runs_agree(SearchProblem(k, marked), 5, monkeypatch)

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
        result, (a, b) = run_and_capture(SearchProblem(k, (target,)), 7, monkeypatch)
        assert result.iterations == iterations
        track = analytic_recurrence(1 << k, result.iterations)
        assert len(result.trace) == len(track)
        for i, (p, pair) in enumerate(zip(result.trace, track)):
            assert abs(p - pair.beta**2) <= 1e-12, i
        law = np.full(1 << k, abs(a) ** 2)  # the state's law, one real array
        law[target] = abs(b) ** 2
        assert abs(law.sum() - 1.0) <= statevec.NORM_TOL
        # every unmarked amplitude is a, the marked one b
        assert abs(a.real - track[-1].alpha) <= 1e-12
        assert abs(b - track[-1].beta) <= 1e-12

    def test_final_state_is_still_validated(self, monkeypatch):
        step = grover._iterate_pair

        def leaky_step(*args):
            return tuple(amp * (1 + 1e-6) for amp in step(*args))

        monkeypatch.setattr(grover, "_iterate_pair", leaky_step)
        with pytest.raises(ValueError, match="not normalized"):
            run_grover(SearchProblem(6, (17,)), rng_seed=0)

    def test_a_leaky_or_nan_pair_is_not_a_law(self):
        # the law of a 2^6 search: a pair scaled by 1 + 1e-6 sums to
        # 1 + 2e-6, and a NaN amplitude makes the sum NaN
        problem = SearchProblem(6, (17,))
        h = statevec._hadamard_amplitude(6)
        a, b = grover._iterate_pair(h, h, problem.N, 1)
        for pair in ((a * (1 + 1e-6), b * (1 + 1e-6)), (a, np.complex128(np.nan))):
            law = np.full(problem.N, abs(pair[0]) ** 2)
            law[problem.marked] = abs(pair[1]) ** 2
            with pytest.raises(ValueError, match="not normalized"):
                next(statevec._draws(law, [0]))

    def test_cap_law_is_checked_on_its_sum_not_its_cdf(self, monkeypatch):
        # at 24 qubits with target 5 the running sum drifts to 1 + 2.9e-10,
        # above NORM_TOL, where the pairwise sum is within 2e-15 of 1: the
        # check reads the sum, and the top bin guard absorbs the drift
        problem = SearchProblem(24, (5,))
        result, (a, b) = run_and_capture(problem, 3, monkeypatch)
        assert (result.iterations, result.success) == (3216, True)
        law = np.full(problem.N, abs(a) ** 2)
        law[5] = abs(b) ** 2
        assert abs(law.sum() - 1.0) <= statevec.NORM_TOL
        assert np.cumsum(law, out=law)[-1] - 1.0 > statevec.NORM_TOL

    @pytest.mark.parametrize("k", range(1, 19))
    def test_found_is_measure_all_on_the_filled_state(self, k, monkeypatch):
        # t <= 7 marked from offset 0 and from 2^15 - 1 (across the first
        # kernel block edge for k >= 16), and at k = 16 a set split over
        # both blocks; the variates sit on and just below the CDF entries
        # around the first and last marked index and the block edge
        n_items = 1 << k
        sets = [[(offset + i) % n_items for i in range(t)]
                for offset in (0, (1 << 15) - 1) for t in range(1, min(7, n_items - 1) + 1)]
        if k == 16:
            sets.append([0, (1 << 15) - 1, 1 << 15, n_items - 1])
        for marked in sets:
            problem = SearchProblem(k, marked)
            _, pair = run_and_capture(problem, 0, monkeypatch)
            state = filled(problem, *pair)
            cdf = np.cumsum(np.abs(state.amps) ** 2)
            edges = {int(problem.marked[0]), int(problem.marked[-1]), min(1 << 15, n_items) - 1}
            u = [0.0, np.nextafter(1.0, 0.0)]
            for i in sorted(edges):
                for v in (cdf[i - 1] if i else 0.0, cdf[i]):
                    u += [v, np.nextafter(v, 0.0)] if v < 1.0 else []
            with monkeypatch.context() as m:
                m.setattr(statevec, "make_rng", lambda seed: FixedVariates(u))
                expected = statevec.measure_all(state, 0, len(u))
                m.setattr(statevec, "make_rng", VariatesBySeed(u))
                found = [run_grover(problem, seed).found for seed in range(len(u))]
            assert found == expected, (k, marked)

    def test_search_holds_one_state(self):
        # the loop runs on two amplitudes and the outcome is drawn from a
        # law of 2^k floats, which becomes its own CDF; the complex state
        # or a second law-sized array would double the peak
        k = 18
        problem = SearchProblem(k, (5,))
        tracemalloc.start()
        try:
            run_grover(problem, rng_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (8 << k)


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


@pytest.mark.parametrize("n_items, iterations, message", [
    (4, -1, "iterations must be non-negative, got -1"),
    (1, 0, "need at least 2 items, got 1"),
], ids=["negative-iterations", "one-item"])
def test_analytic_recurrence_names_a_bad_input(n_items, iterations, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        analytic_recurrence(n_items, iterations)
