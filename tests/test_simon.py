import tracemalloc

import numpy as np
import pytest

from qdesk import simon, statevec
from qdesk.simon import (
    BASELINE_MAX_TRIALS,
    BaselineResult,
    baseline_queries,
    classical_query_baseline,
    gf2_rank,
    make_oracle,
    recover_shift,
    run_simon,
    sampling_state,
)

from referees import VariatesBySeed, dot_mod2, extract_register, marginal, simon_sample


class TestMakeOracle:
    def test_two_bit_pairing(self):
        oracle = make_oracle(2, 0b11, rng_seed=5)
        f = oracle.f
        assert f(0b00) == f(0b11)
        assert f(0b01) == f(0b10)
        assert f(0b00) != f(0b01)

    def test_image_size_is_half(self):
        for n, c in ((3, 0b101), (5, 0b10010)):
            oracle = make_oracle(n, c, rng_seed=n)
            assert len(set(oracle.table.tolist())) == 1 << (n - 1)

    def test_shift_property_everywhere(self):
        oracle = make_oracle(6, 0b011011, rng_seed=1)
        for x in range(64):
            assert oracle.f(x) == oracle.f(x ^ 0b011011)

    def test_distinct_inputs_in_different_cosets_differ(self):
        oracle = make_oracle(4, 0b1001, rng_seed=2)
        for x in range(16):
            for y in range(16):
                same = oracle.f(x) == oracle.f(y)
                assert same == (y in (x, x ^ 0b1001))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_table_equals_the_coset_loop(self, n):
        # the loop numbers each coset {x, x ^ c} at its first member
        for c in sorted(c for c in {1, (1 << n) - 1, (1 << (n - 1)) + 1} if c < 1 << n):
            for seed in (0, 7, 12345):
                outputs = statevec.make_rng(seed).permutation(1 << n)[: 1 << (n - 1)]
                expected = np.full(1 << n, -1, dtype=np.int64)
                coset = 0
                for x in range(1 << n):
                    if expected[x] < 0:
                        expected[x] = expected[x ^ c] = outputs[coset]
                        coset += 1
                table = make_oracle(n, c, rng_seed=seed).table
                assert table.dtype == np.int64
                assert np.array_equal(table, expected), (n, c, seed)

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            make_oracle(3, 0, rng_seed=0)

    def test_shift_must_fit(self):
        with pytest.raises(ValueError):
            make_oracle(3, 8, rng_seed=0)


class TestSampling:
    def test_two_bit_distribution(self):
        # amplitudes interfere so only y with y.c = 0 survive, equally
        oracle = make_oracle(2, 0b11, rng_seed=3)
        dist = marginal(sampling_state(oracle), oracle.n)
        assert np.allclose(dist, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_joint_outcome_probability(self):
        # each surviving (y, value) pair carries exactly 2^-(2n-2)
        n, c = 3, 0b110
        oracle = make_oracle(n, c, rng_seed=9)
        probs = np.abs(sampling_state(oracle).amps) ** 2
        nonzero = probs[probs > 1e-15]
        assert np.allclose(nonzero, 2.0 ** -(2 * n - 2), atol=1e-12)

    def test_samples_orthogonal_to_shift(self):
        for seed in range(20):
            oracle = make_oracle(4, 0b1010, rng_seed=7)
            y = simon_sample(oracle, rng_seed=seed)
            assert dot_mod2(y, 0b1010) == 0

    def test_sample_is_the_extracted_input_register(self):
        # the state keeps 2^4 of the 2^5 output values; simon_sample
        # measures the full 10-qubit state, built gate by gate
        oracle = make_oracle(5, 0b10110, rng_seed=3)
        state = sampling_state(oracle)
        assert state.n_qubits == 9
        for seed in range(20):
            outcome = statevec.measure_all(state, seed, 1)[0]
            assert simon_sample(oracle, seed) == extract_register(outcome, 9, 1, 5)

    def test_single_bit_always_zero(self):
        oracle = make_oracle(1, 1, rng_seed=0)
        assert all(simon_sample(oracle, seed) == 0 for seed in range(5))

    def test_distribution_uniform_on_orthogonal_space(self):
        for n in (2, 3, 4):
            for c in (1, (1 << n) - 1):
                oracle = make_oracle(n, c, rng_seed=c + n)
                dist = marginal(sampling_state(oracle), oracle.n)
                for y in range(1 << n):
                    expected = 2.0 ** -(n - 1) if dot_mod2(y, c) == 0 else 0.0
                    assert abs(dist[y] - expected) < 1e-10


    def test_sampling_law_holds_at_22_qubits(self):
        # the GF(2) sampling law as referee for the blocked gate kernel: the
        # 22-qubit machine keeps 2^10 output values, so 21 qubits run 64
        # column blocks per gate
        n, c = 11, 0b10110011101
        dist = marginal(sampling_state(make_oracle(n, c, rng_seed=11)), n)
        orthogonal = [dot_mod2(y, c) == 0 for y in range(1 << n)]
        expected = np.where(orthogonal, 2.0 ** -(n - 1), 0.0)
        assert np.max(np.abs(dist - expected)) < 1e-12


class TestRecoverShift:
    def test_three_bit_example(self):
        assert recover_shift([0b110, 0b011], 3) == 0b111

    def test_zero_row_carries_nothing(self):
        assert recover_shift([0b00], 2) is None

    def test_single_informative_row(self):
        assert recover_shift([0b01], 2) == 0b10

    def test_full_rank_is_inconsistent(self):
        with pytest.raises(ValueError, match="full space"):
            recover_shift([0b10, 0b01], 2)

    def test_solution_orthogonal_to_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            c = int(rng.integers(1, 1 << n))
            rows = []
            # build random vectors orthogonal to c
            while gf2_rank(rows) < n - 1:
                y = int(rng.integers(0, 1 << n))
                y ^= (dot_mod2(y, c)) << (c.bit_length() - 1)  # clear the parity
                if dot_mod2(y, c) == 0:
                    rows.append(y)
            assert recover_shift(rows, n) == c

    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="wider"):
            recover_shift([0b1000], 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_and_shift_match_enumeration(self, n, rng):
        # raw sample lists, zeros and repeats included, drawn either from
        # all of F_2^n or from the rows orthogonal to a random shift
        outcomes = set()
        for _ in range(200):
            c = int(rng.integers(1, 1 << n))
            orthogonal = rng.random() < 0.5
            pool = [y for y in range(1 << n) if not orthogonal or dot_mod2(y, c) == 0]
            rows = [int(y) for y in rng.choice(pool, size=int(rng.integers(0, 2 * n + 2)))]
            span = {0}
            for row in rows:
                span |= {s ^ row for s in span}
            assert 1 << gf2_rank(rows) == len(span)
            shifts = [x for x in range(1, 1 << n) if all(dot_mod2(x, r) == 0 for r in rows)]
            if not shifts:
                with pytest.raises(ValueError, match="full space"):
                    recover_shift(rows, n)
            else:
                assert recover_shift(rows, n) == (shifts[0] if len(shifts) == 1 else None)
            outcomes.add(min(len(shifts), 2))
        assert outcomes == ({0, 1} if n == 1 else {0, 1, 2})


class TestRunSimon:
    def test_recovers_small_shift(self):
        oracle = make_oracle(2, 0b11, rng_seed=4)
        result = run_simon(oracle, max_rounds=20, rng_seed=8)
        assert result.c == 0b11 and result.succeeded

    def test_round_economy(self):
        # expected rounds stay close to n
        rounds = []
        for seed in range(100):
            oracle = make_oracle(4, 0b1011, rng_seed=6)
            rounds.append(run_simon(oracle, max_rounds=16, rng_seed=seed).rounds)
        assert sum(rounds) / len(rounds) <= 4 + 2

    def test_single_bit_immediate(self):
        oracle = make_oracle(1, 1, rng_seed=0)
        result = run_simon(oracle, max_rounds=4, rng_seed=0)
        assert result.c == 1 and result.rounds == 0

    def test_every_shift_recovered(self):
        for n in (2, 3, 4):
            for c in range(1, 1 << n):
                oracle = make_oracle(n, c, rng_seed=c)
                result = run_simon(oracle, max_rounds=4 * n, rng_seed=c * 31 + n)
                assert result.c == c, (n, c)

    def test_max_rounds_must_cover_n(self):
        oracle = make_oracle(3, 0b100, rng_seed=0)
        with pytest.raises(ValueError):
            run_simon(oracle, max_rounds=2, rng_seed=0)

    def test_failure_reported_not_raised(self):
        # max_rounds = n can fail by bad luck; failures carry c = None
        results = [
            run_simon(make_oracle(3, 0b101, rng_seed=1), max_rounds=3, rng_seed=s)
            for s in range(40)
        ]
        assert any(r.succeeded for r in results)
        for r in results:
            if not r.succeeded:
                assert r.c is None and r.rounds == 3


class TestClassicalBaseline:
    def test_pigeonhole_bound_two_bits(self):
        # two cosets force a collision within three distinct queries
        for seed in range(30):
            oracle = make_oracle(2, 0b10, rng_seed=3)
            result = classical_query_baseline(oracle, rng_seed=seed)
            assert result.queries <= 3
            assert result.c == 0b10

    def test_birthday_growth(self):
        oracle = make_oracle(6, 0b100101, rng_seed=5)
        counts = [
            classical_query_baseline(oracle, rng_seed=s).queries for s in range(200)
        ]
        median = sorted(counts)[100]
        assert median >= 2 ** (6 // 2 - 1)

    def test_collision_yields_true_shift(self):
        for seed in range(20):
            oracle = make_oracle(5, 0b10110, rng_seed=9)
            result = classical_query_baseline(oracle, rng_seed=seed)
            assert oracle.f(0) == oracle.f(result.c)
            assert result.c == 0b10110

    def test_size_cap(self):
        with pytest.raises(ValueError):
            classical_query_baseline(make_oracle(9, 1, 0), rng_seed=0)


_N_RANGE = "n must lie in [1, 8] for the baseline, got {}"


class TestBaselineQueries:
    @pytest.mark.parametrize("n, trials, message", [
        (0, 3, _N_RANGE.format(0)),
        (9, 3, _N_RANGE.format(9)),
        (-1, 0, _N_RANGE.format(-1)),  # n before trials
        (9, BASELINE_MAX_TRIALS + 1, _N_RANGE.format(9)),
        (3, 0, "trials must be positive, got 0"),
        (3, -5, "trials must be positive, got -5"),
        (3, BASELINE_MAX_TRIALS + 1, f"trials={BASELINE_MAX_TRIALS + 1} is over the cap of "
                                     f"{BASELINE_MAX_TRIALS}"),
    ])
    def test_out_of_range_is_refused_before_any_oracle(self, n, trials, message, monkeypatch):
        monkeypatch.setattr(simon, "make_oracle", lambda *args: pytest.fail("an oracle was built"))
        with pytest.raises(ValueError) as refused:
            baseline_queries(n, trials, rng_seed=1)
        assert str(refused.value) == message

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_trials_follow_their_seed_paths(self, n):
        seed = 11
        shifts = statevec.make_rng(statevec.derive_seed(seed, 0))
        expected = []
        for i in range(6):
            oracle = make_oracle(n, int(shifts.integers(1, 1 << n)),
                                 statevec.derive_seed(seed, i, 1))
            expected.append(
                classical_query_baseline(oracle, statevec.derive_seed(seed, i, 2)).queries)
        assert baseline_queries(n, 6, rng_seed=seed) == expected

    def test_a_bad_shift_fails_the_spot_check_as_in_run_simon(self, monkeypatch):
        message = "recovered shift fails the oracle spot check f(0) = f(c)"
        oracle = make_oracle(3, 0b101, rng_seed=2)
        monkeypatch.setattr(simon, "recover_shift", lambda rows, n: 0b011)
        with pytest.raises(ValueError) as in_run_simon:
            run_simon(oracle, max_rounds=12, rng_seed=0)

        def miss(oracle, rng_seed):
            # a shift neither 0 nor the oracle's own
            return BaselineResult(2, next(x for x in range(1, 1 << oracle.n)
                                          if oracle.f(x) != oracle.f(0)))

        monkeypatch.setattr(simon, "classical_query_baseline", miss)
        with pytest.raises(ValueError) as in_baseline:
            baseline_queries(3, 4, rng_seed=0)
        assert str(in_run_simon.value) == str(in_baseline.value) == message


class TestCostAccounting:
    def test_state_norm_and_size(self):
        oracle = make_oracle(3, 0b010, rng_seed=2)
        state = sampling_state(oracle)
        assert state.n_qubits == 5  # the 3 input wires and the 4 values f takes
        assert abs(np.vdot(state.amps, state.amps).real - 1) < 1e-10

    def test_sampling_state_holds_one_state(self):
        # the load and H^n run on one buffer of the 2^(n-1) values f takes
        # (17 qubits, 2 MB, where the full register has 18): the peak is
        # that state, the kernel's two 512 KB block scratch arrays (a
        # quarter of it) and small tables
        n = 9
        oracle = make_oracle(n, 0b101100111, rng_seed=3)
        nbytes = 16 << (2 * n - 1)
        tracemalloc.start()
        try:
            sampling_state(oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes + 2 * (16 << 15) + nbytes // 8

    def test_round_cost_is_the_h_layer_once_on_the_live_columns(self, monkeypatch):
        # the state is loaded straight into the post-oracle state, which
        # keeps the 2^7 values a 2-to-1 f takes, and H^n runs once on all
        # of it; the H layer on the input never runs
        n = 8
        oracle = make_oracle(n, 0b11000101, rng_seed=1)
        runs = []
        real_evolve = statevec._evolve

        def counting_evolve(amps, circuit):
            runs.append((amps.size.bit_length() - 1, [op.name for op in circuit.ops]))
            return real_evolve(amps, circuit)

        monkeypatch.setattr(statevec, "_evolve", counting_evolve)
        run_simon(oracle, max_rounds=4 * n, rng_seed=0)
        assert runs == [(n + 7, ["H"] * n)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_input_draws_are_the_rows_measure_all_draws(self, n, monkeypatch):
        # 8 oracles and 50 variates each: the row drawn from the input
        # register's law is the outcome of measure_all on the same
        # variate, >> n
        for c in range(1, 9):
            c = c % (1 << n) or 1
            state = sampling_state(make_oracle(n, c, rng_seed=100 * n + c))
            low_bits = state.n_qubits - n
            u = statevec.make_rng(c).random(50)
            expected = [outcome >> low_bits for outcome in statevec.measure_all(state, c, 50)]
            with monkeypatch.context() as m:
                m.setattr(statevec, "make_rng", VariatesBySeed(u))
                law = statevec._input_marginal(state, n)
                assert list(statevec._draws(law, range(50))) == expected

    def test_run_reads_the_state_once(self, monkeypatch):
        # the rounds draw from the input register's law; the state's
        # probabilities are read in one pass however many rounds run
        passes = []
        real_blocks = statevec.probability_blocks

        def counting_blocks(state):
            passes.append(state.n_qubits)
            return real_blocks(state)

        monkeypatch.setattr(statevec, "probability_blocks", counting_blocks)
        result = run_simon(make_oracle(8, 0b10110011, rng_seed=4), max_rounds=32, rng_seed=5)
        assert result.succeeded and result.rounds >= 8
        assert passes == [15]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_run_builds_one_sampling_state_and_matches_per_round_samples(
        self, n, monkeypatch
    ):
        import qdesk.simon as simon_mod

        builds = []
        real_build = simon_mod.sampling_state

        def counting_build(oracle):
            builds.append(oracle)
            return real_build(oracle)

        for c in sorted({1, (1 << n) - 1, 1 << (n - 1), 0b101 % (1 << n) or 1}):
            for seed in (0, 7, 12345):
                oracle = make_oracle(n, c, rng_seed=seed + c)
                builds.clear()
                with monkeypatch.context() as m:
                    m.setattr(simon_mod, "sampling_state", counting_build)
                    result = run_simon(oracle, max_rounds=4 * n, rng_seed=seed)
                assert builds == [oracle]
                assert list(result.samples) == [
                    simon_sample(oracle, statevec.derive_seed(seed, i))
                    for i in range(result.rounds)
                ]
