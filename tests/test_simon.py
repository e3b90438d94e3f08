import tracemalloc

import numpy as np
import pytest

from qdesk import statevec
from qdesk.simon import (
    classical_query_baseline,
    gf2_rank,
    make_oracle,
    recover_shift,
    run_simon,
    sampling_state,
)

from referees import dot_mod2, extract_register, simon_sample


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
        dist = statevec.marginal(sampling_state(oracle), oracle.n)
        assert np.allclose(dist, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_joint_outcome_probability(self):
        # each surviving (y, value) pair carries exactly 2^-(2n-2)
        n, c = 3, 0b110
        oracle = make_oracle(n, c, rng_seed=9)
        probs = statevec.distribution(sampling_state(oracle))
        nonzero = probs[probs > 1e-15]
        assert np.allclose(nonzero, 2.0 ** -(2 * n - 2), atol=1e-12)

    def test_samples_orthogonal_to_shift(self):
        for seed in range(20):
            oracle = make_oracle(4, 0b1010, rng_seed=7)
            y = simon_sample(oracle, rng_seed=seed)
            assert dot_mod2(y, 0b1010) == 0

    def test_sample_is_the_extracted_input_register(self):
        oracle = make_oracle(5, 0b10110, rng_seed=3)
        state = sampling_state(oracle)
        for seed in range(20):
            outcome = statevec.measure_all(state, seed, 1)[0]
            assert simon_sample(oracle, seed) == extract_register(outcome, 10, 1, 5)

    def test_single_bit_always_zero(self):
        oracle = make_oracle(1, 1, rng_seed=0)
        assert all(simon_sample(oracle, seed) == 0 for seed in range(5))

    def test_distribution_uniform_on_orthogonal_space(self):
        for n in (2, 3, 4):
            for c in (1, (1 << n) - 1):
                oracle = make_oracle(n, c, rng_seed=c + n)
                dist = statevec.marginal(sampling_state(oracle), oracle.n)
                for y in range(1 << n):
                    expected = 2.0 ** -(n - 1) if dot_mod2(y, c) == 0 else 0.0
                    assert abs(dist[y] - expected) < 1e-10


    def test_sampling_law_holds_at_22_qubits(self):
        # the GF(2) sampling law as referee for the blocked gate kernel:
        # 2n = 22 qubits run 64 column blocks per gate
        n, c = 11, 0b10110011101
        dist = statevec.marginal(sampling_state(make_oracle(n, c, rng_seed=11)), n)
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


class TestCostAccounting:
    def test_state_norm_and_size(self):
        oracle = make_oracle(3, 0b010, rng_seed=2)
        state = sampling_state(oracle)
        assert state.n_qubits == 6
        assert abs(np.vdot(state.amps, state.amps).real - 1) < 1e-10

    def test_sampling_state_holds_one_state(self):
        # both Hadamard layers and the oracle run on one buffer: the peak
        # is that state, the kernel's two 512 KB block scratch arrays (a
        # quarter of this 18-qubit state) and the oracle's index chunk
        n = 9
        oracle = make_oracle(n, 0b101100111, rng_seed=3)
        nbytes = 16 << (2 * n)
        tracemalloc.start()
        try:
            sampling_state(oracle)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nbytes + 2 * (16 << 15) + nbytes // 8

    def test_round_cost_is_the_h_layer_once_per_block_of_live_columns(self, monkeypatch):
        # the state is loaded straight into the post-oracle state, and H^n
        # runs on the output register's live columns only: 2^8-amplitude
        # columns, 64 to a 2^14-amplitude block, and 2^7 live columns for a
        # 2-to-1 f, so 2 blocks; the H layer on the input never runs
        n = 8
        oracle = make_oracle(n, 0b11000101, rng_seed=1)
        runs = []
        machine = statevec._Machine
        real_run = machine.run

        def counting_run(self, circuit):
            runs.append((self.n_qubits, [op.name for op in circuit.ops]))
            return real_run(self, circuit)

        monkeypatch.setattr(machine, "run", counting_run)
        simon_sample(oracle, rng_seed=0)
        width = (1 << 14) >> n
        blocks = -(-(1 << (n - 1)) // width)
        assert (width, blocks) == (64, 2)
        assert runs == [(14, ["H"] * n)] * blocks

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
