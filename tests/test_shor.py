import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qdesk import shor, statevec
from qdesk.cli import main
from qdesk.gates import Circuit, h_op
from qdesk.qft import QftSpec, build_qft_circuit
from qdesk.shor import (
    FAILURE_MINUS_ONE,
    FAILURE_ODD_R,
    FactoringInstance,
    continued_fraction_candidates,
    extract_factors,
    factor,
    first_register_distribution,
    is_trivial_case,
    multiplicative_order,
    order_finding_state,
    recover_order,
    run_order_finding_circuit,
)

from referees import (
    analytic_distribution,
    analytic_outcome_probability,
    apply_xor_oracle,
    expand_live_columns,
    extract_register,
    gate_by_gate_period_finding,
    marginal,
)


class TestNumberTheoryHelpers:
    def test_orders(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(14, 15) == 2
        assert multiplicative_order(2, 21) == 6
        assert multiplicative_order(4, 21) == 3

    def test_orbit_walk_refuses_a_non_invertible_residue(self):
        # 6 shares 3 with 15, so its powers never return to 1
        with pytest.raises(ValueError, match="not invertible"):
            shor._power_table(6, 15, 16)
        with pytest.raises(ValueError, match="not invertible"):
            multiplicative_order(6, 15)
        with pytest.raises(ValueError, match="at least 2"):
            multiplicative_order(3, 1)

    def test_power_table_tiles_the_orbit(self):
        assert shor._power_table(7, 15, 10).tolist() == [1, 7, 4, 13, 1, 7, 4, 13, 1, 7]
        assert shor._power_table(14, 15, 3).tolist() == [1, 14, 1]

    def test_classification(self):
        assert is_trivial_case(15) == "composite-ok"
        assert is_trivial_case(27) == "prime power"
        assert is_trivial_case(16) == "even"
        assert is_trivial_case(13) == "prime"
        assert is_trivial_case(35) == "composite-ok"
        assert is_trivial_case(121) == "prime power"

    def test_classification_against_factorisation(self):
        # referee: the multiset of prime factors, from a sieve of smallest factors
        limit = 5000
        smallest = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if smallest[p] == p:
                for m in range(p * p, limit + 1, p):
                    smallest[m] = min(smallest[m], p)
        for n in range(2, limit + 1):
            primes, rest = [], n
            while rest > 1:
                primes.append(smallest[rest])
                rest //= smallest[rest]
            if n % 2 == 0:
                expected = "even"
            elif len(primes) == 1:
                expected = "prime"
            elif len(set(primes)) == 1:
                expected = "prime power"
            else:
                expected = "composite-ok"
            assert is_trivial_case(n) == expected, n

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            FactoringInstance(21, 7)  # shares a factor
        with pytest.raises(ValueError):
            FactoringInstance(13, 2)  # prime
        with pytest.raises(ValueError):
            FactoringInstance(27, 2)  # prime power
        inst = FactoringInstance(15, 7)
        assert inst.L == 4 and inst.n_qubits == 12

    @pytest.mark.parametrize("n, x, r, b", [(15, 14, 2, 1), (15, 7, 4, 2), (21, 2, 6, 3),
                                            (33, 5, 10, 4)])
    def test_state_holds_2l_plus_b_qubits_and_the_check_counts_3l(self, n, x, r, b,
                                                                  monkeypatch):
        # b bits index the r values the powers take, padded to a power of
        # two and never fewer than 2; the capacity check counts the whole
        # 3L-qubit machine all the same, first and as the largest count
        inst = FactoringInstance(n, x)
        assert multiplicative_order(x, n) == r
        checked = []
        require = statevec.require_qubits
        monkeypatch.setattr(statevec, "require_qubits",
                            lambda count, what: checked.append(count) or require(count, what))
        state = order_finding_state(inst)
        assert checked[0] == max(checked) == 3 * inst.L
        assert state.n_qubits == 2 * inst.L + b


# every odd composite N < 128 with two distinct prime factors, x = 2..11
DUMP_CASES = [(n, x) for n in range(15, 128) if is_trivial_case(n) == "composite-ok"
              for x in range(2, 12) if math.gcd(n, x) == 1]


class TestCircuit:
    @pytest.mark.parametrize("n", sorted({n for n, _ in DUMP_CASES}))
    def test_dump_is_the_full_state_marginal_and_the_law(self, n):
        # each row is summed on its live and pad columns, where the full
        # register sums 2^L columns: the same mass, in another order.
        # Largest gaps measured with numpy 2.4 over all DUMP_CASES: 5.6e-17
        # to the full-state marginal (31% of the entries differ in the last
        # bits) and 6.0e-13 to the analytic law
        for x in [x for m, x in DUMP_CASES if m == n]:
            inst = FactoringInstance(n, x)
            q_total = 1 << (2 * inst.L)
            powers = shor._power_table(x, n, q_total)
            full = expand_live_columns(order_finding_state(inst), powers, inst.L)
            dist = first_register_distribution(inst)
            assert np.max(np.abs(dist - marginal(full, 2 * inst.L))) <= 1e-15, x
            law = analytic_distribution(inst).reshape(q_total, -1).sum(axis=1)
            assert np.max(np.abs(dist - law)) <= 1e-11, x

    def test_n253_dump_keeps_its_bytes(self, tmp_path, capsys):
        # seed 3 draws x = 204; the digest was recorded when each row was
        # summed with its zeros where the full register has them, and no
        # rounded entry of the 65,536 moved with the plain row sums
        dump = tmp_path / "d.json"
        argv = ["factor", "--n", "253", "--seed", "3", "--max-attempts", "1",
                "--dump-distribution", str(dump)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["result"]["x"] == 204
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
            "35c4e8425d3bea9249cdda1c7ba6e762d43651f8cc455da04359f51a60e67beb")

    def test_measured_distribution_n15_x7(self):
        # order 4 divides 2^8, so c concentrates exactly on multiples of 64
        dist = first_register_distribution(FactoringInstance(15, 7))
        support = np.flatnonzero(dist > 1e-12)
        assert support.tolist() == [0, 64, 128, 192]
        assert np.allclose(dist[support], 0.25, atol=1e-9)

    def test_measured_distribution_n15_x14(self):
        dist = first_register_distribution(FactoringInstance(15, 14))
        support = np.flatnonzero(dist > 1e-12)
        assert support.tolist() == [0, 128]
        assert np.allclose(dist[support], 0.5, atol=1e-9)

    @pytest.mark.parametrize("n,x", [(15, 7), (21, 2), (35, 3)])
    def test_hadamard_layer_load_equals_the_gate_by_gate_load(self, n, x):
        inst = FactoringInstance(n, x)
        state = statevec.init_basis(inst.n_qubits, 0)
        for w in range(1, 2 * inst.L + 1):
            state = statevec.apply_gate(state, h_op(w))
        powers = shor._power_table(x, n, 1 << (2 * inst.L))
        expected = apply_xor_oracle(state, powers, inst.L)
        # an empty transform leaves the loaded state
        loaded = statevec._period_finding(Circuit(2 * inst.L), powers, inst.L)
        assert np.array_equal(expand_live_columns(loaded, powers, inst.L).amps, expected.amps)

    def test_second_register_holds_orbit(self):
        # before the transform the value register carries exactly the powers
        inst = FactoringInstance(15, 7)
        powers = shor._power_table(7, 15, 1 << (2 * inst.L))
        state = statevec._period_finding(Circuit(2 * inst.L), powers, inst.L)
        probs = np.abs(expand_live_columns(state, powers, inst.L).amps) ** 2
        values = {
            extract_register(s, inst.n_qubits, 2 * inst.L + 1, inst.n_qubits)
            for s in np.flatnonzero(probs > 1e-15)
        }
        assert values == {1, 7, 4, 13}

    def test_measurement_seeded(self):
        inst = FactoringInstance(15, 7)
        c1 = run_order_finding_circuit(inst, rng_seed=11)
        c2 = run_order_finding_circuit(inst, rng_seed=11)
        assert c1 == c2 and c1 in (0, 64, 128, 192)

    def test_qubit_budget_refused(self):
        big = 3 * 257 * 5  # 3855, L = 12, would need 36 qubits
        inst = FactoringInstance(big, 2)
        # the whole message, so the machine's own "a basis state" check
        # cannot stand in for the named one
        with pytest.raises(statevec.CapacityError,
                           match=r"^factoring N=3855 needs 36 qubits \(cap 24\)$"):
            run_order_finding_circuit(inst, rng_seed=0)

    def test_attempt_cost_is_the_qft_once_on_the_live_columns(self, monkeypatch):
        # the state is loaded straight into the post-oracle state, which
        # keeps the r = 10 values the powers of 2 mod 33 take, padded to 16
        # columns, and the QFT runs once on all of it; never an H layer
        inst = FactoringInstance(33, 2)
        two_l = 2 * inst.L
        runs = []
        real_evolve = statevec._evolve

        def counting_evolve(amps, circuit):
            runs.append((amps.size.bit_length() - 1, [(op.name, op.wires) for op in circuit.ops]))
            return real_evolve(amps, circuit)

        monkeypatch.setattr(statevec, "_evolve", counting_evolve)
        order_finding_state(inst)
        qft_ops = [(op.name, op.wires) for op in build_qft_circuit(QftSpec(two_l)).ops]
        assert multiplicative_order(2, 33) == 10
        assert runs == [(two_l + 4, qft_ops)]

    @pytest.mark.parametrize("n", [n for n in range(15, 120)
                                   if is_trivial_case(n) == "composite-ok"])
    def test_draws_are_measure_all_outcomes_shifted(self, n):
        # the exponent register is the state's top 2L wires, for 20 seeds
        inst = FactoringInstance(n, 2)
        state = order_finding_state(inst)
        low_bits = state.n_qubits - 2 * inst.L
        expected = [statevec.measure_all(state, seed, 1)[0] >> low_bits for seed in range(20)]
        assert [run_order_finding_circuit(inst, seed) for seed in range(20)] == expected

    def test_measured_c_is_the_extracted_exponent_register(self):
        # the full 3L-qubit state, built gate by gate, measured on the same seeds
        inst = FactoringInstance(35, 3)
        two_l = 2 * inst.L
        powers = shor._power_table(3, 35, 1 << two_l)
        state = gate_by_gate_period_finding(build_qft_circuit(QftSpec(two_l)), powers, inst.L)
        for seed in range(20):
            outcome = statevec.measure_all(state, seed, 1)[0]
            expected = extract_register(outcome, inst.n_qubits, 1, 2 * inst.L)
            assert run_order_finding_circuit(inst, seed) == expected


class TestAnalyticLaw:
    def test_peak_value_n15_x7(self):
        inst = FactoringInstance(15, 7)
        # each of the 4 aligned-phasor outcomes carries 1/16 per orbit value
        assert analytic_outcome_probability(inst, 64, 0) == pytest.approx(1 / 16, abs=1e-12)
        total = sum(analytic_outcome_probability(inst, 64, a0) for a0 in range(4))
        assert total == pytest.approx(0.25, abs=1e-12)

    def test_aligned_phasors_maximal(self):
        inst = FactoringInstance(21, 2)  # r = 6 does not divide 2^10
        q_total = 1 << (2 * inst.L)
        aligned = analytic_outcome_probability(inst, 0, 0)
        off_peak = analytic_outcome_probability(inst, q_total // 2 + 3, 0)
        assert aligned > 100 * off_peak

    def test_completeness(self):
        for n, x in ((15, 7), (15, 14), (21, 2)):
            inst = FactoringInstance(n, x)
            assert analytic_distribution(inst).sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [15, 21])
    def test_closed_form_equals_the_direct_sum(self, n):
        # every coprime x, every (c, a0); rows of values off the orbit stay 0
        for x in range(2, n):
            if math.gcd(x, n) != 1:
                continue
            inst = FactoringInstance(n, x)
            q_total = 1 << (2 * inst.L)
            by_value = analytic_distribution(inst).reshape(q_total, 1 << inst.L)
            orbit = [pow(x, a0, n) for a0 in range(multiplicative_order(x, n))]
            direct = np.array([[analytic_outcome_probability(inst, c, a0)
                                for a0 in range(len(orbit))] for c in range(q_total)])
            assert np.max(np.abs(by_value[:, orbit] - direct)) <= 1e-12, x
            by_value[:, orbit] = 0.0
            assert not by_value.any(), x

    def test_joint_matches_simulation(self):
        inst = FactoringInstance(15, 7)
        powers = shor._power_table(7, 15, 1 << (2 * inst.L))
        simulated = np.abs(expand_live_columns(order_finding_state(inst), powers, inst.L).amps) ** 2
        assert np.max(np.abs(analytic_distribution(inst) - simulated)) < 1e-9

    def test_likely_outcomes_satisfy_peak_condition(self):
        # any c with noticeable mass lies within 2^-(L+1) of a d/r multiple
        for n, x in ((15, 7), (15, 2), (21, 2), (21, 5)):
            inst = FactoringInstance(n, x)
            r = multiplicative_order(x, n)
            q_total = 1 << (2 * inst.L)
            dist = first_register_distribution(inst)
            for c in np.flatnonzero(dist >= 1 / (4 * r)):
                d = round(int(c) * r / q_total)
                assert abs(int(c) / q_total - d / r) <= 2.0 ** -(inst.L + 1), (n, x, c)


class TestContinuedFractions:
    def test_includes_three_quarters(self):
        convs = continued_fraction_candidates(192, 256, 15)
        assert (3, 4) in convs

    def test_zero_gives_zero_convergent(self):
        assert continued_fraction_candidates(0, 256, 15) == [(0, 1)]

    def test_one_third_close_fraction(self):
        # 85/256 expands as [0; 3, 85], so 1/3 is its first nonzero convergent
        convs = continued_fraction_candidates(85, 256, 21)
        assert (1, 3) in convs

    def test_lowest_terms_and_denominator_bound(self, rng):
        for _ in range(100):
            q_total = 1 << 10
            c = int(rng.integers(0, q_total))
            n = int(rng.integers(3, 60))
            convs = continued_fraction_candidates(c, q_total, n)
            for p, q in convs:
                assert math.gcd(p, q) == 1
                assert 0 < q < n
            # denominators appear in non-decreasing order
            dens = [q for _, q in convs]
            assert dens == sorted(dens)

    def test_convergents_approximate(self):
        convs = continued_fraction_candidates(179, 1024, 50)
        errors = [abs(179 / 1024 - p / q) for p, q in convs]
        assert errors == sorted(errors, reverse=True)


class TestRecoverOrder:
    def test_peak_recovers_order(self):
        inst = FactoringInstance(15, 7)
        assert recover_order(inst, 192) == 4

    def test_zero_measurement_misses(self):
        assert recover_order(FactoringInstance(15, 7), 0) is None

    def test_off_peak_misses(self):
        assert recover_order(FactoringInstance(15, 7), 100) is None

    def test_shared_factor_peaks_widened(self):
        # peaks d/6 with gcd(d, 6) > 1 need the small-multiple widening
        inst = FactoringInstance(21, 2)
        for d in range(1, 6):
            c = round(1024 * d / 6)
            assert recover_order(inst, c) == 6, d

    @pytest.mark.parametrize("n, x", [(15, 7), (21, 2), (33, 5), (35, 3), (39, 2), (51, 2)])
    def test_every_outcome_against_the_stated_rule(self, n, x):
        # the rule, stated without the witness walk: the order comes back
        # exactly when some lam*q < N (lam <= LAMBDA_MAX, convergent p/q with
        # p != 0) is a multiple of it and c/Q lies within 2^-(L+1) of some
        # d/r with d >= 1; otherwise None
        inst = FactoringInstance(n, x)
        r = multiplicative_order(x, n)
        q_total = 1 << (2 * inst.L)
        half_width = Fraction(1, 2 << inst.L)
        for c in range(q_total):
            witnessed = any(
                lam * q < n and lam * q % r == 0
                for p, q in continued_fraction_candidates(c, q_total, n) if p
                for lam in range(1, shor.LAMBDA_MAX + 1)
            )
            in_window = any(
                d >= 1 and abs(Fraction(c, q_total) - Fraction(d, r)) <= half_width
                for d in (c * r // q_total, c * r // q_total + 1)
            )
            expected = r if witnessed and in_window else None
            assert recover_order(inst, c) == expected, c

    @pytest.mark.parametrize("n", [n for n in range(15, 64)
                                   if is_trivial_case(n) == "composite-ok"])
    def test_a_zero_nearest_multiple_returns_none(self, n):
        # d = 0 passes the peak test only for c <= 2^(L-1), and for those c
        # no convergent with p >= 1 has q < N: recover_order needs no d >= 1
        # clause, as no exponent is ever tried
        L = n.bit_length()
        q_total = 1 << (2 * L)
        for x in (x for x in range(1, n) if math.gcd(x, n) == 1):
            inst = FactoringInstance(n, x)
            r = multiplicative_order(x, n)
            for c in range(q_total):
                if (2 * c * r + q_total) // (2 * q_total) != 0:  # d, as recover_order rounds it
                    break
                assert recover_order(inst, c) is None, (x, c)
                if c <= 1 << (L - 1):
                    assert not any(p for p, _ in continued_fraction_candidates(c, q_total, n)), \
                        (x, c)

    def test_never_returns_unverified(self):
        inst = FactoringInstance(15, 7)
        for c in range(0, 256, 7):
            r = recover_order(inst, c)
            if r is not None:
                assert pow(7, r, 15) == 1


class TestExtractFactors:
    def test_splits_fifteen(self):
        assert extract_factors(15, 7, 4) == ((5, 3), None)

    def test_minus_one_failure(self):
        factors, failure = extract_factors(15, 14, 2)
        assert factors is None and failure == FAILURE_MINUS_ONE

    def test_odd_order_failure(self):
        factors, failure = extract_factors(21, 4, 3)
        assert factors is None and failure == FAILURE_ODD_R

    def test_splits_twentyone(self):
        assert extract_factors(21, 2, 6) == ((3, 7), None)

    def test_factors_divide(self):
        for n, x in ((15, 7), (21, 2), (33, 2), (35, 2)):
            r = multiplicative_order(x, n)
            factors, failure = extract_factors(n, x, r)
            if factors is not None:
                assert all(1 < f < n and n % f == 0 for f in factors)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="not the multiplicative order"):
            extract_factors(15, 7, 3)
        with pytest.raises(ValueError, match="not the multiplicative order"):
            extract_factors(15, 7, 8)  # multiple of the order is not the order
        with pytest.raises(ValueError, match="not the multiplicative order"):
            extract_factors(1, 0, 1)  # modulus below 2


class TestFactorPipeline:
    def test_factors_fifteen(self):
        report = factor(15, max_attempts=5, rng_seed=42)
        assert report.succeeded
        assert sorted(report.factors) == [3, 5]

    def test_factors_twentyone(self):
        report = factor(21, max_attempts=8, rng_seed=1)
        assert sorted(report.factors) == [3, 7]

    def test_factors_thirtythree(self):
        report = factor(33, max_attempts=8, rng_seed=2)
        assert sorted(report.factors) == [3, 11]

    def test_an_over_cap_n_is_refused_before_the_trial_division(self, monkeypatch):
        # trial division of a large N with no small factor would not finish
        monkeypatch.setattr(shor, "is_trivial_case", lambda n: pytest.fail("trial division ran"))
        n = (1 << 61) - 1  # a prime: its trial division runs up to 2^30.5
        with pytest.raises(statevec.CapacityError,
                           match=rf"^factoring N={n} needs 183 qubits \(cap 24\)$"):
            factor(n, max_attempts=1, rng_seed=0)

    def test_reports_carry_history(self):
        report = factor(15, max_attempts=8, rng_seed=7)
        assert len(report.attempts) >= 1
        for attempt in report.attempts:
            if attempt.factors is not None:
                f1, f2 = attempt.factors
                assert f1 * f2 == 15 or (15 % f1 == 0 and 15 % f2 == 0)
            if attempt.lucky_gcd:
                assert attempt.measured_c is None

    def test_lucky_gcd_paths_exist(self):
        # over many seeds some first draws share a factor with N
        lucky = 0
        for seed in range(40):
            report = factor(15, max_attempts=1, rng_seed=seed)
            if report.attempts[0].lucky_gcd:
                lucky += 1
                f1, f2 = report.attempts[0].factors
                assert {f1, f2} == {3, 5}
        assert lucky > 0

    def test_a_second_attempt_frees_the_first_state_before_building(self):
        # seed 9 runs the circuit for x = 14 and then for x = 28, both of
        # order 10, so both states keep 16 columns (16 qubits, 1 MB); two
        # attempts may peak no higher than the first one alone; an untraced
        # first run fills the caches that outlive a run.  After the run,
        # shor holds the last attempt's law of c (2^12 floats, 32 KB) and
        # no state
        factor(33, max_attempts=1, rng_seed=9)
        peaks, held, reports = [], [], []
        for max_attempts in (1, 2):
            shor._laws.clear()
            tracemalloc.start()
            try:
                reports.append(factor(33, max_attempts, rng_seed=9))
                held.append(tracemalloc.get_traced_memory()[0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [(a.x, a.measured_c is not None) for a in reports[1].attempts] == [(14, True), (28, True)]
        state_bytes = 16 << 16
        law_bytes = 8 << 12
        assert list(shor._laws) == [FactoringInstance(33, 28)]
        assert shor._laws[FactoringInstance(33, 28)].nbytes == law_bytes
        assert max(held) < law_bytes + state_bytes // 8
        assert peaks[1] < peaks[0] + state_bytes // 2

    def test_order_finding_state_holds_one_state(self):
        # load, oracle and transform run on one buffer of the r = 10 live
        # columns padded to 16 (16 qubits, 1 MB, where the full register
        # has 18): the peak is that state, the kernel's two 512 KB block
        # scratch arrays and small tables; a second array of its size, or
        # the full register, would exceed it
        inst = FactoringInstance(33, 5)
        tracemalloc.start()
        try:
            state = order_finding_state(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.n_qubits == 2 * inst.L + 4
        assert peak < state.amps.nbytes + 2 * (16 << 15) + (1 << 18)

    def test_21_qubit_state_holds_the_state_and_one_block(self):
        # the 21-qubit instance keeps its r = 48 live columns padded to 64
        # (20 qubits, 16 MB): the peak is that state, the kernel's two
        # 512 KB block scratch arrays and the circuit; the power table is
        # freed before the transform.  A first call fills the interpreter's
        # tuple free lists (about 180 KB that tracemalloc counts as live),
        # so the measured call is the second.
        inst = FactoringInstance(119, 3)
        order_finding_state(inst)
        tracemalloc.start()
        try:
            state = order_finding_state(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.n_qubits == 2 * inst.L + 6
        assert peak < state.amps.nbytes + 2 * (16 << 15) + (1 << 18)

    def test_trivial_inputs_rejected(self):
        for bad in (16, 13, 27):
            with pytest.raises(ValueError):
                factor(bad, max_attempts=2, rng_seed=0)

    def test_success_fraction_of_residues(self):
        # fraction of coprime residues with even order and a usable square
        # root must be at least one half (measured exhaustively for N=15)
        n = 15
        good = 0
        coprime = [x for x in range(1, n) if math.gcd(x, n) == 1]
        for x in coprime:
            r = multiplicative_order(x, n)
            if r % 2 == 0 and pow(x, r // 2, n) != n - 1:
                good += 1
        assert good / len(coprime) >= 0.5


@pytest.mark.parametrize("call, message", [
    (lambda: is_trivial_case(1), "N must be at least 2, got 1"),
    (lambda: FactoringInstance(15, 0), r"x=0 out of range \[1, 15\)"),
    (lambda: FactoringInstance(15, 15), r"x=15 out of range \[1, 15\)"),
    (lambda: continued_fraction_candidates(-1, 256, 15), r"c=-1 out of range \[0, 256\)"),
    (lambda: continued_fraction_candidates(256, 256, 15), r"c=256 out of range \[0, 256\)"),
], ids=["N-below-2", "x-zero", "x-is-N", "c-below-0", "c-is-2^2L"])
def test_out_of_range_inputs_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
