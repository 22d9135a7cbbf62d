import numpy as np
import pytest
from scipy.special import betaincinv

from demoforge import bandit
from demoforge.bandit import (
    AddDecision,
    Arm,
    BanditState,
    GoalReached,
    NoArms,
    PriorFit,
    decide_new_arm,
    estimate_horizon,
    estimate_p_add,
    estimate_rollout_value,
    evaluate_add_decision,
    fit_arm_prior,
    record_outcome,
    thompson_select,
)

from oracles import beta_loglik, beta_mle_grid, decide_oracle, simulate_thompson_passes


class TestThompsonSelect:
    def test_single_arm_always_zero(self):
        st = BanditState(arms=[Arm("a", 3, 2)])
        rng = np.random.default_rng(0)
        assert all(thompson_select(st, rng) == 0 for _ in range(100))

    def test_dominant_arm_wins(self):
        st = BanditState(arms=[Arm("good", 99, 1), Arm("bad", 1, 99)])
        rng = np.random.default_rng(1)
        picks = sum(thompson_select(st, rng) == 0 for _ in range(10_000))
        assert picks >= 9_900

    def test_symmetric_arms_split_evenly(self):
        st = BanditState(arms=[Arm("a"), Arm("b")])
        rng = np.random.default_rng(2)
        picks = sum(thompson_select(st, rng) == 0 for _ in range(10_000))
        assert 4_800 <= picks <= 5_200

    def test_no_arms(self):
        with pytest.raises(NoArms):
            thompson_select(BanditState(), np.random.default_rng(0))


class TestRecordOutcome:
    def test_success_updates_posterior(self):
        st = BanditState(arms=[Arm("a")])
        record_outcome(st, 0, True)
        assert (st.arms[0].n_suc, st.arms[0].n_fail) == (1, 0)  # Beta(2,1)

    def test_failure(self):
        st = BanditState(arms=[Arm("a")])
        record_outcome(st, 0, False)
        assert (st.arms[0].n_suc, st.arms[0].n_fail) == (0, 1)  # Beta(1,2)

    def test_counting(self):
        st = BanditState(arms=[Arm("a")])
        record_outcome(st, 0, True)
        record_outcome(st, 0, True)
        record_outcome(st, 0, False)
        assert (st.arms[0].n_suc, st.arms[0].n_fail) == (2, 1)  # Beta(3,2)


class TestFitArmPrior:
    def test_uniform_arm_recovers_flat_beta(self):
        fit = fit_arm_prior([Arm("a", 0, 0)], m=1000, rng=5)
        assert 0.85 <= fit.alpha_hat <= 1.15
        assert 0.85 <= fit.beta_hat <= 1.15
        # grid-search oracle on the same pooled sample must not beat the fit
        pooled = np.clip(np.random.default_rng(5).beta(1, 1, size=1000), 1e-6, 1 - 1e-6)
        _, _, oracle_ll = beta_mle_grid(pooled)
        assert beta_loglik(fit.alpha_hat, fit.beta_hat, pooled) >= oracle_ll - 1e-3

    def test_peaked_arm_mean(self):
        fit = fit_arm_prior([Arm("a", 49, 49)], m=1000, rng=7)  # Beta(50,50)
        assert 0.45 <= fit.alpha_hat / (fit.alpha_hat + fit.beta_hat) <= 0.55

    def test_bimodal_arms_force_u_shape(self):
        fit = fit_arm_prior([Arm("hi", 49, 1), Arm("lo", 1, 49)], m=1000, rng=11)
        assert fit.alpha_hat < 1.5
        assert fit.beta_hat < 1.5
        pooled_rng = np.random.default_rng(11)
        pooled = np.concatenate([pooled_rng.beta(50, 2, 1000), pooled_rng.beta(2, 50, 1000)])
        pooled = np.clip(pooled, 1e-6, 1 - 1e-6)
        a_star, b_star, oracle_ll = beta_mle_grid(pooled)
        assert a_star < 1.5 and b_star < 1.5
        assert beta_loglik(fit.alpha_hat, fit.beta_hat, pooled) >= oracle_ll - 1e-3

    def test_loglik_beats_flat_prior(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            arms = [Arm(f"a{i}", int(rng.integers(0, 30)), int(rng.integers(0, 30))) for i in range(3)]
            fit = fit_arm_prior(arms, m=500, rng=seed)
            assert fit.alpha_hat > 0 and fit.beta_hat > 0
            pooled_rng = np.random.default_rng(seed)
            pooled = np.concatenate([pooled_rng.beta(a.n_suc + 1, a.n_fail + 1, 500) for a in arms])
            pooled = np.clip(pooled, 1e-6, 1 - 1e-6)
            assert beta_loglik(fit.alpha_hat, fit.beta_hat, pooled) >= beta_loglik(1.0, 1.0, pooled)

    def test_no_arms(self):
        with pytest.raises(NoArms):
            fit_arm_prior([], rng=0)


class TestEstimateRolloutValue:
    def test_zero_horizon(self):
        assert estimate_rollout_value(np.full((10, 1), 0.5), [(0, 0)], 0, 0) == 0.0

    def test_certain_success(self):
        assert estimate_rollout_value(np.full((1000, 1), 1.0), [(0, 0)], 10, 0) == 10.0

    def test_fair_coin_mean(self):
        v = estimate_rollout_value(np.full((1000, 1), 0.5), [(0, 0)], 100, 12345)
        assert abs(v - 50.0) <= 1.5  # 3 standard errors at k=1000

    def test_deterministic_given_seed(self):
        sets = np.random.default_rng(3).uniform(0.1, 0.9, size=(50, 3))
        arms = [(1, 1), (0, 2), (3, 0)]
        assert estimate_rollout_value(sets, arms, 20, 777) == estimate_rollout_value(sets, arms, 20, 777)

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sets = rng.uniform(0.05, 0.95, size=(100, 2))
            arms = [(1, 1), (2, 0)]
            seed = int(rng.integers(2**32))
            values = [estimate_rollout_value(sets, arms, T, seed) for T in (5, 15, 40)]
            assert values[0] <= values[1] <= values[2]

    def test_monotone_in_probability_shared_seed(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            sets = rng.uniform(0.05, 0.9, size=(100, n))
            arms = [(int(rng.integers(0, 3)), int(rng.integers(0, 3))) for _ in range(n)]
            seed = int(rng.integers(2**32))
            base = estimate_rollout_value(sets, arms, 25, seed)
            j = int(rng.integers(n))
            raised = sets.copy()
            raised[:, j] = np.minimum(1.0, raised[:, j] + 0.05)
            assert estimate_rollout_value(raised, arms, 25, seed) >= base

    def test_matches_loop_oracle(self):
        from oracles import simulate_thompson_total

        sets = np.random.default_rng(23).uniform(0.1, 0.9, size=(30, 2))
        arms = [(2, 1), (0, 0)]
        got = estimate_rollout_value(sets, arms, 12, 4242)
        want = simulate_thompson_total(sets, arms, 12, 4242)
        assert got == pytest.approx(want, abs=1e-12)


    @pytest.mark.parametrize(
        "sets, arms",
        [
            (np.full((4, 1), 7.0), [(0, 0)]),
            (np.full((4, 1), -0.1), [(0, 0)]),
            (np.full((4, 1), np.nan), [(0, 0)]),
            (np.full((4, 1), np.inf), [(0, 0)]),
            (np.full((4, 1), 0.5), [(-3, 0)]),
            (np.full((4, 2), 0.5), [(1, 1), (0, np.inf)]),
            (np.full((4, 2), 0.5), [(1, 1), (np.nan, 0)]),
        ],
    )
    def test_invalid_input_raises(self, sets, arms):
        # probabilities outside [0, 1] or counts that are negative or not
        # finite used to come back as numbers (7.0 gave 10.0, NaN 0.0)
        for T in (0, 10):
            with pytest.raises(ValueError):
                estimate_rollout_value(sets, arms, T, 0)


class SameDraws(np.random.Generator):
    """A generator whose every beta call returns the same draws, so each arm's
    ground-truth column, and the new arm's, are equal."""

    def beta(self, a, b, size=None):
        return np.random.default_rng(0).beta(2.0, 3.0, size)


def oracle_values(d: AddDecision, counts, T):
    """(e_stay, e_keep, e_with_new) from the simulator that inverts every draw."""
    e_keep, e_stay = simulate_thompson_passes(d.probability_sets, counts, T, d.eval_seed)
    augmented = np.column_stack([d.probability_sets, d.p_new])
    return e_stay, e_keep, simulate_thompson_passes(augmented, counts + [(1, 0)], T - 1, d.eval_seed)[1]


class FixedUniforms:
    """Stands in for a generator: hands out one crafted uniform block."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


ULP_HALF = np.nextafter(0.5, 1.0)
BELOW_ONE = np.nextafter(1.0, 0.0)


class TestCertifiedArgmax:
    def test_fuzz_matches_inverting_simulator_bitwise(self):
        # n = 1-6 arms, T = 1-60, equal counts and equal probability columns
        rng = np.random.default_rng(1616)
        for trial in range(120):
            n = 1 + trial % 6
            T = (1, 60)[trial % 2] if trial < 12 else int(rng.integers(1, 61))
            if trial % 3 == 0:
                counts = [(int(rng.integers(0, 12)), int(rng.integers(0, 12)))] * n
            else:
                counts = [(int(rng.integers(0, 30)), int(rng.integers(0, 30))) for _ in range(n)]
            st = BanditState(arms=[Arm(str(i), s, f) for i, (s, f) in enumerate(counts)])
            prior = PriorFit(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)), 1000)
            seed = int(rng.integers(2**32))
            gen = SameDraws(np.random.PCG64(seed)) if trial % 4 == 1 else np.random.default_rng(seed)
            d = evaluate_add_decision(st, T, prior, k=50, rng=gen)
            if trial % 4 == 1:
                assert np.all(d.probability_sets == d.p_new[:, None])
            assert (d.e_stay, d.e_keep, d.e_with_new) == oracle_values(d, counts, T), (trial, n, T, counts)

    @pytest.mark.parametrize(
        "a, b, u",
        [
            ([3, 3, 3], [5, 5, 5], [0.4, 0.4, 0.4]),  # exact three-way tie
            ([2, 4, 4], [3, 6, 6], [0.3, 0.7, 0.7]),  # tie between the last two
            ([7, 7], [2, 2], [0.5, ULP_HALF]),  # u one ulp apart
            ([7, 7], [2, 2], [ULP_HALF, 0.5]),
            ([1, 1, 1], [1, 1, 1], [0.5, ULP_HALF, 0.25]),  # uniform posteriors, u is the quantile
            ([4, 9], [6, 3], [0.0, 0.0]),  # u = 0 gives quantile 0 for every arm
            ([4, 9], [6, 3], [0.0, 0.2]),
            ([4, 9], [6, 3], [BELOW_ONE, BELOW_ONE]),
            ([1, 30], [30, 1], [BELOW_ONE, 0.5]),
            ([1, 5, 2], [4, 1, 1], [0.9, 0.6, 0.8]),  # a = 1 and b = 1 closed forms
            ([1, 1], [3, 3], [0.7, np.nextafter(0.7, 0.0)]),
            ([6, 6], [1, 1], [np.nextafter(0.3, 1.0), 0.3]),
        ],
    )
    def test_crafted_rows_match_betaincinv_argmax(self, a, b, u):
        a, b, u = (np.asarray(v, dtype=float) for v in (a, b, u))
        want = int(np.argmax(betaincinv(a, b, u)))
        got = bandit._posterior_argmax(a[:, None], b[:, None], FixedUniforms(u[None, :]))
        assert got.tolist() == [want]

    def test_crafted_block_matches_row_by_row(self):
        # the same rows side by side: one call, one column each
        rng = np.random.default_rng(77)
        a = rng.integers(1, 6, size=(300, 4)).astype(float)
        b = rng.integers(1, 6, size=(300, 4)).astype(float)
        u = rng.choice([0.0, 0.25, 0.5, ULP_HALF, BELOW_ONE], size=(300, 4))
        got = bandit._posterior_argmax(a.T.copy(), b.T.copy(), FixedUniforms(u))
        assert np.array_equal(got, np.argmax(betaincinv(a, b, u), axis=1))

    def test_single_arm_draws_its_uniforms_without_inverting(self, monkeypatch):
        monkeypatch.setattr(bandit, "betaincinv", None)
        monkeypatch.setattr(bandit, "betainc", None)
        rng = np.random.default_rng(5)
        assert bandit._posterior_argmax(np.full((1, 8), 3.0), np.full((1, 8), 2.0), rng).tolist() == [0] * 8
        twin = np.random.default_rng(5)
        twin.random((8, 1))
        assert rng.random() == twin.random()

    def test_fallback_alone_is_exact(self, monkeypatch):
        # a guess that ranks every column backwards certifies nothing, so
        # every multi-arm column is inverted, and the results still match
        monkeypatch.setattr(bandit, "_quantile_guess", lambda a, b, u: 1.0 - betaincinv(a, b, u))
        inverted = []

        def counting(a, b, u):
            inverted.append(a.shape[1])
            return betaincinv(a, b, u)

        monkeypatch.setattr(bandit, "betaincinv", counting)
        rng = np.random.default_rng(808)
        for n in (1, 2, 4):
            counts = [(int(rng.integers(0, 9)), int(rng.integers(0, 9))) for _ in range(n)]
            st = BanditState(arms=[Arm(str(i), s, f) for i, (s, f) in enumerate(counts)])
            inverted.clear()
            d = evaluate_add_decision(st, 20, PriorFit(2.0, 2.0, 1000), k=40, rng=int(rng.integers(2**32)))
            assert (d.e_stay, d.e_keep, d.e_with_new) == oracle_values(d, counts, 20)
            assert inverted == [40] * ((20 if n > 1 else 0) + 19)


class TestDecideNewArm:
    def test_zero_arms_always_true(self):
        assert decide_new_arm(BanditState(), 10, PriorFit(1.0, 1.0, 1000), rng=0) is True

    @pytest.mark.parametrize("T", [0, 5])
    def test_estimates_without_arms_raise_no_arms(self, T):
        # once numpy's bare "argmax of an empty sequence" for T > 0, and 0.0 for T = 0
        rng = np.random.default_rng(0)
        with pytest.raises(NoArms):
            evaluate_add_decision(BanditState(), T, PriorFit(1, 1, 10), k=10, rng=rng)
        assert rng.random() == np.random.default_rng(0).random()  # raised before any draw
        with pytest.raises(NoArms):
            estimate_rollout_value(np.empty((10, 0)), [], T, 0)

    def test_dominant_arm_declines(self):
        st = BanditState(arms=[Arm("a", 95, 5)], new_arm_attempts=8, new_arm_successes=2)
        prior = PriorFit(3.0, 7.0, 1000)  # mean 0.3
        assert decide_new_arm(st, 50, prior, k=1000, rng=0) is False

    def test_weak_arm_long_horizon_accepts(self):
        st = BanditState(arms=[Arm("a", 1, 19)])
        prior = PriorFit(1.0, 1.0, 1000)  # mean 0.5, p_add 0.5 from zero attempts
        assert decide_new_arm(st, 200, prior, k=1000, rng=0) is True

    def test_deterministic_given_seed(self):
        st = BanditState(arms=[Arm("a", 4, 4), Arm("b", 1, 2)], new_arm_attempts=3, new_arm_successes=1)
        prior = PriorFit(2.0, 2.0, 1000)
        d1 = evaluate_add_decision(st, 30, prior, k=300, rng=42)
        d2 = evaluate_add_decision(st, 30, prior, k=300, rng=42)
        assert d1.decision == d2.decision
        assert d1.e_stay == d2.e_stay and d1.e_keep == d2.e_keep and d1.e_with_new == d2.e_with_new

    def test_matches_brute_force_oracle(self):
        st = BanditState(arms=[Arm("a", 6, 2), Arm("b", 2, 6)], new_arm_attempts=4, new_arm_successes=2)
        prior = PriorFit(2.0, 2.0, 1000)
        d = evaluate_add_decision(st, 15, prior, k=60, rng=9)
        want, e_stay, e_add = decide_oracle(
            d.probability_sets, [(6, 2), (2, 6)], d.p_new, 15, d.p_add, d.eval_seed
        )
        assert d.decision == want
        assert d.e_stay == pytest.approx(e_stay, abs=1e-12)

    def test_shared_sample_set_instrumentation(self):
        # all three expected values must come from one probability-set draw:
        # rerunning the stay-side simulation from the recorded inputs
        # reproduces e_stay and e_keep bit for bit
        st = BanditState(arms=[Arm("a", 3, 3)], new_arm_attempts=1, new_arm_successes=1)
        d = evaluate_add_decision(st, 10, PriorFit(1.5, 1.5, 1000), k=50, rng=31)
        again_stay = estimate_rollout_value(d.probability_sets, [(3, 3)], 10, d.eval_seed)
        again_keep = estimate_rollout_value(d.probability_sets, [(3, 3)], 9, d.eval_seed)
        again_new = estimate_rollout_value(
            np.column_stack([d.probability_sets, d.p_new]), [(3, 3), (1, 0)], 9, d.eval_seed
        )
        assert (d.e_stay, d.e_keep, d.e_with_new) == (again_stay, again_keep, again_new)

    def test_two_passes_match_separate_estimates_bitwise(self):
        # e_keep is read off the T-step e_stay pass; it must equal a separate
        # (T-1)-step run bit for bit, including T = 1 where it is 0.0
        rng = np.random.default_rng(2024)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            arms = [Arm(str(i), int(rng.integers(0, 10)), int(rng.integers(0, 10))) for i in range(n)]
            attempts = int(rng.integers(0, 8))
            st = BanditState(arms=arms, new_arm_attempts=attempts, new_arm_successes=int(rng.integers(0, attempts + 1)))
            T = 1 if trial < 3 else int(rng.integers(1, 61))
            prior = PriorFit(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)), 1000)
            d = evaluate_add_decision(st, T, prior, k=100, rng=int(rng.integers(2**32)))
            counts = [(a.n_suc, a.n_fail) for a in arms]
            assert d.e_stay == estimate_rollout_value(d.probability_sets, counts, T, d.eval_seed)
            assert d.e_keep == estimate_rollout_value(d.probability_sets, counts, T - 1, d.eval_seed)
            assert d.e_with_new == estimate_rollout_value(
                np.column_stack([d.probability_sets, d.p_new]), counts + [(1, 0)], T - 1, d.eval_seed
            )
            if T == 1:
                assert d.e_keep == 0.0 and d.e_with_new == 0.0


class TestEstimatePAdd:
    def test_zero_attempts(self):
        assert estimate_p_add(BanditState()) == 0.5

    def test_three_of_ten(self):
        st = BanditState(new_arm_attempts=10, new_arm_successes=3)
        assert estimate_p_add(st) == pytest.approx(4 / 12)

    def test_perfect_record(self):
        st = BanditState(new_arm_attempts=10, new_arm_successes=10)
        assert estimate_p_add(st) == pytest.approx(11 / 12)


class TestEstimateHorizon:
    def test_direct_formula(self):
        st = BanditState(arms=[Arm("a", 2, 1)], goal_successes=100, current_successes=40)
        assert st.arms[0].posterior_mean == pytest.approx(0.6)
        assert estimate_horizon(st) == 100

    def test_near_goal(self):
        st = BanditState(arms=[Arm("a", 8, 0)], goal_successes=10, current_successes=9)
        mean = st.arms[0].posterior_mean  # 9/10
        assert estimate_horizon(st) == int(np.ceil(1 / mean))

    def test_weak_best_arm(self):
        st = BanditState(arms=[Arm("a", 0, 98)], goal_successes=5, current_successes=0)
        assert st.arms[0].posterior_mean == pytest.approx(0.01)
        assert estimate_horizon(st) == 500

    def test_goal_reached(self):
        st = BanditState(arms=[Arm("a")], goal_successes=5, current_successes=5)
        with pytest.raises(GoalReached):
            estimate_horizon(st)


def test_regret_sanity():
    # true p = 0.1 / 0.5 / 0.9, 500 pulls, 200 repetitions: the best arm
    # should soak up at least 80% of pulls on average
    p_true = [0.1, 0.5, 0.9]
    shares = []
    for rep in range(200):
        rng = np.random.default_rng(10_000 + rep)
        st = BanditState(arms=[Arm("a"), Arm("b"), Arm("c")])
        best_pulls = 0
        for _ in range(500):
            i = thompson_select(st, rng)
            record_outcome(st, i, bool(rng.random() < p_true[i]))
            best_pulls += i == 2
        shares.append(best_pulls / 500)
    assert float(np.mean(shares)) >= 0.80


def test_arm_rejects_negative_counts():
    with pytest.raises(ValueError):
        Arm("a", -1, 0)
