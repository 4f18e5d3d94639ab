import math
import time

import numpy as np
import pytest
from scipy.stats import chi2 as chi2_dist

import oracles
from oracles import cox_partial_loglik
from qcausal.cli import SURVIVAL_COVARIATES, main, read_weights
from qcausal.data import load_cohort
from qcausal.survival import (
    _cox_pass,
    concordance,
    fit_aalen,
    fit_cox,
    kaplan_meier,
    log_rank,
    nelson_aalen,
)


def simulate_cox_data(n, beta, censor_frac, seed):
    """Exponential proportional-hazards data with uniform censoring."""
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(float)
    x = z.reshape(-1, 1)
    hazard = 0.04 * np.exp(beta * z)
    event_times = rng.exponential(1.0 / hazard)
    if censor_frac > 0:
        scale = np.quantile(event_times, 1 - censor_frac) * 2.2
        censor = rng.uniform(0, scale, n)
    else:
        censor = np.full(n, np.inf)
    times = np.minimum(event_times, censor)
    events = (event_times <= censor).astype(float)
    return times, events, x, z


class TestKaplanMeier:
    def test_all_censored_curve_stays_at_one(self):
        curve = kaplan_meier([1.0, 2.0, 3.0], [0, 0, 0])
        assert len(curve.times) == 0  # no drops anywhere: S(t) = 1

    def test_hand_product_limit(self):
        curve = kaplan_meier([1.0, 2.0, 3.0], [1, 0, 1])
        assert np.array_equal(curve.times, [1.0, 3.0])
        assert curve.survival[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert curve.survival[1] == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(curve.at_risk, [3.0, 1.0])
        assert np.array_equal(curve.events, [1.0, 1.0])

    def test_unit_weights_identical_to_unweighted(self):
        rng = np.random.default_rng(3)
        times = rng.exponential(10.0, 40).round(0) + 1.0
        events = (rng.random(40) < 0.6).astype(float)
        plain = kaplan_meier(times, events)
        weighted = kaplan_meier(times, events, np.ones(40))
        assert np.array_equal(plain.survival, weighted.survival)
        assert np.array_equal(plain.at_risk, weighted.at_risk)

    def test_no_censoring_matches_empirical_fraction(self):
        times = np.array([2.0, 4.0, 4.0, 7.0, 9.0])
        events = np.ones(5)
        curve = kaplan_meier(times, events)
        for t, s in zip(curve.times, curve.survival):
            assert s == pytest.approx(np.mean(times > t), abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kaplan_meier([0.0, 1.0], [1, 1])
        with pytest.raises(ValueError):
            kaplan_meier([1.0, 2.0], [1, 1], [1.0, -1.0])
        with pytest.raises(ValueError):
            kaplan_meier([], [])


ESTIMATORS = {
    "kaplan_meier": kaplan_meier,
    "nelson_aalen": nelson_aalen,
    "log_rank": lambda t, e, w: log_rank(t, e, np.arange(len(t)) % 2, w),
    "fit_cox": lambda t, e, w: fit_cox(t, e, np.arange(len(t))[:, None] % 3, weights=w),
    "cox_partial_loglik": lambda t, e, w: cox_partial_loglik(
        [0.1], t, e, np.arange(len(t))[:, None] % 3, w
    ),
    "concordance": lambda t, e, w: concordance(np.arange(len(t)) % 3, t, e, w),
    "fit_aalen": lambda t, e, w: fit_aalen(t, e, np.arange(len(t))[:, None] % 3, weights=w),
}


class TestNonFiniteInput:
    times = np.array([2.0, 5.0, 1.0, 7.0, 3.0, 4.0, 6.0, 8.0])
    events = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_non_finite_time_rejected(self, name, bad):
        times = self.times.copy()
        times[3] = bad
        with pytest.raises(ValueError, match="times must be finite"):
            ESTIMATORS[name](times, self.events, None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_non_finite_weight_rejected(self, name, bad):
        weights = np.ones(8)
        weights[4] = bad
        with pytest.raises(ValueError, match="weights must be finite"):
            ESTIMATORS[name](self.times, self.events, weights)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit", [fit_cox, fit_aalen], ids=lambda fit: fit.__name__)
    def test_non_finite_covariate_rejected(self, fit, bad):
        X = np.column_stack([np.arange(8) % 3, np.linspace(0.0, 1.0, 8)])
        X[5, 1] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            fit(self.times, self.events, X)


class TestLogRank:
    def test_duplicated_groups_give_zero_statistic(self):
        times = np.array([1.0, 3.0, 5.0, 1.0, 3.0, 5.0])
        events = np.array([1, 0, 1, 1, 0, 1], dtype=float)
        groups = np.array([1, 1, 1, 0, 0, 0], dtype=float)
        stat, p = log_rank(times, events, groups)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_two_event_tables(self):
        times = np.array([1.0, 2.0, 3.0, 3.0])
        events = np.array([1, 1, 0, 0], dtype=float)
        groups = np.array([1, 1, 0, 0], dtype=float)
        # t=1: n=4, n1=2, d=1 -> O-E = 1 - 1/2, V = (1/2)(1/2)(3/3)
        # t=2: n=3, n1=1, d=1 -> O-E = 1 - 1/3, V = (1/3)(2/3)(2/2)
        o_minus_e = 0.5 + 2.0 / 3.0
        v = 0.25 + 2.0 / 9.0
        want = o_minus_e**2 / v
        stat, p = log_rank(times, events, groups)
        assert stat == pytest.approx(want, abs=1e-12)
        assert p == pytest.approx(float(chi2_dist.sf(want, 1)), abs=1e-12)

    def test_group_swap_leaves_statistic_unchanged(self):
        rng = np.random.default_rng(5)
        times = rng.exponential(5.0, 60) + 0.1
        events = (rng.random(60) < 0.7).astype(float)
        groups = (rng.random(60) < 0.5).astype(float)
        a, _ = log_rank(times, events, groups)
        b, _ = log_rank(times, events, 1.0 - groups)
        assert a == pytest.approx(b, abs=1e-12)

    def test_requires_events_and_both_groups(self):
        with pytest.raises(ValueError):
            log_rank([1.0, 2.0], [0, 0], [1, 0])
        with pytest.raises(ValueError):
            log_rank([1.0, 2.0], [1, 1], [1, 1])

    def test_unit_weights_match_unweighted(self):
        rng = np.random.default_rng(8)
        times = rng.exponential(5.0, 50).round() + 1.0
        events = (rng.random(50) < 0.6).astype(float)
        groups = (rng.random(50) < 0.5).astype(float)
        assert log_rank(times, events, groups) == log_rank(
            times, events, groups, np.ones(50)
        )


class TestCox:
    def test_grid_oracle_single_binary_covariate(self):
        # one event per arm at interleaved times keeps the maximum interior
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 0, 0], dtype=float)
        x = np.array([[1.0], [0.0], [1.0], [0.0]])
        model = fit_cox(times, events, x)
        # independent vectorized oracle: exact partial likelihood on a beta grid
        grid = np.linspace(-5, 5, 100_001)
        eta = x[:, 0][:, None] * grid[None, :]
        exp_eta = np.exp(eta)
        loglik = np.zeros_like(grid)
        for i in np.flatnonzero(events == 1.0):
            risk = times >= times[i]
            loglik += eta[i] - np.log(exp_eta[risk].sum(axis=0))
        beta_grid = grid[np.argmax(loglik)]
        assert model.coef[0] == pytest.approx(beta_grid, abs=1e-4)
        assert cox_partial_loglik(model.coef, times, events, x) >= loglik.max() - 1e-10

    def test_null_covariate_rarely_significant(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            times, events, _, _ = simulate_cox_data(1000, 0.0, 0.3, seed)
            x = rng.normal(size=(1000, 1))
            model = fit_cox(times, events, x)
            hits += abs(model.coef[0]) < 0.15 and model.p[0] > 0.01
        assert hits >= 19

    def test_recovers_true_hazard_ratio(self):
        times, events, x, _ = simulate_cox_data(2000, math.log(2.0), 0.3, seed=42)
        model = fit_cox(times, events, x)
        assert model.coef[0] == pytest.approx(math.log(2.0), abs=0.1)
        assert model.hr[0] == pytest.approx(2.0, rel=0.12)
        assert model.concordance > 0.55
        assert model.converged

    def test_efron_equals_breslow_without_ties(self):
        rng = np.random.default_rng(11)
        n = 120
        times = rng.exponential(10.0, n) + rng.uniform(0, 1e-6, n)  # continuous: no ties
        events = (rng.random(n) < 0.7).astype(float)
        x = rng.normal(size=(n, 2))
        efron = fit_cox(times, events, x, ties="efron")
        breslow = fit_cox(times, events, x, ties="breslow")
        assert np.allclose(efron.coef, breslow.coef, atol=1e-12)

    def test_score_vector_small_at_optimum(self):
        times, events, x, _ = simulate_cox_data(300, 0.5, 0.2, seed=3)
        model = fit_cox(times, events, x, tol=1e-10)
        from qcausal.survival import _cox_pass

        _, score, _ = _cox_pass(
            model.coef, times, events, x, np.ones(len(times)), True
        )
        assert np.max(np.abs(score)) < 1e-10

    def test_rescaling_covariate_rescales_coefficient(self):
        times, events, x, _ = simulate_cox_data(400, 0.7, 0.25, seed=9)
        base = fit_cox(times, events, x, tol=1e-12)
        scaled = fit_cox(times, events, 10.0 * x, tol=1e-12)
        assert scaled.coef[0] == pytest.approx(base.coef[0] / 10.0, abs=1e-10)
        # hazard ratio for a 10-unit change is preserved
        assert 10.0 * scaled.coef[0] == pytest.approx(base.coef[0], abs=1e-9)

    def test_integer_weights_equal_duplication_under_breslow(self):
        rng = np.random.default_rng(13)
        n = 60
        times = rng.exponential(8.0, n)
        events = (rng.random(n) < 0.7).astype(float)
        x = rng.normal(size=(n, 1))
        w = rng.integers(1, 4, n).astype(float)
        weighted = fit_cox(times, events, x, weights=w, ties="breslow", tol=1e-12)
        reps = np.repeat(np.arange(n), w.astype(int))
        duplicated = fit_cox(times[reps], events[reps], x[reps], ties="breslow", tol=1e-12)
        assert np.allclose(weighted.coef, duplicated.coef, atol=1e-8)

    def test_well_behaved_fit_takes_full_newton_steps(self):
        times, events, x, _ = simulate_cox_data(400, 0.7, 0.25, seed=9)
        model = fit_cox(times, events, x)
        assert model.converged
        assert model.halvings == 0

    def test_overshooting_newton_step_is_halved_and_counted(self):
        # one death (x=1) among 50 subjects at x=0 and one at x=10: the
        # information at beta=0 is small, so the first full step overshoots.
        # The optimum solves 9 exp(10 beta) = 50.
        m = 50
        times = np.r_[1.0, np.full(m + 1, 2.0)]
        events = np.r_[1.0, np.zeros(m + 1)]
        x = np.r_[1.0, np.zeros(m), 10.0][:, None]
        model = fit_cox(times, events, x)
        assert model.converged and not model.separation
        assert model.halvings >= 1
        assert model.coef[0] == pytest.approx(math.log(m / 9.0) / 10.0, abs=1e-9)

    def test_constant_covariate_rejected(self):
        with pytest.raises(ValueError):
            fit_cox([1.0, 2.0, 3.0], [1, 1, 0], np.ones((3, 1)))

    def test_ties_argument_validated(self):
        with pytest.raises(ValueError):
            fit_cox([1.0, 2.0], [1, 1], np.array([[0.0], [1.0]]), ties="exact")


def assert_same_pass(beta, times, events, X, weights, efron):
    loglik, score, info = _cox_pass(beta, times, events, X, weights, efron)
    ref_loglik, ref_score, ref_info = oracles.cox_pass(beta, times, events, X, weights, efron)
    assert loglik == ref_loglik
    assert np.array_equal(score, ref_score)
    assert np.array_equal(info, ref_info)


@pytest.fixture(scope="module")
def large_cohort(tmp_path_factory):
    """The n=6,000 seed-1 cohort with its matching weights, as `survival` fits it."""
    out = tmp_path_factory.mktemp("large_cohort")
    assert main(["gen", "--out-dir", str(out), "--n", "6000", "--seed", "1"]) == 0
    assert main(["fit-ps", "--out-dir", str(out), "--seed", "1", "--model", "gbm"]) == 0
    assert main(["adjust", "--out-dir", str(out), "--adjust", "mw"]) == 0
    cohort, _ = load_cohort(out / "cohort.csv")
    X = np.column_stack([cohort.matrix(SURVIVAL_COVARIATES), cohort.z])
    return cohort.times, cohort.events, X, read_weights(out / "weights.csv")


class TestCoxPassMatchesLoop:
    """The array pass equals the earlier per-death loop bit for bit."""

    def test_large_cohort_at_zero_and_after_one_newton_step(self, large_cohort):
        times, events, X, weights = large_cohort
        beta = np.zeros(X.shape[1])
        assert_same_pass(beta, times, events, X, weights, True)
        _, score, info = _cox_pass(beta, times, events, X, weights, True)
        step = np.linalg.solve(info, score)
        assert np.any(step != 0)
        assert_same_pass(beta + step, times, events, X, weights, True)

    @pytest.mark.parametrize("efron", [True, False])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("layout", ["distinct", "one_group", "monthly"])
    def test_synthetic_cohorts(self, layout, weighted, efron):
        rng = np.random.default_rng(7)
        n = 300
        X = rng.normal(size=(n, 3))
        if layout == "distinct":
            times = rng.permutation(n) + 1.0
            events = (rng.random(n) < 0.7).astype(float)
        elif layout == "one_group":  # every death at one time, after the censored
            events = (rng.random(n) < 0.6).astype(float)
            times = np.where(events == 1.0, 5.0, rng.uniform(6.0, 9.0, n))
        else:  # monthly times: many tie groups of several deaths
            times = rng.integers(1, 25, n).astype(float)
            events = (rng.random(n) < 0.8).astype(float)
        weights = rng.uniform(0.2, 3.0, n) if weighted else np.ones(n)
        for beta in (np.zeros(3), np.array([0.4, -0.7, 1.3])):
            assert_same_pass(beta, times, events, X, weights, efron)

    @pytest.mark.parametrize("efron", [True, False])
    @pytest.mark.parametrize(
        "layout",
        ["censored_group_between_deaths", "singletons", "deaths_at_latest_time", "one_subject"],
    )
    def test_tie_group_edge_layouts(self, layout, efron):
        rng = np.random.default_rng(11)
        if layout == "censored_group_between_deaths":
            times = np.repeat([2.0, 3.0, 4.0], 5)
            events = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0], dtype=float)
        elif layout == "singletons":  # every tie group holds one subject, who dies
            times = rng.permutation(40) + 1.0
            events = np.ones(40)
        elif layout == "deaths_at_latest_time":  # the pass starts from this all-death group
            times = np.repeat([1.0, 2.0, 3.0], 6)
            events = np.concatenate([rng.random(12) < 0.5, np.ones(6)]).astype(float)
        else:
            times, events = np.array([3.0]), np.array([1.0])
        X = rng.normal(size=(len(times), 2))
        weights = rng.uniform(0.2, 3.0, len(times))
        for beta in (np.zeros(2), np.array([0.6, -0.9])):
            assert_same_pass(beta, times, events, X, weights, efron)

    def test_block_risk_sums_outpace_the_per_subject_loop(self):
        """At n=20,000 with monthly ties the per-subject risk sums dominate the
        loop, and the pass that adds each tie group as one block is at least
        3x faster with the same result."""
        rng = np.random.default_rng(5)
        n = 20_000
        times = rng.integers(1, 25, n).astype(float)
        events = (rng.random(n) < 0.05).astype(float)
        X = rng.normal(size=(n, 7))
        weights = rng.uniform(0.2, 3.0, n)
        beta = rng.normal(scale=0.1, size=7)
        args = (beta, times, events, X, weights, True)
        assert_same_pass(*args)

        def best_of_3(cox_pass):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                cox_pass(*args)
                best = min(best, time.perf_counter() - start)
            return best

        assert best_of_3(oracles.cox_pass) / best_of_3(_cox_pass) >= 3.0


class TestCoxUnderflow:
    def test_risk_set_underflow_is_flagged_as_separation(self):
        # times fall as x rises, every subject dies: the likelihood grows
        # without bound, and a Newton step can send exp(eta - max eta) to 0
        # over a whole risk set
        times = 50.0 - np.arange(40)
        for scale in (10.0, 100.0, 1000.0):
            x = np.linspace(0.0, 1.0, 40)[:, None] * scale
            model = fit_cox(times, np.ones(40), x)
            assert model.separation and not model.converged
            assert np.all(np.isfinite(model.coef))
            assert np.isfinite(model.loglik)

    def test_zero_weight_risk_set_at_zero_is_an_error(self, monkeypatch):
        monkeypatch.setattr("qcausal.survival._cox_pass", lambda *args: None)
        with pytest.raises(ValueError, match="risk set has zero weight at beta = 0"):
            fit_cox([1.0, 2.0, 3.0], [1, 1, 0], np.array([[0.0], [1.0], [2.0]]))


class TestConcordance:
    def test_perfect_anti_ordering(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        scores = np.array([4.0, 3.0, 2.0, 1.0])  # highest risk dies first
        assert concordance(scores, times, np.ones(4)) == 1.0

    def test_all_tied_scores_half(self):
        times = np.array([1.0, 2.0, 3.0])
        assert concordance(np.zeros(3), times, np.ones(3)) == 0.5

    def test_hand_enumerated_pairs(self):
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 1, 0, 0], dtype=float)
        scores = np.array([3.0, 1.0, 2.0, 0.5])
        # usable: (0,1) c, (0,2) c, (0,3) c, (1,2) discordant, (1,3) c -> 4 / 5
        assert concordance(scores, times, events) == pytest.approx(0.8, abs=1e-15)

    def test_no_usable_pairs_rejected(self):
        with pytest.raises(ValueError):
            concordance([1.0, 2.0], [5.0, 5.0], [0, 0])


class TestAalen:
    def test_intercept_only_equals_nelson_aalen(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 50
            times = rng.exponential(10.0, n).round() + 1.0
            events = (rng.random(n) < 0.7).astype(float)
            if events.sum() == 0:
                events[0] = 1.0
            w = rng.uniform(0.5, 2.0, n)
            model = fit_aalen(times, events, np.empty((n, 0)), weights=w)
            na_times, na_values = nelson_aalen(times, events, w)
            assert np.array_equal(model.times, na_times)
            assert np.allclose(model.cumulative[:, 0], na_values, atol=1e-12)

    def test_three_sample_hand_linear_algebra(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.ones(3)
        x = np.array([[0.0], [1.0], [2.0]])
        model = fit_aalen(times, events, x)
        # t=1: (X'X)^-1 X' dN over rows {0,1,2}: dB = (5/6, -1/2)
        # t=2: rows {1,2}: dB = (2, -1); t=3: singular 1x2 design -> dropped
        assert model.n_event_times_used == 2
        assert model.n_event_times_total == 3
        increments = np.diff(np.vstack([[0.0, 0.0], model.cumulative]), axis=0)
        assert np.allclose(increments[0], [5.0 / 6.0, -0.5], atol=1e-12)
        assert np.allclose(increments[1], [2.0, -1.0], atol=1e-12)

    def test_null_covariate_slope_and_p(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = 1000
            times = rng.exponential(20.0, n).round() + 1.0
            events = (rng.random(n) < 0.7).astype(float)
            x = rng.normal(size=(n, 1))
            model = fit_aalen(times, events, x)
            small_slope = abs(model.slope[1]) < 0.5 * abs(model.slope[0])
            hits += small_slope and model.p[1] > 0.01
        assert hits >= 19

    def test_rank_deficient_from_first_event_rejected(self):
        times = np.array([1.0, 2.0])
        events = np.array([1.0, 0.0])
        x = np.array([[1.0, 1.0], [2.0, 2.0]])  # collinear columns
        with pytest.raises(ValueError):
            fit_aalen(times, events, x)

    def test_horizon_truncates_used_times(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        events = np.ones(5)
        x = np.empty((5, 0))
        full = fit_aalen(times, events, x)
        capped = fit_aalen(times, events, x, horizon=3.0)
        assert capped.times.max() <= 3.0
        assert len(capped.times) < len(full.times)
