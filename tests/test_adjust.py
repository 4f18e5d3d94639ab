import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import chi_square_statistic
from qcausal.adjust import (
    BalanceReport,
    MatchSet,
    WeightVector,
    balance_report,
    chi_square_test,
    compute_weights,
    genetic_match,
    nearest_neighbor_match,
    optimal_match,
    score_caliper,
    smd,
    two_sample_t_test,
)
from qcausal.classical import fit_logistic, predict_logistic
from qcausal.data import SynthConfig, generate_synthetic_cohort, true_propensity


def instance_strategy(min_each=2, max_n=24):
    """Random (ps, z) with both arms represented."""

    def build(draw):
        nt = draw(st.integers(min_each, max_n // 2))
        nc = draw(st.integers(min_each, max_n // 2))
        ps = draw(
            st.lists(
                st.integers(1, 99), min_size=nt + nc, max_size=nt + nc
            )
        )
        ps = np.array(ps) / 100.0
        z = np.array([1.0] * nt + [0.0] * nc)
        return ps, z

    return st.composite(lambda draw: build(draw))()


class TestSmd:
    def test_identical_distributions_zero(self):
        values = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        z = np.array([1, 1, 1, 0, 0, 0])
        assert smd(values, z) == 0.0

    def test_unit_gap_unit_variances(self):
        rng = np.random.default_rng(0)
        t = rng.normal(1.0, 1.0, 20000)
        c = rng.normal(0.0, 1.0, 20000)
        values = np.concatenate([t, c])
        z = np.array([1.0] * 20000 + [0.0] * 20000)
        assert smd(values, z) == pytest.approx(1.0, abs=0.05)

    def test_weights_that_equalize_means_zero_numerator(self):
        values = np.array([0.0, 2.0, 1.0, 1.0])
        z = np.array([1, 1, 0, 0])
        # treated weighted mean (0*1 + 2*1)/2 = 1 equals control mean 1
        assert abs(smd(values, z, np.ones(4))) < 1e-12

    def test_binary_uses_proportion_variance(self):
        values = np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        z = np.array([1, 1, 1, 0, 0, 0])
        pt, pc = 2 / 3, 1 / 3
        expected = (pt - pc) / math.sqrt((pt * (1 - pt) + pc * (1 - pc)) / 2)
        assert smd(values, z) == pytest.approx(expected, abs=1e-12)

    def test_unit_weights_agree_with_unweighted(self):
        rng = np.random.default_rng(3)
        for values in (rng.normal(0, 1, 50), rng.integers(0, 2, 50).astype(float)):
            z = (rng.random(50) < 0.4).astype(float)
            assert smd(values, z, np.ones(50)) == pytest.approx(smd(values, z), abs=1e-12)

    def test_degenerate_covariate_rejected(self):
        values = np.array([1.0, 1.0, 2.0, 2.0])
        z = np.array([1, 1, 0, 0])
        with pytest.raises(ValueError):
            smd(values, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["values", "weights"])
    def test_non_finite_input_rejected(self, name, bad):
        given = {"values": np.array([0.0, 1.5, 2.0, 1.0]), "weights": np.ones(4)}
        given[name][2] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            smd(given["values"], np.array([1, 1, 0, 0]), given["weights"])


class TestWeights:
    def test_scheme_formulas(self):
        assert compute_weights([0.5], [1.0], "ate").weights[0] == pytest.approx(2.0)
        assert compute_weights([0.8], [0.0], "att").weights[0] == pytest.approx(4.0)
        assert compute_weights([0.8], [1.0], "overlap").weights[0] == pytest.approx(0.2)
        assert compute_weights([0.3], [1.0], "matching").weights[0] == pytest.approx(1.0)

    def test_boundary_scores_rejected(self):
        with pytest.raises(ValueError):
            compute_weights([0.0, 0.5], [1.0, 0.0], "ate")
        with pytest.raises(ValueError):
            compute_weights([1.0], [1.0], "overlap")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            compute_weights([0.5], [1.0], "cem")

    def test_ate_weights_at_least_one(self):
        rng = np.random.default_rng(4)
        ps = rng.uniform(0.05, 0.95, 50)
        z = rng.integers(0, 2, 50).astype(float)
        assert np.all(compute_weights(ps, z, "ate").weights >= 1.0)

    def test_matching_weights_at_most_one(self):
        rng = np.random.default_rng(5)
        ps = rng.uniform(0.05, 0.95, 50)
        z = rng.integers(0, 2, 50).astype(float)
        assert np.all(compute_weights(ps, z, "matching").weights <= 1.0 + 1e-12)


class TestNearestNeighbor:
    def test_disjoint_ranges_beyond_caliper(self):
        ps = np.array([0.9, 0.91, 0.1, 0.11])
        z = np.array([1, 1, 0, 0])
        match = nearest_neighbor_match(ps, z)
        assert match.pairs == ()
        assert set(match.unmatched_treated) == {0, 1}

    def test_nearest_legal_neighbor_chosen(self):
        ps = np.array([0.6, 0.59, 0.3])
        z = np.array([1, 0, 0])
        match = nearest_neighbor_match(ps, z)
        assert match.pairs == ((0, 1),)

    def test_equal_distance_tie_takes_lower_control_index(self):
        ps = np.array([0.5, 0.45, 0.55])
        z = np.array([1, 0, 0])
        match = nearest_neighbor_match(ps, z, caliper_multiplier=100.0)
        assert match.pairs == ((0, 1),)

    def test_descending_score_processing_order(self):
        # higher-scored treated subject claims the shared nearest control first
        ps = np.array([0.50, 0.52, 0.51])
        z = np.array([1, 1, 0])
        match = nearest_neighbor_match(ps, z, caliper_multiplier=100.0)
        assert (1, 2) in match.pairs

    @settings(max_examples=60, deadline=None)
    @given(instance_strategy())
    def test_matchset_invariants(self, instance):
        ps, z = instance
        match = nearest_neighbor_match(ps, z)
        seen = [i for pair in match.pairs for i in pair]
        assert len(seen) == len(set(seen))
        for t, c in match.pairs:
            assert z[t] == 1.0 and z[c] == 0.0
            assert abs(ps[t] - ps[c]) <= match.caliper + 1e-12


class TestOptimal:
    def test_single_feasible_pair(self):
        ps = np.array([0.5, 0.52])
        z = np.array([1, 0])
        match = optimal_match(ps, z, caliper_multiplier=100.0)
        assert match.pairs == ((0, 1),)

    def test_2x2_beats_greedy_style_pairings(self):
        # wide caliper so all four pairings are legal
        ps = np.array([0.50, 0.52, 0.51, 0.49])
        z = np.array([1, 1, 0, 0])
        match = optimal_match(ps, z, caliper_multiplier=100.0)
        assert match.pairs == ((0, 3), (1, 2))
        total = sum(abs(ps[t] - ps[c]) for t, c in match.pairs)
        assert total == pytest.approx(0.02, abs=1e-12)

    def test_enumeration_oracle_2x2(self):
        from itertools import permutations

        rng = np.random.default_rng(3)
        for _ in range(20):
            ps = np.round(rng.uniform(0.2, 0.8, 4), 3)
            z = np.array([1, 1, 0, 0])
            match = optimal_match(ps, z, caliper_multiplier=100.0)
            got = sum(abs(ps[t] - ps[c]) for t, c in match.pairs)
            best = min(
                abs(ps[0] - ps[2 + a]) + abs(ps[1] - ps[2 + b])
                for a, b in permutations([0, 1])
            )
            assert got == pytest.approx(best, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(instance_strategy())
    def test_never_worse_than_greedy(self, instance):
        ps, z = instance
        greedy = nearest_neighbor_match(ps, z)
        optimal = optimal_match(ps, z)
        assert len(optimal.pairs) >= len(greedy.pairs)
        if len(optimal.pairs) == len(greedy.pairs):
            greedy_total = sum(abs(ps[t] - ps[c]) for t, c in greedy.pairs)
            optimal_total = sum(abs(ps[t] - ps[c]) for t, c in optimal.pairs)
            assert optimal_total <= greedy_total + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(instance_strategy())
    def test_caliper_respected(self, instance):
        ps, z = instance
        match = optimal_match(ps, z)
        for t, c in match.pairs:
            assert abs(ps[t] - ps[c]) <= match.caliper + 1e-12


def check_against_assignment(ps, z, multiplier):
    """The dynamic program and the assignment solver it replaced agree on the
    pair count and the total |gap|; the DP's pairs respect the caliper and
    the arms and use no subject twice.  Equal-cost optima may differ."""
    import oracles

    match = optimal_match(ps, z, multiplier)
    reference = oracles.assignment_optimal_match(ps, z, multiplier)
    assert len(match.pairs) == len(reference.pairs)
    assert match.caliper == reference.caliper
    total = math.fsum(abs(ps[t] - ps[c]) for t, c in match.pairs)
    expected = math.fsum(abs(ps[t] - ps[c]) for t, c in reference.pairs)
    assert abs(total - expected) <= 1e-12 * expected
    treated = [t for t, _ in match.pairs]
    controls = [c for _, c in match.pairs]
    assert all(z[t] == 1.0 for t in treated) and all(z[c] == 0.0 for c in controls)
    assert all(abs(ps[t] - ps[c]) <= match.caliper for t, c in match.pairs)
    assert len(set(treated + controls)) == 2 * len(match.pairs)
    assert sorted(treated + list(match.unmatched_treated)) == np.flatnonzero(z == 1.0).tolist()
    return match


class TestOptimalAgainstAssignment:
    @pytest.mark.parametrize("multiplier", [0.05, 0.25, 1.0, 100.0])
    def test_seeded_cohorts(self, multiplier):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            nt, nc = (int(k) for k in rng.integers(1, 40, size=2))
            ps = rng.uniform(0.02, 0.98, nt + nc)
            if seed % 2:
                ps = np.round(ps, 1 + seed % 3)  # tie-heavy: few distinct scores
            z = rng.permutation(np.r_[np.ones(nt), np.zeros(nc)])
            check_against_assignment(ps, z, multiplier)

    @pytest.mark.parametrize("nt, nc", [(30, 8), (8, 30)])
    def test_unbalanced_arms(self, nt, nc):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ps = np.round(rng.uniform(0.3, 0.7, nt + nc), 2)
            z = np.r_[np.ones(nt), np.zeros(nc)]
            match = check_against_assignment(ps, z, 0.25)
            if nt > nc:
                assert match.unmatched_treated

    def test_no_feasible_pair(self):
        ps = np.array([0.9, 0.91, 0.92, 0.1, 0.11])
        z = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        match = check_against_assignment(ps, z, 0.25)
        assert match.pairs == () and match.unmatched_treated == (0, 1, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        instance_strategy(min_each=1, max_n=40),
        st.sampled_from([0.0, 0.05, 0.25, 1.0, 100.0]),
    )
    def test_hypothesis_instances(self, instance, multiplier):
        ps, z = instance
        check_against_assignment(ps, z, multiplier)

    def test_tie_rule(self):
        # Every pairing below is optimal.  Walking back from the highest-scored
        # treated subject, pairing beats leaving a subject unmatched, and the
        # lowest-scored control wins, the lower index among equal scores.
        ps = np.array([0.5, 0.25, 0.75])
        assert optimal_match(ps, [1, 0, 0], 100.0).pairs == ((0, 1),)
        ps = np.array([0.5, 0.25, 0.25])
        assert optimal_match(ps, [1, 0, 0], 100.0).pairs == ((0, 1),)
        ps = np.array([0.25, 0.75, 0.5])
        match = optimal_match(ps, [1, 1, 0], 100.0)
        assert match.pairs == ((1, 2),) and match.unmatched_treated == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_raises(self, bad):
        ps = np.array([0.2, 0.3, 0.25, bad])
        with pytest.raises(ValueError, match="finite"):
            optimal_match(ps, [1, 1, 0, 0])

    @pytest.mark.parametrize("multiplier", [np.nan, np.inf])
    def test_non_finite_caliper_raises(self, multiplier):
        with pytest.raises(ValueError, match="finite caliper"):
            optimal_match([0.2, 0.3, 0.25, 0.35], [1, 1, 0, 0], multiplier)


class TestGenetic:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def make_instance(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, n) + np.where(np.arange(n) < n // 2, 0.8, 0.0)
        z = np.array([1.0] * (n // 2) + [0.0] * (n - n // 2))
        ps = 1 / (1 + np.exp(-(x - x.mean())))
        return x.reshape(-1, 1), z, ps

    def test_single_covariate_reduces_mean_smd(self):
        X, z, ps = self.make_instance(seed=1)
        match = genetic_match(X, z, ps, population=20, generations=5, seed=1)
        after_idx = match.matched_indices()
        before = abs(smd(X[:, 0], z))
        after = abs(smd(X[after_idx, 0], z[after_idx]))
        assert after <= before + 1e-12

    def test_fixed_seed_identical(self):
        X, z, ps = self.make_instance(seed=2)
        a = genetic_match(X, z, ps, population=12, generations=4, seed=5)
        b = genetic_match(X, z, ps, population=12, generations=4, seed=5)
        assert a == b

    def test_small_population_rejected(self):
        X, z, ps = self.make_instance()
        with pytest.raises(ValueError):
            genetic_match(X, z, ps, population=3)

    @staticmethod
    def population_picks(X, z, ps, multiplier, seed, size=8):
        """A greedy core and its `run` output for `size` random genomes."""
        from test_greedy_core import run_genomes

        from qcausal.adjust import _GreedyCore

        core = _GreedyCore(ps, z, score_caliper(ps, multiplier))
        genomes = np.exp(np.random.default_rng(seed).normal(0.0, 0.5, size=(size, X.shape[1] + 1)))
        return core, run_genomes(core, X, ps, genomes)

    def test_fitness_equals_oracle_on_tie_heavy_instances(self):
        """Per genome, the fitness genetic_match selects on is the mean |SMD|
        of the matched set, each arm in ascending subject order: to 1e-12
        relative, and exactly where it is 0 or inf."""
        import oracles
        from test_greedy_core import SEEDS, tie_heavy_instance

        zeros = infs = 0
        for seed in SEEDS:
            X, z, ps = tie_heavy_instance(seed)
            for multiplier in (0.25, 0.05):
                core, picks = self.population_picks(X, z, ps, multiplier, seed)
                fitness = core.fitness(picks, X)
                for row, value in zip(picks, fitness):
                    expected = oracles.set_mean_abs_smd(X, z, core.match_set(row))
                    if expected in (0.0, math.inf):
                        assert value == expected, seed
                        zeros += expected == 0.0
                        infs += expected == math.inf
                    else:
                        assert value == pytest.approx(expected, rel=1e-12, abs=0), seed
        assert zeros and infs  # the instances do reach both edges

    def test_fitness_on_continuous_covariates(self):
        """The shifted sums keep continuous columns far from zero, here near
        50, within 1e-12 relative of the set oracle."""
        import oracles

        for seed in range(6):
            X, z, ps = self.make_instance(seed=seed)
            X = np.column_stack([X, 50.0 + 10.0 * np.random.default_rng(seed).normal(size=len(z))])
            core, picks = self.population_picks(X, z, ps, 0.25, seed)
            expected = [oracles.set_mean_abs_smd(X, z, core.match_set(row)) for row in picks]
            assert core.fitness(picks, X) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_equal_matched_sets_get_bit_equal_fitness(self):
        """Two rows that match the same subjects with a different pairing, at
        any place in the population, score bit-equal."""
        from test_greedy_core import SEEDS, tie_heavy_instance

        swapped = 0
        for seed in SEEDS:
            _, z, ps = tie_heavy_instance(seed, n=40)
            # continuous values, so the order of a sum can change its rounding
            X = np.random.default_rng(seed).normal(60.0, 10.0, size=(40, 3))
            core, picks = self.population_picks(X, z, ps, 1.0, seed)
            row = picks[0]
            matched = np.flatnonzero(row < len(core.control))
            if len(matched) < 2:
                continue
            other = row.copy()
            other[matched[[0, -1]]] = row[matched[[-1, 0]]]
            fitness = core.fitness(np.vstack([picks, other[None, :]]), X)
            assert fitness[-1] == fitness[0], seed
            swapped += 1
        assert swapped > len(SEEDS) // 2

    def test_equal_integer_arm_has_zero_variance(self):
        """An ordinal column whose matched values are all 3, in both arms,
        adds exactly 0, though the column mean, 7/3, is not a binary
        fraction; one with 3 against 4 adds inf."""
        from qcausal.adjust import _GreedyCore

        ps = np.array([0.50, 0.51, 0.52, 0.50, 0.51, 0.52, 0.9, 0.1, 0.3])
        z = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        core = _GreedyCore(ps, z, 0.05)
        same = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0, 0.0, 2.0])
        apart = np.array([3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 1.0, 0.0, 2.0])
        picks = core.run(np.ones((1, 1)), np.zeros((1, len(core.cols))))
        assert len(core.match_set(picks[0]).pairs) == 3
        assert core.fitness(picks, same[:, None]).tolist() == [0.0]
        assert core.fitness(picks, apart[:, None]).tolist() == [math.inf]

    def test_larger_population_usually_at_least_as_fit(self):
        from oracles import _mean_abs_smd

        wins = 0
        runs = 20
        for seed in range(runs):
            X, z, ps = self.make_instance(n=36, seed=100 + seed)
            small = genetic_match(X, z, ps, population=100, generations=5, seed=seed)
            large = genetic_match(X, z, ps, population=400, generations=5, seed=seed)
            fit_small = _mean_abs_smd(X, z, small)
            fit_large = _mean_abs_smd(X, z, large)
            wins += fit_large <= fit_small + 1e-12
        assert wins >= 0.7 * runs


class TestTTest:
    def test_identical_groups_p_one(self):
        values = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        z = np.array([1, 1, 1, 0, 0, 0])
        assert two_sample_t_test(values, z) == pytest.approx(1.0, abs=1e-12)

    def test_separated_gaussians_tiny_p(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 50), rng.normal(5, 1, 50)])
        z = np.array([1.0] * 50 + [0.0] * 50)
        assert two_sample_t_test(values, z) < 1e-10

    def test_label_swap_symmetric(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, 30)
        z = (rng.uniform(size=30) < 0.5).astype(float)
        z[:2] = [0, 1]
        assert two_sample_t_test(values, z) == pytest.approx(
            two_sample_t_test(values, 1 - z), abs=1e-12
        )

    def test_zero_variance_rejected(self):
        values = np.array([2.0, 2.0, 2.0, 2.0])
        z = np.array([1, 1, 0, 0])
        with pytest.raises(ValueError):
            two_sample_t_test(values, z)

    def test_tiny_groups_rejected(self):
        with pytest.raises(ValueError):
            two_sample_t_test(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0]))


class TestChiSquare:
    def test_identical_distributions(self):
        categories = np.array(["a", "a", "b", "b", "a", "a", "b", "b"])
        z = np.array([1, 1, 1, 1, 0, 0, 0, 0])
        assert chi_square_statistic(categories, z) == pytest.approx(0.0, abs=1e-12)
        assert chi_square_test(categories, z) == pytest.approx(1.0, abs=1e-12)

    def test_fully_separated_2x2(self):
        categories = np.array(["a"] * 10 + ["b"] * 10)
        z = np.array([0.0] * 10 + [1.0] * 10)
        assert chi_square_statistic(categories, z) == pytest.approx(20.0, abs=1e-12)
        assert chi_square_test(categories, z) == pytest.approx(7.744e-6, rel=1e-3)

    def test_doubling_counts_doubles_statistic(self):
        rng = np.random.default_rng(2)
        categories = rng.integers(0, 3, 60)
        z = rng.integers(0, 2, 60).astype(float)
        if chi_square_statistic(categories, z) == 0:
            categories[0] = (categories[0] + 1) % 3
        single = chi_square_statistic(categories, z)
        doubled = chi_square_statistic(
            np.concatenate([categories, categories]), np.concatenate([z, z])
        )
        assert doubled == pytest.approx(2 * single, rel=1e-12)
        assert chi_square_test(
            np.concatenate([categories, categories]), np.concatenate([z, z])
        ) < chi_square_test(categories, z)

    def test_single_category_rejected(self):
        with pytest.raises(ValueError):
            chi_square_test(np.array(["a", "a"]), np.array([1.0, 0.0]))


class TestBalanceReport:
    COVARIATES = ["Age", "Sex", "BMI", "Stage"]

    def test_unit_weights_before_equals_after(self):
        from qcausal.adjust import WeightVector

        cohort = generate_synthetic_cohort(SynthConfig(n=300, seed=3))
        report = balance_report(
            cohort, None, WeightVector(np.ones(cohort.n), "ate"), self.COVARIATES
        )
        for row in report.rows:
            assert row.smd_after == pytest.approx(row.smd_before, abs=1e-12)
            assert row.p_after == pytest.approx(row.p_before, abs=1e-12)

    def test_mean_smd_is_mean_of_rows(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=400, seed=4))
        ps = np.clip(
            true_propensity(SynthConfig(n=400, seed=4), cohort.columns["Stage"], cohort.columns["Sex"]),
            0.01,
            0.99,
        )
        report = balance_report(
            cohort, ps, compute_weights(ps, cohort.z, "overlap"), self.COVARIATES
        )
        assert report.mean_abs_smd_after == pytest.approx(
            np.mean([abs(r.smd_after) for r in report.rows]), abs=1e-15
        )

    def test_true_propensity_ate_weights_balance_large_cohort(self):
        config = SynthConfig(n=5000, seed=6)
        cohort = generate_synthetic_cohort(config)
        ps = true_propensity(config, cohort.columns["Stage"], cohort.columns["Sex"])
        weights = compute_weights(ps, cohort.z, "ate")
        report = balance_report(cohort, ps, weights, self.COVARIATES)
        assert report.mean_abs_smd_after < 0.05

    def test_empty_match_leaves_after_values_none(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=200, seed=9))
        report = balance_report(cohort, None, MatchSet((), (0, 1), 0.0), self.COVARIATES)
        unit = balance_report(
            cohort, None, WeightVector(np.ones(cohort.n), "ate"), self.COVARIATES
        )
        assert report.mean_abs_smd_after is None
        assert report.mean_abs_smd_before == unit.mean_abs_smd_before
        for row, unit_row in zip(report.rows, unit.rows):
            assert row.smd_after is None and row.p_after is None
            assert (row.smd_before, row.p_before) == (unit_row.smd_before, unit_row.p_before)
        assert report.smd_after_omitted == tuple(self.COVARIATES)
        assert all(row.reason is None for row in report.rows)

    def test_one_pair_match_reports_nulls_with_reasons(self):
        cohort = generate_synthetic_cohort(SynthConfig(n=200, seed=9))
        t, c = int(np.flatnonzero(cohort.z == 1)[0]), int(np.flatnonzero(cohort.z == 0)[0])
        assert cohort.columns["Age"][t] != cohort.columns["Age"][c]
        report = balance_report(cohort, None, MatchSet(((t, c),), (), 0.1), self.COVARIATES)
        age = report.rows[0]
        assert age.smd_after is None and age.p_after is None
        assert age.reason == (
            "smd_after: degenerate covariate: zero pooled variance with unequal means; "
            "p_after: each group needs at least two observations"
        )
        kept = [abs(r.smd_after) for r in report.rows if r.smd_after is not None]
        assert report.smd_after_omitted == tuple(
            r.covariate for r in report.rows if r.smd_after is None
        )
        assert report.mean_abs_smd_after == (float(np.mean(kept)) if kept else None)
        # direct callers still get the error
        row = np.zeros(cohort.n)
        row[[t, c]] = 1.0
        with pytest.raises(ValueError, match="degenerate covariate"):
            smd(cohort.columns["Age"], cohort.z, row)
        with pytest.raises(ValueError, match="at least two observations"):
            two_sample_t_test(cohort.columns["Age"], cohort.z, row)

    def test_test_names_follow_variable_kind(self):
        from qcausal.adjust import WeightVector

        cohort = generate_synthetic_cohort(SynthConfig(n=200, seed=9))
        report = balance_report(
            cohort, None, WeightVector(np.ones(cohort.n), "ate"), self.COVARIATES
        )
        assert {r.covariate: r.test for r in report.rows} == {
            "Age": "t-test",
            "Sex": "chisq",
            "BMI": "t-test",
            "Stage": "chisq",
        }


class TestBalanceKernel:
    """`smd`, `two_sample_t_test`, `balance_report` and the genetic fitness
    read arm moments from one weight-row kernel."""

    def columns(self, rng, n):
        """A continuous column far from zero, a tie-heavy integer one and a
        0/1 one (the last for the SMD alone)."""
        return (
            rng.normal(60.0, 10.0, n),
            rng.integers(1, 5, n).astype(float),
            rng.integers(0, 2, n).astype(float),
        )

    def test_smd_and_welch_match_the_per_column_oracle(self):
        """To 1e-12 relative; an SMD near 0 to 1e-14 absolute, the rounding
        the oracle's unshifted weighted means of values near 60 carry (at
        seed 7, ATE weights, the kernel lies 3e-18 from the exact SMD
        -1.1169313482063e-05, the oracle 2.6e-15)."""
        import oracles

        checked = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(12, 300))
            z = (rng.random(n) < 0.4).astype(float)
            z[:2], z[2:4] = 1.0, 0.0
            ps = rng.uniform(0.05, 0.95, n)
            for weights in (None, *(compute_weights(ps, z, s).weights for s in ("ate", "matching"))):
                for j, values in enumerate(self.columns(rng, n)):
                    expected = oracles.column_smd(values, z, weights)
                    assert smd(values, z, weights) == pytest.approx(expected, rel=1e-12, abs=1e-14)
                    if j < 2:
                        expected = oracles.welch_p(values, z, weights)
                        assert two_sample_t_test(values, z, weights) == pytest.approx(
                            expected, rel=1e-12, abs=0
                        )
                    checked += 1
        assert checked == 30 * 3 * 3

    def test_two_pairings_of_one_matched_set_report_bit_equal(self):
        covariates = ["Age", "Sex", "BMI", "ASA", "Stage"]
        for seed in range(5):
            config = SynthConfig(n=400, seed=seed)
            cohort = generate_synthetic_cohort(config)
            ps = true_propensity(config, cohort.columns["Stage"], cohort.columns["Sex"])
            match = nearest_neighbor_match(ps, cohort.z)
            treated, control = zip(*match.pairs)
            repaired = MatchSet(
                tuple(zip(treated[::-1], control[1:] + control[:1])),
                match.unmatched_treated,
                match.caliper,
            )
            assert balance_report(cohort, ps, repaired, covariates) == balance_report(
                cohort, ps, match, covariates
            )

    def test_report_after_equals_the_genetic_fitness(self):
        """The balance the report gives the returned match, over the genetic
        covariates, is the fitness that selected it."""
        from qcausal.adjust import _GreedyCore
        from qcausal.cli import MODEL_COVARIATES

        for seed in range(3):
            config = SynthConfig(n=300, seed=seed)
            cohort = generate_synthetic_cohort(config)
            ps = true_propensity(config, cohort.columns["Stage"], cohort.columns["Sex"])
            X = cohort.matrix(MODEL_COVARIATES)
            match = genetic_match(X, cohort.z, ps, population=8, generations=2, seed=seed)
            core = _GreedyCore(ps, cohort.z, score_caliper(ps))
            taken = {t: int(np.searchsorted(core.control, c)) for t, c in match.pairs}
            picks = np.array([[taken.get(t, len(core.control)) for t in core.treated[core.order]]])
            assert core.match_set(picks[0]) == match
            report = balance_report(cohort, ps, match, MODEL_COVARIATES)
            assert report.mean_abs_smd_after == pytest.approx(
                core.fitness(picks, X)[0], rel=1e-12, abs=0
            )


class TestOverlapExactBalance:
    def test_logistic_scores_balance_model_covariates_exactly(self):
        config = SynthConfig(n=400, seed=12)
        cohort = generate_synthetic_cohort(config)
        X = cohort.matrix(["Age", "Sex", "BMI", "Stage"])
        model = fit_logistic(X, cohort.z, tol=1e-12)
        assert model.converged and not model.separation
        ps = predict_logistic(model, X)
        w = compute_weights(ps, cohort.z, "overlap").weights
        for j in range(X.shape[1]):
            t_mean = np.average(X[cohort.z == 1, j], weights=w[cohort.z == 1])
            c_mean = np.average(X[cohort.z == 0, j], weights=w[cohort.z == 0])
            assert t_mean == pytest.approx(c_mean, abs=1e-6)


def test_matching_on_single_covariate_shrinks_its_smd():
    rng = np.random.default_rng(21)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 60
        z = np.array([1.0] * 25 + [0.0] * 35)
        x = rng.normal(0.6 * z, 1.0)
        ps = 1 / (1 + np.exp(-(x - x.mean())))
        match = nearest_neighbor_match(ps, z, caliper_multiplier=0.25)
        if not match.pairs:
            continue
        idx = match.matched_indices()
        assert abs(smd(x[idx], z[idx])) <= abs(smd(x, z)) + 1e-12
