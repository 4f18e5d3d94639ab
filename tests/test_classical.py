import numpy as np
import pytest

from oracles import gbm_training_deviance
from qcausal.classical import (
    GbmModel,
    TreeNode,
    fit_gbm,
    fit_logistic,
    logistic_nll,
    predict_gbm,
    predict_logistic,
)


def grid_minimize_nll(X, y, lo=-5.0, hi=5.0, rounds=4, width=41):
    """Coarse-to-fine 2-d grid search over (intercept, slope); oracle only."""
    b0_lo, b0_hi, b1_lo, b1_hi = lo, hi, lo, hi
    best = None
    for _ in range(rounds):
        b0s = np.linspace(b0_lo, b0_hi, width)
        b1s = np.linspace(b1_lo, b1_hi, width)
        values = np.empty((width, width))
        for i, b0 in enumerate(b0s):
            for j, b1 in enumerate(b1s):
                values[i, j] = logistic_nll([b0, b1], X, y)
        i, j = np.unravel_index(np.argmin(values), values.shape)
        best = (b0s[i], b1s[j], values[i, j])
        span0 = (b0_hi - b0_lo) / (width - 1)
        span1 = (b1_hi - b1_lo) / (width - 1)
        b0_lo, b0_hi = b0s[i] - 2 * span0, b0s[i] + 2 * span0
        b1_lo, b1_hi = b1s[j] - 2 * span1, b1s[j] + 2 * span1
    return best


class TestLogistic:
    def test_independent_labels_recover_intercept_only(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 2))
        y = rng.binomial(1, 0.3, size=400).astype(float)
        model = fit_logistic(X, y)
        assert model.converged
        ybar = y.mean()
        assert model.coefficients[0] == pytest.approx(np.log(ybar / (1 - ybar)), abs=1e-6 + 0.2)
        assert np.all(np.abs(model.coefficients[1:]) < 0.3)

    def test_exact_intercept_when_no_features_vary_effectively(self):
        # labels independent of X by construction: every x value sees same y mix
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0, 1.0])
        model = fit_logistic(X, y)
        assert model.coefficients[0] == pytest.approx(0.0, abs=1e-8)
        assert model.coefficients[1] == pytest.approx(0.0, abs=1e-8)

    def test_nll_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(20, 1))
            y = (rng.uniform(size=20) < 0.5).astype(float)
            if len(np.unique(y)) < 2:
                y[0] = 1 - y[0]
            model = fit_logistic(X, y)
            nll_hat = logistic_nll(model.coefficients, X, y)
            _, _, nll_grid = grid_minimize_nll(X, y)
            assert nll_hat <= nll_grid + 1e-3

    def test_score_equations_hold_at_convergence(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        y = rng.binomial(1, 0.5, size=50).astype(float)
        model = fit_logistic(X, y, tol=1e-10)
        design = np.hstack([np.ones((50, 1)), X])
        p = 1 / (1 + np.exp(-design @ model.coefficients))
        score = design.T @ (y - p)
        assert np.max(np.abs(score)) < 1e-10

    def test_row_duplication_leaves_fit_unchanged(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 1))
        y = rng.binomial(1, 0.4, size=30).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        a = fit_logistic(X, y)
        b = fit_logistic(np.vstack([X, X]), np.concatenate([y, y]))
        assert np.allclose(a.coefficients, b.coefficients, atol=1e-10)

    def test_separation_flagged_and_capped(self):
        # small feature scale keeps the score above tol until |beta| > 30
        X = np.array([[-0.2], [-0.1], [0.1], [0.2]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_logistic(X, y)
        assert model.separation
        assert not model.converged
        assert np.max(np.abs(model.coefficients)) <= 30.0
        p = predict_logistic(model, np.array([1.0]))
        assert 0.0 < p < 1.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic([[1.0], [2.0]], [1.0, 1.0])

    def test_single_class_of_many_rows_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_logistic(np.arange(6.0)[:, None], np.zeros(6))

    @pytest.mark.parametrize("labels", [[0.0, 2.0, 0.0, 2.0], [0.0, 1.0, 0.5, 1.0], [-1.0, 1.0, -1.0, 1.0]])
    def test_labels_outside_zero_one_rejected(self, labels):
        # {0, 2} used to fit with capped coefficients and the separation flag
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_logistic([[0.3], [0.1], [0.7], [0.2]], labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.array([[0.3], [0.1], [0.7], [0.2]])
        X[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_logistic(X, [0.0, 1.0, 0.0, 1.0])

    def test_non_finite_label_rejected(self):
        # a NaN label used to return NaN coefficients after max_iter iterations
        with pytest.raises(ValueError, match="finite"):
            fit_logistic([[0.3], [0.1], [0.7], [0.2]], [0.0, 1.0, np.nan, 1.0])


class TestPredictLogistic:
    def test_zero_coefficients_give_half(self):
        model = fit_logistic([[0.0], [1.0], [0.0], [1.0]], [0, 1, 1, 0])
        assert predict_logistic(model, np.array([0.7])) == pytest.approx(0.5, abs=1e-6)

    def test_known_value(self):
        from qcausal.classical import LogisticModel

        model = LogisticModel(np.array([0.0, 1.0]), True, 1)
        assert predict_logistic(model, np.array([1.0])) == pytest.approx(
            1 / (1 + np.exp(-1)), abs=1e-12
        )

    def test_monotone_in_linear_predictor(self):
        from qcausal.classical import LogisticModel

        model = LogisticModel(np.array([0.0, 2.0]), True, 1)
        xs = np.linspace(-5, 5, 21).reshape(-1, 1)
        ps = predict_logistic(model, xs)
        assert np.all(np.diff(ps) > 0)
        assert predict_logistic(model, np.array([50.0])) > 0.999999

    def test_dimension_mismatch(self):
        from qcausal.classical import LogisticModel

        model = LogisticModel(np.array([0.0, 1.0]), True, 1)
        with pytest.raises(ValueError):
            predict_logistic(model, np.array([1.0, 2.0]))


class TestGbm:
    def test_zero_trees_rejected(self):
        with pytest.raises(ValueError):
            fit_gbm([[0.0], [1.0]], [0, 1], n_trees=0)

    def test_single_tree_fits_separable_data_exactly(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbm(X, y, n_trees=1, depth=2, learning_rate=1.0)
        preds = predict_gbm(model, X)
        assert np.array_equal((preds >= 0.5).astype(float), y)

    def test_zero_learning_rate_predicts_base_rate(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 1.0, 1.0, 1.0])
        model = fit_gbm(X, y, n_trees=5, learning_rate=0.0)
        assert np.allclose(predict_gbm(model, X), 0.75)

    def test_training_deviance_monotone_in_stages(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=80) > 0).astype(float)
        model = fit_gbm(X, y, n_trees=40, depth=2, learning_rate=0.2)
        deviances = [gbm_training_deviance(model, X, y, k) for k in range(41)]
        assert all(b <= a + 1e-12 for a, b in zip(deviances, deviances[1:]))

    def test_fit_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = rng.binomial(1, 0.5, size=40).astype(float)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        a = fit_gbm(X, y, n_trees=10)
        b = fit_gbm(X, y, n_trees=10)
        assert np.allclose(predict_gbm(a, X), predict_gbm(b, X))


class TestPredictGbm:
    def test_empty_tree_model_gives_base_rate(self):
        model = GbmModel([], 0.1, np.log(0.6 / 0.4))
        assert predict_gbm(model, np.array([5.0])) == pytest.approx(0.6, abs=1e-12)

    def test_piecewise_constant_between_thresholds(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        model = fit_gbm(X, y, n_trees=3, depth=1, learning_rate=0.5)
        # all thresholds sit at 1.5; moving x inside a region changes nothing
        assert predict_gbm(model, np.array([0.2])) == predict_gbm(model, np.array([1.4]))
        assert predict_gbm(model, np.array([1.6])) == predict_gbm(model, np.array([2.9]))

    def test_hand_built_three_tree_walk(self):
        leaf = lambda v: TreeNode(value=v)
        split = lambda f, t, l, r: TreeNode(feature=f, threshold=t, left=l, right=r)
        trees = [
            split(0, 0.5, leaf(-1.0), leaf(2.0)),
            split(0, 0.1, leaf(0.5), leaf(1.0)),
            leaf(-0.25),
        ]
        model = GbmModel(trees, learning_rate=0.1, initial_score=0.2)
        # x = 0.2: -1.0 (left) + 1.0 (right) - 0.25 -> score 0.2 + 0.1 * (-0.25)
        expected = 1 / (1 + np.exp(-(0.2 + 0.1 * (-1.0 + 1.0 - 0.25))))
        assert predict_gbm(model, np.array([0.2])) == pytest.approx(expected, abs=1e-12)
