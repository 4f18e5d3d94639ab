import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcausal.metrics import accuracy, brier, log_loss, roc_and_auc


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = roc_and_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert auc == 1.0

    def test_constant_scores_give_half(self):
        _, auc = roc_and_auc([0.4] * 6, [0, 1, 0, 1, 1, 0])
        assert auc == pytest.approx(0.5, abs=1e-12)

    def test_concordant_pair_example(self):
        _, auc = roc_and_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert auc == pytest.approx(0.75, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_and_auc([0.1, 0.9], [1, 1])

    def test_curve_runs_corner_to_corner(self):
        curve, _ = roc_and_auc([0.2, 0.6, 0.3, 0.9], [0, 1, 0, 1])
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert curve.thresholds[0] == np.inf

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(-50, 50), st.integers(0, 1)),
            min_size=4,
            max_size=40,
        )
    )
    def test_monotone_transform_invariance_and_complement(self, data):
        # decimal-grid scores keep the warp strictly increasing in floats
        scores = np.array([s / 10.0 for s, _ in data])
        labels = np.array([l for _, l in data], dtype=float)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        _, auc = roc_and_auc(scores, labels)
        _, auc_warp = roc_and_auc(np.exp(scores) + 3 * scores, labels)
        assert auc_warp == pytest.approx(auc, abs=1e-12)
        _, auc_neg = roc_and_auc(-scores, labels)
        assert auc + auc_neg == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1)),
            min_size=4,
            max_size=30,
        )
    )
    def test_staircase_monotone(self, data):
        scores = np.array([s for s, _ in data])
        labels = np.array([l for _, l in data], dtype=float)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        curve, _ = roc_and_auc(scores, labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)


    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_threshold_oracle(self, tied, seed):
        rng = np.random.default_rng(seed)
        n = 300
        scores = rng.integers(0, 7, n) / 8.0 if tied else rng.random(n)
        labels = (rng.random(n) < 0.4).astype(float)
        curve, auc = roc_and_auc(scores, labels)
        cuts = np.unique(scores)[::-1]
        pos, neg = scores[labels == 1.0], scores[labels == 0.0]
        assert np.array_equal(curve.thresholds, np.append(np.inf, cuts))
        assert np.array_equal(curve.fpr, [0.0] + [np.mean(neg >= t) for t in cuts])
        assert np.array_equal(curve.tpr, [0.0] + [np.mean(pos >= t) for t in cuts])
        # pair counting: a tied positive/negative pair counts 1/2
        wins = (pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :])
        assert auc == pytest.approx(wins.mean(), abs=1e-12)


class TestLogLoss:
    def test_near_perfect_after_clipping(self):
        eps = 1e-3
        probs = np.array([1 - eps, 1 - eps, eps])
        labels = np.array([1, 1, 0])
        assert log_loss(probs, labels) < 0.01

    def test_half_everywhere(self):
        assert log_loss([0.5] * 4, [0, 1, 0, 1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_single_item_quarter(self):
        assert log_loss([0.25], [1]) == pytest.approx(math.log(4), abs=1e-12)

    def test_exact_zero_or_one_rejected(self):
        with pytest.raises(ValueError):
            log_loss([0.0, 0.5], [0, 1])
        with pytest.raises(ValueError):
            log_loss([1.0], [1])


class TestBrier:
    def test_perfect(self):
        assert brier([0.0, 1.0], [0, 1]) == 0.0

    def test_half_everywhere(self):
        assert brier([0.5] * 3, [0, 1, 0]) == pytest.approx(0.25, abs=1e-15)

    def test_worst_case(self):
        assert brier([1.0, 0.0], [0, 1]) == 1.0


class TestAccuracy:
    def test_perfect_separation(self):
        assert accuracy([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_ties_classified_positive(self):
        labels = np.array([1, 0, 1, 1])
        assert accuracy([0.5] * 4, labels) == labels.mean()

    def test_both_wrong(self):
        assert accuracy([0.6, 0.4], [0, 1]) == 0.0


def test_constant_predictor_minimized_at_label_mean():
    labels = np.array([0, 0, 1, 1, 1, 0, 1], dtype=float)
    grid = np.linspace(0.01, 0.99, 99)
    briers = [brier([p] * len(labels), labels) for p in grid]
    losses = [log_loss([p] * len(labels), labels) for p in grid]
    ybar = labels.mean()
    assert abs(grid[np.argmin(briers)] - ybar) < 0.011
    assert abs(grid[np.argmin(losses)] - ybar) < 0.011
