"""The presorted, vectorised boosted trees against the per-node argsort,
scalar split scan and row-by-row walk they replaced (kept verbatim in
oracles.py), and the input checks of fit_gbm and predict_gbm.

Equality is exact: the same feature, threshold and value at every node, and
bit-identical predictions.
"""

import itertools

import numpy as np
import pytest

import oracles
from qcausal import classical, cli, data


def assert_same_tree(new, old, path="root"):
    assert new.feature == old.feature, path
    assert new.value == old.value, path
    if old.feature is None:
        assert new.left is None and new.right is None, path
        return
    assert new.threshold == old.threshold, path
    assert_same_tree(new.left, old.left, path + ".left")
    assert_same_tree(new.right, old.right, path + ".right")


def rows_on_thresholds(model, X):
    """Copies of X's first row with one split feature set to its threshold,
    one per split node: these rows must go left."""
    rows, stack = [X[0]], list(model.trees)
    while stack:
        node = stack.pop()
        if node.feature is not None:
            rows.append(X[0].copy())
            rows[-1][node.feature] = node.threshold
            stack += [node.left, node.right]
    return np.array(rows)


def assert_same_fit(X, y, **kwargs):
    new = classical.fit_gbm(X, y, **kwargs)
    old = oracles.fit_gbm(X, y, **kwargs)
    assert len(new.trees) == len(old.trees)
    for a, b in zip(new.trees, old.trees):
        assert_same_tree(a, b)
    assert new.initial_score == old.initial_score
    queries = np.vstack([X, rows_on_thresholds(old, X)])
    assert np.array_equal(classical.predict_gbm(new, queries), oracles.predict_gbm(old, queries))


def tie_heavy_instance(seed):
    """Small integer levels, so equal values and equal split scores are common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    d = int(rng.integers(1, 4))
    levels = int(rng.integers(1, 5))
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
    y[:2] = [0.0, 1.0]
    return X, y, int(rng.integers(0, 4))


@pytest.mark.parametrize("seed", range(48))
def test_tie_heavy_fits_match_oracle(seed):
    X, y, depth = tie_heavy_instance(seed)
    assert_same_fit(X, y, n_trees=15, depth=depth, learning_rate=0.3)


def test_constant_feature_has_no_cut():
    rng = np.random.default_rng(3)
    y = (rng.random(30) < 0.5).astype(float)
    y[:2] = [0.0, 1.0]
    constant = np.full((30, 1), 2.0)
    assert_same_fit(constant, y, n_trees=3)
    assert all(tree.feature is None for tree in classical.fit_gbm(constant, y, n_trees=3).trees)
    mixed = np.column_stack([constant, rng.integers(0, 3, 30)])
    assert_same_fit(mixed, y, n_trees=10)
    assert all(tree.feature != 0 for tree in classical.fit_gbm(mixed, y, n_trees=10).trees)


@pytest.mark.parametrize("seed", range(12))
def test_leaf_buffer_equals_routing_every_row(seed):
    """fit_gbm updates its scores from the values the leaves write while the
    tree grows; they equal the tree applied to the training matrix."""
    X, _, depth = tie_heavy_instance(seed)
    residuals = np.random.default_rng(seed).normal(size=len(X))
    leaf_values = np.full(len(X), np.nan)
    tree = classical._fit_tree(classical._root(X, depth), residuals, leaf_values)
    assert np.array_equal(leaf_values, classical._tree_values(tree, classical._root(X)))


@pytest.mark.parametrize("r0", [0.3, -0.3, 0.0])
@pytest.mark.parametrize("gap", [2e-9, 9e-9, 2.9e-6, 3.1e-6, 1e-3])
def test_node_is_pure_exactly_when_allclose(r0, gap):
    residuals = np.array([r0, r0 + gap, r0, r0 + gap, r0 - gap])
    X = np.arange(5.0)[:, None]
    tree = classical._fit_tree(classical._root(X, 2), residuals)
    assert (tree.feature is None) == np.allclose(residuals, residuals[0])


def test_generated_cohort_matches_oracle():
    cohort = data.generate_synthetic_cohort(data.SynthConfig(n=1500, seed=1))
    assert_same_fit(cohort.matrix(cli.MODEL_COVARIATES), cohort.z)


def split_paths(tree, path=()):
    """(path from the root, own split) of every internal node of a tree; a path
    is its (feature, threshold, side) steps."""
    if tree.feature is None:
        return []
    split = (tree.feature, tree.threshold)
    return [
        (path, split),
        *split_paths(tree.left, path + (split + ("left",),)),
        *split_paths(tree.right, path + (split + ("right",),)),
    ]


def test_each_distinct_split_path_is_partitioned_once_per_fit(monkeypatch):
    cohort = data.generate_synthetic_cohort(data.SynthConfig(n=1500, seed=1))
    partitions = []
    build = classical._partition

    def counted(path, feature, threshold):
        partitions.append((feature, threshold))
        return build(path, feature, threshold)

    monkeypatch.setattr(classical, "_partition", counted)
    model = classical.fit_gbm(cohort.matrix(cli.MODEL_COVARIATES), cohort.z)
    internal = [node for tree in model.trees for node in split_paths(tree)]
    assert len(partitions) == len(set(internal)) < len(internal)


def test_held_out_rows_score_like_the_oracle():
    cohort = data.generate_synthetic_cohort(data.SynthConfig(n=1500, seed=1))
    X, z = cohort.matrix(cli.MODEL_COVARIATES), cohort.z
    fit = np.zeros(len(X), dtype=bool)
    fit[np.random.default_rng(1).choice(len(X), 300, replace=False)] = True
    new = classical.fit_gbm(X[fit], z[fit], n_trees=40)
    old = oracles.fit_gbm(X[fit], z[fit], n_trees=40)
    for a, b in zip(new.trees, old.trees, strict=True):
        assert_same_tree(a, b)
    queries = np.vstack([X[~fit], rows_on_thresholds(old, X[~fit])])
    assert np.array_equal(classical.predict_gbm(new, queries), oracles.predict_gbm(old, queries))


def test_fits_in_a_row_share_no_paths():
    # two halves of one cohort: the same shape and many of the same splits, so
    # paths kept from the first fit or prediction would hand the second one
    # the first half's rows
    cohort = data.generate_synthetic_cohort(data.SynthConfig(n=400, seed=2))
    X, z = cohort.matrix(cli.MODEL_COVARIATES), cohort.z
    for half in (slice(0, 200), slice(200, 400)):
        assert_same_fit(X[half], z[half], n_trees=20)


def near_tie_instance(seed, d, size=6, levels=None):
    """The first `size` rows carry residuals near +0.5 and the rest near -0.5.
    Every feature ranks the first half below the second in its own random
    order (a permutation, or `levels` tied levels per half), so each feature's
    best cut is the same partition, and its SSE differs from the other
    features' only by rounding in the cumulative sums."""
    rng = np.random.default_rng(seed)
    residuals = np.concatenate([rng.normal(0.5, 0.15, size), rng.normal(-0.5, 0.15, size)])
    X = np.empty((2 * size, d))
    for j in range(d):
        for half in (0, 1):
            draw = rng.permutation(size) if levels is None else rng.integers(0, levels, size)
            X[half * size:(half + 1) * size, j] = half * (levels or size) + draw
    return X, residuals


def per_feature_best_sse(X, residuals):
    return [oracles._best_split(X[:, [j]], residuals)[0] for j in range(X.shape[1])]


def assert_same_grown_tree(X, residuals, depth):
    new = classical._fit_tree(classical._root(X, depth), residuals)
    old = oracles._fit_tree(X, residuals, depth)
    assert_same_tree(new, old)
    values = range(-1, int(X.max()) + 2)
    grid = np.array(list(itertools.product(values, repeat=X.shape[1])), dtype=float)
    new_model = classical.GbmModel([new], 1.0, 0.0)
    old_model = classical.GbmModel([old], 1.0, 0.0)
    assert np.array_equal(
        classical.predict_gbm(new_model, grid), oracles.predict_gbm(old_model, grid)
    )
    return new


def test_later_candidate_lower_by_less_than_tolerance_does_not_win():
    X, residuals = near_tie_instance(4, d=2)
    first, second = per_feature_best_sse(X, residuals)
    assert first < 16.0
    assert 0.0 < first - second < 1e-15  # argmin would take feature 1
    tree = assert_same_grown_tree(X, residuals, depth=2)
    assert (tree.feature, tree.threshold) == (0, 5.5)


def test_chain_of_just_larger_drops_is_followed():
    X, residuals = near_tie_instance(7352, d=3)
    sse = per_feature_best_sse(X, residuals)
    assert sse[0] < 16.0
    for earlier, later in zip(sse, sse[1:]):
        assert 1e-15 < earlier - later < 2e-15
    tree = assert_same_grown_tree(X, residuals, depth=2)
    assert (tree.feature, tree.threshold) == (2, 5.5)


def test_split_scores_square_like_the_scalar_scan():
    # here x*x and pow(x, 2) differ in the last bit of a gain, which decides
    # between two near-tied features
    X, residuals = near_tie_instance(4090, d=3)
    tree = assert_same_grown_tree(X, residuals, depth=2)
    assert tree.feature == 2


def test_tied_rows_are_summed_in_row_order():
    # an unstable sort sums a tie block in another order, which here moves
    # the winner among near-tied features
    X, residuals = near_tie_instance(0, d=3, size=20, levels=3)
    tree = assert_same_grown_tree(X, residuals, depth=2)
    assert tree.feature == 2


class TestRejectedInput:
    X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0], [3.0, 0.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="depth"):
            classical.fit_gbm(self.X, self.y, depth=-1)

    @pytest.mark.parametrize("labels", [[0.0, 2.0, 0.0, 2.0], [0.25, 0.75, 0.25, 0.75]])
    def test_labels_outside_zero_one(self, labels):
        with pytest.raises(ValueError, match="labels"):
            classical.fit_gbm(self.X, labels)

    def test_non_finite_features(self):
        X = self.X.copy()
        X[2, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            classical.fit_gbm(X, self.y)

    def test_non_finite_labels(self):
        y = self.y.copy()
        y[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            classical.fit_gbm(self.X, y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_predict_on_non_finite_features(self, value):
        model = classical.fit_gbm(self.X, self.y, n_trees=2)
        row = np.array([value, 0.0])
        with pytest.raises(ValueError, match="finite"):
            classical.predict_gbm(model, row)
        with pytest.raises(ValueError, match="finite"):
            classical.predict_gbm(model, np.vstack([self.X, row]))

    @pytest.mark.parametrize("width", [1, 3])
    def test_predict_on_wrong_width(self, width):
        model = classical.fit_gbm(self.X, self.y, n_trees=2)
        assert model.n_features == 2
        with pytest.raises(ValueError, match="expected 2 features"):
            classical.predict_gbm(model, np.ones((3, width)))
        with pytest.raises(ValueError, match="expected 2 features"):
            classical.predict_gbm(model, np.ones(width))
