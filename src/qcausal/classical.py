"""Classical treatment-probability baselines.

Logistic regression is fit by Newton-Raphson (IRLS) maximum likelihood with a
ridge fallback when quasi-separation sends coefficients off to infinity.  The
boosted-tree model runs stage-wise gradient boosting on binomial deviance:
each stage fits a depth-limited least-squares regression tree to the residual
y - p and the ensemble score is F0 + learning_rate * sum of tree outputs.

Trees are grown on presorted columns (the column blocks of Chen & Guestrin,
XGBoost, 2016).  Each feature is sorted once per fit with a stable argsort; a
child keeps its parent's orders by a stable boolean partition, so every node
sees its rows in ascending value, ties in row order, with no sort of its own.
A node's rows depend only on its path of splits, (feature, threshold, side)
from the root, and later trees keep taking the same paths.  So what follows
from the rows alone, the rows, their sorted orders, the cut positions and the
children's partition, is built once per distinct split path per fit and
shared by every tree that takes the path.  Each tree computes only what
depends on its residuals: the node's sums, the purity test, the cumulative
sums at the cuts and the gains, with the same per-element arithmetic as a
scalar scan.  The winner follows a sequential rule, not argmin: the first
candidate in feature-then-threshold order, replaced by each later one whose
SSE is lower by more than 1e-15.  While it fits, each leaf writes its value at
the training rows that reach it, so the boosting update reads the new tree's
outputs from that buffer and never routes the training matrix through the
tree.  Prediction applies the trees to a whole matrix at once and splits each
distinct path's row block once per call, not once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .metrics import has_both_classes, is_binary

SEPARATION_BOUND = 30.0
RIDGE_FALLBACK = 1e-6


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def _design(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a 2-d row matrix")
    return np.hstack([np.ones((len(X), 1)), X])


@dataclass
class LogisticModel:
    coefficients: np.ndarray  # intercept first
    converged: bool
    n_iter: int
    separation: bool = False


def _newton_logistic(design, y, tol, max_iter, ridge):
    beta = np.zeros(design.shape[1])
    for it in range(1, max_iter + 1):
        p = _sigmoid(design @ beta)
        score = design.T @ (y - p) - ridge * beta
        if np.max(np.abs(score)) < tol:
            return beta, True, it
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            return beta, False, it
        w = np.clip(p * (1.0 - p), 1e-12, None)
        info = design.T @ (design * w[:, None]) + ridge * np.eye(design.shape[1])
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, score, rcond=None)[0]
        beta = beta + step
    return beta, False, max_iter


def fit_logistic(X, y, max_iter: int = 100, tol: float = 1e-9) -> LogisticModel:
    """Maximum-likelihood fit on finite X and 0/1 labels y with both classes
    present; converged when max |score| < tol.

    Separation (any |beta_j| above 30) triggers a ridge-penalized refit with
    penalty 1e-6 and sets the separation flag; coefficients are then capped at
    the bound so downstream probabilities stay off {0, 1}.
    """
    design = _design(X)
    y = np.asarray(y, dtype=float)
    if len(y) != len(design):
        raise ValueError("X and y must have equal row counts")
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if not is_binary(y):
        raise ValueError("labels must be 0 or 1")
    if not has_both_classes(y):
        raise ValueError("need at least two rows with both classes present")

    beta, converged, n_iter = _newton_logistic(design, y, tol, max_iter, ridge=0.0)
    separation = np.max(np.abs(beta)) > SEPARATION_BOUND or not np.all(np.isfinite(beta))
    if separation:
        beta, converged, n_iter = _newton_logistic(
            design, y, tol, max_iter, ridge=RIDGE_FALLBACK
        )
        beta = np.clip(beta, -SEPARATION_BOUND, SEPARATION_BOUND)
        converged = False
    return LogisticModel(beta, converged, n_iter, separation)


def predict_logistic(model: LogisticModel, x):
    """Inverse-logit of the linear predictor; accepts one row or a matrix."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    design = _design(x[None, :] if single else x)
    if design.shape[1] != len(model.coefficients):
        raise ValueError(
            f"expected {len(model.coefficients) - 1} features, got {design.shape[1] - 1}"
        )
    p = _sigmoid(design @ model.coefficients)
    return float(p[0]) if single else p


def logistic_nll(beta, X, y) -> float:
    """Negative log-likelihood at beta (intercept first); grid-search helper."""
    eta = _design(X) @ np.asarray(beta, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.sum(np.logaddexp(0.0, eta) - y * eta))


# ---------------------------------------------------------------------------
# gradient boosted regression trees on binomial deviance
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """Axis-aligned binary split; a node with feature=None is a leaf."""

    feature: int | None = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0


class _Path:
    """The rows of X that one path of splits from the root selects, with what
    follows from those rows alone.  Every tree of one fit, or of one
    predict_gbm call, that takes the path shares this object, so its children
    are partitioned once per distinct split and its cuts are found once.

    `rows` ascends.  A path that still searches for splits (`depth` > 0, the
    levels left below it) holds `orders`: row j lists its rows in ascending
    X[:, j], ties in row order.
    """

    def __init__(self, X, rows, orders=None, depth=0):
        self.X, self.rows, self.orders, self.depth = X, rows, orders, depth
        self._children = {}

    def split(self, feature, threshold):
        """The (left, right) children under X[:, feature] <= threshold."""
        key = (feature, threshold)
        if key not in self._children:
            self._children[key] = _partition(self, feature, threshold)
        return self._children[key]

    @cached_property
    def cuts(self):
        """Every cut of every feature, in feature-then-threshold order, as
        (position in the flattened orders, left count, right count); None when
        no feature has two distinct values."""
        n = self.orders.shape[1]
        xs = np.take_along_axis(self.X.T, self.orders, axis=1)  # X[orders[j], j] per row j
        cuts = np.flatnonzero(xs[:, :-1] != xs[:, 1:])
        if len(cuts) == 0:
            return None
        feature, at = np.divmod(cuts, n - 1)
        left_n = at + 1
        return feature * n + at, left_n.astype(float), (n - left_n).astype(float)


def _root(X, depth=0) -> _Path:
    """The path of no splits: every row of X, and the column orders (one
    stable argsort per feature) when the tree below it searches for splits."""
    # int32 halves what each path keeps, and `take` reads it about as fast as intp
    index = np.int32 if len(X) <= 2**31 else np.intp
    orders = np.argsort(X.T, axis=1, kind="stable").astype(index) if depth > 0 else None
    return _Path(X, np.arange(len(X), dtype=index), orders, depth)


def _partition(path: _Path, feature, threshold) -> tuple[_Path, _Path]:
    """A stable partition of the path's rows and, while the children still
    search for splits, of its orders, which keeps every order sorted, ties in
    row order."""
    X, rows, depth = path.X, path.rows, path.depth - 1
    left = X[:, feature] <= threshold
    row_left = left.take(rows)
    orders = None, None
    if path.orders is not None and depth > 0:
        flat, order_left, d = path.orders.ravel(), left.take(path.orders).ravel(), len(path.orders)
        orders = (
            flat.compress(order_left).reshape(d, -1),
            flat.compress(~order_left).reshape(d, -1),
        )
    return (
        _Path(X, rows.compress(row_left), orders[0], depth),
        _Path(X, rows.compress(~row_left), orders[1], depth),
    )


def _best_split(path: _Path, residuals, node_residuals, total):
    """Exact greedy SSE split of one node: (feature, threshold), or None when
    no feature has a cut.

    `node_residuals` holds the residuals of the path's rows, in row order, and
    `total` is their sum.  Every cut of every feature is scored in one pass.
    The winner is the first candidate, in feature-then-threshold order, after
    each replacement by a later one whose SSE is lower by more than 1e-15.
    """
    if path.cuts is None:
        return None
    flat, left_n, right_n = path.cuts
    n = len(node_residuals)
    base_sse = float(np.sum((node_residuals - total / n) ** 2))
    left_sum = np.cumsum(residuals.take(path.orders), axis=1).take(flat)
    right_sum = total - left_sum
    # SSE = const - sum_children (group sum)^2 / group size.  float_power is
    # libm pow per element, as the scalar `x**2` is; the array `x**2` is x*x,
    # which differs from pow in the last bit on some inputs.
    gain = np.float_power(left_sum, 2) / left_n + np.float_power(right_sum, 2) / right_n
    sse = base_sse - (gain - total**2 / n)
    # A replacement lies below every earlier candidate, so the sequential rule
    # only needs to visit the strict running minima.
    lower = np.flatnonzero(sse[1:] < np.minimum.accumulate(sse)[:-1]) + 1
    best, best_sse = 0, float(sse[0])
    for k, value in zip(lower.tolist(), sse[lower].tolist()):
        if value < best_sse - 1e-15:
            best, best_sse = k, value
    j, i = divmod(int(flat[best]), n)
    column = path.X[:, j]
    return j, (column[path.orders[j, i]] + column[path.orders[j, i + 1]]) / 2.0


def _fit_tree(path: _Path, residuals, leaf_values=None) -> TreeNode:
    """Grow the subtree of the node at `path`.  When `leaf_values` is given,
    each leaf writes its value there at the rows that reach it."""
    node_residuals = residuals.take(path.rows)
    total = node_residuals.sum()
    node = TreeNode(value=float(total / len(node_residuals)))  # what .mean() computes
    found = None
    if path.depth > 0 and len(node_residuals) > 1:
        # np.allclose(node_residuals, r0) written out; residuals are finite
        r0 = node_residuals[0]
        if not np.all(np.abs(node_residuals - r0) <= 1e-8 + 1e-5 * abs(r0)):
            found = _best_split(path, residuals, node_residuals, total)
    if found is None:
        if leaf_values is not None:
            leaf_values[path.rows] = node.value
        return node
    node.feature, node.threshold = found
    left, right = path.split(*found)
    node.left = _fit_tree(left, residuals, leaf_values)
    node.right = _fit_tree(right, residuals, leaf_values)
    return node


def _route(node: TreeNode, path: _Path, out) -> None:
    if node.feature is None:
        out[path.rows] = node.value
        return
    left, right = path.split(node.feature, node.threshold)
    _route(node.left, left, out)
    _route(node.right, right, out)


def _tree_values(tree: TreeNode, root: _Path) -> np.ndarray:
    """Leaf value of every row of root.X: each row block is split by
    X[:, feature] <= threshold, once per distinct path of the root."""
    out = np.empty(len(root.rows))
    _route(tree, root, out)
    return out


@dataclass
class GbmModel:
    trees: list[TreeNode] = field(default_factory=list)
    learning_rate: float = 0.1
    initial_score: float = 0.0
    n_features: int | None = None  # None skips predict_gbm's width check


def fit_gbm(X, y, n_trees: int = 100, depth: int = 3, learning_rate: float = 0.1) -> GbmModel:
    """Stage-wise boosting on finite X and 0/1 labels y; deterministic, since
    the exact greedy split search uses no randomness."""
    X = np.ascontiguousarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("X and y must be finite")
    if not is_binary(y):
        raise ValueError("labels must be 0 or 1")
    if not has_both_classes(y):
        raise ValueError("both classes must be present")

    ybar = y.mean()
    f0 = float(np.log(ybar / (1.0 - ybar)))
    scores = np.full(len(y), f0)
    root = _root(X, depth)
    leaf_values = np.empty(len(y))
    trees: list[TreeNode] = []
    for _ in range(n_trees):
        residuals = y - _sigmoid(scores)
        # the leaves partition the rows, so this is _tree_values(tree, _root(X))
        trees.append(_fit_tree(root, residuals, leaf_values))
        scores = scores + learning_rate * leaf_values
    return GbmModel(trees, learning_rate, f0, X.shape[1])


def predict_gbm(model: GbmModel, x):
    """sigmoid(F0 + learning_rate * sum of tree outputs); row or matrix input
    of finite features (NaN fails every `<=` and would route right)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if model.n_features is not None and rows.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {rows.shape[1]}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("features must be finite")
    root = _root(rows)
    scores = np.full(len(rows), model.initial_score)
    for tree in model.trees:
        scores = scores + model.learning_rate * _tree_values(tree, root)
    p = _sigmoid(scores)
    return float(p[0]) if single else p

