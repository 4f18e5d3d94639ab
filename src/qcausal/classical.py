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
A node scores every cut of every feature in one vectorised pass over the
cumulative residual sums, with the same per-element arithmetic as a scalar
scan.  The winner follows a sequential rule, not argmin: the first candidate
in feature-then-threshold order, replaced by each later one whose SSE is
lower by more than 1e-15.  A tree is applied to a whole matrix at once by
splitting the block of row indices at each node.  While it fits, each leaf
writes its value at the training rows that reach it, so the boosting update
reads the new tree's outputs from that buffer and never routes the training
matrix through the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _best_split(X, residuals, orders, node_residuals):
    """Exact greedy SSE split of one node: (feature, threshold), or None when
    no feature has a cut.

    `orders[j]` lists the node's rows in ascending X[:, j], ties in row order,
    and `node_residuals` holds their residuals in ascending row order.  Every
    cut of every feature is scored in one pass.  The winner is the first
    candidate, in feature-then-threshold order, after each replacement by a
    later one whose SSE is lower by more than 1e-15.
    """
    d, n = orders.shape
    total = node_residuals.sum()
    base_sse = float(np.sum((node_residuals - node_residuals.mean()) ** 2))
    xs = X.ravel()[orders * d + np.arange(d)[:, None]]  # X[orders[j], j] per row j
    cuts = np.flatnonzero(xs[:, :-1] != xs[:, 1:])
    if len(cuts) == 0:
        return None
    feature, at = np.divmod(cuts, n - 1)
    left_n = at + 1
    left_sum = np.cumsum(residuals[orders], axis=1)[feature, at]
    right_sum = total - left_sum
    # SSE = const - sum_children (group sum)^2 / group size.  float_power is
    # libm pow per element, as the scalar `x**2` is; the array `x**2` is x*x,
    # which differs from pow in the last bit on some inputs.
    gain = np.float_power(left_sum, 2) / left_n + np.float_power(right_sum, 2) / (n - left_n)
    sse = base_sse - (gain - total**2 / n)
    # A replacement lies below every earlier candidate, so the sequential rule
    # only needs to visit the strict running minima.
    lower = np.flatnonzero(sse[1:] < np.minimum.accumulate(sse)[:-1]) + 1
    best, best_sse = 0, float(sse[0])
    for k, value in zip(lower.tolist(), sse[lower].tolist()):
        if value < best_sse - 1e-15:
            best, best_sse = k, value
    j, i = int(feature[best]), at[best]
    return j, (xs[j, i] + xs[j, i + 1]) / 2.0


def _column_orders(X) -> np.ndarray:
    """Row j lists the rows of X in ascending X[:, j], ties in row order."""
    return np.argsort(X.T, axis=1, kind="stable")


def _fit_tree(X, residuals, rows, orders, depth, leaf_values=None) -> TreeNode:
    """Grow the subtree of the node holding `rows` (ascending), whose
    per-feature sorted orders are the rows of `orders`.  When `leaf_values`
    is given, each leaf writes its value there at the rows that reach it."""
    node_residuals = residuals[rows]
    node = TreeNode(value=float(node_residuals.mean()))
    found = None
    if depth > 0 and len(rows) > 1:
        # np.allclose(node_residuals, r0) written out; residuals are finite
        r0 = node_residuals[0]
        if not np.all(np.abs(node_residuals - r0) <= 1e-8 + 1e-5 * abs(r0)):
            found = _best_split(X, residuals, orders, node_residuals)
    if found is None:
        if leaf_values is not None:
            leaf_values[rows] = node.value
        return node
    node.feature, node.threshold = found
    left = X[:, node.feature] <= node.threshold
    # a stable partition keeps every sorted order sorted, ties in row order
    row_left, order_left = left[rows], left[orders].ravel()
    flat, d = orders.ravel(), len(orders)
    node.left = _fit_tree(
        X, residuals, rows.compress(row_left),
        flat.compress(order_left).reshape(d, -1), depth - 1, leaf_values,
    )
    node.right = _fit_tree(
        X, residuals, rows.compress(~row_left),
        flat.compress(~order_left).reshape(d, -1), depth - 1, leaf_values,
    )
    return node


def _route(node: TreeNode, X, rows, out) -> None:
    if node.feature is None:
        out[rows] = node.value
        return
    left = X[rows, node.feature] <= node.threshold
    _route(node.left, X, rows[left], out)
    _route(node.right, X, rows[~left], out)


def _tree_values(tree: TreeNode, X) -> np.ndarray:
    """Leaf value of every row of X: the row block is split at each node by
    X[:, feature] <= threshold."""
    out = np.empty(len(X))
    _route(tree, X, np.arange(len(X)), out)
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
    rows = np.arange(len(y))
    orders = _column_orders(X)
    leaf_values = np.empty(len(y))
    trees: list[TreeNode] = []
    for _ in range(n_trees):
        residuals = y - _sigmoid(scores)
        # the leaves partition the rows, so this is _tree_values(tree, X)
        trees.append(_fit_tree(X, residuals, rows, orders, depth, leaf_values))
        scores = scores + learning_rate * leaf_values
    return GbmModel(trees, learning_rate, f0, X.shape[1])


def predict_gbm(model: GbmModel, x):
    """sigmoid(F0 + learning_rate * sum of tree outputs); row or matrix input."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None, :] if single else x
    if model.n_features is not None and rows.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {rows.shape[1]}")
    scores = np.full(len(rows), model.initial_score)
    for tree in model.trees:
        scores = scores + model.learning_rate * _tree_values(tree, rows)
    p = _sigmoid(scores)
    return float(p[0]) if single else p

