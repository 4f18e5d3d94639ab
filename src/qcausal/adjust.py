"""Score-based matching, weighting schemes, and covariate balance diagnostics.

Matching is 1:1 without replacement.  Greedy nearest-neighbor processes
treated subjects in descending score order (ties by index) under a caliper
of caliper_multiplier * std(scores); optimal matching solves the same problem
as a minimum-cost assignment where unmatched treated subjects fall back to
dummy columns.  Genetic matching searches a positive diagonal metric over
standardized covariates plus the score, scoring candidates by the mean
absolute standardized mean difference after matching.

Both greedy matchers run on one core.  It builds the caliper window once per
call: the (treated, control) pairs whose score gap is within the caliper,
in row-major order, so each treated subject's candidates stay in ascending
control index.  Distances are computed only inside the window:
|score gap| for nearest-neighbor matching, and for genetic matching each
genome's weighted Euclidean distance, gathered element by element from the
same full-matrix arithmetic, so every bit matches.  One pass over the
treated subjects then matches a whole generation of genomes at once, in
blocks of at most _BLOCK_BYTES of distances; each subject takes its nearest
control not yet taken by the same genome, equal distances go to the lowest
control index, and a subject whose candidates are all taken stays unmatched.
Distances must be finite: genetic matching raises ValueError on non-finite
covariates.

Weighting schemes, with e = score and Z the arm indicator:

    ATE       w = Z/e + (1-Z)/(1-e)
    ATT       w = Z + (1-Z) * e/(1-e)
    overlap   w = Z*(1-e) + (1-Z)*e
    matching  w = min(e, 1-e) / (Z*e + (1-Z)*(1-e))
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import chi2 as chi2_dist
from scipy.stats import t as t_dist

from .data import Cohort

SCHEMES = ("ate", "att", "overlap", "matching")


@dataclass(frozen=True)
class MatchSet:
    """1:1 pairs of (treated index, control index) plus leftover treated."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_treated: tuple[int, ...]
    caliper: float

    def matched_indices(self) -> np.ndarray:
        """All subject indices in the matched subset, treated then controls."""
        if not self.pairs:
            return np.array([], dtype=int)
        arr = np.asarray(self.pairs, dtype=int)
        return np.concatenate([arr[:, 0], arr[:, 1]])


@dataclass(frozen=True)
class WeightVector:
    weights: np.ndarray
    scheme: str

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(~np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)


def _split_groups(z) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=float)
    treated = np.flatnonzero(z == 1.0)
    control = np.flatnonzero(z == 0.0)
    if len(treated) == 0 or len(control) == 0:
        raise ValueError("both groups must be non-empty")
    return treated, control


def effective_sample_size(weights) -> float:
    """Kish's effective sample size (sum w)^2 / sum w^2."""
    weights = np.asarray(weights, dtype=float)
    return float(weights.sum() ** 2 / float(weights @ weights))


def _weighted_mean_var(values, weights):
    """Weighted mean and variance with the effective-sample-size dof correction."""
    wsum = weights.sum()
    mean = float(weights @ values / wsum)
    n_eff = effective_sample_size(weights)
    if n_eff <= 1:
        return mean, 0.0, n_eff
    var = float(weights @ (values - mean) ** 2 / wsum) * n_eff / (n_eff - 1.0)
    return mean, var, n_eff


def _is_binary(values) -> bool:
    return set(np.unique(values)) <= {0.0, 1.0}


def smd(values, z, weights=None) -> float:
    """Signed standardized mean difference (treated minus control).

    Continuous covariates pool the two group variances; dichotomous ones
    (values within {0,1}) use p*(1-p) in place of the sample variance.
    """
    values = np.asarray(values, dtype=float)
    treated, control = _split_groups(z)
    weights = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=float)
    binary = _is_binary(values)

    stats = []
    for idx in (treated, control):
        mean, var, _ = _weighted_mean_var(values[idx], weights[idx])
        if binary:
            var = mean * (1.0 - mean)
        stats.append((mean, var))
    (mt, vt), (mc, vc) = stats
    pooled = (vt + vc) / 2.0
    if pooled <= 0:
        if mt == mc:
            return 0.0
        raise ValueError("degenerate covariate: zero pooled variance with unequal means")
    return (mt - mc) / math.sqrt(pooled)


def compute_weights(ps, z, scheme: str) -> WeightVector:
    """Per-subject balancing weights for the chosen scheme."""
    ps = np.asarray(ps, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(ps <= 0.0) or np.any(ps >= 1.0):
        raise ValueError("scores must lie strictly inside (0, 1)")
    if scheme == "ate":
        w = z / ps + (1.0 - z) / (1.0 - ps)
    elif scheme == "att":
        w = z + (1.0 - z) * ps / (1.0 - ps)
    elif scheme == "overlap":
        w = z * (1.0 - ps) + (1.0 - z) * ps
    elif scheme == "matching":
        w = np.minimum(ps, 1.0 - ps) / (z * ps + (1.0 - z) * (1.0 - ps))
    else:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return WeightVector(w, scheme)


def score_caliper(ps, multiplier: float = 0.25) -> float:
    """Maximum allowed score distance inside a pair: multiplier * std of scores."""
    return float(multiplier * np.std(np.asarray(ps, dtype=float), ddof=1))


# Distance rows of one greedy pass over a generation are capped at this many
# bytes; a larger population is matched in blocks of genomes.
_BLOCK_BYTES = 4 << 20


class _GreedyCore:
    """Greedy 1:1 matching of one cohort, shared by every distance metric.

    Everything that does not depend on the metric is built once: the arms,
    the order treated subjects are visited in (descending score, then
    index), and the caliper window, the (treated, control) pairs whose score
    gap is within the caliper, in row-major order.  `run` then matches any
    number of metrics (genomes) in one pass over the treated subjects.
    """

    def __init__(self, ps, z, caliper: float):
        self.treated, self.control = _split_groups(z)
        ps_t, ps_c = ps[self.treated], ps[self.control]
        self.caliper = caliper
        self.order = np.array([r for _, r in sorted(zip((-ps_t).tolist(), range(len(ps_t))))])
        gap = ps_t[:, None] - ps_c[None, :]
        np.abs(gap, out=gap)
        # window positions in the flattened treated x control matrix; a NaN
        # caliper (from a NaN score) leaves the window empty
        self.flat = np.flatnonzero(gap <= caliper)
        self.rows, self.cols = np.divmod(self.flat, len(ps_c))
        bounds = np.searchsorted(self.rows, np.arange(len(ps_t) + 1))
        starts, stops = bounds[self.order], bounds[self.order + 1]
        steps = np.flatnonzero(starts < stops)
        # (step of order, window slice) of each treated subject with a candidate
        self.segments = list(zip(steps.tolist(), starts[steps].tolist(), stops[steps].tolist()))

    def run(self, distances) -> np.ndarray:
        """Greedy match for each row of `distances` (genomes x window).

        Returns, per genome, the control position taken at each step of
        `order`, or len(control) where every candidate of that treated
        subject was taken earlier.  Equal distances resolve to the lowest
        control index.  The distances must be finite, so a taken control is
        the only kind of candidate that cannot win.
        """
        if not np.isfinite(distances.max(initial=0.0)):
            raise ValueError("matching distances must be finite; check the covariates")
        n_genomes, n_control = len(distances), len(self.control)
        # 0 for a free control, inf once the genome has taken it: adding it
        # leaves a finite distance as it is and makes a taken control lose
        penalty = np.zeros((n_genomes, n_control))
        flat_penalty = penalty.reshape(-1)
        genome_start = np.arange(n_genomes) * n_control
        picks = np.full((n_genomes, len(self.order)), n_control, dtype=np.intp)
        for step, start, stop in self.segments:
            candidates = self.cols[start:stop]
            d = penalty.take(candidates, axis=1)
            d += distances[:, start:stop]
            # with every candidate taken, argmin lands on a taken control
            pick = candidates.take(d.argmin(axis=1))
            flat_penalty[genome_start + pick] = np.inf
            picks[:, step] = pick
        # such a step repeats an earlier pick of its genome: it stays unmatched
        ranks = np.argsort(picks, axis=1, kind="stable")
        ranked = np.take_along_axis(picks, ranks, axis=1)
        repeat = np.zeros(picks.shape, dtype=bool)
        np.put_along_axis(repeat, ranks[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
        picks[repeat] = n_control
        return picks

    def pair_indices(self, picks) -> tuple[np.ndarray, np.ndarray]:
        """Treated and control subjects of one genome's pairs, in match order."""
        matched = picks < len(self.control)
        return self.treated[self.order[matched]], self.control[picks[matched]]

    def match_set(self, picks) -> MatchSet:
        """The MatchSet of one genome's row of `run` output."""
        treated, control = self.pair_indices(picks)
        unmatched = self.treated[self.order[picks == len(self.control)]]
        pairs = tuple(zip(treated.tolist(), control.tolist()))
        return MatchSet(pairs, tuple(unmatched.tolist()), self.caliper)


def nearest_neighbor_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Greedy 1:1 matching on the score, treated visited in descending score."""
    ps = np.asarray(ps, dtype=float)
    core = _GreedyCore(ps, z, score_caliper(ps, caliper_multiplier))
    distances = np.abs(ps[core.treated][core.rows] - ps[core.control][core.cols])
    return core.match_set(core.run(distances[None, :])[0])


def optimal_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Minimum total |score difference| 1:1 assignment under the caliper.

    Solved exactly as a rectangular assignment problem.  Each treated subject
    also sees a private dummy column priced above any full real assignment,
    so infeasible subjects are left unmatched rather than forced out of
    caliper.
    """
    ps = np.asarray(ps, dtype=float)
    treated, control = _split_groups(z)
    caliper = score_caliper(ps, caliper_multiplier)
    nt, nc = len(treated), len(control)

    real = np.abs(ps[treated][:, None] - ps[control][None, :])
    dummy_cost = caliper * nt + 1.0
    forbid = 2.0 * dummy_cost + 1.0
    cost = np.full((nt, nc + nt), forbid)
    cost[:, :nc] = np.where(real <= caliper, real, forbid)
    cost[:, nc:] = np.where(np.eye(nt, dtype=bool), dummy_cost, forbid)

    rows, cols = linear_sum_assignment(cost)
    pairs = []
    unmatched = []
    for r, c in zip(rows, cols):
        if c < nc and real[r, c] <= caliper:
            pairs.append((int(treated[r]), int(control[c])))
        else:
            unmatched.append(int(treated[r]))
    pairs.sort()
    return MatchSet(tuple(pairs), tuple(sorted(unmatched)), caliper)


def _standardize(matrix):
    matrix = np.asarray(matrix, dtype=float)
    std = matrix.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    return (matrix - matrix.mean(axis=0)) / std


def _mean_abs_smd(covariates, z, match: MatchSet) -> float:
    """Mean |SMD| over the covariate columns within a match set."""
    covariates = np.asarray(covariates)
    idx = match.matched_indices()
    arm = np.asarray(z)[idx]
    binary = [_is_binary(col) for col in covariates.T]
    return _pair_smd(covariates.T, binary, idx[arm == 1], idx[arm == 0])


def _pair_smd(columns, binary, t_idx, c_idx) -> float:
    """Mean |SMD| of each column between the matched treated and controls,
    taken in pair order; dichotomous columns use p*(1-p) variances."""
    if len(t_idx) + len(c_idx) == 0:
        return math.inf
    total = 0.0
    for col, is_binary in zip(columns, binary):
        t_vals, c_vals = col[t_idx], col[c_idx]
        mt, mc = t_vals.mean(), c_vals.mean()
        if is_binary:
            vt, vc = mt * (1 - mt), mc * (1 - mc)
        else:
            vt = t_vals.var(ddof=1) if len(t_vals) > 1 else 0.0
            vc = c_vals.var(ddof=1) if len(c_vals) > 1 else 0.0
        pooled = (vt + vc) / 2.0
        if pooled <= 0:
            total += 0.0 if mt == mc else math.inf
        else:
            total += abs(mt - mc) / math.sqrt(pooled)
    return total / len(columns)


def genetic_match(
    covariates,
    z,
    ps,
    population: int = 100,
    generations: int = 30,
    seed: int = 0,
    caliper_multiplier: float = 0.25,
) -> MatchSet:
    """Evolve a diagonal metric over (standardized covariates, score) that
    minimizes the mean |SMD| after greedy matching in that metric.

    Tournament selection of size 3, uniform crossover at rate 0.5, log-normal
    gene mutation with sigma 0.2, one elite per generation; the unit metric is
    seeded into the initial population, so the result never balances worse
    than plain nearest-neighbor matching in standardized coordinates.
    """
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 2 or covariates.shape[1] < 1:
        raise ValueError("covariates must be a non-empty 2-d matrix")
    if population < 4:
        raise ValueError("population must be >= 4")
    ps = np.asarray(ps, dtype=float)
    rng = np.random.default_rng(seed)
    features = _standardize(np.column_stack([covariates, ps]))
    d = features.shape[1]
    # The score caliper keeps the match selective: without it, balanced arm
    # sizes would always match the whole cohort and balance could not change.
    core = _GreedyCore(ps, z, score_caliper(ps, caliper_multiplier))
    features_t, features_c = features[core.treated], features[core.control]
    columns = np.ascontiguousarray(covariates.T)
    binary = [_is_binary(col) for col in columns]
    width = len(core.cols)
    block = min(population, max(1, _BLOCK_BYTES // (8 * max(width, 1))))
    # buffers reused by every genome: the full cross product, one window
    # term, and the window distances of one block of genomes
    cross = np.empty((len(core.treated), len(core.control)))
    term = np.empty(width)
    buffer = np.empty((block, width))

    def window_distances(genome, out):
        """Weighted Euclidean distances inside the caliper window, element
        for element the arithmetic of the full treated x control matrix:
        sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0))."""
        weight = np.sqrt(genome)
        a, b = features_t * weight, features_c * weight
        np.matmul(a, b.T, out=cross)
        np.take((a * a).sum(axis=1), core.rows, out=out)
        out += np.take((b * b).sum(axis=1), core.cols, out=term)
        out -= np.multiply(np.take(cross, core.flat, out=term), 2.0, out=term)
        np.clip(out, 0.0, None, out=out)
        np.sqrt(out, out=out)

    def evaluate(genomes):
        """Greedy matches of a whole generation and their mean |SMD|."""
        picks = []
        for start in range(0, len(genomes), block):
            chunk = genomes[start : start + block]
            distances = buffer[: len(chunk)]
            for genome, out in zip(chunk, distances):
                window_distances(genome, out)
            picks.append(core.run(distances))
        picks = np.concatenate(picks)
        fitness = [_pair_smd(columns, binary, *core.pair_indices(row)) for row in picks]
        return picks, np.array(fitness)

    genomes = np.exp(rng.normal(0.0, 0.5, size=(population, d)))
    genomes[0] = 1.0  # identity-metric candidate
    matches, fitness = evaluate(genomes)

    for _ in range(generations):
        elite = int(np.argmin(fitness))
        children = [genomes[elite].copy()]
        while len(children) < population:
            picks = rng.integers(0, population, size=3)
            parent_a = genomes[picks[np.argmin(fitness[picks])]]
            picks = rng.integers(0, population, size=3)
            parent_b = genomes[picks[np.argmin(fitness[picks])]]
            if rng.random() < 0.5:
                take = rng.random(d) < 0.5
                child = np.where(take, parent_a, parent_b)
            else:
                child = parent_a.copy()
            child = child * np.exp(rng.normal(0.0, 0.2, size=d))
            children.append(child)
        genomes = np.asarray(children)
        matches, fitness = evaluate(genomes)

    return core.match_set(matches[int(np.argmin(fitness))])


# ---------------------------------------------------------------------------
# balance tests
# ---------------------------------------------------------------------------


def two_sample_t_test(values, z, weights=None) -> float:
    """Welch's unequal-variance t-test p-value; weighted runs replace group
    sizes with effective sample sizes (sum w)^2 / sum w^2."""
    values = np.asarray(values, dtype=float)
    treated, control = _split_groups(z)
    if len(treated) < 2 or len(control) < 2:
        raise ValueError("each group needs at least two observations")
    weights = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=float)

    (mt, vt, nt) = _weighted_mean_var(values[treated], weights[treated])
    (mc, vc, nc) = _weighted_mean_var(values[control], weights[control])
    se2 = vt / nt + vc / nc
    if se2 <= 0:
        raise ValueError("zero variance in both groups")
    t_stat = (mt - mc) / math.sqrt(se2)
    df_num = se2**2
    df_den = (vt / nt) ** 2 / (nt - 1.0) + (vc / nc) ** 2 / (nc - 1.0)
    df = df_num / df_den if df_den > 0 else nt + nc - 2.0
    return float(2.0 * t_dist.sf(abs(t_stat), df))


def _contingency_table(categories, z, weights):
    """Category-by-arm weight totals (empty categories dropped) and the
    counts expected under independence."""
    categories = np.asarray(categories)
    z = np.asarray(z, dtype=float)
    weights = np.ones(len(z)) if weights is None else np.asarray(weights, dtype=float)
    levels = np.unique(categories)
    table = np.zeros((len(levels), 2))
    for i, level in enumerate(levels):
        for g, arm in enumerate((0.0, 1.0)):
            table[i, g] = weights[(categories == level) & (z == arm)].sum()
    table = table[table.sum(axis=1) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return table, expected


def chi_square_test(categories, z, weights=None) -> float:
    """Pearson chi-square on the category-by-arm table, df = k - 1."""
    table, expected = _contingency_table(categories, z, weights)
    if len(table) < 2:
        raise ValueError("need at least two non-empty categories")
    if np.any(expected <= 0):
        raise ValueError("expected counts must be positive")
    stat = float(np.sum((table - expected) ** 2 / expected))
    return float(chi2_dist.sf(stat, len(table) - 1))


def chi_square_statistic(categories, z, weights=None) -> float:
    """The raw Pearson statistic (exposed for fixture checks)."""
    table, expected = _contingency_table(categories, z, weights)
    return float(np.sum((table - expected) ** 2 / expected))


# ---------------------------------------------------------------------------
# balance report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    smd_before: float
    smd_after: float
    test: str
    p_before: float
    p_after: float


@dataclass(frozen=True)
class BalanceReport:
    rows: tuple[BalanceRow, ...]
    mean_abs_smd_before: float
    mean_abs_smd_after: float

    def as_records(self) -> list[dict]:
        return [
            {
                "covariate": r.covariate,
                "smd_before": r.smd_before,
                "smd_after": r.smd_after,
                "test": r.test,
                "p_before": r.p_before,
                "p_after": r.p_after,
            }
            for r in self.rows
        ]


def balance_report(
    cohort: Cohort,
    ps,
    adjustment: MatchSet | WeightVector,
    covariates: Sequence[str],
) -> BalanceReport:
    """Per-covariate SMD and test p-values before and after adjustment.

    Matching adjustments evaluate the matched subset with unit weights;
    weighting adjustments reuse the full sample with the scheme's weights.
    Continuous covariates get Welch's t-test, binary and ordinal ones the
    chi-square test.
    """
    z = cohort.z
    if isinstance(adjustment, WeightVector):
        if len(adjustment.weights) != cohort.n:
            raise ValueError("weight vector length does not match the cohort")
        after_args = dict(indices=np.arange(cohort.n), weights=adjustment.weights)
    elif isinstance(adjustment, MatchSet):
        idx = adjustment.matched_indices()
        if len(idx) and idx.max() >= cohort.n:
            raise ValueError("match indices exceed the cohort")
        after_args = dict(indices=idx, weights=None)
    else:
        raise TypeError("adjustment must be a MatchSet or WeightVector")

    rows = []
    for name in covariates:
        spec = cohort.schema.variable(name)
        values = cohort.columns[name]
        test = "t-test" if spec.kind == "continuous" else "chisq"
        before_smd = smd(values, z)
        before_p = (
            two_sample_t_test(values, z)
            if test == "t-test"
            else chi_square_test(values, z)
        )
        idx = after_args["indices"]
        w = after_args["weights"]
        sub_vals, sub_z = values[idx], z[idx]
        sub_w = None if w is None else w[idx]
        after_smd = smd(sub_vals, sub_z, sub_w)
        after_p = (
            two_sample_t_test(sub_vals, sub_z, sub_w)
            if test == "t-test"
            else chi_square_test(sub_vals, sub_z, sub_w)
        )
        rows.append(BalanceRow(name, before_smd, after_smd, test, before_p, after_p))

    mean_before = float(np.mean([abs(r.smd_before) for r in rows]))
    mean_after = float(np.mean([abs(r.smd_after) for r in rows]))
    return BalanceReport(tuple(rows), mean_before, mean_after)
