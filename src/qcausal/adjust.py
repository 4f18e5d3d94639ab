"""Score-based matching, weighting schemes, and covariate balance diagnostics.

Matching is 1:1 without replacement.  Greedy nearest-neighbor processes
treated subjects in descending score order (ties by index) under a caliper
of caliper_multiplier * std(scores); optimal matching minimizes the total
score gap among the matches with the most pairs, by a dynamic program over
both arms sorted by score.  Genetic matching searches a positive diagonal
metric over standardized covariates plus the score, scoring candidates by
the mean absolute standardized mean difference after matching.

Both greedy matchers run on one core.  It builds the caliper window once per
call: the (treated, control) pairs whose score gap is within the caliper,
in row-major order, so each treated subject's candidates stay in ascending
control index.  Distances are computed only inside the window:
|score gap| for nearest-neighbor matching.  Genetic matching squares the
per-column gaps of every window pair once per call, as a (columns x window)
matrix over the raw covariates and score, and folds the standardizing
1/std^2 into the genome, so it ranks candidates by their squared weighted
distance; no square root is taken, since one could only merge two squared
distances an ulp apart into a false tie.  Two controls whose squared gaps
are equal column for column are then exactly equidistant.  One pass over
the treated subjects matches a whole generation of genomes at once: at each
subject, one matrix product gives every genome's squared distances to that
subject's window segment, and no distance outlives its step.  Each subject
takes its nearest control not yet taken by the same genome, equal distances
go to the lowest control index, and a subject whose candidates are all
taken stays unmatched.  Distances must be finite, and are checked once per
generation: on a non-empty window the core raises ValueError unless each
genome's weights times the column-wise largest gaps, a bound on all its
distances, is finite.  So a NaN or inf covariate raises before any pick, as
does a bound that overflows alone, every single distance being finite; an
empty window, as from a NaN score, never raises.

Every SMD, Welch test and genetic fitness reads its arm moments from one
kernel, `_arm_moments`, over weight rows: under weights w an arm's mean is
sum(w x) / sum(w), its effective size n = (sum w)^2 / sum(w^2), and its
variance sum(w (x - mean)^2) / (sum(w) - sum(w^2) / sum(w)), or p(1-p) for a
dichotomous column; a 0/1 row gives the sample mean, count and ddof=1
variance.  The SMD divides the difference of the arm means by the root of
the mean of their variances.  A match is its 0/1 membership row over the
cohort, so its balance, in the report as in the fitness, depends only on
the set of matched subjects.  A genome's fitness is the mean |SMD| over the
covariates of its match: genomes that match the same subjects get bit-equal
fitness, on equal fitness the lowest genome index is selected, and a match
without a pair scores inf.

Balance-test p-values come from the package's `_tails` module, Student's t
tail for Welch's t and the chi-square tail with k - 1 degrees of freedom for
Pearson's chi-square; they agree with scipy.stats' t.sf and chi2.sf to about
1e-13 relative.  The module needs numpy alone.

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

from ._tails import chi2_sf, t_sf
from .data import Cohort, variable
from .metrics import is_binary

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


def _arm_moments(rows, values, arms, binary) -> list:
    """Per arm of `arms` (subject index arrays), the (mean, n, var) of each
    column of `values` (subjects x columns) under each weight row of `rows`
    (rows x subjects), by the formulas of the module docstring: means and
    variances (rows x columns), n (rows x 1).  A `binary` column takes p(1-p)
    as its variance; n <= 1 gives 0.  Sums are taken about a shift, 0 for a
    dichotomous column and the value nearest the column mean otherwise, so an
    arm of equal integers has variance exactly 0; the means are returned about
    that shift, which leaves every difference between arms as it is."""
    nearest = np.abs(values - values.mean(axis=0)).argmin(axis=0)
    shifted = values - np.where(binary, 0.0, values[nearest, np.arange(values.shape[1])])
    moments = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for arm in arms:
            w, x = rows.take(arm, axis=1), shifted[arm]
            wsum = w.sum(axis=1, keepdims=True)
            wsq = (w * w).sum(axis=1, keepdims=True)
            n = wsum**2 / wsq
            sums = w @ x
            mean = sums / wsum
            var = np.maximum(w @ x**2 - mean * sums, 0.0) / (wsum - wsq / wsum)
            var = np.where(binary, mean * (1.0 - mean), np.where(n > 1, var, 0.0))
            moments.append((mean, n, var))
    return moments


def _signed_smd(treated, control) -> np.ndarray:
    """Signed SMD between two arms' `_arm_moments`.  A zero pooled variance
    gives 0 for equal means, else an infinite SMD."""
    (mean_t, _, var_t), (mean_c, _, var_c) = treated, control
    diff, pooled = mean_t - mean_c, (var_t + var_c) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        degenerate = np.where(diff == 0, 0.0, np.copysign(np.inf, diff))
        return np.where(pooled <= 0, degenerate, diff / np.sqrt(pooled))


def _column_moments(values, z, weights, binary) -> list:
    """`_arm_moments` of one column under one weight row (unit weights by
    default), as (mean, n, var) floats per arm."""
    values = np.asarray(values, dtype=float)
    row = np.ones(len(values)) if weights is None else np.asarray(weights, dtype=float)
    arms = _arm_moments(row[None], values[:, None], _split_groups(z), np.array([binary]))
    return [tuple(float(stat[0, 0]) for stat in arm) for arm in arms]


def smd(values, z, weights=None) -> float:
    """Signed standardized mean difference (treated minus control).

    Continuous covariates pool the two group variances; dichotomous ones
    (values within {0,1}) use p*(1-p) in place of the sample variance.
    """
    value = float(_signed_smd(*_column_moments(values, z, weights, is_binary(values))))
    if math.isinf(value):
        raise ValueError("degenerate covariate: zero pooled variance with unequal means")
    return value


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
        flat = np.flatnonzero(gap <= caliper)
        self.rows, self.cols = np.divmod(flat, len(ps_c))
        bounds = np.searchsorted(self.rows, np.arange(len(ps_t) + 1))
        starts, stops = bounds[self.order], bounds[self.order + 1]
        steps = np.flatnonzero(starts < stops)
        # (step of order, window slice) of each treated subject with a candidate
        self.segments = list(zip(steps.tolist(), starts[steps].tolist(), stops[steps].tolist()))

    def run(self, weights, gaps) -> np.ndarray:
        """Greedy match for each row of `weights`, a (genomes x columns)
        matrix, on `gaps`, a (columns x window) matrix, both >= 0.  A
        genome's distance to a window pair is its weights times the pair's
        column of gaps: the squared metric distance for genetic matching,
        |score gap| for nearest-neighbor matching.

        Returns, per genome, the control position taken at each step of
        `order`, or len(control) where every candidate of that treated
        subject was taken earlier.  Equal distances resolve to the lowest
        control index.  Distances are checked once per call: on a non-empty
        window, ValueError unless the bound `weights @ gaps.max(axis=1)` is
        finite, so no pick is made when a distance is NaN or inf (or when
        the bound alone overflows), and a taken control is the only kind of
        candidate that cannot win.
        """
        n_genomes, n_control = len(weights), len(self.control)
        if gaps.shape[1]:
            with np.errstate(over="ignore", invalid="ignore"):
                bound = weights @ gaps.max(axis=1)
            if not np.isfinite(bound).all():
                raise ValueError("matching distances must be finite; check the covariates")
        # 0 for a free control, inf once the genome has taken it: adding it
        # leaves a finite distance as it is and makes a taken control lose
        penalty = np.zeros((n_genomes, n_control))
        flat_penalty = penalty.reshape(-1)
        genome_start = np.arange(n_genomes) * n_control
        picks = np.full((n_genomes, len(self.order)), n_control, dtype=np.intp)
        for step, start, stop in self.segments:
            candidates = self.cols[start:stop]
            d = penalty.take(candidates, axis=1)
            d += weights @ gaps[:, start:stop]
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

    def match_set(self, picks) -> MatchSet:
        """The MatchSet of one genome's row of `run` output."""
        matched = picks < len(self.control)
        treated, control = self.treated[self.order[matched]], self.control[picks[matched]]
        unmatched = self.treated[self.order[~matched]]
        pairs = tuple(zip(treated.tolist(), control.tolist()))
        return MatchSet(pairs, tuple(unmatched.tolist()), self.caliper)

    def fitness(self, picks, covariates) -> np.ndarray:
        """Mean |SMD| over the columns of `covariates` of each genome's match
        (a row of `run` output); inf for a match without a pair.

        Only the set of matched subjects counts: each genome's match is a 0/1
        membership row over the cohort, and each distinct row is scored once
        by `_arm_moments` and broadcast, so genomes that match the same
        subjects get bit-equal fitness.
        """
        n_genomes, matched = len(picks), picks < len(self.control)
        members = np.zeros((n_genomes, len(covariates)), dtype=bool)
        members[:, self.treated[self.order]] = matched
        members[np.nonzero(matched)[0], self.control[picks[matched]]] = True
        # the lowest genome with each genome's membership
        first = {}
        owner = np.array([
            first.setdefault(row.tobytes(), g) for g, row in enumerate(np.packbits(members, axis=1))
        ])
        distinct = np.flatnonzero(owner == np.arange(n_genomes))
        rows = members[distinct].astype(float)
        binary = np.array([is_binary(col) for col in covariates.T])
        moments = _arm_moments(rows, covariates, (self.treated, self.control), binary)
        scores = np.where(rows.any(axis=1), np.abs(_signed_smd(*moments)).mean(axis=1), np.inf)
        fitness = np.empty(n_genomes)
        fitness[distinct] = scores
        return fitness[owner]


def nearest_neighbor_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Greedy 1:1 matching on the score, treated visited in descending score."""
    ps = np.asarray(ps, dtype=float)
    core = _GreedyCore(ps, z, score_caliper(ps, caliper_multiplier))
    gaps = np.abs(ps[core.treated][core.rows] - ps[core.control][core.cols])
    return core.match_set(core.run(np.ones((1, 1)), gaps[None, :])[0])


def optimal_match(ps, z, caliper_multiplier: float = 0.25) -> MatchSet:
    """Minimum total |score difference| 1:1 matching under the caliper.

    A treated subject pairs with a control inside the caliper or stays
    unmatched at a cost of caliper * nt + 1, above any full set of pairs, so
    the match has the most pairs, then the least total gap.  On a line some
    optimum never crosses two pairs (Karp & Li, 1975), so a dynamic program
    over both arms, stably sorted by score, is exact.  Ties go, walking back
    from the highest-scored treated subject, to pairing it rather than
    leaving it unmatched, and to the lowest-scored control that keeps the
    total optimal; among equal-cost optima this need not be the match an
    assignment solver returns.  Non-finite scores raise ValueError.
    """
    ps = np.asarray(ps, dtype=float)
    if not np.isfinite(ps).all():
        raise ValueError("optimal matching needs finite scores")
    treated, control = _split_groups(z)
    caliper = score_caliper(ps, caliper_multiplier)
    if not math.isfinite(caliper):
        raise ValueError("optimal matching needs a finite caliper")
    nt, nc = len(treated), len(control)
    treated = treated[np.argsort(ps[treated], kind="stable")]
    control = control[np.argsort(ps[control], kind="stable")]
    ps_c = ps[control]
    dummy = caliper * nt + 1.0
    # per treated subject and column: did the column set a new row minimum,
    # and did it do so by pairing with the j-th control
    improves = np.ones((nt, nc + 1), dtype=bool)
    paired = np.zeros((nt, nc + 1), dtype=bool)
    f = np.zeros(nc + 1)
    for i, score in enumerate(ps[treated]):
        gap = np.abs(score - ps_c)
        pair = f[:-1] + np.where(gap <= caliper, gap, np.inf)
        g = f + dummy
        paired[i, 1:] = pair <= g[1:]
        np.minimum(g[1:], pair, out=g[1:])
        f = np.minimum.accumulate(g)
        improves[i, 1:] = g[1:] < f[:-1]

    pairs, unmatched = [], []
    i, j = nt, nc
    while i:
        if not improves[i - 1, j]:
            j -= 1
        elif paired[i - 1, j]:
            i, j = i - 1, j - 1
            pairs.append((int(treated[i]), int(control[j])))
        else:
            i -= 1
            unmatched.append(int(treated[i]))
    return MatchSet(tuple(sorted(pairs)), tuple(sorted(unmatched)), caliper)


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
    if generations < 0:
        raise ValueError("generations must be >= 0")
    ps = np.asarray(ps, dtype=float)
    rng = np.random.default_rng(seed)
    raw = np.column_stack([covariates, ps])
    d = raw.shape[1]
    # standardizing divides column k by its ddof=1 std s_k (0 -> 1), so the
    # genome's weight g_k acts on the raw squared gap as g_k / s_k^2
    std = raw.std(axis=0, ddof=1)
    std[std == 0] = 1.0
    inv_var = 1.0 / std**2
    # The score caliper keeps the match selective: without it, balanced arm
    # sizes would always match the whole cohort and balance could not change.
    core = _GreedyCore(ps, z, score_caliper(ps, caliper_multiplier))
    # squared per-column gaps of every window pair, built a column at a time
    gaps = np.empty((d, len(core.rows)))
    for k, column in enumerate(raw.T):
        np.subtract(column[core.treated][core.rows], column[core.control][core.cols], out=gaps[k])
    np.square(gaps, out=gaps)

    def evaluate(genomes):
        """Greedy matches of a whole generation and their fitness."""
        picks = core.run(genomes * inv_var, gaps)
        return picks, core.fitness(picks, covariates)

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
    sizes with effective sample sizes (sum w)^2 / sum w^2.  Each group needs
    two subjects of positive weight."""
    z = np.asarray(z, dtype=float)
    weights = np.ones(len(z)) if weights is None else np.asarray(weights, dtype=float)
    (mt, nt, vt), (mc, nc, vc) = _column_moments(values, z, weights, False)
    if min(np.count_nonzero(weights[z == arm]) for arm in (1.0, 0.0)) < 2:
        raise ValueError("each group needs at least two observations")
    se2 = vt / nt + vc / nc
    if se2 <= 0:
        raise ValueError("zero variance in both groups")
    t_stat = (mt - mc) / math.sqrt(se2)
    df_num = se2**2
    df_den = (vt / nt) ** 2 / (nt - 1.0) + (vc / nc) ** 2 / (nc - 1.0)
    df = df_num / df_den if df_den > 0 else nt + nc - 2.0
    return 2.0 * t_sf(abs(t_stat), df)


def _pearson(categories, z, weights) -> tuple[float, int]:
    """Pearson's statistic on the category-by-arm table of weight totals
    (empty categories dropped) and its degrees of freedom, k - 1."""
    categories = np.asarray(categories)
    z = np.asarray(z, dtype=float)
    weights = np.ones(len(z)) if weights is None else np.asarray(weights, dtype=float)
    levels, codes = np.unique(categories, return_inverse=True)
    table = np.column_stack([
        np.bincount(codes[z == arm], weights[z == arm], minlength=len(levels)) for arm in (0.0, 1.0)
    ])
    table = table[table.sum(axis=1) > 0]
    if len(table) < 2:
        raise ValueError("need at least two non-empty categories")
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    if np.any(expected <= 0):
        raise ValueError("expected counts must be positive")
    return float(np.sum((table - expected) ** 2 / expected)), len(table) - 1


def chi_square_test(categories, z, weights=None) -> float:
    """Pearson chi-square p-value on the category-by-arm table, df = k - 1."""
    statistic, df = _pearson(categories, z, weights)
    return chi2_sf(statistic, df)


# ---------------------------------------------------------------------------
# balance report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceRow:
    """One covariate's balance; `reason` holds the error of each after-value
    that is None because it cannot be computed."""

    covariate: str
    smd_before: float
    smd_after: float | None
    test: str
    p_before: float
    p_after: float | None
    reason: str | None = None


@dataclass(frozen=True)
class BalanceReport:
    rows: tuple[BalanceRow, ...]
    mean_abs_smd_before: float
    mean_abs_smd_after: float | None
    smd_after_omitted: tuple[str, ...] = ()  # covariates the mean after leaves out


def balance_report(
    cohort: Cohort,
    ps,
    adjustment: MatchSet | WeightVector,
    covariates: Sequence[str],
) -> BalanceReport:
    """Per-covariate SMD and test p-values before and after adjustment.

    Either adjustment becomes one weight row over the cohort: a weighting's
    weights, or 1 for each subject of a match and 0 elsewhere, so a match's
    balance depends only on its matched set.  An all-zero row, such as a
    match without pairs, leaves every after-value None.  Continuous
    covariates get Welch's t-test, binary and ordinal ones the chi-square
    test.  An after-value whose statistic raises ValueError, such as an
    infinite SMD or a test on one category, is None with its reason, and
    the mean |SMD| after is over the covariates with a value (None if none
    has one).  The before-values still raise.
    """
    z = cohort.z
    if isinstance(adjustment, WeightVector):
        if len(adjustment.weights) != cohort.n:
            raise ValueError("weight vector length does not match the cohort")
        row = adjustment.weights
    elif isinstance(adjustment, MatchSet):
        idx = adjustment.matched_indices()
        if len(idx) and idx.max() >= cohort.n:
            raise ValueError("match indices exceed the cohort")
        row = np.zeros(cohort.n)
        row[idx] = 1.0
    else:
        raise TypeError("adjustment must be a MatchSet or WeightVector")

    adjusted = bool(row.any())
    rows = []
    for name in covariates:
        continuous = variable(name).kind == "continuous"
        test = two_sample_t_test if continuous else chi_square_test
        values = cohort.columns[name]
        smd_before, p_before = smd(values, z), test(values, z)
        after, errors = {}, []
        if adjusted:
            for key, statistic in (("smd_after", smd), ("p_after", test)):
                try:
                    after[key] = statistic(values, z, row)
                except ValueError as error:
                    errors.append(f"{key}: {error}")
        label = "t-test" if continuous else "chisq"
        rows.append(BalanceRow(
            name, smd_before, after.get("smd_after"), label, p_before, after.get("p_after"),
            "; ".join(errors) or None,
        ))

    kept = [abs(r.smd_after) for r in rows if r.smd_after is not None]
    omitted = tuple(r.covariate for r in rows if r.smd_after is None)
    mean_before = float(np.mean([abs(r.smd_before) for r in rows]))
    return BalanceReport(tuple(rows), mean_before, float(np.mean(kept)) if kept else None, omitted)
