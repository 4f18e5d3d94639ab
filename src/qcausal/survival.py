"""Time-to-event estimators with optional per-subject weights.

All estimators share the right-censoring data layout: observed time y_i > 0,
event flag d_i in {0,1}, and a positive weight w_i (default 1).  Subjects are
at risk at time t while y_i >= t.  Every estimator rejects a time or weight
that is not finite with ValueError.

Kaplan-Meier, Nelson-Aalen, log-rank and the additive model read their counts
off one risk table: the subjects sorted once by time and cut into groups of
equal time.  Per-group sums of any per-subject quantity (weights, w*x*x') give
the weighted deaths at each event time directly and the at-risk sums as a
reverse cumulative sum over the groups, so an estimator costs one sort plus
O(n) array work instead of one scan of the cohort per event time.

Kaplan-Meier multiplies (1 - d^w_t / n^w_t) over event times with weighted
event and at-risk counts.  The two-group log-rank statistic accumulates
observed-minus-expected group-1 events with the hypergeometric variance; the
weighted variant substitutes weighted counts into the same expressions, i.e.

    O - E = sum_t [ d^w_{1t} - d^w_t * n^w_{1t} / n^w_t ]
    V     = sum_t [ d^w_t * (n^w_{1t}/n^w_t) * (1 - n^w_{1t}/n^w_t)
                    * (n^w_t - d^w_t) / (n^w_t - 1) ].

Proportional hazards fits maximize the weighted partial likelihood by
Newton-Raphson with the Efron tie correction (Breslow optional), halving a
step that lowers the likelihood.  The Cox pass grows the risk sums subject by
subject and computes each tie group's Efron terms as arrays over its deaths.
It accumulates them in the order of a per-death loop, so the results are
bit-identical to that loop.  A step that underflows exp(eta) to zero over a
whole risk set stops the fit as separation.  The additive hazard model solves
weighted least squares per event time, accumulating increments of the
cumulative regression functions; the at-risk X'WX of every event time comes
from the risk table, and the condition checks and solves run once over the
stacked systems.

Harrell's C sweeps the subjects in descending time and keeps the weight of
those already passed (the later times) in a Fenwick tree over score ranks, so
each event reads the later weight with a lower score in O(log n) and the index
costs O(n log n) rather than one pass over the cohort per event.

Tail probabilities come from the package's own `_tails` module, which needs
only the standard `math` module: the chi-square upper tail for integer
degrees of freedom in closed form, and the two-sided normal p as
erfc(|z|/sqrt 2).  They agree with scipy.stats' chi2.sf and norm.sf to about
1e-13 relative, and no scipy module is loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tails import chi2_sf, normal_two_sided
from .metrics import has_both_classes, is_binary

COX_SEPARATION_BOUND = 20.0
RANK_CONDITION_LIMIT = 1e10


def _check_samples(times, events, weights):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times <= 0):
        raise ValueError("times must be positive")
    if not is_binary(events):
        raise ValueError("event flags must be 0/1")
    if weights is None:
        weights = np.ones(len(times))
    else:
        weights = np.asarray(weights, dtype=float)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
    if len(events) != len(times) or len(weights) != len(times):
        raise ValueError("times, events, weights must have equal lengths")
    return times, events, weights


@dataclass(frozen=True)
class SurvivalCurve:
    """Product-limit estimate: survival value after each distinct event time."""

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        surv = np.asarray(self.survival, dtype=float)
        if np.any(surv < -1e-12) or np.any(surv > 1.0 + 1e-12):
            raise ValueError("survival values must lie in [0, 1]")
        if np.any(np.diff(surv) > 1e-12):
            raise ValueError("survival values must be nonincreasing")


class _RiskTable:
    """Subjects sorted once by ascending time and grouped by distinct time.

    `order` is the sorting permutation and `starts` the first sorted position
    of each time group.  Per event time t (ascending, in `times`), `at_risk`
    holds the weighted number of subjects with y >= t and `deaths` the
    weighted events at t; `at_risk_sums` and `death_sums` give the same sums
    for any per-subject values, so every estimator reads its counts off one
    sort.
    """

    def __init__(self, times, events, weights):
        self.order = np.argsort(times, kind="stable")
        distinct, self.starts = np.unique(times[self.order], return_index=True)
        self._events = events
        self._event_groups = np.flatnonzero(self._group_sums(events) > 0)
        self.times = distinct[self._event_groups]
        self.at_risk = self.at_risk_sums(weights)
        self.deaths = self.death_sums(weights)

    def _group_sums(self, values):
        return np.add.reduceat(values[self.order], self.starts, axis=0)

    def at_risk_sums(self, values):
        """Per event time t, the sum of `values` over the subjects with y >= t:
        per-group sums accumulated from the last time back."""
        sums = np.cumsum(self._group_sums(values)[::-1], axis=0)[::-1]
        return sums[self._event_groups]

    def death_sums(self, values):
        """Per event time t, the sum of `values` over the subjects dying at t."""
        dead = self._events.reshape((-1,) + (1,) * (np.ndim(values) - 1))
        return self._group_sums(values * dead)[self._event_groups]


def kaplan_meier(times, events, weights=None) -> SurvivalCurve:
    """Weighted product-limit estimator over the distinct event times."""
    times, events, weights = _check_samples(times, events, weights)
    if len(times) == 0:
        raise ValueError("need at least one sample")
    table = _RiskTable(times, events, weights)
    survival = np.cumprod(1.0 - table.deaths / table.at_risk)
    return SurvivalCurve(table.times, survival, table.at_risk, table.deaths)


def log_rank(times, events, groups, weights=None) -> tuple[float, float]:
    """Two-group (weighted) log-rank test; returns (statistic, p-value).

    Event times with at most one (weighted) subject at risk are skipped.
    """
    times, events, weights = _check_samples(times, events, weights)
    groups = np.asarray(groups, dtype=float)
    if not has_both_classes(groups):
        raise ValueError("groups must contain both 0 and 1")
    if events.sum() == 0:
        raise ValueError("need at least one event")

    table = _RiskTable(times, events, weights)
    usable = table.at_risk > 1.0
    n_w = table.at_risk[usable]
    d_w = table.deaths[usable]
    share = table.at_risk_sums(weights * groups)[usable] / n_w
    d1_w = table.death_sums(weights * groups)[usable]
    o_minus_e = float(np.sum(d1_w - d_w * share))
    var = float(np.sum(d_w * share * (1.0 - share) * (n_w - d_w) / (n_w - 1.0)))
    if var <= 0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    return float(stat), chi2_sf(stat, 1)


# ---------------------------------------------------------------------------
# Cox proportional hazards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoxModel:
    names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    hr: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    concordance: float
    score_chi2: float
    score_df: int
    score_p: float
    loglik: float
    converged: bool
    separation: bool
    n_iter: int
    halvings: int  # step halvings over all Newton iterations


def _cox_pass(beta, times, events, X, weights, efron):
    """One scan over event times: log-likelihood, score vector, information.

    The risk sums grow subject by subject.  Each tie group's d Efron (or
    Breslow) terms are computed as arrays over its deaths and accumulated in
    the order of a per-death loop, so the results are bit-identical to that
    loop.  Returns None when a denominator is not positive, which happens
    when exp(eta) underflows to zero over a whole risk set.
    """
    order = np.argsort(-times, kind="stable")  # descending; risk sets grow
    t_sorted = times[order]
    x_sorted = X[order]
    w_sorted = weights[order]
    e_sorted = events[order]

    eta = x_sorted @ beta
    eta = eta - eta.max()  # common offset cancels in every ratio below
    r = w_sorted * np.exp(eta)

    p = X.shape[1]
    loglik = 0.0
    score = np.zeros(p)
    info = np.zeros((p, p))

    s0 = 0.0
    s1 = np.zeros(p)
    s2 = np.zeros((p, p))
    i = 0
    n = len(t_sorted)
    while i < n:
        t = t_sorted[i]
        j = i
        while j < n and t_sorted[j] == t:
            s0 += r[j]
            s1 += r[j] * x_sorted[j]
            s2 += r[j] * np.outer(x_sorted[j], x_sorted[j])
            j += 1
        dying = [k for k in range(i, j) if e_sorted[k] == 1.0]
        if dying:
            d = len(dying)
            wd = w_sorted[dying]
            xd = x_sorted[dying]
            rd = r[dying]
            wd_sum = wd.sum()
            # the max-eta offset cancels between this term and the log-denominators
            loglik += float(wd @ eta[dying])
            score += wd @ xd
            s0d = rd.sum()
            s1d = (rd[:, None] * xd).sum(axis=0)
            s2d = (rd[:, None, None] * np.einsum("ki,kj->kij", xd, xd)).sum(axis=0)
            frac = np.arange(d) / d if efron else np.zeros(d)
            denom = s0 - frac * s0d
            c = wd_sum / d
            for v in denom.tolist():
                if v <= 0:
                    return None
                loglik -= c * math.log(v)  # np.log can differ by an ulp
            mean = (s1 - frac[:, None] * s1d) / denom[:, None]
            terms = c * (
                (s2 - frac[:, None, None] * s2d) / denom[:, None, None]
                - mean[:, :, None] * mean[:, None, :]
            )
            # accumulate adds in sequence, where sum would add pairwise
            score = np.subtract.accumulate(np.concatenate(([score], c * mean)))[-1]
            info = np.add.accumulate(np.concatenate(([info], terms)))[-1]
        i = j
    return loglik, score, info


def _wald(coef, covariance):
    """Standard errors, Wald z statistics and two-sided normal p-values of
    `coef` under `covariance`; a coefficient with no variance gets z = 0."""
    se = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, coef / se, 0.0)
    return se, z, np.array([normal_two_sided(v) for v in z])


def fit_cox(
    times,
    events,
    X,
    names=None,
    weights=None,
    ties: str = "efron",
    max_iter: int = 50,
    tol: float = 1e-9,
) -> CoxModel:
    """Weighted partial-likelihood fit with Efron (default) or Breslow ties.

    Standard errors come from the inverse information at the optimum, the
    global test is the score test at beta = 0, and the concordance index is
    Harrell's C on the fitted risk scores.
    """
    times, events, weights = _check_samples(times, events, weights)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(times):
        raise ValueError("covariate matrix must be 2-d with one row per sample")
    if events.sum() == 0:
        raise ValueError("need at least one event")
    spans = X.max(axis=0) - X.min(axis=0)
    if np.any(spans == 0):
        raise ValueError("constant covariate column")
    if ties not in ("efron", "breslow"):
        raise ValueError("ties must be 'efron' or 'breslow'")
    efron = ties == "efron"
    if names is None:
        names = tuple(f"x{j}" for j in range(X.shape[1]))

    def cox_pass(beta):
        return _cox_pass(beta, times, events, X, weights, efron)

    beta = np.zeros(X.shape[1])
    start = cox_pass(beta)
    if start is None:
        raise ValueError("a risk set has zero weight at beta = 0")
    loglik, score, info = start
    score_vec0, info0 = score.copy(), info.copy()
    converged = False
    separation = False
    n_iter = 0
    halvings = 0
    for n_iter in range(1, max_iter + 1):
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, score, rcond=None)[0]
        new_beta = beta + step
        trial = cox_pass(new_beta)
        halved = 0
        # tolerance scales with |loglik| so summation-order jitter never triggers
        drop_tol = 1e-10 * (1.0 + abs(loglik))
        while trial is not None and trial[0] < loglik - drop_tol and halved < 20:
            step /= 2.0
            new_beta = beta + step
            trial = cox_pass(new_beta)
            halved += 1
        halvings += halved
        # a risk set whose weight underflowed to zero: the step ran past separation
        if trial is None:
            separation = True
            break
        beta = new_beta
        loglik, score, info = trial
        if np.max(np.abs(beta)) > COX_SEPARATION_BOUND:
            separation = True
            break
    else:
        n_iter = max_iter

    se, z, p = _wald(beta, np.linalg.pinv(info))
    # past separation a bound can overflow; inf is then its value
    with np.errstate(over="ignore"):
        hr = np.exp(beta)
        ci_low = np.exp(beta - 1.96 * se)
        ci_high = np.exp(beta + 1.96 * se)

    score_chi2 = float(score_vec0 @ np.linalg.pinv(info0) @ score_vec0)
    score_df = X.shape[1]
    score_p = chi2_sf(score_chi2, score_df)
    c_index = concordance(X @ beta, times, events, weights)

    return CoxModel(
        names=tuple(names),
        coef=beta,
        se=se,
        z=z,
        p=p,
        hr=hr,
        ci_low=ci_low,
        ci_high=ci_high,
        concordance=c_index,
        score_chi2=score_chi2,
        score_df=score_df,
        score_p=score_p,
        loglik=float(loglik),
        converged=converged,
        separation=separation,
        n_iter=n_iter,
        halvings=halvings,
    )


def concordance(scores, times, events, weights=None) -> float:
    """Harrell's C: fraction of usable pairs ordered correctly by risk score.

    A pair is usable when the earlier time belongs to an observed event and
    the times differ; score ties count one half.  Weighted pairs contribute
    w_i * w_j.  Computed in one descending-time sweep over a Fenwick tree of
    score ranks, O(n log n).
    """
    times, events, weights = _check_samples(times, events, weights)
    scores = np.asarray(scores, dtype=float)
    if len(scores) != len(times):
        raise ValueError("scores and times must have equal lengths")
    if np.any(np.isnan(scores)):
        raise ValueError("scores must not be NaN")
    table = _RiskTable(times, events, weights)
    ranks = np.unique(scores, return_inverse=True)[1].reshape(-1) + 1  # 1-based
    rank = ranks[table.order].tolist()
    weight = weights[table.order].tolist()
    dead = (events[table.order] == 1.0).tolist()
    bounds = table.starts.tolist() + [len(times)]

    size = len(rank)
    below = [0.0] * (size + 1)  # Fenwick tree of later weight by score rank
    tied = [0.0] * (size + 1)  # later weight at each score rank
    later = 0.0
    usable = 0.0
    concordant = 0.0
    for g in range(len(bounds) - 2, -1, -1):
        group = range(bounds[g], bounds[g + 1])
        if later > 0.0:
            for k in group:
                if dead[k]:
                    lower, i = 0.0, rank[k] - 1
                    while i:
                        lower += below[i]
                        i &= i - 1
                    usable += weight[k] * later
                    concordant += weight[k] * (lower + 0.5 * tied[rank[k]])
        for k in group:
            i = rank[k]
            tied[i] += weight[k]
            while i <= size:
                below[i] += weight[k]
                i += i & -i
            later += weight[k]
    if usable == 0:
        raise ValueError("no usable pairs")
    return float(concordant / usable)


# ---------------------------------------------------------------------------
# additive hazard regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AalenModel:
    """Cumulative regression functions B(t) with a linear-trend summary.

    `coef` is the cumulative coefficient at the analysis horizon (the last
    usable event time), `se` its accumulated standard error, and `slope` the
    least-squares slope of B(t) against t.  The intercept column is prepended
    automatically and named "Intercept".
    """

    names: tuple[str, ...]
    times: np.ndarray
    cumulative: np.ndarray  # len(times) x len(names)
    slope: np.ndarray
    coef: np.ndarray
    se: np.ndarray
    z: np.ndarray
    p: np.ndarray
    chi2: float
    chi2_df: int
    chi2_p: float
    n_event_times_used: int
    n_event_times_total: int


def fit_aalen(times, events, X, names=None, weights=None, horizon=None) -> AalenModel:
    """Additive hazard fit: per event time t, dB(t) solves the weighted
    least-squares system over the at-risk set,

        dB(t) = (X' W X)^-1 X' W dN(t),

    and B(t) is the running sum.  Event times whose at-risk design is
    rank-deficient (condition number above 1e10) are dropped.
    """
    times, events, weights = _check_samples(times, events, weights)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) != len(times):
        raise ValueError("covariate matrix must be 2-d with one row per sample")
    if events.sum() == 0:
        raise ValueError("need at least one event")
    design = np.hstack([np.ones((len(times), 1)), X])
    p = design.shape[1]
    if names is None:
        names = tuple(f"x{j}" for j in range(X.shape[1]))
    all_names = ("Intercept",) + tuple(names)

    table = _RiskTable(times, events, weights)
    keep = slice(None) if horizon is None else table.times <= horizon
    event_times = table.times[keep]

    # per event time: X'WX over the at-risk set, X'W dN and sum of w^2 x x'
    # over the deaths, one (p, p) slice per time
    def outer_sums(sums, w):
        return np.stack([sums(design * (w * design[:, a])[:, None]) for a in range(p)], axis=1)

    xtwx = outer_sums(table.at_risk_sums, weights)[keep]
    death_outer = outer_sums(table.death_sums, weights**2)[keep]
    xtwdn = table.death_sums(design * weights[:, None])[keep]

    usable = ~(np.linalg.cond(xtwx) > RANK_CONDITION_LIMIT)
    if not np.any(usable):
        raise ValueError("design is rank-deficient at every event time")
    inverse = np.linalg.inv(xtwx[usable])
    increments = (inverse @ xtwdn[usable][:, :, None])[:, :, 0]
    variance = (inverse @ death_outer[usable] @ inverse.transpose(0, 2, 1)).sum(axis=0)
    used_times = event_times[usable]

    cumulative = np.cumsum(increments, axis=0)
    coef = cumulative[-1]
    se, z, p_values = _wald(coef, variance)

    # least-squares slope of each cumulative coefficient against time
    t_centered = used_times - used_times.mean()
    denom = float(t_centered @ t_centered)
    if denom > 0:
        slope = (t_centered @ (cumulative - cumulative.mean(axis=0))) / denom
    else:
        slope = np.zeros(p)

    if p > 1:
        block = variance[1:, 1:]
        chi2 = float(coef[1:] @ np.linalg.pinv(block) @ coef[1:])
        chi2_df = p - 1
        chi2_p = chi2_sf(chi2, chi2_df)
    else:
        chi2, chi2_df, chi2_p = 0.0, 0, 1.0

    return AalenModel(
        names=all_names,
        times=used_times,
        cumulative=cumulative,
        slope=slope,
        coef=coef,
        se=se,
        z=z,
        p=p_values,
        chi2=chi2,
        chi2_df=chi2_df,
        chi2_p=chi2_p,
        n_event_times_used=len(used_times),
        n_event_times_total=len(event_times),
    )


def nelson_aalen(times, events, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted cumulative hazard: sum of d^w_t / n^w_t over event times."""
    times, events, weights = _check_samples(times, events, weights)
    table = _RiskTable(times, events, weights)
    return table.times, np.cumsum(table.deaths / table.at_risk)
