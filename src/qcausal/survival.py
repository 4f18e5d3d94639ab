"""Time-to-event estimators with optional per-subject weights.

All estimators share the right-censoring data layout: observed time y_i > 0,
event flag d_i in {0,1}, and a positive weight w_i (default 1).  Subjects are
at risk at time t while y_i >= t.  Every estimator rejects a time or weight
that is not finite with ValueError.

Kaplan-Meier multiplies (1 - d^w_t / n^w_t) over event times with weighted
event and at-risk counts.  The two-group log-rank statistic accumulates
observed-minus-expected group-1 events with the hypergeometric variance; the
weighted variant substitutes weighted counts into the same expressions, i.e.

    O - E = sum_t [ d^w_{1t} - d^w_t * n^w_{1t} / n^w_t ]
    V     = sum_t [ d^w_t * (n^w_{1t}/n^w_t) * (1 - n^w_{1t}/n^w_t)
                    * (n^w_t - d^w_t) / (n^w_t - 1) ].

Proportional hazards fits maximize the weighted partial likelihood by
Newton-Raphson with the Efron tie correction (Breslow optional), and the
additive hazard model solves weighted least squares per event time,
accumulating increments of the cumulative regression functions.

Tail probabilities come from scipy.special, chdtrc(k, x) for the chi-square
and ndtr(-|z|) for the normal; they equal scipy.stats' chi2.sf and norm.sf bit
for bit, and loading them costs a fraction of importing scipy.stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtr

COX_SEPARATION_BOUND = 20.0
RANK_CONDITION_LIMIT = 1e10


def _check_samples(times, events, weights):
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if np.any(times <= 0):
        raise ValueError("times must be positive")
    if not set(np.unique(events)) <= {0.0, 1.0}:
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


def kaplan_meier(times, events, weights=None) -> SurvivalCurve:
    """Weighted product-limit estimator over the distinct event times."""
    times, events, weights = _check_samples(times, events, weights)
    if len(times) == 0:
        raise ValueError("need at least one sample")
    event_times = np.unique(times[events == 1.0])
    survival = []
    at_risk = []
    d_counts = []
    s = 1.0
    for t in event_times:
        n_w = float(weights[times >= t].sum())
        d_w = float(weights[(times == t) & (events == 1.0)].sum())
        s *= 1.0 - d_w / n_w
        survival.append(s)
        at_risk.append(n_w)
        d_counts.append(d_w)
    return SurvivalCurve(
        event_times, np.asarray(survival), np.asarray(at_risk), np.asarray(d_counts)
    )


def log_rank(times, events, groups, weights=None) -> tuple[float, float]:
    """Two-group (weighted) log-rank test; returns (statistic, p-value)."""
    times, events, weights = _check_samples(times, events, weights)
    groups = np.asarray(groups, dtype=float)
    if not set(np.unique(groups)) <= {0.0, 1.0} or len(np.unique(groups)) < 2:
        raise ValueError("groups must contain both 0 and 1")
    if events.sum() == 0:
        raise ValueError("need at least one event")

    o_minus_e = 0.0
    var = 0.0
    for t in np.unique(times[events == 1.0]):
        at_risk = times >= t
        n_w = float(weights[at_risk].sum())
        n1_w = float(weights[at_risk & (groups == 1.0)].sum())
        dying = (times == t) & (events == 1.0)
        d_w = float(weights[dying].sum())
        d1_w = float(weights[dying & (groups == 1.0)].sum())
        if n_w <= 1.0:
            continue
        share = n1_w / n_w
        o_minus_e += d1_w - d_w * share
        var += d_w * share * (1.0 - share) * (n_w - d_w) / (n_w - 1.0)
    if var <= 0:
        return 0.0, 1.0
    stat = o_minus_e**2 / var
    return float(stat), float(chdtrc(1, stat))


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


def _cox_pass(beta, times, events, X, weights, efron):
    """One scan over event times: log-likelihood, score vector, information."""
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
            for ell in range(d):
                frac = ell / d if efron else 0.0
                denom = s0 - frac * s0d
                num1 = s1 - frac * s1d
                num2 = s2 - frac * s2d
                mean = num1 / denom
                loglik -= (wd_sum / d) * math.log(denom)
                score -= (wd_sum / d) * mean
                info += (wd_sum / d) * (num2 / denom - np.outer(mean, mean))
        i = j
    return loglik, score, info


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

    beta = np.zeros(X.shape[1])
    loglik, score, info = _cox_pass(beta, times, events, X, weights, efron)
    score_vec0, info0 = score.copy(), info.copy()
    converged = False
    separation = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(info, score, rcond=None)[0]
        new_beta = beta + step
        new_loglik, new_score, new_info = _cox_pass(
            new_beta, times, events, X, weights, efron
        )
        halvings = 0
        # tolerance scales with |loglik| so summation-order jitter never triggers
        drop_tol = 1e-10 * (1.0 + abs(loglik))
        while new_loglik < loglik - drop_tol and halvings < 20:
            step /= 2.0
            new_beta = beta + step
            new_loglik, new_score, new_info = _cox_pass(
                new_beta, times, events, X, weights, efron
            )
            halvings += 1
        beta, loglik, score, info = new_beta, new_loglik, new_score, new_info
        if np.max(np.abs(beta)) > COX_SEPARATION_BOUND:
            separation = True
            break
    else:
        n_iter = max_iter

    covariance = np.linalg.pinv(info)
    se = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, 0.0)
    p = 2.0 * ndtr(-np.abs(z))
    hr = np.exp(beta)
    ci_low = np.exp(beta - 1.96 * se)
    ci_high = np.exp(beta + 1.96 * se)

    score_chi2 = float(score_vec0 @ np.linalg.pinv(info0) @ score_vec0)
    score_df = X.shape[1]
    score_p = float(chdtrc(score_df, score_chi2))
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
    )


def cox_partial_loglik(beta, times, events, X, weights=None, ties: str = "efron") -> float:
    """Partial log-likelihood at a given beta (grid-search oracle hook)."""
    times, events, weights = _check_samples(times, events, weights)
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    value, _, _ = _cox_pass(beta, times, events, X, weights, ties == "efron")
    return float(value)


def concordance(scores, times, events, weights=None) -> float:
    """Harrell's C: fraction of usable pairs ordered correctly by risk score.

    A pair is usable when the earlier time belongs to an observed event and
    the times differ; score ties count one half.  Weighted pairs contribute
    w_i * w_j.
    """
    times, events, weights = _check_samples(times, events, weights)
    scores = np.asarray(scores, dtype=float)

    usable = 0.0
    concordant = 0.0
    for i in np.flatnonzero(events == 1.0):
        later = times > times[i]
        if not np.any(later):
            continue
        pair_w = weights[i] * weights[later]
        usable += pair_w.sum()
        higher = scores[i] > scores[later]
        tied = scores[i] == scores[later]
        concordant += pair_w @ (higher + 0.5 * tied)
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

    event_times = np.unique(times[events == 1.0])
    if horizon is not None:
        event_times = event_times[event_times <= horizon]

    used_times = []
    increments = []
    variance = np.zeros((p, p))
    for t in event_times:
        at_risk = times >= t
        Xr = design[at_risk]
        wr = weights[at_risk]
        dn = ((times[at_risk] == t) & (events[at_risk] == 1.0)).astype(float)
        xtwx = Xr.T @ (Xr * wr[:, None])
        if np.linalg.cond(xtwx) > RANK_CONDITION_LIMIT:
            continue
        solver = np.linalg.solve(xtwx, (Xr * wr[:, None]).T)  # (X'WX)^-1 X'W
        increments.append(solver @ dn)
        variance += (solver * dn) @ solver.T
        used_times.append(t)

    if not used_times:
        raise ValueError("design is rank-deficient at every event time")

    used_times = np.asarray(used_times)
    cumulative = np.cumsum(np.asarray(increments), axis=0)
    coef = cumulative[-1]
    se = np.sqrt(np.clip(np.diag(variance), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, coef / se, 0.0)
    p_values = 2.0 * ndtr(-np.abs(z))

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
        chi2_p = float(chdtrc(chi2_df, chi2))
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
    event_times = np.unique(times[events == 1.0])
    values = []
    total = 0.0
    for t in event_times:
        n_w = float(weights[times >= t].sum())
        d_w = float(weights[(times == t) & (events == 1.0)].sum())
        total += d_w / n_w
        values.append(total)
    return event_times, np.asarray(values)
