"""The risk-table estimators against the per-event-time scans they replaced.

`tests/oracles.py` keeps the earlier kaplan_meier, nelson_aalen, log_rank,
concordance and fit_aalen verbatim.  The new code adds the same terms in
another order, so results agree to rounding: 1e-12 relative for the counting
estimators and C, and 1e-10 of each array's largest magnitude for the additive
model, whose solves scale rounding by the condition number of X'WX.
"""

import re
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from qcausal.survival import (
    RANK_CONDITION_LIMIT,
    concordance,
    fit_aalen,
    kaplan_meier,
    log_rank,
    nelson_aalen,
)

REL = 1e-12
AALEN_REL = 1e-10


@st.composite
def samples(draw, min_size=2, max_size=40):
    """(times, events, weights): tie-heavy integer times or all-distinct ones,
    unit weights (None) or positive weights on a grid or continuous."""
    n = draw(st.integers(min_size, max_size))
    if draw(st.booleans()):
        times = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    else:
        times = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n, unique=True))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    weights = draw(
        st.none()
        | st.lists(st.integers(1, 12).map(lambda k: k / 4.0), min_size=n, max_size=n)
        | st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)
    )
    weights = None if weights is None else np.asarray(weights)
    return np.asarray(times, dtype=float), np.asarray(events, dtype=float), weights


def seeded_sample(seed, n, ties, weighted):
    rng = np.random.default_rng(seed)
    times = rng.integers(1, 30, n).astype(float) if ties else rng.exponential(20.0, n) + 0.01
    events = (rng.random(n) < 0.6).astype(float)
    events[0] = 1.0
    weights = rng.uniform(0.2, 5.0, n) if weighted else None
    return times, events, weights


SEEDED = [
    pytest.param(seed, n, ties, weighted, id=f"seed{seed}-n{n}-{'ties' if ties else 'distinct'}-"
                 f"{'weighted' if weighted else 'unit'}")
    for seed, n in ((1, 500), (2, 3000))
    for ties in (True, False)
    for weighted in (True, False)
]


def assert_close(new, old, rel=REL):
    np.testing.assert_allclose(new, old, rtol=rel, atol=0.0)


def assert_curves_match(times, events, weights):
    if events.sum() > 0:
        new = kaplan_meier(times, events, weights)
        old = oracles.kaplan_meier(times, events, weights)
        assert np.array_equal(new.times, old.times)
        for field in ("survival", "at_risk", "events"):
            assert_close(getattr(new, field), getattr(old, field))
    new_t, new_h = nelson_aalen(times, events, weights)
    old_t, old_h = oracles.nelson_aalen(times, events, weights)
    assert np.array_equal(new_t, old_t)
    assert_close(new_h, old_h)


def assert_log_rank_matches(times, events, groups, weights):
    new = log_rank(times, events, groups, weights)
    old = oracles.log_rank(times, events, groups, weights)
    # a statistic of about zero is O - E cancelling; compare it absolutely
    np.testing.assert_allclose(new, old, rtol=REL, atol=1e-12)


def assert_concordance_matches(scores, times, events, weights):
    try:
        old = oracles.concordance(scores, times, events, weights)
    except ValueError:
        with pytest.raises(ValueError, match="no usable pairs"):
            concordance(scores, times, events, weights)
        return
    assert_close(concordance(scores, times, events, weights), old)


def at_risk_conditions(times, events, design, weights, horizon=None):
    """Condition number of the at-risk X'WX at each event time, as the old fit saw it."""
    event_times = np.unique(times[events == 1.0])
    if horizon is not None:
        event_times = event_times[event_times <= horizon]
    conds = []
    for t in event_times:
        rows = times >= t
        xr = design[rows]
        conds.append(np.linalg.cond(xr.T @ (xr * weights[rows][:, None])))
    return np.asarray(conds)


def covariance_block_condition(times, events, X, weights, used_times):
    """Condition number of the covariates' block of the old fit's covariance,
    summed from the same per-time solves over the used event times."""
    design = np.column_stack([np.ones(len(times)), X])
    weights = np.ones(len(times)) if weights is None else weights
    variance = 0.0
    for t in used_times:
        rows = times >= t
        xw = design[rows] * weights[rows][:, None]
        solver = np.linalg.solve(design[rows].T @ xw, xw.T)
        dying = (times[rows] == t) & (events[rows] == 1.0)
        variance = variance + solver[:, dying] @ solver[:, dying].T
    return np.linalg.cond(variance[1:, 1:])


def assert_aalen_matches(times, events, X, weights, horizon=None):
    try:
        old = oracles.fit_aalen(times, events, X, weights=weights, horizon=horizon)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            fit_aalen(times, events, X, weights=weights, horizon=horizon)
        return None
    new = fit_aalen(times, events, X, weights=weights, horizon=horizon)
    assert new.names == old.names
    assert np.array_equal(new.times, old.times)
    assert new.n_event_times_used == old.n_event_times_used
    assert new.n_event_times_total == old.n_event_times_total
    assert new.chi2_df == old.chi2_df
    for field in ("cumulative", "slope", "coef", "se"):
        a, b = getattr(new, field), getattr(old, field)
        assert np.max(np.abs(a - b)) <= AALEN_REL * np.max(np.abs(b)), field
    # where a standard error is at rounding level (a coefficient fixed by the
    # design, such as 0 when only one value dies), z is one rounding error over
    # another, so z and p are compared where the error is resolved
    resolved = old.se > 1e-8 * np.max(old.se)
    for field in ("z", "p"):
        a, b = getattr(new, field)[resolved], getattr(old, field)[resolved]
        assert np.max(np.abs(a - b), initial=0.0) <= AALEN_REL * np.max(np.abs(b), initial=0.0), field
    # chi2 solves against the covariance block, which scales rounding by its
    # condition number, so it is compared where that block is well conditioned
    if old.chi2_df and covariance_block_condition(times, events, X, weights, old.times) < 1e4:
        for field in ("chi2", "chi2_p"):
            assert getattr(new, field) == pytest.approx(getattr(old, field), rel=AALEN_REL)
    return old


class TestCountingEstimators:
    @settings(max_examples=300, deadline=None)
    @given(samples(min_size=1))
    def test_km_and_nelson_aalen_match_the_scan(self, sample):
        assert_curves_match(*sample)

    @settings(max_examples=300, deadline=None)
    @given(samples(), st.data())
    def test_log_rank_matches_the_scan(self, sample, data):
        times, events, weights = sample
        groups = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(times),
                                               max_size=len(times))))
        assume(events.sum() > 0 and len(np.unique(groups)) == 2)
        assert_log_rank_matches(times, events, groups, weights)

    @pytest.mark.parametrize("seed, n, ties, weighted", SEEDED)
    def test_seeded_cohorts(self, seed, n, ties, weighted):
        times, events, weights = seeded_sample(seed, n, ties, weighted)
        assert_curves_match(times, events, weights)
        groups = (np.random.default_rng(seed + 100).random(n) < 0.4).astype(float)
        assert_log_rank_matches(times, events, groups, weights)

    def test_single_subject_at_risk_is_skipped(self):
        # the last time has one unit-weight subject at risk: n_w <= 1 skips it
        times = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1.0, 1.0, 0.0, 1.0])
        groups = np.array([0.0, 1.0, 0.0, 1.0])
        assert log_rank(times, events, groups) == pytest.approx(
            oracles.log_rank(times, events, groups), rel=REL
        )

    def test_zero_variance_returns_null_result(self):
        # both subjects die at the only time, so n_w - d_w = 0 and V = 0
        times = np.array([1.0, 1.0])
        events = np.array([1.0, 1.0])
        groups = np.array([0.0, 1.0])
        assert log_rank(times, events, groups) == oracles.log_rank(times, events, groups) == (0.0, 1.0)


class TestConcordance:
    @settings(max_examples=300, deadline=None)
    @given(samples(), st.data())
    def test_matches_the_pairwise_count(self, sample, data):
        times, events, weights = sample
        n = len(times)
        scores = data.draw(
            st.lists(st.integers(0, 3).map(float), min_size=n, max_size=n)
            | st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        )
        assert_concordance_matches(np.asarray(scores), times, events, weights)

    @pytest.mark.parametrize("seed, n, ties, weighted", SEEDED)
    def test_seeded_cohorts(self, seed, n, ties, weighted):
        times, events, weights = seeded_sample(seed, n, ties, weighted)
        rng = np.random.default_rng(seed + 200)
        assert_concordance_matches(rng.normal(size=n), times, events, weights)
        assert_concordance_matches(rng.integers(0, 5, n).astype(float), times, events, weights)

    def test_rejects_nan_scores_and_length_mismatch(self):
        times = np.array([1.0, 2.0, 3.0])
        events = np.ones(3)
        with pytest.raises(ValueError, match="NaN"):
            concordance([0.1, np.nan, 0.3], times, events)
        with pytest.raises(ValueError, match="equal lengths"):
            concordance([0.1, 0.2], times, events)

    def test_twenty_thousand_distinct_times_under_a_second(self):
        rng = np.random.default_rng(7)
        n = 20_000
        times = rng.permutation(n) + 1.0
        events = (rng.random(n) < 0.6).astype(float)
        scores = rng.normal(size=n)
        weights = rng.uniform(0.5, 2.0, n)
        start = time.perf_counter()
        value = concordance(scores, times, events, weights)
        elapsed = time.perf_counter() - start
        assert 0.45 < value < 0.55
        assert elapsed < 1.0


class TestAalen:
    @settings(max_examples=200, deadline=None)
    @given(samples(min_size=3), st.data())
    def test_matches_the_per_time_solves(self, sample, data):
        times, events, weights = sample
        assume(events.sum() > 0)
        n = len(times)
        k = data.draw(st.integers(0, 3))
        if data.draw(st.booleans()):
            # small integers: collinear at-risk sets, so some times are dropped
            X = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=n * k, max_size=n * k)))
            X = X.reshape(n, k).astype(float)
        else:
            X = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(n, k))
        horizon = data.draw(st.none() | st.sampled_from(sorted(set(times))))
        w = np.ones(n) if weights is None else weights
        design = np.column_stack([np.ones(n), X])
        conds = at_risk_conditions(times, events, design, w, horizon)
        # keep every time well away from the drop limit, so both fits drop the same ones
        assume(np.all((conds < 1e4) | (conds > 1e14)))
        assert_aalen_matches(times, events, X, weights, horizon)

    @pytest.mark.parametrize("seed, n, ties, weighted", SEEDED)
    def test_seeded_cohorts(self, seed, n, ties, weighted):
        times, events, weights = seeded_sample(seed, n, ties, weighted)
        rng = np.random.default_rng(seed + 300)
        X = np.column_stack([rng.normal(size=n), rng.integers(0, 2, n), rng.uniform(0, 3, n)])
        assert_aalen_matches(times, events, X, weights)
        assert_aalen_matches(times, events, X, weights, horizon=np.median(times))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rank_deficient_tail_is_dropped(self, weighted):
        # distinct times, two covariates: the last two event times leave fewer
        # subjects at risk than the three design columns, so X'WX is singular
        rng = np.random.default_rng(5)
        n = 40
        times = rng.permutation(n) + 1.0
        events = np.ones(n)
        X = rng.normal(size=(n, 2))
        weights = rng.uniform(0.5, 2.0, n) if weighted else None
        w = np.ones(n) if weights is None else weights
        conds = at_risk_conditions(times, events, np.column_stack([np.ones(n), X]), w)
        assert np.all((conds < 1e4) | (conds > 1e14))
        assert np.sum(conds > RANK_CONDITION_LIMIT) == 2
        old = assert_aalen_matches(times, events, X, weights)
        assert old.n_event_times_used == n - 2
