"""The package's own tail probabilities against scipy.stats.

`qcausal._tails` replaces scipy.special's chdtrc, ndtr and stdtr, so a stage
process loads no scipy.  Each tail must agree with the scipy.stats survival
function to 1e-12 relative wherever the reference is at least 1e-300, on the
grids that `tests/test_imports.py` uses for scipy.special and in the far
tails, and must give the exact values at the edges.
"""

import math

import numpy as np
import pytest
from scipy import stats

from qcausal._tails import chi2_sf, normal_two_sided, t_sf

RTOL = 1e-12


def tail_arguments(rng, size):
    """Statistics from 0 to far in the tail, plus the exact edges 0 and inf."""
    body = np.concatenate([rng.exponential(4.0, size), rng.uniform(0.0, 80.0, size)])
    return np.concatenate([body, [0.0, np.inf]])


def assert_close(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    shown = reference >= 1e-300
    np.testing.assert_allclose(ours[shown], reference[shown], rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 6, 7])
def test_chi2_sf_matches_scipy(df):
    x = tail_arguments(np.random.default_rng(df), 20_000)
    assert_close([chi2_sf(v, df) for v in x], stats.chi2.sf(x, df))


@pytest.mark.parametrize("df", [1, 2, 3, 7, 12])
def test_chi2_sf_far_tail(df):
    x = np.random.default_rng(100 + df).uniform(0.0, 1400.0, 5_000)
    assert_close([chi2_sf(v, df) for v in x], stats.chi2.sf(x, df))


@pytest.mark.parametrize("df", [1000, 1001, 2000, 2001])
def test_chi2_sf_many_degrees_of_freedom(df):
    # past x = 1418 the factor e^(-x/2) underflows on its own; the sum must
    # still come out right on both sides of the mean.  scipy's chdtrc is
    # itself off by up to 2e-12 relative here against 40-digit arithmetic,
    # so this grid compares at 5e-12.
    x = np.random.default_rng(200 + df).uniform(0.0, 2.2 * df, 2_000)
    ours = np.array([chi2_sf(v, df) for v in x])
    reference = stats.chi2.sf(x, df)
    shown = reference >= 1e-300
    np.testing.assert_allclose(ours[shown], reference[shown], rtol=5e-12, atol=0.0)
    assert chi2_sf(1500.0, 2000) == pytest.approx(stats.chi2.sf(1500.0, 2000), rel=RTOL)
    assert chi2_sf(1480.0, 2000) == pytest.approx(stats.chi2.sf(1480.0, 2000), rel=RTOL)


def test_normal_two_sided_matches_scipy():
    z = tail_arguments(np.random.default_rng(11), 20_000) / 4.0
    z = np.concatenate([z, -z, np.random.default_rng(13).uniform(20.0, 38.0, 2_000)])
    assert_close([normal_two_sided(v) for v in z], 2.0 * stats.norm.sf(np.abs(z)))


def test_t_sf_matches_scipy_at_welch_degrees_of_freedom():
    rng = np.random.default_rng(12)
    t = tail_arguments(rng, 5_000) / 4.0
    df = np.concatenate([[1.0, 2.0, 2000.0], rng.uniform(1.0, 2000.0, len(t) - 3)])
    assert_close([t_sf(a, b) for a, b in zip(t, df)], stats.t.sf(t, df))


def test_t_sf_far_tail():
    rng = np.random.default_rng(14)
    t = rng.uniform(-60.0, 60.0, 10_000)
    df = np.exp(rng.uniform(math.log(0.5), math.log(5000.0), len(t)))
    assert_close([t_sf(a, b) for a, b in zip(t, df)], stats.t.sf(t, df))


def test_chi2_sf_edges():
    for df in (1, 2, 5, 6):
        assert chi2_sf(0.0, df) == 1.0
        assert chi2_sf(-3.0, df) == 1.0
        assert chi2_sf(math.inf, df) == 0.0
        assert chi2_sf(1e308, df) == 0.0
        assert math.isnan(chi2_sf(math.nan, df))
    # df 2 is the exponential tail exactly
    assert chi2_sf(3.0, 2) == math.exp(-1.5)


@pytest.mark.parametrize("df", [0, -1, 1.5, 2.0000001])
def test_chi2_sf_rejects_non_integer_degrees_of_freedom(df):
    with pytest.raises(ValueError, match="positive integer"):
        chi2_sf(1.0, df)


def test_normal_two_sided_edges():
    assert normal_two_sided(0.0) == 1.0
    assert normal_two_sided(math.inf) == 0.0
    assert normal_two_sided(-math.inf) == 0.0
    assert math.isnan(normal_two_sided(math.nan))


def test_t_sf_edges():
    for df in (0.5, 1.0, 7.3, 500.0, 1e6):
        assert t_sf(0.0, df) == 0.5
        assert t_sf(math.inf, df) == 0.0
        assert t_sf(-math.inf, df) == 1.0
        assert math.isnan(t_sf(math.nan, df))
    assert math.isnan(t_sf(1.0, math.nan))
    # t^2 subnormal or zero: the tail is 1/2 to double precision
    for t in (1e-160, 1e-170, -1e-160):
        assert t_sf(t, 10.0) == 0.5
    # one degree of freedom is the Cauchy distribution
    assert t_sf(1.0, 1.0) == pytest.approx(0.25, rel=RTOL)
    assert t_sf(1e200, 1.0) == pytest.approx(1.0 / (math.pi * 1e200), rel=RTOL)


def test_t_sf_infinite_degrees_of_freedom_is_the_normal():
    for t in (0.0, 0.3, 1.96, 8.0, 30.0):
        assert t_sf(t, math.inf) == 0.5 * normal_two_sided(t)
        assert t_sf(-t, math.inf) == 1.0 - 0.5 * normal_two_sided(t)
        assert t_sf(t, math.inf) == pytest.approx(stats.norm.sf(t), rel=RTOL)


@pytest.mark.parametrize("df", [0.0, -2.0])
def test_t_sf_rejects_non_positive_degrees_of_freedom(df):
    with pytest.raises(ValueError, match="positive"):
        t_sf(1.0, df)


def test_numpy_scalars_give_python_floats():
    # the balance writers print p-values with repr; a numpy scalar would
    # print as np.float64(...)
    x, df = np.float64(2.5), np.float64(7.0)
    for value in (chi2_sf(x, np.int64(3)), normal_two_sided(x), t_sf(x, df), t_sf(x, np.float64(500.0))):
        assert type(value) is float
