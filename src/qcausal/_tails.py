"""Upper-tail probabilities of the chi-square, normal and Student's t
distributions, from the standard `math` module alone, so that a stage
process needs no scipy to report a p-value.

The chi-square with k degrees of freedom has a closed form for integer k
(Abramowitz & Stegun 26.4.4-26.4.5): a finite Poisson sum for even k, and
erfc plus a finite sum for odd k.  Student's t tail is half the regularised
incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2), evaluated by its
continued fraction with Lentz's method (Numerical Recipes, 3rd ed., 6.4),
which loses about df * 1e-16 relative near x = 1: within 1e-12 for the Welch
degrees of freedom of any cohort below 10,000 subjects.
"""

from __future__ import annotations

import math

_LOG_SQRT_PI = 0.5 * math.log(math.pi)
_TINY = 1e-300  # Lentz's guard against a zero denominator
_EPS = 1e-16
_MAX_TERMS = 10_000
_BIG = 2.0 ** 900  # the chi-square sum's exact rescaling step
_LN2 = math.log(2.0)


def chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-square with integer k >= 1 degrees of freedom."""
    x = float(x)
    if int(k) != k or k < 1:
        raise ValueError("chi-square degrees of freedom must be a positive integer")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    if h > 2.0 ** 100:  # x = inf, or past where the tail underflows for any k a loop reaches
        return 0.0
    # the terms h^j / j! (or h^(j+1/2) / Gamma(j + 3/2)) are summed divided by
    # 2^shift, and e^-h is applied in log space, so that neither overflows nor
    # underflows past h ~ 700
    if k % 2 == 0:
        head, term, j = 0.0, 1.0, 0.0
    else:
        head, term, j = math.erfc(math.sqrt(h)), math.sqrt(h) / math.gamma(1.5), 0.5
    total, shift = 0.0, 0
    for _ in range(int(k) // 2):
        total += term
        j += 1.0
        term *= h / j
        if term > _BIG:
            total, term, shift = total / _BIG, term / _BIG, shift + 900
    if total == 0.0:
        return head
    return head + math.exp(math.log(total) + shift * _LN2 - h)


def normal_two_sided(z: float) -> float:
    """P(|Z| > |z|) for a standard normal Z."""
    return math.erfc(abs(float(z)) / math.sqrt(2.0))


def _log_gamma_excess(a: float) -> float:
    """log Gamma(a + 1/2) - log Gamma(a) - log(a) / 2.  Above a = 40 the
    asymptotic series avoids the cancellation between two large lgamma values."""
    if a < 40.0:
        return math.lgamma(a + 0.5) - math.lgamma(a) - 0.5 * math.log(a)
    inv = 1.0 / a
    inv2 = inv * inv
    return -inv * (1.0 / 8.0 - inv2 * (1.0 / 192.0 - inv2 * (1.0 / 640.0 - inv2 * 17.0 / 14336.0)))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), converging for x < (a+1)/(a+b+2)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_TERMS):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def t_sf(t: float, df: float) -> float:
    """P(T > t) for T Student's t with real df > 0; df = inf is the normal."""
    t, df = float(t), float(df)
    if math.isnan(t) or math.isnan(df):
        return math.nan
    if df <= 0.0:
        raise ValueError("t degrees of freedom must be positive")
    if t < 0.0:
        return 1.0 - t_sf(-t, df)
    if math.isinf(df):
        return 0.5 * math.erfc(t / math.sqrt(2.0))
    if math.isinf(t):
        return 0.0
    # P(T > t) = I_x(a, 1/2) / 2; y = 1 - x and log x are taken directly
    a, b = 0.5 * df, 0.5
    t2 = t * t
    if t2 == 0.0:
        return 0.5
    x, y = 1.0 / (1.0 + t2 / df), 1.0 / (1.0 + df / t2)
    log_x = -math.log1p(t2 / df) if t2 / df < math.inf else math.log(df) - 2.0 * math.log(t)
    log_y = math.log(y) if y > 0.0 else math.log(t2) - math.log(df)
    log_front = a * log_x + b * log_y + 0.5 * math.log(a) + _log_gamma_excess(a) - _LOG_SQRT_PI
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 0.5 - 0.5 * math.exp(log_front) * _beta_fraction(b, a, y) / b
