"""Harrell-Davis quantile estimator (Harrell and Davis, Biometrika 69, 1982).

The estimate of the p-quantile is a weighted mean of all order statistics,
with Beta((n+1)p, (n+1)(1-p)) weights. Op latencies come from a few op kinds
whose costs differ by orders of magnitude, and a cycle holds a fixed number
of each, so a plain sample quantile can sit exactly between two kinds and
jump from one to the other between runs; the weighted mean does not.
"""

import math

_TINY = 1e-300


def _clamp(v):
    return _TINY if abs(v) < _TINY else v


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c = 1.0
    d = 1.0 / _clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        num = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / _clamp(1.0 + num * d)
        c = _clamp(1.0 + num / c)
        h *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / _clamp(1.0 + num * d)
        c = _clamp(1.0 + num / c)
        step = d * c
        h *= step
        if abs(step - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, p):
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total = 0.0
    prev = 0.0
    for i, x in enumerate(xs, 1):
        cur = beta_cdf(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total
