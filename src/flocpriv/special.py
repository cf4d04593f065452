"""Self-contained statistical special functions.

The analysis layers need a handful of classical functions (regularized
incomplete gamma/beta, chi-square and Student-t tails, binomial tails).
They are implemented here from scratch so the runtime package depends
only on NumPy; the test suite pins them against high-precision oracles.

Numerical notes
---------------
* ``regularized_gamma_q`` uses the standard split: one minus the power
  series for P(a, x) when x < a + 1 (terms fall fast there) and the
  Lentz-modified continued fraction for Q(a, x) otherwise. Both converge
  to ~1e-15 relative for the argument ranges used by the analyses.
* ``regularized_beta`` uses the even/odd continued fraction with the
  symmetric switch at x = (a + 1) / (a + b + 2).
* Binomial tails sum the smaller tail term-by-term with ratio updates in
  linear space (scaled by the leading term computed via ``lgamma``), so
  they stay exact to ~1e-14 relative without overflow for any n.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

_MAX_ITER = 500
_EPS = 1e-16
_TINY = 1e-300


def _gamma_p_series(a: float, x: float) -> float:
    """Power series for P(a, x); requires x < a + 1."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    """Lentz continued fraction for Q(a, x); requires x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def regularized_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), the regularized upper incomplete gamma function."""
    if a <= 0.0:
        raise ValueError(f"shape a must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_cf(a, x)


def chi_square_sf(x: float, df: float) -> float:
    """Upper tail of the chi-square distribution with ``df`` degrees."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if x <= 0.0:
        return 1.0
    return regularized_gamma_q(df / 2.0, x / 2.0)


def _beta_cf(x: float, a: float, b: float) -> float:
    """Lentz continued fraction for the incomplete beta integral."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T > t) for Student's t with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_beta(x, df / 2.0, 0.5)
    return tail if t > 0.0 else 1.0 - tail


def student_t_ppf(q: float, df: float) -> float:
    """Quantile of Student's t (bisection on the analytic CDF)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if q == 0.5:
        return 0.0
    # Solve for the upper-half quantile, mirror for q < 0.5.
    p_hi = q if q > 0.5 else 1.0 - q
    lo, hi = 0.0, 1.0
    while 1.0 - student_t_sf(hi, df) < p_hi:
        hi *= 2.0
        if hi > 1e300:
            raise ArithmeticError("t quantile bracket failed to converge")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - student_t_sf(mid, df) < p_hi:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    value = 0.5 * (lo + hi)
    return value if q > 0.5 else -value


def mean_confidence_intervals(
    samples: Iterable[Sequence[float]], confidence: float = 0.95
) -> list[tuple[float, float, float]]:
    """(mean, lower, upper) Student-t interval for the mean of every sample.

    With fewer than two values an interval collapses to the mean. The t
    quantile is computed once per sample size rather than once per sample.
    """
    quantiles: dict[int, float] = {}
    intervals = []
    for values in samples:
        n = len(values)
        if n == 0:
            raise ValueError("cannot form an interval from an empty sample")
        mean = math.fsum(values) / n
        if n == 1:
            intervals.append((mean, mean, mean))
            continue
        if n not in quantiles:
            quantiles[n] = student_t_ppf(0.5 + confidence / 2.0, n - 1)
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        half = quantiles[n] * math.sqrt(var / n)
        intervals.append((mean, mean - half, mean + half))
    return intervals


class ConstantInputError(ValueError):
    """A correlation was asked of an input whose values are all equal."""


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Pearson correlation and its two-sided p-value (t approximation).

    Raises ``ConstantInputError`` (a ``ValueError``) when either input is
    constant, since r is then undefined.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError("inputs must have equal length")
    if n < 3:
        raise ValueError("need at least 3 points for a p-value")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise ConstantInputError("correlation undefined for a constant input")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    df = n - 2
    if abs(r) == 1.0:
        return r, 0.0
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return r, 2.0 * student_t_sf(t, df)


def binomial_sf(k: int, n: int, p: float) -> float:
    """P(X > k) for X ~ Binomial(n, p), with integer k.

    Sums whichever tail is smaller using multiplicative term ratios; the
    larger tail is returned as the complement.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    k = int(k)
    if k < 0:
        return 1.0
    if k >= n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    mean = n * p
    if k + 1 > mean:
        return _binom_tail_upper(k + 1, n, p)
    return 1.0 - _binom_tail_lower(k, n, p)


def _log_pmf(i: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(i + 1)
        - math.lgamma(n - i + 1)
        + i * math.log(p)
        + (n - i) * math.log1p(-p)
    )


def _binom_tail_upper(start: int, n: int, p: float) -> float:
    """Sum of pmf(i) for i in [start, n]; start is above the mean."""
    log0 = _log_pmf(start, n, p)
    term = 1.0
    total = 1.0
    # Terms i > mode are strictly decreasing; start may sit one step
    # before the mode, so guard the cutoff on i as well.
    mode = math.floor((n + 1) * p)
    odds = p / (1.0 - p)
    i = start
    while i < n:
        term *= (n - i) / (i + 1.0) * odds
        total += term
        i += 1
        if i > mode and term < total * 1e-18:
            break
    return math.exp(log0 + math.log(total))


def _binom_tail_lower(end: int, n: int, p: float) -> float:
    """Sum of pmf(i) for i in [0, end]; end is at or below the mean."""
    log0 = _log_pmf(end, n, p)
    term = 1.0
    total = 1.0
    inv_odds = (1.0 - p) / p
    i = end
    while i > 0:
        term *= i / (n - i + 1.0) * inv_odds
        total += term
        i -= 1
        if term < total * 1e-18:
            break
    return math.exp(log0 + math.log(total))
