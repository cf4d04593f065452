"""Spearman rank correlation, the oracle several tests rank results with.

Built on ``flocpriv.special.pearson_r``; the runtime package has no use
for it, so it lives with the tests.
"""

from typing import Sequence

from flocpriv.special import pearson_r


def ranks(xs: Sequence[float]) -> list[float]:
    """Ranks 1..n with ties assigned their average rank."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    out = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for m in range(i, j + 1):
            out[order[m]] = avg
        i = j + 1
    return out


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    r, _ = pearson_r(ranks(xs), ranks(ys))
    return r
