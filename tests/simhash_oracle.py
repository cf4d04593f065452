"""The scalar definition of the SimHash feature stream, for tests.

``kernels.simhash_rows`` must give, for every row, the bits these Python
integers give: bit b is 1 iff the sequential sum of ``gaussian_feature``
over the row's domains, in ascending domain-hash order, is > 0.
"""

from __future__ import annotations

from flocpriv.hashing import (
    DRAWS_PER_FEATURE,
    GOLDEN,
    INV_2_53,
    MASK64,
    MIX_C1,
    MIX_C2,
    domain_hash64,
    seed_key,
)
from flocpriv.simhash import DEFAULT_SEED


def mix64(x: int) -> int:
    """Finalizer-style bijective scrambler on 64-bit integers."""
    x &= MASK64
    x ^= x >> 33
    x = (x * MIX_C1) & MASK64
    x ^= x >> 33
    x = (x * MIX_C2) & MASK64
    x ^= x >> 33
    return x


def uniform_draw(key0: int, t: int) -> float:
    """t-th uniform in [0, 1) of the counter-based stream for ``key0``."""
    u = mix64((key0 + GOLDEN * (t + 1)) & MASK64)
    return (u >> 11) * INV_2_53


def gaussian_feature(domain: str, bit_index: int, seed: int = DEFAULT_SEED) -> float:
    """Deterministic feature of (domain, bit): mean 0, variance 1."""
    if bit_index < 0:
        raise ValueError("bit_index must be non-negative")
    key0 = mix64(domain_hash64(domain) ^ seed_key(seed))
    base = bit_index * DRAWS_PER_FEATURE
    total = 0.0
    for j in range(DRAWS_PER_FEATURE):
        total += uniform_draw(key0, base + j)
    return total - 6.0
