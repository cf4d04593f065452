"""Random-hyperplane hash of weekly domain sets.

Each (domain, bit) pair is assigned a deterministic standard-normal-like
feature drawn from a counter-based stream keyed by the domain hash and a
seed. Bit b of a set's hash is 1 iff the features of its members sum to a
strictly positive value, so machines with similar domain sets collide in
nearby bitvectors. The feature is a sum of 12 uniforms minus 6 (unit
variance, zero mean), built from exact integer draws so hash values are
reproducible across platforms; tests pin its moments and decorrelation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .hashing import (
    DRAWS_PER_FEATURE,
    MASK64,
    domain_hash64,
    mix64,
    seed_key,
    uniform_draw,
)

DEFAULT_BIT_LENGTH = 50
DEFAULT_SEED = 7


@dataclass(frozen=True)
class SimHashConfig:
    """Hash width in bits (MSB first) and the feature-stream seed."""

    bit_length: int = DEFAULT_BIT_LENGTH
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not 1 <= self.bit_length <= 64:
            raise ValueError(f"bit_length must be in [1, 64], got {self.bit_length}")
        if not 0 <= self.seed <= MASK64:
            raise ValueError("seed must fit in 64 bits")


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


def simhash_hashes(hash_values: np.ndarray, config: SimHashConfig = SimHashConfig()) -> int:
    """Hash bitvector of a set given as pre-hashed 64-bit domain values."""
    offsets = [0, len(hash_values)]
    out = kernels.simhash_rows(hash_values, offsets, config.bit_length, seed_key(config.seed))
    return int(out[0])


def simhash(domains: Iterable[str], config: SimHashConfig = SimHashConfig()) -> int:
    """Hash bitvector of a weekly domain set (order-insensitive)."""
    unique = set(domains)
    if not unique:
        raise ValueError("cannot hash an empty domain set")
    values = np.fromiter((domain_hash64(d) for d in unique), dtype=np.uint64, count=len(unique))
    return simhash_hashes(values, config)
