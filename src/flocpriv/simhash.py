"""Random-hyperplane hash of weekly domain sets.

Each (domain, bit) pair is assigned a deterministic standard-normal-like
feature drawn from a counter-based stream keyed by the domain hash and a
seed. Bit b of a set's hash is 1 iff the features of its members sum to a
strictly positive value, so machines with similar domain sets collide in
nearby bitvectors. The feature is a sum of 12 uniforms minus 6 (unit
variance, zero mean), built from exact integer draws so hash values are
reproducible across platforms. ``kernels.simhash_rows`` computes every hash
from one hash per name; tests check it against ``tests/simhash_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import kernels
from .hashing import check_bit_length, check_seed, domain_hashes64, seed_key

DEFAULT_BIT_LENGTH = 50
DEFAULT_SEED = 7


@dataclass(frozen=True)
class SimHashConfig:
    """Hash width in bits (MSB first) and the feature-stream seed, as Python ints."""

    bit_length: int = DEFAULT_BIT_LENGTH
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "bit_length", check_bit_length(self.bit_length))
        object.__setattr__(self, "seed", check_seed(self.seed))


def simhash(domains: Iterable[str], config: SimHashConfig = SimHashConfig()) -> int:
    """Hash bitvector of a weekly domain set (order-insensitive)."""
    unique = set(domains)
    if not unique:
        raise ValueError("cannot hash an empty domain set")
    rows = np.arange(len(unique)), [0, len(unique)], domain_hashes64(unique)
    out = kernels.simhash_rows(*rows, config.bit_length, seed_key(config.seed))
    return int(out[0])
