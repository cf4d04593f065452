"""The per-node PrefixLSH builder that the level-at-a-time builder replaced.

``oracle_buckets`` pops one tree node at a time from a stack and runs one
``searchsorted`` per node over that node's slice of the sorted values;
``oracle_assign`` binary-searches each hash value, in input order, in the
buckets' start values computed with Python ints. Tests compare
``build_cohort_map`` and ``CohortMap.assign`` with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PrefixBucket:
    """One leaf of the prefix tree.

    ``prefix`` is the integer value of the leading ``length`` bits; the
    bucket covers all hashes whose top bits equal it.
    """

    prefix: int
    length: int
    cohort_id: int
    count: int

    def start(self, bit_length: int) -> int:
        """Smallest hash value covered by this bucket."""
        return self.prefix << (bit_length - self.length)


def oracle_buckets(hash_values: np.ndarray, k: int, bit_length: int) -> list[PrefixBucket]:
    """Leaves of the prefix tree in ascending prefix order."""
    values = np.sort(np.asarray(hash_values, dtype=np.uint64))
    buckets: list[PrefixBucket] = []
    # Explicit stack, right child pushed first so leaves emerge in
    # ascending prefix order.
    stack: list[tuple[int, int, int, int]] = [(0, 0, 0, len(values))]
    while stack:
        prefix, length, lo, hi = stack.pop()
        if length < bit_length:
            right_start = (2 * prefix + 1) << (bit_length - length - 1)
            mid = int(np.searchsorted(values[lo:hi], np.uint64(right_start))) + lo
            if mid - lo >= k and hi - mid >= k:
                stack.append((2 * prefix + 1, length + 1, mid, hi))
                stack.append((2 * prefix, length + 1, lo, mid))
                continue
        buckets.append(
            PrefixBucket(prefix=prefix, length=length, cohort_id=len(buckets), count=hi - lo)
        )
    return buckets


def oracle_assign(
    buckets: Sequence[PrefixBucket], bit_length: int, hash_values: np.ndarray
) -> np.ndarray:
    """Cohort id of each hash value, searched in input order."""
    starts = np.array([b.start(bit_length) for b in buckets], dtype=np.uint64)
    values = np.asarray(hash_values, dtype=np.uint64)
    return (np.searchsorted(starts, values, side="right") - 1).astype(np.int32)
