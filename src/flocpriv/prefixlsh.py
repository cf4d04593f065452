"""Prefix-tree clustering of hash bitvectors into k-anonymous cohorts.

The sorted multiset of hash values is bisected recursively from the most
significant bit. A node splits only when both halves keep at least k
members, so every leaf (cohort) has >= k members and the leaves form a
complete, prefix-free cover of the hash space. Cohort ids number the
leaves in ascending prefix order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np


class CohortError(ValueError):
    """Raised when a population cannot be clustered at the requested k."""


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

    def bit_string(self) -> str:
        return format(self.prefix, f"0{self.length}b") if self.length else ""

    def start(self, bit_length: int) -> int:
        """Smallest hash value covered by this bucket."""
        return self.prefix << (bit_length - self.length)


class CohortMap:
    """Immutable prefix -> cohort-id mapping for one week's population."""

    def __init__(self, bit_length: int, k: int, buckets: Sequence[PrefixBucket]):
        self.bit_length = int(bit_length)
        self.k = int(k)
        self.buckets: tuple[PrefixBucket, ...] = tuple(buckets)
        self._starts = np.array(
            [b.start(self.bit_length) for b in self.buckets], dtype=np.uint64
        )
        self._validate()

    def _validate(self) -> None:
        if not 1 <= self.bit_length <= 64:
            raise CohortError(f"bit_length must be in [1, 64], got {self.bit_length}")
        if not self.buckets:
            raise CohortError("cohort map has no buckets")
        space = 0
        for i, b in enumerate(self.buckets):
            if b.cohort_id != i:
                raise CohortError("cohort ids must number buckets in prefix order")
            if not 0 <= b.length <= self.bit_length:
                raise CohortError(f"bucket prefix length {b.length} out of range")
            if b.length and not 0 <= b.prefix < (1 << b.length):
                raise CohortError("bucket prefix wider than its stated length")
            space += 1 << (self.bit_length - b.length)
        if space != 1 << self.bit_length:
            raise CohortError("buckets do not tile the hash space exactly")
        if len(self.buckets) > 1 and not np.all(self._starts[1:] > self._starts[:-1]):
            raise CohortError("buckets out of ascending prefix order")

    @property
    def num_cohorts(self) -> int:
        return len(self.buckets)

    def __iter__(self) -> Iterator[PrefixBucket]:
        return iter(self.buckets)

    def assign(self, hash_values: np.ndarray) -> np.ndarray:
        """Cohort id for each hash value (vectorized)."""
        values = np.asarray(hash_values, dtype=np.uint64)
        if self.bit_length < 64 and values.size:
            if int(values.max()) >> self.bit_length:
                raise CohortError("hash value wider than the map's bit_length")
        idx = np.searchsorted(self._starts, values, side="right") - 1
        return idx.astype(np.int32)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "bit_length": self.bit_length,
            "k": self.k,
            "entries": [
                {"prefix": b.bit_string(), "cohort_id": b.cohort_id, "count": b.count}
                for b in self.buckets
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "CohortMap":
        buckets = [
            PrefixBucket(
                prefix=int(item["prefix"], 2) if item["prefix"] else 0,
                length=len(item["prefix"]),
                cohort_id=int(item["cohort_id"]),
                count=int(item["count"]),
            )
            for item in payload["entries"]
        ]
        return cls(int(payload["bit_length"]), int(payload["k"]), buckets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohortMap):
            return NotImplemented
        return (
            self.bit_length == other.bit_length
            and self.k == other.k
            and self.buckets == other.buckets
        )


def build_cohort_map(hash_values: np.ndarray, k: int, bit_length: int) -> CohortMap:
    """Cluster a population of hash values into cohorts of size >= k.

    Duplicate hash values count with multiplicity. Raises ``CohortError``
    when the whole population is smaller than k.
    """
    if k < 1:
        raise CohortError(f"k must be >= 1, got {k}")
    values = np.sort(np.asarray(hash_values, dtype=np.uint64))
    if len(values) < k:
        raise CohortError(f"population of {len(values)} cannot support k={k}")
    if bit_length < 64 and len(values) and int(values[-1]) >> bit_length:
        raise CohortError("hash value wider than bit_length")

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
    return CohortMap(bit_length, k, buckets)
