"""Prefix-tree clustering of hash bitvectors into k-anonymous cohorts.

The sorted multiset of hash values is bisected recursively from the most
significant bit. A node splits only when both halves keep at least k
members, so every leaf (cohort) has >= k members and the leaves form a
complete, prefix-free cover of the hash space. Cohort ids number the
leaves in ascending prefix order.

The tree is split one level at a time. A node's values are a contiguous
run of the sorted population, so one ``searchsorted`` of every open node's
right-half start into the whole population lands inside each run and finds
all of a depth's split points at once; array masks then pick the nodes
that split and the leaves. A build costs one sort of the n values and, per
depth, one search of the m open nodes (O(m log n)) and a few array
operations on m elements. The Python loop runs at most ``bit_length``
times, in practice about log2(n / k) plus a few. At the end the leaves are
put in prefix order, and each prefix is read off its leaf's first value.

At depth d the builder reads only bit d, and a node stops at the first
depth where it cannot split. A map whose leaves are all shorter than B
bits therefore depends only on the top B bits of each value: values with
their lower bits cleared give the same map and the same ``assign`` ids.
``cohorts.SortedPopulation`` builds on W-bit hashes first for that reason,
W being about log2(n / k) + 3 and at most 16. A leaf of length W is the
full-width tree's node at depth W and holds exactly the values sharing its
W-bit prefix, so it rebuilds once with only those values at full width.

Each leaf is one consecutive run of the sorted values, and the leaves run
in cohort-id order, so a caller that sorted the values itself can read
every value's id off its order without ``assign``; ``cohorts`` does.
``assign`` is for a published map and hashes it did not build from.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .hashing import check_bit_length, check_integer


class CohortError(ValueError):
    """Raised when a population cannot be clustered at the requested k."""


def _check_k(k: int) -> int:
    """``k`` as an ``int``; ``CohortError`` unless an integer >= 1: every cohort needs a member."""
    k = check_integer(k, "k", CohortError)
    if k < 1:
        raise CohortError(f"k must be >= 1, got {k}")
    return k


class CohortMap:
    """Immutable prefix -> cohort-id mapping for one week's population.

    The leaves are three read-only arrays in cohort-id (ascending prefix)
    order: ``prefixes`` (uint64), ``lengths`` and ``counts`` (int64).
    Construction raises ``CohortError`` unless k >= 1, every count is at
    least k, and the prefixes tile the hash space exactly in ascending order.
    """

    def __init__(self, bit_length: int, k: int, prefixes: Any, lengths: Any, counts: Any):
        self.bit_length = check_bit_length(bit_length, CohortError)
        self.k = _check_k(k)
        try:
            self.prefixes = np.array(prefixes, dtype=np.uint64)
            self.lengths = np.array(lengths, dtype=np.int64)
            self.counts = np.array(counts, dtype=np.int64)
        except OverflowError as exc:
            raise CohortError(f"cohort map value out of range: {exc}") from None
        for array in (self.prefixes, self.lengths, self.counts):
            array.flags.writeable = False
        self._starts = self._validate()

    def _validate(self) -> np.ndarray:
        """Check the leaves and return the smallest hash each covers."""
        bits = self.bit_length
        n = len(self.prefixes)
        if n == 0:
            raise CohortError("cohort map has no buckets")
        if not self.prefixes.shape == self.lengths.shape == self.counts.shape == (n,):
            raise CohortError("prefixes, lengths and counts must be 1-D and of one length")
        small = self.counts < self.k
        if small.any():
            raise CohortError(f"bucket count {self.counts[small][0]} below k={self.k}")
        lengths = self.lengths
        out_of_range = (lengths < 0) | (lengths > bits)
        if out_of_range.any():
            raise CohortError(f"bucket prefix length {lengths[out_of_range][0]} out of range")
        # A prefix fits when nothing is left after shifting its length away;
        # a 64-bit prefix always fits and would need a shift by 64.
        narrow = lengths < 64
        if (self.prefixes[narrow] >> lengths[narrow].astype(np.uint64)).any():
            raise CohortError("bucket prefix wider than its stated length")
        per_length = np.bincount(lengths, minlength=bits + 1).tolist()
        if sum(c << (bits - length) for length, c in enumerate(per_length)) != 1 << bits:
            raise CohortError("buckets do not tile the hash space exactly")
        # A length-0 prefix is 0 and starts at 0 without a shift by bit_length.
        starts = np.left_shift(
            self.prefixes,
            (bits - lengths).astype(np.uint64),
            out=np.zeros(n, dtype=np.uint64),
            where=lengths > 0,
        )
        if n > 1:
            # The exact tiling above rules out a length-0 bucket here.
            if not np.all(starts[1:] > starts[:-1]):
                raise CohortError("buckets out of ascending prefix order")
            sizes = np.left_shift(np.uint64(1), (bits - lengths[:-1]).astype(np.uint64))
            if not np.array_equal(np.diff(starts), sizes):
                raise CohortError("buckets overlap or leave a gap")
        return starts

    @property
    def num_cohorts(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[np.record]:
        """One record per leaf, in cohort-id order, whose ``prefix``,
        ``length`` and ``count`` fields are read from the arrays.

        perfbench's sweep check reads each panel's cohort sizes this way.
        """
        leaves = (self.prefixes, self.lengths, self.counts)
        return iter(np.rec.fromarrays(leaves, names="prefix,length,count"))

    def assign(self, hash_values: np.ndarray) -> np.ndarray:
        """Cohort id for each hash value (vectorized).

        The values are sorted once, searched in one ``searchsorted`` and
        the ids scattered back to input order.
        """
        values = np.asarray(hash_values, dtype=np.uint64).ravel()
        order = np.argsort(values)
        ordered = values[order]
        if self.bit_length < 64 and ordered.size and int(ordered[-1]) >> self.bit_length:
            raise CohortError("hash value wider than the map's bit_length")
        ids = np.empty(values.size, dtype=np.int32)
        ids[order] = np.searchsorted(self._starts, ordered, side="right") - 1
        return ids.reshape(np.shape(hash_values))

    def to_json_dict(self) -> dict[str, Any]:
        """Each leaf's prefix as a string of its bits; a length-0 prefix is ``""``."""
        leaves = zip(self.prefixes.tolist(), self.lengths.tolist(), self.counts.tolist())
        return {
            "bit_length": self.bit_length,
            "k": self.k,
            "entries": [
                {
                    "prefix": format(prefix, f"0{length}b") if length else "",
                    "cohort_id": i,
                    "count": count,
                }
                for i, (prefix, length, count) in enumerate(leaves)
            ],
        }

    @classmethod
    def from_json_dict(cls, payload: dict[str, Any]) -> "CohortMap":
        entries = payload["entries"]
        ids = [check_integer(item["cohort_id"], "cohort_id", CohortError) for item in entries]
        if ids != list(range(len(entries))):
            raise CohortError("cohort ids must number buckets in prefix order")
        prefixes = [item["prefix"] for item in entries]
        for prefix in prefixes:
            if not isinstance(prefix, str) or not set(prefix) <= {"0", "1"}:
                raise CohortError(f"bucket prefix {prefix!r} is not a string of 0s and 1s")
        return cls(
            payload["bit_length"],
            payload["k"],
            [int(prefix, 2) if prefix else 0 for prefix in prefixes],
            list(map(len, prefixes)),
            [check_integer(item["count"], "count", CohortError) for item in entries],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohortMap):
            return NotImplemented
        return (
            self.bit_length == other.bit_length
            and self.k == other.k
            and np.array_equal(self.prefixes, other.prefixes)
            and np.array_equal(self.lengths, other.lengths)
            and np.array_equal(self.counts, other.counts)
        )


def build_cohort_map(hash_values: np.ndarray, k: int, bit_length: int) -> CohortMap:
    """Cluster a population of hash values into cohorts of size >= k.

    Duplicate hash values count with multiplicity. Raises ``CohortError``
    when bit_length is outside [1, 64], when k < 1, when the whole
    population is smaller than k, or when a hash is wider than bit_length.

    The sort is stable (timsort), which makes one linear pass over values
    that are already ascending, as ``cohorts.SortedPopulation`` passes them;
    unsorted values (only tests and outside callers pass them) sort about
    ten times slower than with the default sort.
    """
    bit_length = check_bit_length(bit_length, CohortError)
    k = _check_k(k)
    values = np.sort(np.asarray(hash_values, dtype=np.uint64), kind="stable")
    if len(values) < k:
        raise CohortError(f"population of {len(values)} cannot support k={k}")
    if bit_length < 64 and int(values[-1]) >> bit_length:
        raise CohortError("hash value wider than bit_length")

    one = np.uint64(1)
    # The open nodes of one depth, as runs [lo, hi) of the sorted values.
    # A node's prefix is the top ``depth`` bits of any of its values, and
    # every node holds at least k >= 1 of them.
    lo = np.zeros(1, dtype=np.intp)
    hi = np.full(1, len(values), dtype=np.intp)
    leaves: list[tuple[int, np.ndarray, np.ndarray]] = []
    depth = 0
    while depth < bit_length and lo.size:
        shift = np.uint64(bit_length - depth - 1)
        right_start = ((values[lo] >> shift) | one) << shift
        mid = np.searchsorted(values, right_start)
        split = (mid - lo >= k) & (hi - mid >= k)
        stop = ~split
        leaves.append((depth, lo[stop], hi[stop]))
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        depth += 1
    leaves.append((depth, lo, hi))

    depths, los, his = zip(*leaves)
    lo = np.concatenate(los)
    # The leaves' runs are disjoint and non-empty, so their first indices
    # order them as their prefixes do.
    order = np.argsort(lo)
    lengths = np.repeat(depths, [len(run) for run in los])[order]
    lo, hi = lo[order], np.concatenate(his)[order]
    # A length-0 prefix is 0, taken without a shift by bit_length.
    prefixes = np.right_shift(
        values[lo],
        (bit_length - lengths).astype(np.uint64),
        out=np.zeros(len(lo), dtype=np.uint64),
        where=lengths > 0,
    )
    return CohortMap(bit_length, k, prefixes, lengths, hi - lo)
