"""Prefix-tree cohort construction: worked examples and property tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flocpriv.prefixlsh import CohortError, CohortMap, build_cohort_map


def _hashes(values, bits=3):
    del bits
    return np.array(values, dtype=np.uint64)


def _assign_one(cmap, hash_value):
    """Cohort id of one hash value."""
    return int(cmap.assign(np.array([hash_value], dtype=np.uint64))[0])


class TestWorkedExamples:
    def test_six_hash_split(self):
        # {000,001,010,101,110,111}, k=3: one split at the top bit.
        cmap = build_cohort_map(_hashes([0b000, 0b001, 0b010, 0b101, 0b110, 0b111]), 3, 3)
        assert cmap.num_cohorts == 2
        assert [(b.prefix, b.length, b.count) for b in cmap.buckets] == [
            (0, 1, 3),
            (1, 1, 3),
        ]
        assert _assign_one(cmap, 0b010) == 0
        assert _assign_one(cmap, 0b101) == 1

    def test_k_equal_to_population(self):
        cmap = build_cohort_map(_hashes([0b000, 0b001, 0b010, 0b101, 0b110, 0b111]), 6, 3)
        assert cmap.num_cohorts == 1
        assert cmap.buckets[0].length == 0
        assert _assign_one(cmap, 0b111) == 0

    def test_unbalanced_split_blocked(self):
        # {000,000,000,111}, k=2: splitting gives children 3 and 1 < k.
        cmap = build_cohort_map(_hashes([0, 0, 0, 0b111]), 2, 3)
        assert cmap.num_cohorts == 1

    def test_population_below_k_errors(self):
        with pytest.raises(CohortError):
            build_cohort_map(_hashes([1, 2, 3]), 4, 3)

    def test_duplicates_count_with_multiplicity(self):
        # Four copies at 000 and four at 111, k=4: both children viable.
        cmap = build_cohort_map(_hashes([0] * 4 + [0b111] * 4), 4, 3)
        assert cmap.num_cohorts == 2
        assert [b.count for b in cmap.buckets] == [4, 4]


class TestAssignment:
    def test_members_resolve_to_counting_leaf(self, rng):
        values = rng.integers(0, 2**50, size=5000, dtype=np.uint64)
        cmap = build_cohort_map(values, 37, 50)
        ids = cmap.assign(values)
        counts = np.bincount(ids, minlength=cmap.num_cohorts)
        assert list(counts) == [b.count for b in cmap.buckets]

    def test_out_of_range_hash_rejected(self):
        cmap = build_cohort_map(_hashes([0, 1, 2, 3]), 2, 3)
        with pytest.raises(CohortError):
            cmap.assign(np.array([2**9], dtype=np.uint64))

    def test_cohort_ids_ascend_with_prefix(self, rng):
        values = rng.integers(0, 2**20, size=800, dtype=np.uint64)
        cmap = build_cohort_map(values, 19, 20)
        starts = [b.start(20) for b in cmap.buckets]
        assert starts == sorted(starts)
        assert [b.cohort_id for b in cmap.buckets] == list(range(cmap.num_cohorts))


class TestMonotonicity:
    def test_monotone_in_k(self, rng):
        values = rng.integers(0, 2**50, size=4000, dtype=np.uint64)
        counts = [build_cohort_map(values, k, 50).num_cohorts for k in (20, 40, 80, 160, 320)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_trend_in_population(self, rng):
        # Expected cohort count is non-decreasing in |H| over nested samples.
        values = rng.integers(0, 2**50, size=10_000, dtype=np.uint64)
        sizes = np.linspace(1000, 10_000, 10).astype(int)
        counts = [build_cohort_map(values[:n], 100, 50).num_cohorts for n in sizes]
        # allow one local wobble but require a clean overall rise
        assert counts[-1] > counts[0]
        assert sum(a <= b for a, b in zip(counts, counts[1:])) >= 8


class TestJsonRoundTrip:
    def test_round_trip_bit_exact(self, rng):
        values = rng.integers(0, 2**50, size=3000, dtype=np.uint64)
        cmap = build_cohort_map(values, 61, 50)
        payload = json.dumps(cmap.to_json_dict(), sort_keys=True)
        back = CohortMap.from_json_dict(json.loads(payload))
        assert back == cmap
        assert json.dumps(back.to_json_dict(), sort_keys=True) == payload

    def test_prefixes_serialized_as_bit_strings(self):
        cmap = build_cohort_map(_hashes([0b000, 0b001, 0b010, 0b101, 0b110, 0b111]), 3, 3)
        entries = cmap.to_json_dict()["entries"]
        assert [e["prefix"] for e in entries] == ["0", "1"]

    def test_malformed_json_rejected(self):
        cmap = build_cohort_map(_hashes([0, 1, 2, 3]), 2, 3)
        payload = cmap.to_json_dict()
        payload["entries"][0]["prefix"] = "01"  # breaks the exact cover
        with pytest.raises((CohortError, ValueError)):
            CohortMap.from_json_dict(payload)


st_hash_case = hst.tuples(
    hst.integers(min_value=1, max_value=16),  # bit_length
    hst.integers(min_value=0, max_value=2**32),  # value seed
    hst.integers(min_value=20, max_value=400),  # population
    hst.integers(min_value=1, max_value=20),  # k
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(st_hash_case)
    def test_cover_and_anonymity(self, case):
        bits, seed, n, k = case
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        if n < k:
            with pytest.raises(CohortError):
                build_cohort_map(values, k, bits)
            return
        cmap = build_cohort_map(values, k, bits)
        counts = [b.count for b in cmap.buckets]
        # k-anonymity and conservation
        assert min(counts) >= k
        assert sum(counts) == n
        # complete prefix-free cover of the hash space
        assert sum(2 ** (bits - b.length) for b in cmap.buckets) == 2**bits
        # every member resolves to the leaf that counted it
        ids = cmap.assign(values)
        assert list(np.bincount(ids, minlength=cmap.num_cohorts)) == counts

    @settings(max_examples=100, deadline=None)
    @given(st_hash_case)
    def test_round_trip(self, case):
        bits, seed, n, k = case
        if n < k:
            return
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**bits, size=n, dtype=np.uint64)
        cmap = build_cohort_map(values, k, bits)
        assert CohortMap.from_json_dict(cmap.to_json_dict()) == cmap
