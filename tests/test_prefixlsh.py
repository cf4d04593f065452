"""Prefix-tree cohort construction: worked examples and property tests."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from prefixlsh_oracle import oracle_assign, oracle_buckets

from flocpriv.prefixlsh import CohortError, CohortMap, build_cohort_map


def _hashes(values, bits=3):
    del bits
    return np.array(values, dtype=np.uint64)


def _assign_one(cmap, hash_value):
    """Cohort id of one hash value."""
    return int(cmap.assign(np.array([hash_value], dtype=np.uint64))[0])


def _starts(cmap):
    """Smallest hash value of each cohort, as Python ints."""
    return [
        prefix << (cmap.bit_length - length)
        for prefix, length in zip(cmap.prefixes.tolist(), cmap.lengths.tolist())
    ]


def _cover(cmap):
    """Hash values the cohorts cover together, with multiplicity."""
    return sum(1 << (cmap.bit_length - length) for length in cmap.lengths.tolist())


def _assert_same_leaves(cmap, buckets):
    """The map's leaves are the oracle's buckets, cohort ids included."""
    assert cmap.prefixes.tolist() == [b.prefix for b in buckets]
    assert cmap.lengths.tolist() == [b.length for b in buckets]
    assert cmap.counts.tolist() == [b.count for b in buckets]
    assert [b.cohort_id for b in buckets] == list(range(cmap.num_cohorts))


class TestWorkedExamples:
    def test_six_hash_split(self):
        # {000,001,010,101,110,111}, k=3: one split at the top bit.
        cmap = build_cohort_map(_hashes([0b000, 0b001, 0b010, 0b101, 0b110, 0b111]), 3, 3)
        assert cmap.num_cohorts == 2
        assert cmap.prefixes.tolist() == [0, 1]
        assert cmap.lengths.tolist() == [1, 1]
        assert cmap.counts.tolist() == [3, 3]
        assert [(b.prefix, b.length, b.count) for b in cmap] == [(0, 1, 3), (1, 1, 3)]
        assert _assign_one(cmap, 0b010) == 0
        assert _assign_one(cmap, 0b101) == 1

    def test_k_equal_to_population(self):
        cmap = build_cohort_map(_hashes([0b000, 0b001, 0b010, 0b101, 0b110, 0b111]), 6, 3)
        assert cmap.num_cohorts == 1
        assert cmap.lengths.tolist() == [0]
        assert cmap.to_json_dict()["entries"] == [{"prefix": "", "cohort_id": 0, "count": 6}]
        assert _assign_one(cmap, 0b111) == 0

    def test_unbalanced_split_blocked(self):
        # {000,000,000,111}, k=2: splitting gives children 3 and 1 < k.
        cmap = build_cohort_map(_hashes([0, 0, 0, 0b111]), 2, 3)
        assert cmap.num_cohorts == 1

    def test_population_below_k_errors(self):
        with pytest.raises(CohortError):
            build_cohort_map(_hashes([1, 2, 3]), 4, 3)

    @pytest.mark.parametrize("bits", [65, -1, 0])
    def test_bit_length_outside_1_to_64_rejected(self, bits):
        message = f"bit_length must be in [1, 64], got {bits}"
        with pytest.raises(CohortError, match=re.escape(message)):
            build_cohort_map(_hashes([0, 1]), 1, bits)

    @pytest.mark.parametrize("k", [2.5, True])
    def test_k_that_is_not_an_integer_is_rejected(self, k):
        # At k = 2.5 a map was built by the k = 2.5 split rule but stored k = 2.
        message = f"k must be an integer, got {k!r}"
        with pytest.raises(CohortError, match=re.escape(message)):
            build_cohort_map(_hashes(range(8)), k, 8)
        with pytest.raises(CohortError, match=re.escape(message)):
            CohortMap(8, k, [0], [0], [8])

    def test_numpy_integers_are_integers(self):
        # A uint8 width of 16 overflowed the width check on a hash above 255.
        values = _hashes([300, 1000, 40000, 65535])
        cmap = build_cohort_map(values, np.int64(2), np.uint8(16))
        assert cmap == build_cohort_map(values, 2, 16)
        assert (type(cmap.bit_length), type(cmap.k)) == (int, int)
        assert json.loads(json.dumps(cmap.to_json_dict())) == cmap.to_json_dict()

    def test_full_depth_at_64_bits(self):
        # {0, 1, 2, 4, ..., 2^63}, k=1: every node on the path to 0 splits,
        # so 0 and 1 end in leaves of length 64.
        values = np.array([0] + [1 << i for i in range(64)], dtype=np.uint64)
        cmap = build_cohort_map(values, 1, 64)
        assert cmap.prefixes.tolist() == [0] + [1] * 64
        assert cmap.lengths.tolist() == [64] + [64 - i for i in range(64)]
        assert cmap.assign(values).tolist() == list(range(65))
        _assert_same_leaves(cmap, oracle_buckets(values, 1, 64))
        assert CohortMap.from_json_dict(cmap.to_json_dict()) == cmap

    def test_duplicates_count_with_multiplicity(self):
        # Four copies at 000 and four at 111, k=4: both children viable.
        cmap = build_cohort_map(_hashes([0] * 4 + [0b111] * 4), 4, 3)
        assert cmap.num_cohorts == 2
        assert cmap.counts.tolist() == [4, 4]


class TestAssignment:
    def test_members_resolve_to_counting_leaf(self, rng):
        values = rng.integers(0, 2**50, size=5000, dtype=np.uint64)
        cmap = build_cohort_map(values, 37, 50)
        ids = cmap.assign(values)
        counts = np.bincount(ids, minlength=cmap.num_cohorts)
        assert list(counts) == cmap.counts.tolist()

    def test_out_of_range_hash_rejected(self):
        cmap = build_cohort_map(_hashes([0, 1, 2, 3]), 2, 3)
        with pytest.raises(CohortError):
            cmap.assign(np.array([2**9], dtype=np.uint64))

    def test_cohort_ids_ascend_with_prefix(self, rng):
        values = rng.integers(0, 2**20, size=800, dtype=np.uint64)
        cmap = build_cohort_map(values, 19, 20)
        starts = _starts(cmap)
        assert starts == sorted(starts)
        entries = cmap.to_json_dict()["entries"]
        assert [e["cohort_id"] for e in entries] == list(range(cmap.num_cohorts))


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

    @pytest.mark.parametrize(
        "bits, prefixes, message",
        [
            (2, ["0", "01", "11"], "buckets overlap or leave a gap"),
            (3, ["0", "001", "101", "11"], "buckets overlap or leave a gap"),
            (2, ["1", "0"], "buckets out of ascending prefix order"),
            (2, ["0", "10"], "buckets do not tile the hash space exactly"),
            (2, ["0", "100", "101", "11"], "bucket prefix length 3 out of range"),
            # int(s, 2) reads each of these as a string of bits.
            (3, ["000", "0_1", "01", "1"], "bucket prefix '0_1' is not a string of 0s and 1s"),
            (3, ["000", "0b1", "01", "1"], "bucket prefix '0b1' is not a string of 0s and 1s"),
            (2, [" 0", "01", "1"], "bucket prefix ' 0' is not a string of 0s and 1s"),
            (2, ["00", "+1", "1"], "bucket prefix '+1' is not a string of 0s and 1s"),
            (1, ["\u0660", "1"], "bucket prefix '\u0660' is not a string of 0s and 1s"),
        ],
    )
    def test_inexact_covers_rejected(self, bits, prefixes, message):
        payload = {
            "bit_length": bits,
            "k": 1,
            "entries": [
                {"prefix": p, "cohort_id": i, "count": 1} for i, p in enumerate(prefixes)
            ],
        }
        with pytest.raises(CohortError, match=re.escape(message)):
            CohortMap.from_json_dict(payload)

    @pytest.mark.parametrize(
        "k, counts, message",
        [
            (0, [1, 1], "k must be >= 1, got 0"),
            (-1, [1, 1], "k must be >= 1, got -1"),
            (1, [0, 2], "bucket count 0 below k=1"),
            (1, [3, -2], "bucket count -2 below k=1"),
            (5, [1, 1], "bucket count 1 below k=5"),
            (5, [5, 4], "bucket count 4 below k=5"),
        ],
    )
    def test_counts_must_reach_k(self, k, counts, message):
        with pytest.raises(CohortError, match=re.escape(message)):
            CohortMap(1, k, [0, 1], [1, 1], counts)
        payload = {
            "bit_length": 1,
            "k": k,
            "entries": [
                {"prefix": p, "cohort_id": i, "count": c}
                for i, (p, c) in enumerate(zip(["0", "1"], counts))
            ],
        }
        with pytest.raises(CohortError, match=re.escape(message)):
            CohortMap.from_json_dict(payload)

    def test_cohort_ids_must_count_up(self):
        payload = build_cohort_map(_hashes([0, 1, 2, 3]), 2, 3).to_json_dict()
        payload["entries"][0]["cohort_id"] = 1
        with pytest.raises(CohortError, match="cohort ids must number buckets"):
            CohortMap.from_json_dict(payload)

    def test_prefix_wider_than_length_rejected(self):
        for prefixes, lengths in (([1], [0]), ([0, 2], [1, 1]), ([2**64 - 1], [63])):
            with pytest.raises(CohortError, match="wider than its stated length"):
                CohortMap(64, 1, prefixes, lengths, [1] * len(lengths))

    def test_non_integer_numbers_rejected(self):
        payload = {
            "bit_length": 1.9,
            "k": True,
            "entries": [{"prefix": "", "cohort_id": 0.5, "count": 2.7}],
        }
        with pytest.raises(CohortError, match="must be an integer"):
            CohortMap.from_json_dict(payload)

    @pytest.mark.parametrize("field", ["bit_length", "k", "cohort_id", "count"])
    @pytest.mark.parametrize("value", [1.0, 2.5, True, False, "1", "2"])
    def test_each_integer_field_rejects_other_types(self, field, value):
        payload = build_cohort_map(_hashes([0, 1, 2, 3]), 1, 2).to_json_dict()
        assert CohortMap.from_json_dict(payload).to_json_dict() == payload
        target = payload if field in ("bit_length", "k") else payload["entries"][0]
        target[field] = value
        message = f"{field} must be an integer, got {value!r}"
        with pytest.raises(CohortError, match=re.escape(message)):
            CohortMap.from_json_dict(payload)

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
        counts = cmap.counts.tolist()
        # k-anonymity and conservation
        assert min(counts) >= k
        assert sum(counts) == n
        # complete prefix-free cover of the hash space
        assert _cover(cmap) == 2**bits
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


@hst.composite
def _populations(draw):
    """A bit length in [1, 64], a population of hashes that fit it, and k."""
    bits = draw(hst.integers(min_value=1, max_value=64))
    n = draw(hst.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(hst.integers(min_value=0, max_value=2**32)))
    top = (1 << bits) - 1
    shape = draw(hst.sampled_from(["uniform", "top_bit_set", "few_distinct", "all_equal"]))
    if shape == "uniform":
        values = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True)
    elif shape == "top_bit_set":
        half = 1 << (bits - 1)
        values = np.uint64(half) | rng.integers(0, half - 1, size=n, dtype=np.uint64, endpoint=True)
    elif shape == "few_distinct":
        pool = rng.integers(0, top, size=draw(hst.integers(2, 5)), dtype=np.uint64, endpoint=True)
        values = rng.choice(pool, size=n)
    else:
        values = np.full(n, rng.integers(0, top, dtype=np.uint64, endpoint=True), dtype=np.uint64)
    k = draw(hst.one_of(hst.just(n), hst.integers(min_value=1, max_value=n)))
    probes = rng.integers(0, top, size=50, dtype=np.uint64, endpoint=True)
    return bits, values, k, probes


class TestMatchesOracle:
    @settings(max_examples=400, deadline=None)
    @given(_populations())
    def test_same_tree_and_assignment(self, case):
        bits, values, k, probes = case
        cmap = build_cohort_map(values, k, bits)
        buckets = oracle_buckets(values, k, bits)
        _assert_same_leaves(cmap, buckets)
        for needles in (values, probes, np.concatenate((probes, values[::-1]))):
            assert np.array_equal(cmap.assign(needles), oracle_assign(buckets, bits, needles))
        assert CohortMap.from_json_dict(cmap.to_json_dict()) == cmap


class TestNesting:
    @settings(max_examples=200, deadline=None)
    @given(_populations(), hst.data())
    def test_larger_k_merges_consecutive_cohorts(self, case, data):
        bits, values, k1, _ = case
        n = len(values)
        k2 = data.draw(hst.integers(min_value=k1, max_value=n))
        fine, coarse = build_cohort_map(values, k1, bits), build_cohort_map(values, k2, bits)
        for cmap, k in ((fine, k1), (coarse, k2)):
            counts = cmap.counts.tolist()
            assert min(counts) >= k
            assert sum(counts) == n
            assert _cover(cmap) == 1 << bits
        # Every coarse cohort starts where a fine one does, so each is the
        # union of the consecutive fine cohorts up to the next coarse start.
        fine_starts = np.array(_starts(fine), dtype=np.uint64)
        coarse_starts = np.array(_starts(coarse), dtype=np.uint64)
        assert np.isin(coarse_starts, fine_starts).all()
        parent = np.searchsorted(coarse_starts, fine_starts, side="right") - 1
        outer_prefixes = coarse.prefixes.tolist()
        outer_lengths = coarse.lengths.tolist()
        for prefix, length, p in zip(fine.prefixes.tolist(), fine.lengths.tolist(), parent.tolist()):
            assert length >= outer_lengths[p]
            assert prefix >> (length - outer_lengths[p]) == outer_prefixes[p]
        merged = np.bincount(parent, weights=fine.counts)
        assert merged.astype(np.int64).tolist() == coarse.counts.tolist()
        # Members of one fine cohort share a coarse cohort, in order.
        assert np.array_equal(parent[fine.assign(values)], coarse.assign(values))
