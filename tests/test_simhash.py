"""Hash-bitvector computation: determinism, moments, locality, the kernel.

Monte-Carlo thresholds were fixed from an oracle run recorded before
writing these tests: feature mean -0.0030 / var 0.9976 over 100k draws,
cross-seed correlation 0.0013, and a Hamming gap of 2.60 vs 23.83 bits
between high- and low-overlap set pairs (Spearman rho -0.884).
"""

import io
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocpriv import kernels
from flocpriv.fixtures import bundled_table1_sessions
from flocpriv.hashing import (
    DRAWS_PER_FEATURE,
    GOLDEN,
    INV_2_53,
    MIX_C1,
    MIX_C2,
    derive_seed,
    domain_hash64,
    domain_hashes64,
    seed_key,
)
from flocpriv.geo import UNKNOWN_STATE
from flocpriv.ingest import (
    FormatConfig,
    MachineWeekTable,
    WeekConfig,
    build_machine_weeks,
    parse_sessions,
)
from flocpriv.kernels import _feature_table, simhash_rows
from flocpriv.simhash import DEFAULT_BIT_LENGTH, SimHashConfig, simhash
from rank_correlation import spearman_rho
from simhash_oracle import gaussian_feature, mix64, uniform_draw


class TestHashing:
    def test_domain_hash_is_stable(self):
        # Frozen: blake2b-8 little-endian of the ASCII bytes.
        import hashlib

        expected = int.from_bytes(
            hashlib.blake2b(b"example.com", digest_size=8).digest(), "little"
        )
        assert domain_hash64("example.com") == expected

    def test_batch_domain_hashes_match_the_scalar_hash(self):
        names = ["example.com", "a.b.c.org", "bücher.de", "例え.テスト", "🙂.example", "x"]
        names += [f"top{i}.example" for i in range(16)]
        expected = [domain_hash64(name) for name in names]
        assert any(h >> 63 for h in expected) and not all(h >> 63 for h in expected)
        got = domain_hashes64(names)
        assert got.dtype == np.uint64
        assert got.tolist() == expected
        assert domain_hashes64(iter(names)).tolist() == expected

    def test_batch_domain_hashes_of_nothing_is_empty(self):
        got = domain_hashes64([])
        assert got.dtype == np.uint64 and got.shape == (0,)

    def test_mix64_bijective_on_samples(self, rng):
        xs = rng.integers(0, 2**63, size=1000, dtype=np.uint64)
        mixed = {mix64(int(x)) for x in xs}
        assert len(mixed) == len(xs)

    def test_uniform_draw_range(self, rng):
        key = seed_key(7)
        draws = [uniform_draw(key, t) for t in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(np.mean(draws) - 0.5) < 0.03

    def test_derive_seed_distinct_labels(self):
        seen = {derive_seed(0, label, i) for label in ("a", "b", "c") for i in range(10)}
        assert len(seen) == 30

    def test_derive_seed_wide_roots(self):
        # Roots and indices beyond 64 bits must not overflow.
        assert derive_seed(2**80, "x", 2**70) != derive_seed(2**80, "x", 0)


class TestGaussianFeature:
    def test_deterministic(self):
        a = gaussian_feature("news.example", 13, 7)
        b = gaussian_feature("news.example", 13, 7)
        assert a == b

    def test_distinct_inputs_differ(self):
        base = gaussian_feature("news.example", 13, 7)
        assert gaussian_feature("news.example", 14, 7) != base
        assert gaussian_feature("other.example", 13, 7) != base
        assert gaussian_feature("news.example", 13, 8) != base

    def test_moments(self):
        # 100,000 samples: mean within +/-0.02 of 0, variance within
        # +/-0.05 of 1 (oracle run: -0.0030 / 0.9976).
        values = np.array(
            [
                gaussian_feature(f"mc{i}.example", b, 7)
                for i in range(500)
                for b in range(0, 50, 10)
            ]
        )
        big = _feature_matrix(2000, 50, 7)
        flat = big.ravel()
        assert flat.size == 100_000
        assert abs(flat.mean()) < 0.02
        assert abs(flat.var() - 1.0) < 0.05
        # the kernel's feature table is exactly the scalar API
        assert big[3].tolist() == [gaussian_feature("mc3.example", b, 7) for b in range(50)]
        assert values.size == 2500

    def test_seed_decorrelation(self):
        # Oracle run: correlation 0.0013 between seeds 7 and 8.
        a = _feature_matrix(2000, 50, 7).ravel()
        b = _feature_matrix(2000, 50, 8).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.02

    def test_bounded_support(self):
        values = _feature_matrix(200, 50, 7).ravel()
        assert values.min() >= -6.0
        assert values.max() <= 6.0


def _feature_matrix(n_domains: int, bits: int, seed: int) -> np.ndarray:
    keys = np.array(
        [mix64(domain_hash64(f"mc{i}.example") ^ seed_key(seed)) for i in range(n_domains)],
        dtype=np.uint64,
    )
    return _feature_table(keys, bits)


class TestSimhash:
    def test_deterministic(self, sim_config):
        domains = ["a.example", "b.example", "c.example"]
        assert simhash(domains, sim_config) == simhash(domains, sim_config)

    def test_order_and_duplicates_irrelevant(self, sim_config):
        a = simhash(["x.com", "y.com", "z.com"], sim_config)
        b = simhash(["z.com", "x.com", "y.com", "x.com"], sim_config)
        assert a == b

    def test_range_bound(self):
        for bits in (1, 31, 50, 64):
            cfg = SimHashConfig(bit_length=bits)
            value = simhash(["a.com"], cfg)
            assert 0 <= value < 2**bits

    def test_empty_set_errors(self, sim_config):
        with pytest.raises(ValueError):
            simhash([], sim_config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimHashConfig(bit_length=0)
        with pytest.raises(ValueError):
            SimHashConfig(bit_length=65)

    def test_default_width(self, sim_config):
        assert sim_config.bit_length == DEFAULT_BIT_LENGTH == 50

    def test_bit_rule_matches_feature_sum(self, sim_config):
        # bit b is set iff the summed per-domain features are > 0.
        domains = ["alpha.org", "beta.org", "gamma.org"]
        value = simhash(domains, sim_config)
        for b in range(sim_config.bit_length):
            total = 0.0
            for d in sorted(domains, key=domain_hash64):
                total += gaussian_feature(d, b, sim_config.seed)
            expected_bit = 1 if total > 0.0 else 0
            actual_bit = (value >> (sim_config.bit_length - 1 - b)) & 1
            assert actual_bit == expected_bit, f"bit {b}"


@pytest.fixture(scope="module")
def pairs():
    rng = np.random.default_rng(2024)
    n_pairs, size = 10_000, 20
    pool = np.array(
        [domain_hash64(f"loc{i}.example") for i in range(200_000)], dtype=np.uint64
    )
    rows, offs, jac = [], [0], np.empty(n_pairs)
    for i in range(n_pairs):
        m = int(rng.integers(0, size + 1))
        idx = rng.choice(len(pool), size + m, replace=False)
        jac[i] = (size - m) / (size + m)
        rows.append(idx[:size])
        offs.append(offs[-1] + size)
        rows.append(np.concatenate([idx[m:size], idx[size : size + m]]))
        offs.append(offs[-1] + size)
    hashes = simhash_rows(
        np.concatenate(rows), np.array(offs, dtype=np.int64), pool, 50, seed_key(7)
    )
    xor = hashes[0::2] ^ hashes[1::2]
    hamming = np.array([bin(v).count("1") for v in xor])
    return jac, hamming



class TestLocality:
    def test_similar_sets_land_closer(self, pairs):
        jac, hamming = pairs
        high = hamming[jac >= 0.9]
        low = hamming[jac <= 0.1]
        assert len(high) > 100 and len(low) > 100
        assert high.mean() < low.mean()
        # Oracle run: 2.60 vs 23.83; require a wide, stable gap.
        assert low.mean() - high.mean() > 10.0

    def test_spearman_negative(self, pairs):
        jac, hamming = pairs
        rho = spearman_rho(jac.tolist(), hamming.tolist())
        assert rho < -0.5


# Pinned hashes of the bundled worked-example rows (sorted by machine, week);
# any change to the feature stream or the accumulation order shows up here.
TABLE1_HASHES = {
    (50, 7): [
        0x13963DED87A22, 0x5939A72A56A, 0x83BFF575DAED, 0x11BE36F1DE775,
        0x2CDEBC7B7D753, 0x34D92E04090D9, 0x13BA79348CA1F, 0x2A7E1E928F756,
        0x171BF5B55EE16, 0x30FC0E27CEAD0, 0xFAF04BF575C4, 0x1D70AE4D10256,
        0x23E0416FF24E7, 0x62378B77D247, 0x3A5EA4E916CFF, 0x25A1E533FC180,
        0x3E4935C143EAE, 0x22323D401C7BB,
    ],
    (64, 0): [
        0xBB82D52CC6548EDF, 0xE958CF30B84D72CD, 0x1A73492F07E49FB3, 0x87E08014EDD44924,
        0x4A8844D8308F4C02, 0x7D76A48DA7D25929, 0xB66D7AD5DBC9FE1F, 0x8940E75A0C26CC3F,
        0x99377BE371F706AC, 0x922FBDB6410E33B0, 0x0EEC031070A519CC, 0x19F08E7B8E689430,
        0x9E747C996619E475, 0x82D61445B5E2D009, 0x4ADEDA12D0DD2B9B, 0xEF90C3D1C6E6CB4B,
        0x972EC7E57297242A, 0xB675E430581B5126,
    ],
}


def _oracle_mix64(x):
    x = x ^ (x >> np.uint64(33))
    x = x * np.uint64(MIX_C1)
    x = x ^ (x >> np.uint64(33))
    x = x * np.uint64(MIX_C2)
    return x ^ (x >> np.uint64(33))


def _oracle_feature_table(keys, bit_length):
    """The feature table built one whole-array temporary per operation."""
    counters = (
        np.arange(1, bit_length * DRAWS_PER_FEATURE + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    ).reshape(bit_length, DRAWS_PER_FEATURE)
    table = np.empty((len(keys), bit_length))
    for j in range(DRAWS_PER_FEATURE):
        x = _oracle_mix64(keys[:, None] + counters[:, j]) >> np.uint64(11)
        u = x.astype(np.float64) * INV_2_53
        if j == 0:
            table[...] = u
        else:
            table += u
    table -= 6.0
    return table


@st.composite
def _feature_table_cases(draw):
    """Keys, a bit length and a block size, with the key count at or next
    to a multiple of the rows per block."""
    bits = draw(st.integers(1, 64))
    block = draw(st.sampled_from([1, 7, 64, 200, 1000]))
    rows = max(1, block // bits)
    n = max(0, rows * draw(st.integers(0, 3)) + draw(st.integers(-1, 1)))
    keys = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    return np.array(keys, dtype=np.uint64), bits, block


class TestKernels:
    def test_matches_scalar_feature_sums(self, rng, monkeypatch):
        # Oracle: bit b is the sign of a sequential sum of gaussian_feature
        # over the row's domains in ascending hash order. Rows share
        # domains, some are empty, and one repeats a domain. The kernel
        # gets the rows both in hash order and in the order they were
        # drawn. Small scratch budgets make the table chunks and row blocks
        # cross many boundaries, including blocks that end between rows of
        # different lengths. Rows are indices into one hash per name.
        pool = [f"k{i}.example" for i in range(30)]
        rows = [list(rng.choice(pool, size=int(rng.integers(0, 9)))) for _ in range(24)]
        rows += [[], ["dup.example", "k1.example", "dup.example"]]
        hash_ordered = [sorted(row, key=domain_hash64) for row in rows]
        assert hash_ordered != rows
        offsets = np.cumsum([0] + [len(row) for row in rows]).astype(np.int64)
        names = pool + ["dup.example"]
        hashes = np.array([domain_hash64(d) for d in names], dtype=np.uint64)
        for bits in (1, 17, 50, 64):
            expected = []
            for row in hash_ordered:
                value = 0
                for b in range(bits):
                    total = 0.0
                    for d in row:
                        total += gaussian_feature(d, b, 7)
                    value = (value << 1) | (total > 0.0)
                expected.append(value)
            for layout in (hash_ordered, rows):
                indices = np.array([names.index(d) for row in layout for d in row], np.int64)
                for budget in (kernels._BLOCK, 64, 20):
                    monkeypatch.setattr(kernels, "_BLOCK", budget)
                    got = simhash_rows(indices, offsets, hashes, bits, seed_key(7))
                    assert got.tolist() == expected, (bits, budget, layout is rows)
                    monkeypatch.undo()

    def test_each_row_is_summed_in_hash_order_whatever_its_given_order(self, monkeypatch):
        # Features chosen so that the order of the adds decides the sign:
        # (1e16 + 1) - 1e16 rounds to 0, while (1e16 - 1e16) + 1 is 1.
        # The kernel's table has one row per distinct hash, ascending, so
        # two indices to equal hashes (20, in the second input) share a row.
        features = np.array([[1e16], [1.0], [-1e16]])
        monkeypatch.setattr(kernels, "_feature_table", lambda keys, bits: features.copy())
        for hashes, rows in (
            ([30, 10, 20], [*itertools.permutations([0, 1, 2])]),
            ([30, 10, 20, 20], [*itertools.permutations([0, 1, 3]), (0, 1, 2, 3), (3, 2, 1, 0)]),
        ):
            hashes = np.array(hashes, dtype=np.uint64)
            offsets = np.cumsum([0] + [len(row) for row in rows])
            got = simhash_rows(np.concatenate(rows), offsets, hashes, 1, seed_key(7))
            assert got.tolist() == [0] * len(rows)

    @pytest.mark.parametrize("bit_length", [0, 65, -1])
    def test_bit_length_outside_1_to_64_is_rejected(self, bit_length):
        message = rf"bit_length must be in \[1, 64\], got {bit_length}"
        hashes = np.array([domain_hash64("a.example")], dtype=np.uint64)
        indices = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            simhash_rows(indices, np.array([0, 1]), hashes, bit_length, seed_key(7))
        with pytest.raises(ValueError, match=message):
            simhash_rows(indices[:0], np.array([0, 0]), hashes[:0], bit_length, seed_key(7))
        parsed = parse_sessions(io.StringIO(bundled_table1_sessions()), FormatConfig())
        table = build_machine_weeks(parsed.records, WeekConfig()).table
        for _ in range(2):  # a failed call caches nothing
            with pytest.raises(ValueError, match=message):
                table.hashes(bit_length, 7)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        # seed_key works mod 2**64, so such a seed would hash like an
        # in-range one yet be cached as a separate entry.
        assert seed_key(seed) == seed_key(seed % 2**64)
        message = rf"seed must fit in 64 bits, got {seed}"
        parsed = parse_sessions(io.StringIO(bundled_table1_sessions()), FormatConfig())
        table = build_machine_weeks(parsed.records, WeekConfig()).table
        for _ in range(2):  # a failed call caches nothing
            with pytest.raises(ValueError, match=message):
                table.hashes(50, seed)
        assert len(table.hashes(50, seed % 2**64)) == len(table)  # its in-range twin hashes
        with pytest.raises(ValueError, match=message):
            SimHashConfig(seed=seed)

    @settings(max_examples=300, deadline=None)
    @given(_feature_table_cases())
    # Keys whose ``key + GOLDEN * t`` wraps past 2**64 at the first draws.
    @example((np.array([0, 2**64 - 1, 2**64 - GOLDEN], dtype=np.uint64), 50, 1000))
    @example((np.array([0, 2**64 - 1, 2**64 - GOLDEN], dtype=np.uint64), 64, 64))
    @example((np.array([2**64 - GOLDEN, 0, 2**64 - 1] * 3, dtype=np.uint64), 1, 7))
    def test_feature_table_matches_whole_array_oracle(self, case):
        keys, bits, block = case
        with mock.patch.object(kernels, "_BLOCK", block):
            got = _feature_table(keys, bits)
        expected = _oracle_feature_table(keys, bits)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_table1_fixture_hashes_pinned(self):
        parsed = parse_sessions(io.StringIO(bundled_table1_sessions()), FormatConfig())
        table = build_machine_weeks(parsed.records, WeekConfig()).table
        for (bits, seed), expected in TABLE1_HASHES.items():
            assert table.hashes(bits, seed).tolist() == expected, (bits, seed)

    def test_empty_rows_hash_to_zero(self):
        indices = np.array([], dtype=np.int64)
        offsets = np.array([0, 0, 0], dtype=np.int64)
        hashes = np.array([domain_hash64("unused.example")], dtype=np.uint64)
        for vocabulary in (hashes[:0], hashes):
            assert list(simhash_rows(indices, offsets, vocabulary, 50, seed_key(7))) == [0, 0]

    def test_unique_runs_over_the_names_not_the_pairs(self, monkeypatch):
        # 300 rows of 30 of 40 names each: 9,000 pairs.
        rng = np.random.default_rng(5)
        rows = [rng.choice(40, size=30, replace=False) for _ in range(300)]
        table = MachineWeekTable(
            np.arange(300), np.zeros(300), [UNKNOWN_STATE], np.zeros(300), np.zeros(300),
            np.zeros(300), np.concatenate(rows), np.arange(0, 9001, 30),
            [f"n{i}.example" for i in range(40)],
        )
        seen, unique = [], np.unique

        def spy(values, *args, **kwargs):
            seen.append(np.size(values))
            return unique(values, *args, **kwargs)

        monkeypatch.setattr(kernels.np, "unique", spy)
        for bits in (16, 50):
            got = table.hashes(bits, 7)
        monkeypatch.undo()
        assert seen and max(seen) <= len(table.vocab_hashes) == 40
        assert got.tolist() == [
            simhash(table.domains(i), SimHashConfig(50, 7)) for i in range(len(table))
        ]

    def test_batch_matches_scalar_api(self, sim_config, rng):
        name_sets = [
            {f"d{v}.example" for v in rng.integers(0, 2**63, size=int(rng.integers(1, 12)))}
            for _ in range(25)
        ]
        names = sorted(set().union(*name_sets))
        batched = simhash_rows(
            np.array([names.index(d) for row in name_sets for d in row], dtype=np.int64),
            np.concatenate([[0], np.cumsum([len(n) for n in name_sets])]).astype(np.int64),
            np.array([domain_hash64(d) for d in names], dtype=np.uint64),
            sim_config.bit_length,
            seed_key(sim_config.seed),
        )
        for row, names in zip(batched, name_sets):
            assert int(row) == simhash(names, sim_config)


class TestIntegerParameters:
    """A width or seed is an integer: a bool or a float is refused, not truncated."""

    @pytest.fixture(scope="class")
    def table(self):
        parsed = parse_sessions(io.StringIO(bundled_table1_sessions()), FormatConfig())
        return build_machine_weeks(parsed.records, WeekConfig()).table

    def test_bool_bit_length_is_rejected(self):
        with pytest.raises(ValueError, match="bit_length must be an integer, got True"):
            SimHashConfig(bit_length=True)

    def test_float_seed_is_rejected(self):
        # It hashed like seed 7.
        with pytest.raises(ValueError, match="seed must be an integer, got 7.9"):
            SimHashConfig(50, 7.9)
        with pytest.raises(TypeError):
            seed_key(7.9)

    def test_float_bit_length_is_rejected_by_table_hashes(self, table):
        with pytest.raises(ValueError, match="bit_length must be an integer, got 50.0"):
            table.hashes(50.0, 7)

    def test_numpy_integers_are_integers(self, table):
        names = ["a.example", "b.example", "c.example"]
        config = SimHashConfig(np.int64(50), np.uint64(7))
        assert simhash(names, config) == simhash(names, SimHashConfig(50, 7))
        expected = table.hashes(50, 7).copy()
        assert table.hashes(np.int64(50), np.int64(7)).tolist() == expected.tolist()
        assert table.hashes(np.int64(16), np.int64(7)).tolist() == (expected >> 34).tolist()
        # A uint8 width of 22 wrapped 22 * 12 draws per feature to 8.
        config = SimHashConfig(np.uint8(22), np.uint8(7))
        assert (type(config.bit_length), type(config.seed)) == (int, int)
        expected = table.hashes(22, 7).copy()
        table._hash_cache.clear()
        assert table.hashes(np.uint8(22), np.uint8(7)).tolist() == expected.tolist()
        narrow = simhash_rows(
            table.dom_indices, table.offsets, table.vocab_hashes, np.uint8(22), seed_key(7)
        )
        assert narrow.tolist() == expected.tolist()
