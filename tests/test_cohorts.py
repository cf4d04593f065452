"""The two-pass hashing of cohort builds: the width rule, the cache, the deep leaves.

A hash of width B is the top B bits of the same rows' hash at any wider
width, and the table's cache derives narrower widths that way. A build at
level k hashes W = min(bit_length, 16, ((N - 1) // k).bit_length() + 3)
bits first, N being the larger of the table's largest weekly population
and the population's own size (a sequence position pools several weeks'
rows): leaves lie about log2(N / k) bits deep, and the + 3 covers the
deepest measured (5-6 bits at 500 machines and k = 30, 7-8 at k = 10).
It hashes at full width only the rows of the leaves that reach W bits,
each of which holds every row with its W-bit prefix; the deep-leaf tests
count the kernel's calls and rows to show that, and compare every map
and id with a single full-width build.

A node stops at its first failed split, so a leaf is as deep as an
unbroken run of successful splits. At k = 1 that reaches 17 bits only in a
population of a few thousand varied rows: 4,000 synth machines a week do,
and their first pass is 15 bits wide.

``SortedPopulation.cluster`` reads each row's id off the order its pass
sorted the hashes in, never through ``CohortMap.assign``;
``TestOneSortPerPopulation`` checks those ids against ``assign`` of a
full-width build, and that the pipeline runs with ``assign`` unusable.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocpriv import kernels
from flocpriv.cohorts import (
    FIRST_PASS_BITS,
    SortedPopulation,
    _first_pass_width,
    compute_weekly_cohorts,
)
from flocpriv.geo import UNKNOWN_STATE
from flocpriv.ingest import INCOME_GROUPS, RACE_GROUPS, MachineWeekTable
from flocpriv.panels import JointDistribution, PanelError, cluster_panel, stratified_panels
from flocpriv.prefixlsh import CohortError, CohortMap, build_cohort_map
from flocpriv.simhash import SimHashConfig
from flocpriv.synth import SynthConfig, generate_population
from flocpriv.unicity import (
    assign_sequence_cohorts,
    build_sequences,
    sweep_k,
    sweep_population,
    unicity_fractions,
)

SHARED = [f"shared{i}.example" for i in range(40)]


def _table(rows, weeks=None, vocab=None):
    """A table of one machine per row (or per ``weeks`` run) from name lists."""
    n = len(rows)
    vocab = vocab or sorted({name for row in rows for name in row})
    index = {name: i for i, name in enumerate(vocab)}
    weeks = np.zeros(n, dtype=np.int64) if weeks is None else np.asarray(weeks)
    machines = np.cumsum(np.r_[1, (np.diff(weeks) <= 0).astype(np.int64)]) if n else []
    return MachineWeekTable(
        machines,
        weeks,
        [UNKNOWN_STATE],
        np.zeros(n),
        np.zeros(n),
        np.zeros(n),
        [index[name] for row in rows for name in row],
        np.cumsum([0] + [len(row) for row in rows]),
        vocab,
    )


def _near_duplicates(n_machines, n_weeks=1):
    """Each row holds the 40 shared domains and one of its own, so rows
    agree on most hash bits, the top one among them."""
    rows = [
        SHARED + [f"m{m}w{w}.example"] for m in range(n_machines) for w in range(n_weeks)
    ]
    return _table(rows, weeks=np.tile(np.arange(n_weeks), n_machines))


@pytest.fixture()
def calls(monkeypatch):
    """The bit length and row count of every ``kernels.simhash_rows`` call, in order."""
    seen = []
    kernel = kernels.simhash_rows

    def counting(indices, offsets, hashes, bit_length, seed_key):
        seen.append((int(bit_length), len(offsets) - 1))
        return kernel(indices, offsets, hashes, bit_length, seed_key)

    monkeypatch.setattr(kernels, "simhash_rows", counting)
    return seen


def _widths(calls):
    return [width for width, _ in calls]


def _full_build(table, rows, k, config):
    """The map and ids of one build on the rows' full-width hashes."""
    values = table.hashes(config.bit_length, config.seed)[rows]
    cmap = build_cohort_map(values, k, config.bit_length)
    return cmap, cmap.assign(values)


@st.composite
def _random_tables(draw, min_rows=1, max_rows=10, min_names=1):
    """Rows of a few short names, empty rows included."""
    names = draw(
        st.lists(
            st.text("abc.", min_size=1, max_size=4), min_size=min_names, max_size=12, unique=True
        )
    )
    rows = draw(
        st.lists(st.sets(st.sampled_from(names), max_size=6), min_size=min_rows, max_size=max_rows)
    )
    return [sorted(row) for row in rows], names


class TestWidthRule:
    @settings(max_examples=60, deadline=None)
    @given(_random_tables(), st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**64 - 1))
    def test_a_narrow_hash_is_the_top_bits_of_a_wide_one(self, case, a, b, seed):
        rows, names = case
        narrow, wide = sorted((a, b))
        # Two tables, so neither width comes from the other's cache.
        wide_hashes = _table(rows, vocab=names).hashes(wide, seed)
        narrow_hashes = _table(rows, vocab=names).hashes(narrow, seed)
        assert np.array_equal(wide_hashes >> np.uint64(wide - narrow), narrow_hashes)

    @settings(max_examples=60, deadline=None)
    @given(_random_tables(), st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**64 - 1))
    def test_the_cache_answers_as_a_fresh_table_does(self, case, first, second, seed):
        rows, names = case
        table = _table(rows, vocab=names)
        table.hashes(first, seed)
        got = table.hashes(second, seed)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _table(rows, vocab=names).hashes(second, seed))

    def test_a_narrower_width_is_derived_without_hashing(self, calls):
        table = _near_duplicates(8)
        table.hashes(50, 7)
        table.hashes(16, 7)
        table.hashes(3, 7)
        assert _widths(calls) == [50]
        table.hashes(16, 8)  # another seed is hashed
        table.hashes(60, 7)  # and so is a wider width
        assert _widths(calls) == [50, 16, 60]

    @pytest.mark.parametrize(
        "population, k, width",
        [
            (500, 30, 8),
            (500, 10, 9),
            (600, 30, 8),
            (4000, 1, 15),
            (8000, 10, 13),
            (90000, 30, 15),
            (90000, 10, 16),
        ],
    )
    def test_the_first_width_follows_the_population_and_k(self, population, k, width):
        assert _first_pass_width(population, k, 50) == width
        assert _first_pass_width(population, k, width - 1) == width - 1  # capped by bit_length
        assert _first_pass_width(population, k, 64) <= FIRST_PASS_BITS

    @pytest.mark.parametrize(
        "k, message",
        [(0, "k must be >= 1, got 0"), (True, "got True"), (2.5, "got 2.5")],
    )
    def test_k_is_checked_before_the_width(self, monkeypatch, k, message):
        def refuse(*args):
            raise AssertionError("the width rule ran before k was checked")

        monkeypatch.setattr("flocpriv.cohorts._first_pass_width", refuse)
        population = SortedPopulation(_near_duplicates(8), np.arange(8), SimHashConfig())
        with pytest.raises(CohortError, match=message):
            population.cluster(k)

    @settings(max_examples=200, deadline=None)
    @given(_random_tables(8, 40, 6), st.integers(2, 64), st.integers(1, 2), st.data())
    def test_any_first_width_gives_the_full_width_build(self, case, bit_length, k, data):
        """The rule forced to a width from 1 to the full-width map's deepest
        leaf (at most 16 bits), so the first pass has a leaf of that length
        to refine unless it is the whole width."""
        rows, names = case
        table = _table(rows, vocab=names)
        picked = np.array(data.draw(st.permutations(range(len(rows)))), dtype=np.int64)
        config = SimHashConfig(bit_length, 7)
        want_map, want_ids = _full_build(table, picked, k, config)
        deepest = min(int(want_map.lengths.max()), FIRST_PASS_BITS)
        width = data.draw(st.integers(1, max(deepest, 1)))
        with mock.patch("flocpriv.cohorts._first_pass_width", return_value=width):
            cmap, ids = SortedPopulation(table, picked, config).cluster(k)
        assert cmap == want_map
        assert np.array_equal(ids, want_ids)


def _deep_table():
    """4,000 synth machines x 2 weeks, each week's k = 1 map deeper than 16 bits."""
    return generate_population(
        SynthConfig(n_machines=4000, n_weeks=2, vocab_size=2000, seed=0)
    ).table


def _whole_week_target(table):
    """The week's own cell shares, so one panel takes nearly every machine."""
    cells = table.race_idx.astype(np.int64) * len(INCOME_GROUPS) + table.income_idx
    probs = np.bincount(cells, minlength=16) / len(cells)
    grid = probs.reshape(len(RACE_GROUPS), len(INCOME_GROUPS))
    return JointDistribution(tuple(tuple(float(p) for p in row) for row in grid))


def _deep_rows(cmap, width):
    """Rows of a full-width map's leaves at least ``width`` bits long: those
    of a ``width``-bit first pass's leaves of length ``width``."""
    return int(cmap.counts[cmap.lengths >= width].sum())


def _one_week(table):
    """``table``'s rows as one week of as many machines; ``_deep_table``'s
    8,000 make k = 1 read 16 bits first."""
    n = len(table)
    return MachineWeekTable(
        np.arange(n),
        np.zeros(n),
        table.state_labels,
        table.race_idx,
        table.income_idx,
        table.state_idx,
        table.dom_indices,
        table.offsets,
        table.vocab,
    )


class TestFallback:
    """A first pass of W bits, then one full-width kernel call per
    population on the rows of its leaves of length W only. On the
    8,000-row week of ``_one_week`` W is 16 at k = 1, and 15 on the
    4,000-row weeks of ``_deep_table``."""

    def test_weekly_cohorts_rehash_when_a_leaf_reaches_16_bits(self, calls):
        table = _one_week(_deep_table())
        config = SimHashConfig()
        got = compute_weekly_cohorts(table, 1, config)
        assert calls[0] == (FIRST_PASS_BITS, len(table))
        assert _widths(calls) == [FIRST_PASS_BITS, config.bit_length]
        cmap, ids = _full_build(table, np.arange(len(table)), 1, config)
        assert 0 < calls[1][1] == _deep_rows(cmap, FIRST_PASS_BITS) < len(table)
        assert got.maps[0] == cmap
        assert np.array_equal(got.cohort_ids, ids)

    def test_weekly_cohorts_take_one_first_pass_for_every_week(self, calls):
        table = _deep_table()
        config = SimHashConfig()
        got = compute_weekly_cohorts(table, 1, config)
        width = _first_pass_width(4000, 1, config.bit_length)
        assert calls[0] == (width, len(table))
        assert _widths(calls) == [width, config.bit_length, config.bit_length]
        for week, (_, refined) in zip((0, 1), calls[1:]):
            rows = table.rows_for_week(week)
            cmap, ids = _full_build(table, rows, 1, config)
            assert cmap.lengths.max() > FIRST_PASS_BITS  # 16 bits could not give this map
            assert 0 < refined == _deep_rows(cmap, width) < len(rows)
            assert got.maps[week] == cmap
            assert np.array_equal(got.cohort_ids[rows], ids)

    def test_sequence_positions_rehash_when_a_leaf_reaches_16_bits(self, calls):
        table = _one_week(_deep_table())
        config = SimHashConfig()
        seqs = build_sequences(table, window=1)
        got = assign_sequence_cohorts(seqs, 1, config)
        assert _widths(calls) == [FIRST_PASS_BITS, config.bit_length]
        cmap, ids = _full_build(table, seqs.row_matrix[:, 0], 1, config)
        assert cmap.lengths.max() > FIRST_PASS_BITS
        assert 0 < calls[1][1] == _deep_rows(cmap, FIRST_PASS_BITS) < seqs.n_samples
        assert got.maps[0] == cmap
        assert np.array_equal(got.cohort_ids[:, 0], ids)

    def test_cluster_panel_rehashes_when_a_leaf_reaches_16_bits(self, calls):
        table = _one_week(_deep_table())
        target = _whole_week_target(table)
        panels = stratified_panels(table, target, 1, seed=0, bit_length=50, sim_seed=7)
        assert calls == []  # the draw hashes nothing
        cluster_panel(panels[0], k=1, bit_length=50)
        assert _widths(calls) == [FIRST_PASS_BITS, 50]
        cmap, ids = _full_build(table, panels[0].rows, 1, SimHashConfig(50, 7))
        assert cmap.lengths.max() > FIRST_PASS_BITS
        assert 0 < calls[1][1] == _deep_rows(cmap, FIRST_PASS_BITS) < panels[0].size
        assert panels[0].cohort_map == cmap
        assert np.array_equal(panels[0].cohort_ids, ids)

    def test_rows_that_differ_by_one_domain_stop_at_their_first_shared_bit(self, calls):
        table = _near_duplicates(64)
        config = SimHashConfig()
        got = compute_weekly_cohorts(table, 1, config)
        assert calls == [(_first_pass_width(64, 1, 50), 64)]
        cmap, ids = _full_build(table, table.rows_for_week(0), 1, config)
        assert len(np.unique(table.hashes(50, 7))) > 1  # the full hashes differ
        assert got.maps[0] == cmap
        assert np.array_equal(got.cohort_ids, ids)

    def test_equal_rows_do_not_force_the_fallback(self, calls):
        table = _table([SHARED] * 64)
        got = compute_weekly_cohorts(table, 1)
        assert calls == [(_first_pass_width(64, 1, 50), 64)]
        assert got.maps[0].num_cohorts == 1

    def test_shallow_leaves_take_one_pass(self, calls):
        table = _deep_table()
        config = SimHashConfig()
        got = compute_weekly_cohorts(table, 10, config)
        assert calls == [(12, len(table))]  # 3,999 // 10 is 9 bits long
        for week in (0, 1):
            rows = table.rows_for_week(week)
            cmap, ids = _full_build(table, rows, 10, config)
            assert got.maps[week] == cmap
            assert np.array_equal(got.cohort_ids[rows], ids)

    @pytest.mark.parametrize("bit_length", [1, 12, 16])
    def test_bit_length_up_to_16_takes_a_single_pass(self, calls, bit_length):
        """Up to the first width, here 16 bits: see
        ``test_the_fallback_table_at_k_1`` for 17 bits and more."""
        table = _one_week(_deep_table())
        config = SimHashConfig(bit_length=bit_length)
        got = compute_weekly_cohorts(table, 1, config)
        assert calls == [(bit_length, len(table))]
        cmap, ids = _full_build(table, np.arange(len(table)), 1, config)
        assert got.maps[0] == cmap
        assert np.array_equal(got.cohort_ids, ids)
        if bit_length == 16:
            assert got.maps[0].lengths.max() == 16  # a leaf at 16 bits, and no rehash

    def test_cluster_panel_builds_at_its_own_bit_length(self, calls):
        table = _deep_table()
        panels = stratified_panels(
            table, _whole_week_target(table), 1, seed=0, bit_length=50, sim_seed=7
        )
        cluster_panel(panels[0], k=1, bit_length=12)
        assert _widths(calls) == [12]  # a width up to the first pass's takes one pass
        cmap, ids = _full_build(table, panels[0].rows, 1, SimHashConfig(12, 7))
        assert panels[0].cohort_map == cmap and panels[0].cohort_map.bit_length == 12
        assert np.array_equal(panels[0].cohort_ids, ids)

    def test_a_panel_without_its_table_cannot_be_clustered(self):
        table = _near_duplicates(4)
        cells = [[0.0] * 4 for _ in range(4)]
        cells[0][0] = 1.0  # every machine of _table is (white, lt25k)
        target = JointDistribution(tuple(map(tuple, cells)))
        (panel,) = stratified_panels(table, target, 1, seed=0, bit_length=50, sim_seed=7)
        panel.table = None
        with pytest.raises(PanelError, match="panel 0 has no source table"):
            cluster_panel(panel, k=1, bit_length=50)


class TestOneSortPerPopulation:
    @settings(max_examples=150, deadline=None)
    @given(
        _random_tables(),
        st.one_of(st.sampled_from([1, 16, 17, 64]), st.integers(1, 64)),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
    )
    @example(([["a"]] * 7, ["a"]), 17, 0, 0)  # all rows equal, k = population
    @example(([["a"], ["b"], ["a"], [], ["b"], []], ["a", "b"]), 64, 1, 1)  # duplicates
    @example(([["a"], ["b"], ["c"], ["a", "b"]], ["a", "b", "c"]), 1, 0, 2)
    def test_ids_equal_assign_of_a_full_width_build(self, case, bit_length, k, seed):
        """k = 0 stands for k = the population; rows are drawn in random order."""
        rows, names = case
        table = _table(rows, vocab=names)
        rng = np.random.default_rng(seed)
        picked = rng.permutation(len(rows))[: rng.integers(1, len(rows) + 1)]
        k = min(k, len(picked)) or len(picked)
        config = SimHashConfig(bit_length, seed)
        cmap, ids = SortedPopulation(table, picked, config).cluster(k)
        want_map, want_ids = _full_build(table, picked, k, config)
        assert cmap == want_map
        assert ids.dtype == np.int32
        assert np.array_equal(ids, want_ids)

    @pytest.mark.parametrize("bit_length", [17, 50, 64])
    def test_the_fallback_table_at_k_1(self, calls, bit_length):
        table = _deep_table()
        config = SimHashConfig(bit_length)
        rows = np.random.default_rng(3).permutation(table.rows_for_week(1))
        cmap, ids = SortedPopulation(table, rows, config).cluster(1)
        width = _first_pass_width(4000, 1, bit_length)
        assert _widths(calls) == [width, bit_length]  # the deep leaves' rows were rehashed
        want_map, want_ids = _full_build(table, rows, 1, config)
        assert 0 < calls[1][1] == _deep_rows(want_map, width) < len(rows)
        assert cmap.lengths.max() >= FIRST_PASS_BITS
        assert cmap == want_map
        assert np.array_equal(ids, want_ids)

    def test_the_pipeline_never_calls_assign(self, monkeypatch, small_table, default_joint):
        def refuse(self, hash_values):
            raise AssertionError("CohortMap.assign called")

        monkeypatch.setattr(CohortMap, "assign", refuse)
        config = SimHashConfig()
        assert compute_weekly_cohorts(small_table, 10, config).cohort_ids.min() == 0
        seqs = build_sequences(small_table, window=2)
        assign_sequence_cohorts(seqs, 10, config)
        sweep_k(seqs, [5, 20], config)
        sweep_population(seqs, 5, [50, 100], seed=1, config=config)
        panels = stratified_panels(small_table, default_joint, 1, seed=2, bit_length=50, sim_seed=7)
        assert cluster_panel(panels[0], k=5, bit_length=50).cohort_map.num_cohorts >= 1


def _hash_sorts(argsort):
    """The mocked ``np.argsort``'s calls on hash values (``build_cohort_map``'s
    own argsort orders ``intp`` leaf starts)."""
    return [c for c in argsort.call_args_list if c.args[0].dtype in (np.uint16, np.uint64)]


class TestSortedOncePerSweep:
    """A ``SequenceSet`` keeps each position's sorted population per
    (bit_length, seed); every k of a sweep clusters it again."""

    @pytest.mark.parametrize(
        "deep, window, grid",
        [(False, 4, [1, 5, 20, 40, 5]), (True, 1, [1, 5, 1])],
        ids=["small-4-week-windows", "deep-1-week-pool"],
    )
    def test_sweep_k_equals_fresh_sets_at_every_k(self, small_table, deep, window, grid):
        table = _deep_table() if deep else small_table
        config = SimHashConfig()
        seqs = build_sequences(table, window=window)
        sweep = sweep_k(seqs, grid, config)
        for k, point in zip(grid, sweep.points):
            fresh = build_sequences(table, window=window)
            cohorts = assign_sequence_cohorts(fresh, k, config)
            last = unicity_fractions(fresh, cohorts).rows[-1]
            assert (point.param, point.n_samples) == (k, fresh.n_samples)
            assert (point.frac_sequence, point.frac_fingerprint) == (
                last.frac_sequence,
                last.frac_fingerprint,
            )
            kept = assign_sequence_cohorts(seqs, k, config)
            assert kept.maps == cohorts.maps
            assert np.array_equal(kept.cohort_ids, cohorts.cohort_ids)
            if deep and k == 1:  # deep leaves, refined at each k = 1
                assert cohorts.maps[0].lengths.max() > FIRST_PASS_BITS

    def test_each_position_is_sorted_once_across_the_grid(self, monkeypatch):
        table = _deep_table()
        config = SimHashConfig()
        seqs = build_sequences(table, window=2)
        argsort = mock.Mock(wraps=np.argsort)
        monkeypatch.setattr(np, "argsort", argsort)
        sweep_k(seqs, [10, 5, 1, 20, 1], config)
        sorts = _hash_sorts(argsort)
        # A 16-bit pass per position, made for the grid's smallest k before
        # the first point, and from the first k = 1 on a full-width sort of
        # each position's deep-leaf rows, kept for the second k = 1.
        assert [c.args[0].dtype for c in sorts] == [np.uint16, np.uint16, np.uint64, np.uint64]
        assert [len(c.args[0]) == seqs.n_samples for c in sorts] == [True, True, False, False]
        argsort.reset_mock()
        sweep_k(seqs, [1, 3], config)
        assert _hash_sorts(argsort) == []

    def test_a_pooled_position_sizes_its_pass_by_its_own_rows(self, calls):
        table = generate_population(SynthConfig(n_machines=200, n_weeks=4, seed=3)).table
        seqs = build_sequences(table, window=1)
        sweep_k(seqs, [30, 10], SimHashConfig())
        width = _first_pass_width(seqs.n_samples, 10, 50)
        assert width > _first_pass_width(200, 10, 50)  # 800 rows, 4 weeks of 200
        assert calls[0] == (width, len(table))

    def test_sweep_k_checks_every_k_before_hashing(self, calls, small_table):
        seqs = build_sequences(_one_week(small_table), window=1)
        with pytest.raises(CohortError, match="got 0"):
            sweep_k(seqs, [5, 0], SimHashConfig())
        assert calls == [] and seqs._populations == {}

    def test_select_starts_with_no_populations(self, small_table):
        config = SimHashConfig()
        seqs = build_sequences(small_table, window=2)
        assign_sequence_cohorts(seqs, 5, config)
        sub = seqs.select(seqs.machine_ids % 3 == 0)
        assert sub._populations == {}
        got = assign_sequence_cohorts(sub, 5, config)
        for p in range(2):
            cmap, ids = SortedPopulation(small_table, sub.row_matrix[:, p], config).cluster(5)
            assert got.maps[p] == cmap
            assert np.array_equal(got.cohort_ids[:, p], ids)

    def test_each_width_and_seed_gets_populations_of_its_own(self, small_table):
        seqs = build_sequences(small_table, window=2)
        configs = [SimHashConfig(50, 7), SimHashConfig(50, 8), SimHashConfig(30, 7)]
        for config in configs * 2:
            got = assign_sequence_cohorts(seqs, 5, config)
            for p in range(2):
                cmap, ids = SortedPopulation(small_table, seqs.row_matrix[:, p], config).cluster(5)
                assert got.maps[p] == cmap
                assert np.array_equal(got.cohort_ids[:, p], ids)
        assert sorted(seqs._populations) == sorted(
            (c.bit_length, c.seed, p) for c in configs for p in range(2)
        )
