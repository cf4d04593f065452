"""Cohort-sequence unicity: windowing, pooled clustering, fractions, sweeps."""

import io
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flocpriv import unicity
from flocpriv.cohorts import compute_weekly_cohorts
from flocpriv.fixtures import (
    EXPECTED_FINGERPRINT_FRACTIONS,
    EXPECTED_SEQUENCE_FRACTIONS,
    bundled_table1_sessions,
)
from flocpriv.ingest import FormatConfig, WeekConfig, build_machine_weeks, parse_sessions
from flocpriv.manifest import csv_text
from flocpriv.prefixlsh import CohortError
from flocpriv.simhash import SimHashConfig
from flocpriv.unicity import (
    SequenceCohorts,
    SequenceSet,
    assign_sequence_cohorts,
    build_sequences,
    sweep_k,
    sweep_population,
    unicity_fractions,
)
from table1_oracle import TARGET_SIDES, make_table1_sessions

HEADER = "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"
_EPOCH_DATES = {w: f"2017{1 + (w * 7 + 1) // 32:02d}{(w * 7 + 1) % 31 or 31:02d}" for w in range(5)}


def _week_date(week):
    """YYYYMMDD landing inside week `week` for a 2017-01-01 epoch."""
    import datetime as dt

    return (dt.date(2017, 1, 1) + dt.timedelta(days=7 * week)).strftime("%Y%m%d")


def _table(weeks_by_machine, zips=None, min_domains=7):
    """Build a table with 7 domains unique to each (machine, week)."""
    lines = [HEADER]
    session = 0
    for machine, weeks in weeks_by_machine.items():
        zip_code = (zips or {}).get(machine, "36832")
        for week in weeks:
            for i in range(7):
                session += 1
                lines.append(
                    f"{machine}\t{session}\tm{machine}w{week}i{i}.com\t"
                    f"{_week_date(week)}\t09:00:00\t1\t30\t14\t1\t{zip_code}"
                )
    parsed = parse_sessions(io.StringIO("\n".join(lines) + "\n"), FormatConfig())
    assert parsed.rejects.total == 0
    cfg = WeekConfig(min_domains=min_domains)
    return build_machine_weeks(parsed.records, cfg).table


class TestBuildSequences:
    def test_full_span_splits_into_aligned_windows(self):
        seqs = build_sequences(_table({1: range(8)}), window=4)
        assert seqs.n_samples == 2
        assert sorted(seqs.window_index.tolist()) == [0, 1]
        # each sample covers its window's weeks in ascending order
        weeks = seqs.table.week_indices[seqs.row_matrix]
        assert weeks.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_missing_week_breaks_both_windows(self):
        seqs = build_sequences(_table({1: [0, 1, 2, 4]}), window=4)
        assert seqs.n_samples == 0

    def test_windows_are_epoch_aligned_not_sliding(self):
        # weeks 2..9 only complete the second aligned window (weeks 4-7)
        seqs = build_sequences(_table({1: range(2, 10)}), window=4)
        assert seqs.n_samples == 1
        assert seqs.window_index.tolist() == [1]
        assert seqs.table.week_indices[seqs.row_matrix].tolist() == [[4, 5, 6, 7]]

    def test_year_of_weeks_yields_thirteen_samples(self):
        seqs = build_sequences(_table({1: range(52)}), window=4)
        assert seqs.n_samples == 13

    def test_window_one_keeps_every_machine_week(self):
        table = _table({1: [0, 2], 2: [1]})
        seqs = build_sequences(table, window=1)
        assert seqs.n_samples == len(table) == 3

    def test_multiple_machines_pool_together(self):
        seqs = build_sequences(_table({1: range(4), 2: range(4), 3: range(2)}), window=4)
        assert seqs.n_samples == 2
        assert sorted(seqs.machine_ids.tolist()) == [1, 2]

    def test_huge_machine_ids_do_not_merge_windows(self):
        # 2**62 + 1 times a small window count wraps onto 1's range in int64.
        table = _table({1: range(12), 2: range(12), 2**62 + 1: range(12)})
        seqs = build_sequences(table, window=4)
        assert seqs.n_samples == 9
        assert seqs.machine_ids.tolist() == [1] * 3 + [2] * 3 + [2**62 + 1] * 3
        assert seqs.window_index.tolist() == [0, 1, 2] * 3

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            build_sequences(_table({1: range(4)}), window=0)

    @pytest.mark.parametrize("window", [2.5, True], ids=["float", "bool"])
    def test_window_must_be_an_integer(self, window):
        # 2.5 would find no complete window and True would act as 1.
        with pytest.raises(ValueError, match=f"^window must be an integer, got {window!r}$"):
            build_sequences(_table({1: range(4)}), window=window)

    def test_unknown_state_flagged(self):
        table = _table({1: range(2), 2: range(2)}, zips={2: "00000"}, min_domains=1)
        seqs = build_sequences(table, window=2)
        by_machine = dict(zip(seqs.machine_ids.tolist(), seqs.known_state.tolist()))
        assert by_machine == {1: True, 2: False}

    def test_select_subsets_every_field(self):
        seqs = build_sequences(_table({1: range(4), 2: range(4)}), window=2)
        mask = seqs.machine_ids == 2
        sub = seqs.select(mask)
        assert sub.n_samples == int(mask.sum())
        assert set(sub.machine_ids.tolist()) == {2}
        assert sub.row_matrix.shape == (sub.n_samples, 2)


@pytest.fixture(scope="module")
def table(request):
    parsed = parse_sessions(io.StringIO(bundled_table1_sessions()), FormatConfig())
    assert parsed.rejects.total == 0
    return build_machine_weeks(parsed.records, WeekConfig()).table


@pytest.fixture(scope="module")
def pool(small_table, sim_config):
    seqs = build_sequences(small_table, window=4)
    cohorts = assign_sequence_cohorts(seqs, k=20, config=sim_config)
    return seqs, cohorts, unicity_fractions(seqs, cohorts)


class TestWorkedExample:
    """Six devices, three weeks, engineered 3+3 cohort splits at k=3."""

    def test_bundled_fixture_matches_generator(self):
        assert make_table1_sessions() == bundled_table1_sessions()

    def test_eighteen_machine_weeks(self, table):
        assert len(table) == 18
        assert sorted(set(table.machine_ids.tolist())) == list(range(101, 107))

    def test_two_cohorts_of_three_per_week(self, table, sim_config):
        seqs = build_sequences(table, window=3)
        cohorts = assign_sequence_cohorts(seqs, k=3, config=sim_config)
        assert cohorts.cohorts_per_position() == [2, 2, 2]
        for cmap in cohorts.maps:
            assert sorted(cmap.counts.tolist()) == [3, 3]

    def test_membership_pattern_is_engineered_one(self, table, sim_config):
        seqs = build_sequences(table, window=3)
        cohorts = assign_sequence_cohorts(seqs, k=3, config=sim_config)
        # a 6-hash population at k=3 splits once at the root, so the cohort
        # id equals the hash MSB the fixture search targeted
        observed = {
            int(m) - 100: tuple(row)
            for m, row in zip(seqs.machine_ids, cohorts.cohort_ids.tolist())
        }
        assert observed == TARGET_SIDES

    def test_unicity_fractions_match_worked_values(self, table, sim_config):
        seqs = build_sequences(table, window=3)
        report = unicity_fractions(seqs, assign_sequence_cohorts(seqs, 3, sim_config))
        assert report.n_samples == 6
        assert report.n_known_state == 6
        got_seq = tuple(r.frac_sequence for r in report.rows)
        got_fp = tuple(r.frac_fingerprint for r in report.rows)
        assert got_seq == EXPECTED_SEQUENCE_FRACTIONS
        assert got_fp == EXPECTED_FINGERPRINT_FRACTIONS

    def test_weekly_cohorts_agree_with_sequence_positions(self, table, sim_config):
        """Window == full span makes per-position and per-week clustering coincide."""
        seqs = build_sequences(table, window=3)
        seq_cohorts = assign_sequence_cohorts(seqs, 3, sim_config)
        weekly = compute_weekly_cohorts(table, 3, sim_config)
        for i in range(seqs.n_samples):
            for p in range(3):
                row = seqs.row_matrix[i, p]
                assert weekly.cohort_ids[row] == seq_cohorts.cohort_ids[i, p]


class TestUnicityFractions:

    def test_fractions_monotone_in_horizon(self, pool):
        _, _, report = pool
        seq = [r.frac_sequence for r in report.rows]
        fp = [r.frac_fingerprint for r in report.rows]
        assert seq == sorted(seq)
        assert fp == sorted(fp)

    def test_fingerprint_dominates_sequence(self, pool):
        seqs, _, report = pool
        assert bool(seqs.known_state.all())  # synthetic machines all have states
        for row in report.rows:
            assert row.frac_fingerprint >= row.frac_sequence_known
            assert row.frac_fingerprint >= row.frac_sequence

    def test_sample_order_does_not_matter(self, pool, sim_config):
        seqs, _, report = pool
        perm = np.random.default_rng(99).permutation(seqs.n_samples)
        shuffled = SequenceSet(
            table=seqs.table,
            window=seqs.window,
            row_matrix=seqs.row_matrix[perm],
            machine_ids=seqs.machine_ids[perm],
            window_index=seqs.window_index[perm],
            state_idx=seqs.state_idx[perm],
            known_state=seqs.known_state[perm],
        )
        other = unicity_fractions(shuffled, assign_sequence_cohorts(shuffled, 20, sim_config))
        assert [vars(r) for r in other.rows] == [vars(r) for r in report.rows]

    def test_cohort_counts_conserve_samples(self, pool):
        seqs, cohorts, _ = pool
        for p, cmap in enumerate(cohorts.maps):
            assert int(cmap.counts.sum()) == seqs.n_samples
            observed = np.bincount(cohorts.cohort_ids[:, p], minlength=cmap.num_cohorts)
            assert observed.tolist() == cmap.counts.tolist()

    def test_k_equal_to_pool_size_kills_unicity(self, sim_config):
        seqs = build_sequences(_table({m: range(2) for m in range(1, 7)}), window=2)
        report = unicity_fractions(seqs, assign_sequence_cohorts(seqs, 6, sim_config))
        assert all(r.frac_sequence == 0.0 for r in report.rows)
        assert report.cohorts_per_position == [1, 1]

    def test_horizon_one_equals_singleton_bucket_mass(self, sim_config):
        seqs = build_sequences(_table({m: range(2) for m in range(1, 9)}), window=2)
        cohorts = assign_sequence_cohorts(seqs, 1, sim_config)
        counts = cohorts.maps[0].counts
        expected = counts[counts == 1].sum() / seqs.n_samples
        report = unicity_fractions(seqs, cohorts)
        assert report.rows[0].frac_sequence == expected

    def test_empty_pool_is_loud_error(self, sim_config):
        seqs = build_sequences(_table({1: [0, 1]}), window=4)
        with pytest.raises(CohortError, match="no complete 4-week windows"):
            assign_sequence_cohorts(seqs, 1, sim_config)

    def test_fraction_accessor_and_serialization(self, pool):
        _, _, report = pool
        assert report.fraction(1) == report.rows[0].frac_sequence
        assert report.fraction(4, fingerprint=True) == report.rows[3].frac_fingerprint
        blob = report.to_json_dict()
        assert len(blob["horizons"]) == 4
        assert blob["n_samples"] == report.n_samples
        lines = csv_text(blob["horizons"]).splitlines()
        assert lines[0] == "horizon,frac_sequence,frac_fingerprint,frac_sequence_known"
        assert len(lines) == 5


def _direct_pool(ids, state_idx, known):
    """A SequenceSet/SequenceCohorts pair carrying only what the fractions read."""
    n, window = ids.shape
    zeros = np.zeros(n, dtype=np.int64)
    seqs = SequenceSet(
        table=None,
        window=window,
        row_matrix=np.zeros((n, window), dtype=np.int64),
        machine_ids=zeros,
        window_index=zeros,
        state_idx=np.asarray(state_idx, dtype=np.int64),
        known_state=np.asarray(known, dtype=bool),
    )
    return seqs, SequenceCohorts(k=1, window=window, maps=[], cohort_ids=ids)


def _brute_unique_share(keys):
    counts = Counter(keys)
    return sum(counts[key] == 1 for key in keys) / len(keys) if keys else 0.0


@st.composite
def _id_matrices(draw):
    """Cohort IDs from a small palette (so signatures collide) that may hold
    values up to 2**31 - 1, with states and a known-state mask."""
    window = draw(st.integers(1, 5))
    n = draw(st.integers(0, 200))
    palette = draw(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=5, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = rng.choice(np.array(palette, dtype=np.int32), size=(n, window))
    state_idx = rng.integers(0, draw(st.integers(1, 4)), size=n)
    known = draw(st.sampled_from(["all", "none", "mixed"]))
    mask = {"all": np.ones(n, bool), "none": np.zeros(n, bool), "mixed": rng.random(n) < 0.5}
    return ids, state_idx, mask[known]


class TestUnicityMatchesBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(_id_matrices())
    @example((np.zeros((0, 3), np.int32), np.zeros(0, np.int64), np.zeros(0, bool)))
    # The second column spans 2**31 values, so the horizon-2 keys are
    # gid * 2**31 + c; in int32 the key of (2, 0) would wrap onto (0, 0).
    @example((np.array([[0, 0], [1, 0], [2, 0], [0, 2**31 - 1]], np.int32),
              np.zeros(4, np.int64), np.ones(4, bool)))
    def test_every_column_matches_row_tuple_counts(self, pool):
        ids, state_idx, known = pool
        report = unicity_fractions(*_direct_pool(ids, state_idx, known))
        assert report.n_known_state == int(known.sum())
        assert [r.horizon for r in report.rows] == list(range(1, ids.shape[1] + 1))
        for row in report.rows:
            rows = [tuple(r) for r in ids[:, : row.horizon].tolist()]
            known_rows = [r for r, k in zip(rows, known) if k]
            fingerprints = [(s, *r) for r, s, k in zip(rows, state_idx.tolist(), known) if k]
            assert row.frac_sequence == _brute_unique_share(rows)
            assert row.frac_sequence_known == _brute_unique_share(known_rows)
            assert row.frac_fingerprint == _brute_unique_share(fingerprints)


def _brute_shares(matrix, states):
    """The unique shares of the row tuples and of the (state, row) tuples."""
    rows = [tuple(row) for row in matrix.tolist()]
    fingerprints = [(s, *row) for row, s in zip(rows, states.tolist())]
    return _brute_unique_share(rows), _brute_unique_share(fingerprints)


class TestSignatureKeys:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 60),
        st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True),
        st.integers(1, 6),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @example(3, [0], 1, 1, 0)  # one column of zeros: one group
    @example(0, [5], 3, 2, 0)  # no samples
    # Two columns of values up to 2**40: the window's product passes 2**63.
    @example(40, [0, 2**40], 2, 3, 1)
    # Two columns of values up to 2**31 - 1 multiply to under 2**63, but
    # times three states the fingerprint's product passes it.
    @example(40, [0, 2**31 - 1], 2, 3, 2)
    def test_shares_match_a_tuple_count(self, n, palette, width, n_states, seed):
        """Values up to 2**40 over up to six columns pass int64 and re-rank."""
        rng = np.random.default_rng(seed)
        matrix = rng.choice(np.array(palette, dtype=np.int64), size=(n, width))
        states = rng.integers(0, n_states, size=n)
        key = unicity._signature_key(matrix.T)
        fingerprint = unicity._signature_key((key, states))
        got = unicity._unique_share(key), unicity._unique_share(fingerprint)
        assert got == _brute_shares(matrix, states)


def _unique_calls(unique):
    """The mocked ``np.unique``'s calls, split into those that pass
    ``return_inverse`` and those that do not."""
    inverse = [c for c in unique.call_args_list if c.kwargs.get("return_inverse")]
    return len(inverse), unique.call_count - len(inverse)


class TestSweepPoint:
    @settings(max_examples=200, deadline=None)
    @given(_id_matrices())
    @example((np.array([[0, 1], [0, 1], [1, 1]], np.int32), np.zeros(3, np.int64), np.zeros(3, bool)))
    # Five columns of IDs up to 2**31 - 1: the window's key passes int64.
    @example((np.array([[2**31 - 1, 0, 7, 2**31 - 1, 1],
                        [2**31 - 1, 0, 7, 2**31 - 1, 1],
                        [0, 2**31 - 1, 7, 0, 2**31 - 1],
                        [2**31 - 1, 0, 7, 2**31 - 1, 0]], np.int32),
              np.array([0, 0, 1, 0]), np.ones(4, bool)))
    def test_point_fractions_are_the_last_horizon(self, pool):
        """A sweep point computes only the full-window horizon's fractions,
        and they equal the full report's last row. It sorts the window's
        key and the fingerprint's once each, counting groups only; a call
        that ranks (passes ``return_inverse``) is made only where a key's
        product of column ranges passes 2**63, and is made there."""
        seqs, cohorts = _direct_pool(*pool)
        ids, states = pool[0], pool[1]
        window = math.prod(int(c.max(initial=0)) + 1 for c in ids.T)
        with_states = window * (int(states.max(initial=0)) + 1)
        with mock.patch.object(unicity, "assign_sequence_cohorts", return_value=cohorts), \
                mock.patch.object(np, "unique", wraps=np.unique) as unique:
            point = unicity._point(seqs, 1, SimHashConfig(), 7)
        ranks, counts = _unique_calls(unique)
        assert counts == 2
        if window > 2**63:
            assert ranks >= 1
        if with_states <= 2**63:
            assert ranks == 0
        last = unicity_fractions(seqs, cohorts).rows[-1]
        assert (point.param, point.n_samples) == (7, seqs.n_samples)
        assert point.frac_sequence == last.frac_sequence
        assert point.frac_fingerprint == last.frac_fingerprint

    def test_only_the_fingerprint_key_is_ranked(self):
        """Two columns of IDs up to 2**31 - 1 fit int64 unranked (below
        2**62); times three states the fingerprint's key does not, and is
        ranked once."""
        ids = np.array([[2**31 - 1, 2**31 - 1], [0, 1], [2**31 - 1, 2**31 - 1]], np.int32)
        seqs, cohorts = _direct_pool(ids, np.array([0, 2, 1]), np.ones(3, bool))
        with mock.patch.object(unicity, "assign_sequence_cohorts", return_value=cohorts), \
                mock.patch.object(np, "unique", wraps=np.unique) as unique:
            point = unicity._point(seqs, 1, SimHashConfig(), 1)
        assert _unique_calls(unique) == (1, 2)
        assert (point.frac_sequence, point.frac_fingerprint) == (1 / 3, 1.0)


class TestSweeps:
    def test_full_population_point_matches_unswept(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        n_machines = len(np.unique(seqs.machine_ids))
        sweep = sweep_population(seqs, k=20, n_grid=[n_machines], seed=3, config=sim_config)
        report = unicity_fractions(seqs, assign_sequence_cohorts(seqs, 20, sim_config))
        point = sweep.points[0]
        assert point.n_samples == seqs.n_samples
        assert point.frac_sequence == report.rows[-1].frac_sequence
        assert point.frac_fingerprint == report.rows[-1].frac_fingerprint

    def test_sweep_population_deterministic(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        a = sweep_population(seqs, 20, [100, 200], seed=11, config=sim_config)
        b = sweep_population(seqs, 20, [100, 200], seed=11, config=sim_config)
        assert a.to_json_dict() == b.to_json_dict()

    def test_sweep_population_rejects_oversized_grid(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        with pytest.raises(ValueError, match="exceeds"):
            sweep_population(seqs, 20, [10_000], seed=0, config=sim_config)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_sweep_population_rejects_grid_values_below_one(self, small_table, sim_config, bad):
        seqs = build_sequences(small_table, window=4)
        with pytest.raises(ValueError, match=f"population grid value {bad} must be >= 1"):
            sweep_population(seqs, 20, [100, bad], seed=0, config=sim_config)

    def test_sweep_population_without_a_complete_window_names_that(self, sim_config):
        seqs = build_sequences(_table({1: [0, 1]}), window=4)
        with pytest.raises(CohortError, match="^no complete 4-week windows to cluster$"):
            sweep_population(seqs, 1, [50], seed=0, config=sim_config)

    def test_sweep_k_matches_pointwise_runs(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        sweep = sweep_k(seqs, [5, 40], config=sim_config)
        for point, k in zip(sweep.points, [5, 40]):
            direct = unicity_fractions(seqs, assign_sequence_cohorts(seqs, k, sim_config))
            assert point.frac_sequence == direct.rows[-1].frac_sequence
        # larger k can only coarsen cohorts
        assert sweep.points[1].frac_sequence <= sweep.points[0].frac_sequence

    def test_sweep_serialization(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        sweep = sweep_k(seqs, [5, 40], config=sim_config)
        blob = sweep.to_json_dict()
        assert blob["param"] == "k"
        assert [p["k"] for p in blob["points"]] == [5, 40]
        assert blob["horizon"] == blob["window"] == 4
        header = csv_text(blob["points"]).splitlines()[0]
        assert header == "k,n_samples,frac_sequence,frac_fingerprint"

    def test_sweep_k_refuses_a_k_that_is_not_an_integer(self, small_table, sim_config):
        seqs = build_sequences(small_table, window=4)
        with pytest.raises(CohortError, match="k must be an integer, got 5.5"):
            sweep_k(seqs, [5.5], config=sim_config)
        point = sweep_k(seqs, [np.int64(5)], config=sim_config).points[0]
        assert point == sweep_k(seqs, [5], config=sim_config).points[0]
        assert type(point.param) is int
