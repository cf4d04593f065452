"""Demographic leakage analyses: t-closeness, baselines, chi-square, controls."""

import contextlib
import hashlib
import json
import math
import mmap
import os
import re
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocpriv import cli, sensitivity, special
from flocpriv.geo import UNKNOWN_STATE
from flocpriv.hashing import derive_seed
from flocpriv.ingest import MachineWeekTable
from flocpriv.manifest import csv_text
from flocpriv.panels import JointDistribution, Panel, cluster_panel, stratified_panels
from flocpriv.sensitivity import (
    DEFAULT_T_GRID,
    ChiSquareRow,
    anomalous_category,
    attribute_groups,
    binomial_baseline,
    chi_square_by_group,
    chi_square_test,
    cohort_violation_probabilities,
    ot_scale_control,
    population_freqs,
    random_subsample_pvalue,
    shuffle_baseline,
    t_closeness_curve,
    violation_curves,
)
from sensitivity_reference import t_violations, top_domains

# frozen tail/percentile oracles (rational summation + mpmath, recorded
# before these tests were written)
BINOM_5_10_HALF = 193 / 512  # 1 - F(5; 10, 0.5)
BINOM_690_3000_013 = 5.75911393771248113108159356e-51  # 1 - F(690; 3000, 0.13)
CHISQ_P_10_3 = 0.067889154861829023645  # Q(1/2, (10/3)/2)


@pytest.fixture(scope="module")
def clustered_panels(small_table, default_joint):
    """Six panels of 26 members (weeks 0 and 1) at k = 5, each split into
    several cohorts, so their curves take values between 0 and 1."""
    panels = stratified_panels(small_table, default_joint, 3, seed=2, bit_length=50, sim_seed=7)
    clustered = [cluster_panel(p, k=5, bit_length=50) for p in panels[:6]]
    assert min(p.cohort_map.num_cohorts for p in clustered) >= 2
    return clustered


@pytest.fixture(scope="module")
def fine_panels(small_table, default_joint):
    """Panels of several cohorts each (k = 2), so their curves take many values."""
    panels = stratified_panels(small_table, default_joint, 3, seed=2, bit_length=50, sim_seed=7)
    return [cluster_panel(p, k=2, bit_length=50) for p in panels]


def _balanced_panel():
    """16 cohorts of 4 members with every group at exactly 1/4 of the panel,
    so every excess is exactly 0, 0.25, 0.5 or 0.75 (points of the default
    grid)."""
    patterns = [(0, 0, 0, 0), (0, 0, 1, 2), (0, 0, 0, 1), (0, 1, 2, 3)]
    labels = np.array([(g + r) % 4 for p in patterns for r in range(4) for g in p], np.int8)
    n = len(labels)
    return Panel(
        panel_id=0,
        week_index=0,
        rows=np.arange(n),
        race_idx=labels,
        income_idx=labels[::-1].copy(),
        cohort_map=SimpleNamespace(num_cohorts=n // 4),
        cohort_ids=np.repeat(np.arange(n // 4), 4),
    )


@st.composite
def _panels_and_grid(draw):
    """1-4 clustered panels of mixed sizes, each of 1-6 cohorts of 1-7
    members with drawn labels and its members in shuffled order, and an
    unsorted t grid with repeats that holds at least one cohort excess."""
    panels = []
    for panel_id in range(draw(st.integers(1, 4))):
        sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
        n = sum(sizes)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        labels = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        panels.append(
            Panel(
                panel_id=panel_id,
                week_index=0,
                rows=np.arange(n),
                race_idx=np.array(draw(labels), np.int8),
                income_idx=np.array(draw(labels), np.int8),
                cohort_map=SimpleNamespace(num_cohorts=len(sizes)),
                cohort_ids=rng.permutation(np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)),
            )
        )
    excesses = sorted(
        {
            float(e)
            for panel in panels
            for attribute in sensitivity.ATTRIBUTES
            for e in t_violations(panel, 0.0, attribute).excesses
        }
    )
    values = st.one_of(st.sampled_from(excesses), st.floats(-1.5, 1.5))
    grid = [draw(st.sampled_from(excesses)), *draw(st.lists(values, max_size=10))]
    grid += draw(st.lists(st.sampled_from(grid), max_size=4))
    return panels, draw(st.permutations(grid))


@st.composite
def _tables(draw):
    """A small table over short names, so visit counts tie often and some
    names given are never visited (the table drops them); returns it with
    its rows as name lists."""
    names = draw(
        st.lists(st.text("ab.", min_size=1, max_size=3), min_size=1, max_size=10, unique=True)
    )
    rows = draw(st.lists(st.frozensets(st.integers(0, len(names) - 1)), max_size=12))
    n = len(rows)
    labels = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    table = MachineWeekTable(
        np.arange(n),
        np.zeros(n),
        [UNKNOWN_STATE],
        draw(labels),
        draw(labels),
        np.zeros(n),
        [v for row in rows for v in sorted(row)],
        np.cumsum([0] + [len(row) for row in rows]),
        names,
    )
    return table, [[names[v] for v in row] for row in rows]


def _visits(rows, keep=None):
    """Per-name visit counts over the rows whose ``keep`` entry is true."""
    return Counter(
        name for i, row in enumerate(rows) if keep is None or keep[i] for name in row
    )


def _ranked(rows):
    """(name, visits) by descending visits, ties by name: the top-D oracle."""
    return sorted(_visits(rows).items(), key=lambda nc: (-nc[1], nc[0]))


class TestAnomalousCategory:
    def test_uniform_cohort_has_zero_excess(self):
        idx, excess = anomalous_category([5, 5, 5, 5], [0.25, 0.25, 0.25, 0.25])
        assert idx == 0  # exact tie breaks to the first group
        assert excess == 0.0

    def test_overrepresented_group_wins(self):
        idx, excess = anomalous_category([8, 1, 1, 0], [0.25, 0.25, 0.25, 0.25])
        assert idx == 0
        assert excess == pytest.approx(0.8 - 0.25)

    def test_matches_brute_force_scan(self, rng):
        freqs = rng.dirichlet(np.ones(4), size=50)
        stack = rng.integers(0, 30, size=(50, 4))
        stack[stack.sum(axis=1) == 0, 0] = 1
        stack_idx, stack_excess = anomalous_category(stack, freqs)
        assert stack_idx.shape == stack_excess.shape == (50,)
        for i, counts in enumerate(stack):
            idx, excess = anomalous_category(counts, freqs[i])
            shares = counts / counts.sum()
            best, best_val = 0, shares[0] - freqs[i, 0]
            for j in range(1, 4):
                if shares[j] - freqs[i, j] > best_val:
                    best, best_val = j, shares[j] - freqs[i, j]
            assert idx == best == stack_idx[i]
            assert excess == pytest.approx(best_val)
            assert excess == stack_excess[i]

    def test_empty_cohort_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            anomalous_category([0, 0, 0, 0], [0.25] * 4)
        with pytest.raises(ValueError, match="empty"):
            anomalous_category([[1, 0, 0, 0], [0, 0, 0, 0]], [0.25] * 4)


class TestTViolations:
    def test_threshold_one_is_never_violated(self, clustered_panels):
        for attribute in ("race", "income"):
            assert t_violations(clustered_panels[0], 1.0, attribute).fraction == 0.0

    def test_threshold_minus_one_is_always_violated(self, clustered_panels):
        # the anomalous excess is >= 0 by construction, hence > -1
        assert t_violations(clustered_panels[0], -1.0, "race").fraction == 1.0

    def test_flags_match_excesses(self, clustered_panels):
        v = t_violations(clustered_panels[0], 0.1, "race")
        assert np.array_equal(v.flags, v.excesses > 0.1)
        assert v.fraction == v.flags.mean()

    def test_excesses_match_per_cohort_recount(self, clustered_panels):
        panel = clustered_panels[0]
        v = t_violations(panel, 0.05, "income")
        members = Counter(zip(panel.cohort_ids.tolist(), panel.income_idx.tolist()))
        freqs = population_freqs(panel, "income")
        for c in range(panel.cohort_map.num_cohorts):
            idx, excess = anomalous_category([members[c, g] for g in range(4)], freqs)
            assert v.categories[c] == idx
            assert v.excesses[c] == pytest.approx(excess)

    def test_curve_is_nonincreasing_and_bounded(self, clustered_panels):
        grid = [0.0, 0.05, 0.1, 0.2, 0.4, 1.0]
        curve = violation_curves(clustered_panels[:1], grid, "race")[0]
        assert np.all(curve >= 0.0) and np.all(curve <= 1.0)
        assert np.all(np.diff(curve) <= 0.0)
        for t, frac in zip(grid, curve):
            assert frac == t_violations(clustered_panels[0], t, "race").fraction

    def test_curve_matches_per_t_comparison(self, clustered_panels):
        """The sorted-excess lookup equals counting ``excess > t`` for every
        t, also where excesses sit exactly on grid points and for grids
        that are not sorted."""
        panels = [*clustered_panels, shuffle_baseline(clustered_panels[0], seed=3), _balanced_panel()]
        for panel in panels:
            for attribute in ("race", "income"):
                excesses = t_violations(panel, 0.0, attribute).excesses
                grids = [
                    DEFAULT_T_GRID,
                    [0.3, 0.1, 0.2, 0.5, -1.0, 0.25, 2.0, 0.0, 0.75],
                    sorted(set(excesses.tolist()), reverse=True),
                ]
                for grid in grids:
                    expected = [(excesses > t).mean() for t in grid]
                    got = violation_curves([panel], grid, attribute)[0]
                    assert np.array_equal(got, expected)
        balanced = t_violations(_balanced_panel(), 0.0, "race").excesses
        assert set(balanced.tolist()) == {0.0, 0.25, 0.5, 0.75}

    @settings(max_examples=200, deadline=None)
    @given(_panels_and_grid())
    def test_batched_curves_match_the_per_cohort_reference(self, drawn):
        panels, grid = drawn
        for attribute in sensitivity.ATTRIBUTES:
            curves = violation_curves(panels, grid, attribute)
            assert curves.shape == (len(panels), len(grid))
            for panel, row in zip(panels, curves):
                assert row.tolist() == [t_violations(panel, t, attribute).fraction for t in grid]

    def test_no_panels_give_no_rows(self):
        assert violation_curves([], [0.1, 0.2], "race").shape == (0, 2)

    def test_peak_memory_is_a_small_multiple_of_the_output(self, fine_panels):
        """The grid-sized work is O(panels x grid), never cohorts x grid:
        every panel has several cohorts per output row."""
        assert min(p.cohort_map.num_cohorts for p in fine_panels) >= 5
        grid = np.linspace(-1.0, 1.0, 20_001)
        for panels in (fine_panels[:1], fine_panels):
            tracemalloc.start()
            try:
                curves = violation_curves(panels, grid, "race")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * curves.nbytes

    def test_unclustered_panel_rejected(self, small_table, default_joint):
        panel = stratified_panels(
            small_table, default_joint, 1, seed=0, bit_length=50, sim_seed=7
        )[0]
        with pytest.raises(ValueError, match="cluster"):
            violation_curves([panel], [0.1], "race")


class TestShuffleBaseline:
    def test_marginals_survive_the_shuffle(self, clustered_panels):
        panel = clustered_panels[0]
        shuffled = shuffle_baseline(panel, seed=11)
        assert np.array_equal(np.sort(shuffled.race_idx), np.sort(panel.race_idx))
        assert np.array_equal(np.sort(shuffled.income_idx), np.sort(panel.income_idx))
        assert np.array_equal(shuffled.rows, panel.rows)

    def test_cohort_structure_is_untouched(self, clustered_panels):
        panel = clustered_panels[0]
        shuffled = shuffle_baseline(panel, seed=11)
        assert shuffled.cohort_map is panel.cohort_map
        assert np.array_equal(shuffled.cohort_ids, panel.cohort_ids)

    def test_deterministic_in_seed(self, clustered_panels):
        panel = clustered_panels[0]
        a = shuffle_baseline(panel, seed=11)
        b = shuffle_baseline(panel, seed=11)
        c = shuffle_baseline(panel, seed=12)
        assert np.array_equal(a.race_idx, b.race_idx)
        assert not np.array_equal(a.race_idx, c.race_idx)

    def test_member_order_within_cohorts_is_irrelevant(self, clustered_panels):
        """Re-sorting members inside each cohort leaves every count, and so
        every excess and curve, alone."""
        panel = clustered_panels[0]
        order = np.lexsort((panel.race_idx, panel.cohort_ids))
        reordered = Panel(
            panel_id=panel.panel_id,
            week_index=panel.week_index,
            rows=panel.rows[order],
            race_idx=panel.race_idx[order],
            income_idx=panel.income_idx[order],
            cohort_map=panel.cohort_map,
            cohort_ids=panel.cohort_ids[order],
        )
        for attribute in ("race", "income"):
            grid = [*t_violations(panel, 0.0, attribute).excesses.tolist(), *DEFAULT_T_GRID]
            curves = violation_curves([reordered, panel], grid, attribute)
            assert np.array_equal(curves[0], curves[1])


class TestBinomialBaseline:
    def test_frozen_values(self):
        assert binomial_baseline(10, 0.5, 0.0) == pytest.approx(BINOM_5_10_HALF, rel=1e-12)
        assert binomial_baseline(3000, 0.13, 0.1) == pytest.approx(
            BINOM_690_3000_013, rel=1e-10
        )

    def test_boundary_conventions(self):
        assert binomial_baseline(100, 0.9, 0.1) == 0.0  # threshold at n
        assert binomial_baseline(100, 0.9, 0.2) == 0.0  # beyond n
        assert binomial_baseline(100, 0.1, -0.2) == 1.0  # negative threshold
        with pytest.raises(ValueError, match=">= 1"):
            binomial_baseline(0, 0.5, 0.1)

    def test_monotone_nonincreasing_in_t(self):
        grid = np.linspace(-0.1, 1.0, 23)
        vals = [binomial_baseline(200, 0.3, float(t)) for t in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_union_probability_composes_independent_tails(self):
        freqs = [0.1, 0.2, 0.3, 0.4]
        t = 0.05
        qs = [binomial_baseline(50, p, t) for p in freqs]
        expected = 1.0 - np.prod([1.0 - q for q in qs])
        assert cohort_violation_probabilities(50, freqs, [t])[0] == pytest.approx(expected)

    def test_union_reduces_to_single_active_category(self):
        # categories at 0 or 1 population share can never be exceeded by > t
        freqs = [0.0, 1.0, 0.0, 0.0]
        assert cohort_violation_probabilities(30, freqs, [0.1])[0] == pytest.approx(
            1.0 - (1.0 - binomial_baseline(30, 0.0, 0.1)) ** 3
        )


    @pytest.mark.parametrize("n", [1, 2, 37, 300])
    def test_a_grid_evaluates_each_distinct_tail_once(self, n):
        """The grid's column is the per-t product of ``binomial_baseline``
        tails, and ``binomial_sf`` runs once per distinct threshold inside
        [0, n) and group share."""
        freqs = [0.60, 0.13, 0.18, 0.09]
        grid = [*DEFAULT_T_GRID, 0.3, -1.0, 0.1, 2.0, 0.0, 0.25, 0.3]
        with mock.patch.object(special, "binomial_sf", wraps=special.binomial_sf) as sf:
            got = cohort_violation_probabilities(n, freqs, grid)
        want = []
        for t in grid:
            keep = 1.0
            for p in freqs:
                keep *= 1.0 - binomial_baseline(n, p, t)
            want.append(1.0 - keep)
        assert got == want
        inside = {
            (math.floor(n * (p + t)), p)
            for t in grid
            for p in freqs
            if 0 <= n * (p + t) < n
        }
        assert sf.call_count == len(inside)


class TestTClosenessCurve:
    def test_needs_two_panels(self, clustered_panels):
        with pytest.raises(ValueError, match="at least 2"):
            t_closeness_curve(clustered_panels[:1], [0.0, 0.1], "race")

    def test_report_shape_and_monotonicity(self, clustered_panels):
        grid = [0.02 * i for i in range(26)]
        report = t_closeness_curve(clustered_panels, grid, "race")
        assert report.n_panels == len(clustered_panels)
        assert report.k == 5
        assert len(report.mean) == len(grid)
        assert all(a >= b for a, b in zip(report.mean, report.mean[1:]))
        assert all(lo <= m <= hi for lo, m, hi in zip(report.ci_low, report.mean, report.ci_high))
        assert all(a >= b for a, b in zip(report.binomial, report.binomial[1:]))

    def test_identical_panels_collapse_the_interval(self, clustered_panels):
        panel = clustered_panels[0]
        report = t_closeness_curve([panel, panel, panel], [0.0, 0.1, 0.3], "income")
        assert report.ci_low == report.mean == report.ci_high

    def test_shuffled_panels_fill_the_null_column(self, clustered_panels):
        shuffled = [shuffle_baseline(p, seed=5 + i) for i, p in enumerate(clustered_panels)]
        report = t_closeness_curve(
            clustered_panels, [0.0, 0.1], "race", shuffled=shuffled
        )
        assert report.shuffle_mean is not None
        assert len(report.shuffle_mean) == 2
        assert report.shuffle_mean[0] >= report.shuffle_mean[1]

    def test_null_column_is_the_mean_of_per_panel_curves(self, fine_panels):
        """The batched curves average in the same order as stacked rows."""
        shuffled = [shuffle_baseline(p, seed=i) for i in range(4) for p in fine_panels]
        for attribute in sensitivity.ATTRIBUTES:
            report = t_closeness_curve(fine_panels, DEFAULT_T_GRID, attribute, shuffled=shuffled)
            rows = np.stack([violation_curves([p], DEFAULT_T_GRID, attribute)[0] for p in shuffled])
            assert report.shuffle_mean == rows.mean(axis=0).tolist()

    def test_csv_layout(self, clustered_panels):
        report = t_closeness_curve(clustered_panels, [0.0, 0.1], "race")
        json_points = report.to_json_dict()["points"]
        lines = csv_text(json_points).splitlines()
        assert lines[0] == "t,mean,ci_low,ci_high,shuffle_baseline,binomial_baseline"
        assert len(lines) == 3
        assert [line.split(",")[4] for line in lines[1:]] == ["", ""]
        assert json_points[0]["t"] == 0.0
        assert json_points[0]["shuffle_baseline"] is None


class TestTopDomains:
    def test_counts_and_tie_order(self, small_table):
        top = top_domains(small_table, 10)
        counts = np.bincount(small_table.dom_indices, minlength=len(small_table.vocab))
        pairs = [(int(c), d) for d, c in zip(small_table.vocab, counts) if c > 0]
        pairs.sort(key=lambda pc: (-pc[0], pc[1]))
        assert top == [(d, c) for c, d in pairs[:10]]
        assert all(a[1] >= b[1] for a, b in zip(top, top[1:]))

    def test_requesting_more_than_exists_warns(self, small_table):
        distinct = int((np.bincount(small_table.dom_indices) > 0).sum())
        with pytest.warns(UserWarning, match="truncating"):
            top = top_domains(small_table, distinct + 5)
        assert len(top) == distinct

    def test_d_must_be_positive(self, small_table):
        with pytest.raises(ValueError, match=">= 1"):
            top_domains(small_table, 0)

    @settings(max_examples=200, deadline=None)
    @given(_tables(), st.integers(1, 12))
    def test_ranking_and_counts_match_brute_force(self, drawn, d):
        table, rows = drawn
        ranked = _ranked(rows)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            top = top_domains(table, d)
        assert top == ranked[:d]
        assert [str(w.message) for w in caught] == (
            [f"requested top {d} domains but only {len(ranked)} distinct exist; truncating"]
            if d > len(ranked)
            else []
        )

    @settings(max_examples=200, deadline=None)
    @given(
        _tables(),
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_chi_square_inputs_match_brute_force(self, drawn, d_grid, seed, fraction):
        """Every (subpopulation, aggregate) pair handed to the test equals
        a per-domain recount over the top-D names."""
        table, rows = drawn
        passed = []

        def record(sub, aggregate):
            passed.append((sub.tolist(), aggregate.tolist()))
            return 0.0, 1.0

        take = int(round(len(rows) * fraction))
        with mock.patch.object(sensitivity, "chi_square_test", record), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for attribute in ("race", "income"):
                chi_square_by_group(table, attribute, d_grid)
            if take:
                random_subsample_pvalue(table, d_grid[0], fraction, seed)
            else:  # an empty control sample is an error, not a test
                with pytest.raises(ValueError, match="samples no row"):
                    random_subsample_pvalue(table, d_grid[0], fraction, seed)

        ranked = [name for name, _ in _ranked(rows)]
        total = _visits(rows)
        expected = []
        for labels in (table.race_idx, table.income_idx):
            for d in d_grid:
                top = ranked[:d]
                for group in range(4):
                    sub = _visits(rows, labels == group)
                    expected.append(([sub[n] for n in top], [total[n] for n in top]))
        if take:
            chosen = np.zeros(len(rows), dtype=bool)
            chosen[np.random.default_rng(seed).choice(len(rows), size=take, replace=False)] = True
            sub, top = _visits(rows, chosen), ranked[: d_grid[0]]
            expected.append(([sub[n] for n in top], [total[n] for n in top]))
        assert passed == expected

    def test_visit_counts_recount(self, small_table):
        top = sensitivity._top_ranked(small_table, 5)
        one_label = np.zeros(len(small_table), dtype=np.int64)
        (counts,) = sensitivity._top_visit_counts(small_table, top, one_label, 1)
        for j, v in enumerate(top.tolist()):
            assert counts[j] == int((small_table.dom_indices == v).sum())

    def test_visit_counts_respect_row_mask(self, small_table):
        top = sensitivity._top_ranked(small_table, 5)
        mask = small_table.week_indices == 0
        rest, masked = sensitivity._top_visit_counts(small_table, top, mask, 2)
        one_label = np.zeros(len(small_table), dtype=np.int64)
        (full,) = sensitivity._top_visit_counts(small_table, top, one_label, 1)
        assert np.array_equal(masked + rest, full)
        assert 0 < masked.sum() < full.sum()


class TestChiSquare:
    def test_proportional_counts_are_a_perfect_fit(self):
        stat, p = chi_square_test(np.array([10, 30, 60]), np.array([100, 300, 600]))
        assert stat == 0.0
        assert p == 1.0

    def test_frozen_two_category_case(self):
        stat, p = chi_square_test(np.array([10, 20]), np.array([15, 15]))
        assert stat == pytest.approx(10 / 3, rel=1e-15)
        assert p == pytest.approx(CHISQ_P_10_3, rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="aligned"):
            chi_square_test(np.array([1, 2]), np.array([1, 2, 3]))
        with pytest.raises(ValueError, match="2 categories"):
            chi_square_test(np.array([5]), np.array([5]))
        with pytest.raises(ValueError, match="zero expected"):
            chi_square_test(np.array([5, 5]), np.array([10, 0]))

    def test_by_group_composes_the_single_test(self, small_table):
        rows = chi_square_by_group(small_table, "race", [10, 20])
        assert [(r.attribute, r.group, r.d) for r in rows] == [
            ("race", g, d) for d in (10, 20) for g in attribute_groups("race")
        ]
        domains = [dom for dom, _ in top_domains(small_table, 10)]
        names = [small_table.domains(i) for i in range(len(small_table))]
        total, group = _visits(names), _visits(names, small_table.race_idx == 0)
        stat, p = chi_square_test(
            np.array([group[dom] for dom in domains]), np.array([total[dom] for dom in domains])
        )
        assert rows[0].statistic == pytest.approx(stat)
        assert rows[0].p_value == pytest.approx(p)

    def test_random_subsample_is_deterministic(self, small_table):
        a = random_subsample_pvalue(small_table, 20, 0.25, seed=6)
        b = random_subsample_pvalue(small_table, 20, 0.25, seed=6)
        assert a == b
        assert 0.0 <= a <= 1.0

    @pytest.mark.parametrize("fraction", [0.0, -0.25, 1.5, float("nan")])
    def test_random_subsample_rejects_fraction_outside_unit_interval(self, small_table, fraction):
        with pytest.raises(ValueError, match=r"control fraction must be in \(0, 1\]"):
            random_subsample_pvalue(small_table, 20, fraction, seed=6)

    @pytest.mark.parametrize("fraction", [True, np.True_, "0.25", 0.25j, None])
    def test_random_subsample_rejects_a_fraction_that_is_not_a_real_number(
        self, small_table, fraction
    ):
        message = f"fraction must be a real number, got {fraction!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            random_subsample_pvalue(small_table, 20, fraction, seed=6)

    def test_random_subsample_rejects_a_fraction_that_samples_no_row(self, small_table):
        assert len(small_table) == 1600
        with pytest.raises(ValueError, match=r"control fraction 0\.0003 of 1600 rows samples no row"):
            random_subsample_pvalue(small_table, 20, 0.0003, seed=6)
        assert 0.0 <= random_subsample_pvalue(small_table, 20, 0.0004, seed=6) <= 1.0

    def test_random_subsample_takes_every_row_at_fraction_one(self, small_table):
        assert random_subsample_pvalue(small_table, 20, 1.0, seed=6) == pytest.approx(1.0)

    def test_csv_layout(self):
        row = ChiSquareRow("race", "white", 10, 1.5, 0.25).to_json_dict()
        assert row == {
            "attribute": "race", "group": "white", "D": 10, "statistic": 1.5, "p_value": 0.25
        }
        assert csv_text([row]) == "attribute,group,D,statistic,p_value\nrace,white,10,1.5,0.25\n"


_OT_JOINTS = {
    "uniform": [1 / 16] * 16,  # every threshold on a bin edge
    "zero_mass": [0.5, 0, 0, 0, 0, 0, 0.25, 0, 0, 0, 0, 0, 0.125, 0, 0, 0.125],
    "thresholds_at_one": [0.5, 0.5] + [0] * 14,
    "thirds": [1 / 3, 0, 0, 0, 0, 1 / 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1 / 3],
    "default": JointDistribution.default().flat().tolist(),
}


def _reference_control(num_cohorts, k, ratio, joint, t, seed):
    """The control in one chunk, each cell by ``searchsorted``."""
    n = int(round(num_cohorts * k * ratio))
    n_direct = num_cohorts * k
    cohorts = np.arange(n) // k
    tail = np.random.default_rng(derive_seed(seed, "ot-control", 0)).random(n - n_direct)
    cohorts[n_direct:] = np.floor(tail * num_cohorts)
    cum = np.cumsum(joint.flat())
    cum[-1] = 1.0
    u = np.random.default_rng(derive_seed(seed, "ot-control", 1)).random(n)
    cells = np.searchsorted(cum, u, side="right")
    grid = np.bincount(cohorts * 16 + cells, minlength=num_cohorts * 16).reshape(-1, 4, 4)
    violations, max_excess = {}, {}
    for attribute, axis in (("race", 2), ("income", 1)):
        counts = grid.sum(axis=axis)
        _, excess = anomalous_category(counts, counts.sum(axis=0) / counts.sum())
        violations[attribute] = int((excess > t).sum())
        max_excess[attribute] = float(excess.max())
    return violations, max_excess


class TestOTScaleControl:
    def test_tiny_control_run(self, default_joint):
        res = ot_scale_control(10, 10, 1.5, default_joint, t=0.9, seed=3)
        assert res.n_members == 150
        assert res.violations == {"race": 0, "income": 0}
        assert 0.0 <= res.max_excess["race"] <= 1.0
        blob = res.to_json_dict()
        assert blob["num_cohorts"] == 10 and blob["k"] == 10

    def test_chunking_does_not_change_the_result(self, default_joint):
        # 100 members get their cohort by index and the last 50 draw one;
        # the block sizes straddle that boundary
        a = ot_scale_control(10, 10, 1.5, default_joint, t=0.9, seed=3)
        for block in (1, 7, 99, 100, 101, 149, 150):
            with mock.patch.object(sensitivity, "_OT_BLOCK", block):
                b = ot_scale_control(10, 10, 1.5, default_joint, t=0.9, seed=3)
            assert a.to_json_dict() == b.to_json_dict(), block

    @pytest.mark.parametrize("cells", list(_OT_JOINTS.values()), ids=list(_OT_JOINTS))
    def test_cell_lookup_matches_searchsorted(self, cells):
        cum = np.cumsum(cells)
        cum[-1] = 1.0
        near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
        u = np.concatenate([
            np.arange(2**16) / 2**16,  # every bin edge
            near[near < 1.0],
            [np.nextafter(1.0, 0.0)],
            np.random.default_rng(0).random(100_000),
        ])
        lut = sensitivity._cell_lookup_table(cum)
        # only the bins with a threshold strictly inside them need a search
        inside = {int(c * 2**16) for c in cum if c < 1.0 and c * 2**16 % 1}
        assert np.flatnonzero(lut == sensitivity._SPLIT_BIN).tolist() == sorted(inside)
        cells_of_u = sensitivity._uniform_cells(
            u.copy(), cum, lut, np.empty(len(u), np.uint16), np.empty(len(u), np.uint8)
        )
        assert np.array_equal(cells_of_u, np.searchsorted(cum, u, side="right"))

    @pytest.mark.parametrize("block", [7, 11_999, 12_001, 4_000_000])
    @pytest.mark.parametrize("cells", list(_OT_JOINTS.values()), ids=list(_OT_JOINTS))
    def test_matches_unchunked_searchsorted_reference(self, cells, block):
        joint = JointDistribution(tuple(tuple(cells[r * 4 : r * 4 + 4]) for r in range(4)))
        with mock.patch.object(sensitivity, "_OT_BLOCK", block):
            res = ot_scale_control(40, 300, 1.5, joint, t=0.05, seed=8)
        ref_violations, ref_max = _reference_control(40, 300, 1.5, joint, t=0.05, seed=8)
        assert res.violations == ref_violations
        assert res.max_excess == ref_max

    @pytest.mark.parametrize(
        "num_cohorts, k, ratio, block",
        [
            (7, 50, 1.5, 16),
            (13, 30, 1.5, 100),
            (13, 30, 1.0, 100),
            (9, 40, 1.25, 25),
            (9, 40, 1.0, 40),
        ],
        ids=["k_above_block", "partial_last_block", "no_tail", "chunk_below_k", "chunk_equals_k"],
    )
    def test_blocks_match_unchunked_reference(self, default_joint, num_cohorts, k, ratio, block):
        with mock.patch.object(sensitivity, "_OT_BLOCK", block):
            res = ot_scale_control(num_cohorts, k, ratio, default_joint, t=0.05, seed=4)
        ref_violations, ref_max = _reference_control(num_cohorts, k, ratio, default_joint, 0.05, 4)
        assert res.n_members == int(round(num_cohorts * k * ratio))
        assert res.violations == ref_violations
        assert res.max_excess == ref_max

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"cohort_size_ratio": 0.5}, "cohort_size_ratio must be >= 1"),
            ({"num_cohorts": 0}, "num_cohorts must be >= 1, got 0"),
            ({"k": 0}, "k must be >= 1, got 0"),
            ({"t": float("nan")}, "t must be finite, got nan"),
            ({"t": float("inf")}, "t must be finite, got inf"),
            ({"cohort_size_ratio": float("inf")}, "cohort_size_ratio must be finite, got inf"),
            ({"cohort_size_ratio": float("nan")}, "cohort_size_ratio must be finite, got nan"),
            ({"cohort_size_ratio": 1e308},
             "num_cohorts * k * cohort_size_ratio must be finite, got inf"),
            ({"num_cohorts": 10**400},
             "num_cohorts * k * cohort_size_ratio must be finite, got inf"),
            ({"k": True}, "k must be an integer, got True"),
            ({"k": 2.5}, "k must be an integer, got 2.5"),
            ({"num_cohorts": 3.0}, "num_cohorts must be an integer, got 3.0"),
            ({"cohort_size_ratio": True}, "cohort_size_ratio must be a real number, got True"),
            ({"cohort_size_ratio": "1.5"}, "cohort_size_ratio must be a real number, got '1.5'"),
            ({"t": True}, "t must be a real number, got True"),
            ({"t": np.False_}, f"t must be a real number, got {np.False_!r}"),
            ({"t": "0.1"}, "t must be a real number, got '0.1'"),
            ({"t": 0.1j}, "t must be a real number, got 0.1j"),
        ],
        ids=["ratio", "num_cohorts", "k", "t_nan", "t_inf", "ratio_inf", "ratio_nan",
             "members_inf", "members_beyond_float", "k_bool", "k_float", "num_cohorts_float",
             "ratio_bool", "ratio_str", "t_bool", "t_numpy_bool", "t_str", "t_complex"],
    )
    def test_ratio_below_one_rejected(self, default_joint, changes, message):
        kwargs = {"num_cohorts": 10, "k": 10, "cohort_size_ratio": 1.5, "t": 0.1, **changes}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ot_scale_control(**kwargs, target=default_joint, seed=0)

    def test_tight_threshold_flags_everything(self, default_joint):
        res = ot_scale_control(8, 5, 1.0, default_joint, t=-1.0, seed=0)
        assert res.violations == {"race": 8, "income": 8}


@contextlib.contextmanager
def _ot_workers(workers):
    """``ot_scale_control`` as in a process allowed ``workers`` CPUs, with every
    range big enough to fork for; yields the mock that counts the forks."""
    with mock.patch.object(os, "sched_getaffinity", return_value=set(range(workers))), \
            mock.patch.object(sensitivity, "_OT_MIN_WORKER_MEMBERS", 1), \
            mock.patch.object(sensitivity, "_OT_MIN_MEMBERS_PER_COUNT", 0), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def _no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


#: ``ot_scale_control`` of the ``study`` workload and of ``flocpriv ot-control``
#: (SHA-256 of its ``ot_control.json``), both as counted by one process.
_STUDY_CONTROL = {
    "num_cohorts": 3387, "k": 2000, "cohort_size_ratio": 1.5, "t": 0.1, "n_members": 10161000,
    "violations": {"race": 0, "income": 0},
    "max_excess": {"race": 0.03140051639197161, "income": 0.032329786202328015},
}
_CLI_CONTROL_SHA256 = "ccbcd75a7a9becdc04d7025d3645fa4a52dde3c632f0744289ae8bba78be5a16"


class TestOTWorkers:
    """The control split over forked worker processes counts what one process counts."""

    @pytest.mark.parametrize("block", [7, 64, sensitivity._OT_BLOCK])
    @pytest.mark.parametrize(
        "num_cohorts, k, ratio",
        [(7, 100, 1.5), (13, 30, 1.0), (300, 1, 2.5), (2, 100, 1.5)],
        ids=["k_above_block", "ratio_one", "k_one", "fewer_cohorts_than_workers"],
    )
    def test_counts_do_not_depend_on_the_workers(self, default_joint, num_cohorts, k, ratio, block):
        want = _reference_control(num_cohorts, k, ratio, default_joint, 0.05, 9)
        for workers in (1, 2, 3):
            with _ot_workers(workers) as fork, mock.patch.object(sensitivity, "_OT_BLOCK", block):
                res = ot_scale_control(num_cohorts, k, ratio, default_joint, t=0.05, seed=9)
            assert fork.call_count == workers - 1
            assert (res.violations, res.max_excess) == want, workers
        assert _no_child_remains()

    def test_study_and_cli_defaults_do_not_depend_on_the_workers(self, tmp_path, default_joint):
        for workers in (1, 2, 3):
            with _ot_workers(workers) as fork:
                res = ot_scale_control(3387, 2000, 1.5, default_joint, t=0.1, seed=0)
                assert cli.main(["ot-control", "--out", str(tmp_path / str(workers))]) == 0
            assert fork.call_count == 2 * (workers - 1)
            assert res.to_json_dict() == _STUDY_CONTROL
            out = (tmp_path / str(workers) / "ot_control.json").read_bytes()
            assert hashlib.sha256(out).hexdigest() == _CLI_CONTROL_SHA256, workers
        assert _no_child_remains()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(0, 3000), st.integers(1, 5),
        st.integers(1, 400), st.integers(0, 3),
    )
    def test_shares_are_equal_runs_of_each_phase(
        self, num_cohorts, k, extra, workers, least, per_count
    ):
        n_direct = num_cohorts * k
        n_members = n_direct + extra
        least = max(least, per_count * num_cohorts * 16)
        with mock.patch.object(sensitivity, "_OT_MIN_WORKER_MEMBERS", least), \
                mock.patch.object(sensitivity, "_OT_MIN_MEMBERS_PER_COUNT", per_count):
            shares = sensitivity._member_ranges(num_cohorts, k, n_members, workers)
        parts = len(shares)
        assert 1 <= parts <= workers

        def smallest_share(parts):  # of parts equal runs of each phase, by their definition
            direct = [k * (num_cohorts * (i + 1) // parts - num_cohorts * i // parts)
                      for i in range(parts)]
            tail = [extra * (i + 1) // parts - extra * i // parts for i in range(parts)]
            return min(map(sum, zip(direct, tail)))

        assert all(smallest_share(more) < least for more in range(parts + 1, workers + 1))
        if parts == 1:
            assert shares == [(0, n_members)]
            return
        # The direct runs, then the tail runs, tile the members in order.
        ranges = [share[:2] for share in shares] + [share[2:] for share in shares]
        assert ranges[0][0] == 0 and ranges[parts - 1][1] == n_direct
        assert ranges[-1][1] == n_members
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all(m0 <= m1 for m0, m1 in ranges)
        assert all(m % k == 0 for m0, m1 in ranges[:parts] for m in (m0, m1))
        direct = [d1 - d0 for d0, d1, _, _ in shares]
        tail = [t1 - t0 for _, _, t0, t1 in shares]
        assert max(direct) - min(direct) <= k and max(tail) - min(tail) <= 1
        assert min(map(sum, zip(direct, tail))) >= least

    @pytest.mark.parametrize("cpus, parts", [(2, 2), (3, 3), (4, 4), (8, 4), (64, 4)])
    def test_study_control_splits_on_any_number_of_cpus(self, cpus, parts):
        shares = sensitivity._member_ranges(3387, 2000, 10_161_000, cpus)
        assert len(shares) == parts
        smallest = min(d1 - d0 + t1 - t0 for d0, d1, t0, t1 in shares)
        assert smallest >= sensitivity._OT_MIN_WORKER_MEMBERS

    @pytest.mark.parametrize(
        "num_cohorts, k, n_members, cpus",
        [(1_000_000, 1, 5_000_000, 2), (10_000_000, 1, 10_000_000, 4), (200_000, 10, 40_000_000, 8)],
        ids=["5_members_per_cohort", "1_member_per_cohort", "200_members_per_cohort"],
    )
    def test_a_count_of_few_members_per_cohort_is_not_split(self, num_cohorts, k, n_members, cpus):
        assert sensitivity._member_ranges(num_cohorts, k, n_members, cpus) == [(0, n_members)]

    def test_small_calls_never_fork(self, default_joint):
        with mock.patch.object(os, "fork", side_effect=OSError("fork refused")):
            res = ot_scale_control(10, 10, 1.5, default_joint, t=0.9, seed=3)
        assert res.n_members == 150

    def test_one_process_while_another_thread_runs(self, default_joint):
        want = ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            with _ot_workers(2) as fork:
                res = ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        finally:
            release.set()
            other.join()
        assert fork.call_count == 0
        assert res.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_one_process_where_the_platform_cannot_fork(
        self, default_joint, monkeypatch, missing
    ):
        want = ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        with _ot_workers(2) as fork:
            monkeypatch.delattr(os, missing)
            res = ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
            monkeypatch.undo()
        assert fork.call_count == 0
        assert res.to_json_dict() == want.to_json_dict()

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_children_leave_the_callers_cpu_and_its_affinity(self, default_joint):
        allowed, parent = os.sched_getaffinity(0), os.getpid()
        count = sensitivity._count_members

        def count_if_pinned(*args):
            if os.getpid() != parent:
                pinned = os.sched_getaffinity(0)
                if not (pinned < allowed and len(pinned) == len(allowed) - 1):
                    os._exit(5)
            count(*args)

        with mock.patch.object(sensitivity, "_OT_MIN_WORKER_MEMBERS", 1), \
                mock.patch.object(sensitivity, "_OT_MIN_MEMBERS_PER_COUNT", 0), \
                mock.patch.object(sensitivity, "_count_members", count_if_pinned):
            ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        assert os.sched_getaffinity(0) == allowed
        assert _no_child_remains()

    @pytest.mark.parametrize("status", [3, 0], ids=["non_zero_exit", "short_counts"])
    def test_a_failed_child_fails_the_call_and_is_reaped(self, default_joint, status):
        parent, count = os.getpid(), sensitivity._count_members

        def exit_in_child(*args):
            if os.getpid() != parent:
                os._exit(status)
            count(*args)

        with _ot_workers(3), mock.patch.object(sensitivity, "_count_members", exit_in_child):
            message = (
                rf"^worker counting members \[.*\) exited with status {status} "
                "before its counts were done$"
            )
            with pytest.raises(sensitivity.OTWorkerError, match=message):
                ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        assert _no_child_remains()

    def test_a_child_that_exits_non_zero_after_its_counts_fails_the_call(self, default_joint):
        exit_now = os._exit
        with _ot_workers(2), mock.patch.object(os, "_exit", lambda status: exit_now(7)):
            ranges = r"\[\d+, \d+\) and \[\d+, \d+\)"
            message = rf"^worker counting members {ranges} exited with status 7$"
            with pytest.raises(sensitivity.OTWorkerError, match=message):
                ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        assert _no_child_remains()

    def test_an_error_in_the_callers_range_kills_and_reaps_every_child(self, default_joint):
        parent = os.getpid()

        def stall_or_fail(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        started = time.monotonic()
        with _ot_workers(3), mock.patch.object(sensitivity, "_count_members", stall_or_fail):
            with pytest.raises(KeyboardInterrupt):
                ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
        assert time.monotonic() - started < 30
        assert _no_child_remains()

    @pytest.mark.parametrize("via", ["call", "cli"])
    def test_a_refused_fork_kills_the_children_and_closes_every_mapping(
        self, default_joint, tmp_path, capsys, via
    ):
        parent, fork, make_mapping = os.getpid(), os.fork, mmap.mmap
        mappings = []

        def refuse_the_second_fork():
            if len(mappings) > 1:
                raise OSError("fork refused")
            return fork()

        def record_mapping(*args):
            mappings.append(make_mapping(*args))
            return mappings[-1]

        def stall_in_child(*args):
            assert os.getpid() != parent, "the caller counts only after every fork"
            time.sleep(60)

        started = time.monotonic()
        with _ot_workers(3), mock.patch.object(os, "fork", refuse_the_second_fork), \
                mock.patch.object(mmap, "mmap", record_mapping), \
                mock.patch.object(sensitivity, "_count_members", stall_in_child):
            if via == "call":
                with pytest.raises(OSError, match="^fork refused$"):
                    ot_scale_control(7, 100, 1.5, default_joint, t=0.05, seed=9)
            else:
                out = tmp_path / "o"
                assert cli.main(["ot-control", "--out", str(out)]) == 1
                err = capsys.readouterr().err
                assert json.loads(err) == {"error": "OSError", "message": "fork refused"}
                assert not out.exists()
        assert time.monotonic() - started < 30
        assert len(mappings) == 2 and all(shared.closed for shared in mappings)
        assert _no_child_remains()
