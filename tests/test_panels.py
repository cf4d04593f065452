"""Stratified panel drawing: apportionment, exactness, disjointness."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flocpriv.ingest import (
    INCOME_GROUPS,
    RACE_GROUPS,
    FormatConfig,
    WeekConfig,
    build_machine_weeks,
    parse_sessions,
)
from flocpriv.panels import (
    N_CELLS,
    JointDistribution,
    PanelError,
    apportion,
    cluster_panel,
    stratified_panels,
)

HEADER = "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"
RACE_CODE = {"white": 1, "black": 2, "asian": 4, "other": 3}
INCOME_CODE = {"lt25k": 4, "25k_75k": 10, "75k_150k": 14, "ge150k": 16}

UNIFORM = JointDistribution(tuple(tuple(1 / 16 for _ in range(4)) for _ in range(4)))


def _cell_table(per_cell, weeks=(0,)):
    """A table whose week populations hold exactly ``per_cell[r][i]`` machines."""
    lines = [HEADER]
    machine = 0
    session = 0
    for r, race in enumerate(RACE_GROUPS):
        for i, income in enumerate(INCOME_GROUPS):
            for _ in range(per_cell[r][i]):
                machine += 1
                for week in weeks:
                    date = f"201701{1 + 7 * week:02d}"
                    for d in range(7):
                        session += 1
                        lines.append(
                            f"{machine}\t{session}\tm{machine}w{week}d{d}.com\t{date}\t"
                            f"10:00:00\t1\t30\t{INCOME_CODE[income]}\t{RACE_CODE[race]}\t36832"
                        )
    parsed = parse_sessions(io.StringIO("\n".join(lines) + "\n"), FormatConfig())
    assert parsed.rejects.total == 0
    return build_machine_weeks(parsed.records, WeekConfig()).table


def _cell_counts(panel):
    """Machines of the panel in each (race, income) cell, race-major."""
    cells = panel.race_idx.astype(np.int64) * len(INCOME_GROUPS) + panel.income_idx
    return np.bincount(cells, minlength=N_CELLS)


class TestApportion:
    def test_exact_split_needs_no_remainders(self):
        assert apportion(10, np.array([0.5, 0.3, 0.2])).tolist() == [5, 3, 2]

    def test_largest_remainder_gets_the_spare_seat(self):
        # quotas 3.5 / 2.1 / 1.4 -> floors sum to 6, largest remainder first
        assert apportion(7, np.array([0.5, 0.3, 0.2])).tolist() == [4, 2, 1]

    def test_remainder_tie_breaks_to_lower_index(self):
        assert apportion(1, np.array([0.5, 0.5])).tolist() == [1, 0]
        assert apportion(3, np.array([0.25, 0.25, 0.25, 0.25])).tolist() == [1, 1, 1, 0]

    def test_zero_probability_cell_stays_empty(self):
        # quotas 5.4 / 0 / 3.6 -> remainder 0.6 at index 2 wins the spare seat
        assert apportion(9, np.array([0.6, 0.0, 0.4])).tolist() == [5, 0, 4]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 500),
        st.lists(st.integers(0, 20), min_size=1, max_size=12).filter(lambda w: sum(w) > 0),
    )
    def test_apportion_properties(self, total, weights):
        probs = np.array(weights, dtype=float) / sum(weights)
        out = apportion(total, probs)
        assert out.sum() == total
        assert np.all(out >= np.floor(total * probs))
        assert np.all(out <= np.floor(total * probs) + 1)
        assert np.all(out[probs == 0] == 0)


class TestJointDistribution:
    def test_default_is_a_proper_distribution(self, default_joint):
        flat = default_joint.flat()
        assert flat.shape == (16,)
        assert flat.min() > 0
        assert abs(flat.sum() - 1.0) < 1e-12
        assert abs(default_joint.race_marginal().sum() - 1.0) < 1e-12
        assert abs(default_joint.income_marginal().sum() - 1.0) < 1e-12

    def test_marginals_collapse_the_right_axis(self):
        cells = tuple(
            tuple((r + 1) * (i + 1) / 100 for i in range(4)) for r in range(4)
        )
        joint = JointDistribution(cells)
        assert np.allclose(joint.race_marginal(), [10 / 100, 20 / 100, 30 / 100, 40 / 100])
        assert np.allclose(joint.income_marginal(), [10 / 100, 20 / 100, 30 / 100, 40 / 100])

    def test_validation(self):
        with pytest.raises(ValueError, match="shaped"):
            JointDistribution(((1.0,),))
        bad = [[1 / 16] * 4 for _ in range(4)]
        bad[0][0], bad[0][1] = -0.01, 2 / 16 + 0.01
        with pytest.raises(ValueError, match="non-negative"):
            JointDistribution(tuple(tuple(row) for row in bad))
        with pytest.raises(ValueError, match="sum to"):
            JointDistribution(tuple(tuple([0.1] * 4) for _ in range(4)))

    def test_json_round_trip(self, default_joint):
        blob = default_joint.to_json_dict()
        assert JointDistribution.from_json_dict(blob) == default_joint
        blob["race"] = ["a", "b", "c", "d"]
        with pytest.raises(ValueError, match="labels"):
            JointDistribution.from_json_dict(blob)


class TestStratifiedPanels:
    def test_uniform_cells_fill_completely(self):
        """100 machines per cell, uniform target, one panel: all 1600 picked."""
        table = _cell_table([[100] * 4 for _ in range(4)])
        (panel,) = stratified_panels(table, UNIFORM, 1, seed=0, bit_length=50, sim_seed=7)
        assert panel.size == 1600
        assert _cell_counts(panel).tolist() == [100] * 16
        assert np.array_equal(np.sort(panel.rows), np.arange(1600))

    def test_three_panels_shrink_to_feasible_size(self):
        # floor(100/3) = 33 per cell per panel; 16 * 33 = 528. Sizes
        # 529..533 would apportion 34 into some cell, needing 102 > 100.
        table = _cell_table([[100] * 4 for _ in range(4)])
        panels = stratified_panels(table, UNIFORM, 3, seed=0, bit_length=50, sim_seed=7)
        assert [p.size for p in panels] == [528, 528, 528]
        for p in panels:
            assert _cell_counts(p).tolist() == [33] * 16

    def test_cell_counts_match_apportioned_target(self, small_table, default_joint):
        panels = stratified_panels(
            small_table, default_joint, 2, seed=9, bit_length=50, sim_seed=7
        )
        assert panels  # 4 weeks x 2
        for p in panels:
            expected = apportion(p.size, default_joint.flat())
            assert _cell_counts(p).tolist() == expected.tolist()

    def test_same_week_panels_are_disjoint(self, small_table, default_joint):
        panels = stratified_panels(
            small_table, default_joint, 3, seed=1, bit_length=50, sim_seed=7
        )
        by_week = {}
        for p in panels:
            by_week.setdefault(p.week_index, []).append(p)
        assert len(by_week) == 4
        for group in by_week.values():
            assert len(group) == 3
            sizes = {p.size for p in group}
            assert len(sizes) == 1
            all_rows = np.concatenate([p.rows for p in group])
            assert len(np.unique(all_rows)) == len(all_rows)

    def test_panel_rows_slice_the_week(self, small_table, default_joint):
        panels = stratified_panels(
            small_table, default_joint, 1, seed=4, bit_length=50, sim_seed=7
        )
        for p in panels:
            assert np.all(small_table.week_indices[p.rows] == p.week_index)
            assert np.array_equal(p.machine_ids, small_table.machine_ids[p.rows])
            assert np.array_equal(p.race_idx, small_table.race_idx[p.rows])

    def test_deterministic_in_seed(self, small_table, default_joint):
        kw = dict(bit_length=50, sim_seed=7)
        a = stratified_panels(small_table, default_joint, 2, seed=5, **kw)
        b = stratified_panels(small_table, default_joint, 2, seed=5, **kw)
        c = stratified_panels(small_table, default_joint, 2, seed=6, **kw)
        assert all(np.array_equal(x.rows, y.rows) for x, y in zip(a, b))
        assert any(not np.array_equal(x.rows, y.rows) for x, y in zip(a, c))

    def test_panel_ids_count_up(self, small_table, default_joint):
        panels = stratified_panels(
            small_table, default_joint, 2, seed=5, bit_length=50, sim_seed=7
        )
        assert [p.panel_id for p in panels] == list(range(len(panels)))

    def test_empty_required_cell_is_a_loud_error(self):
        per_cell = [[0] * 4 for _ in range(4)]
        per_cell[0][2] = 30  # only (white, 75k_150k) populated
        table = _cell_table(per_cell)
        with pytest.raises(PanelError, match=r"week 0.*\(white, lt25k\)"):
            stratified_panels(table, UNIFORM, 1, seed=0, bit_length=50, sim_seed=7)

    def test_single_cell_target_takes_whole_cell(self):
        per_cell = [[0] * 4 for _ in range(4)]
        per_cell[1][3] = 12
        table = _cell_table(per_cell)
        cells = [[0.0] * 4 for _ in range(4)]
        cells[1][3] = 1.0
        target = JointDistribution(tuple(tuple(row) for row in cells))
        (panel,) = stratified_panels(table, target, 1, seed=0, bit_length=50, sim_seed=7)
        assert panel.size == 12
        assert _cell_counts(panel)[1 * 4 + 3] == 12

    def test_bad_panels_per_week(self, small_table, default_joint):
        with pytest.raises(PanelError, match=">= 1"):
            stratified_panels(small_table, default_joint, 0, seed=0, bit_length=50, sim_seed=7)

    def test_weeks_argument_restricts_output(self, small_table, default_joint):
        panels = stratified_panels(
            small_table, default_joint, 1, seed=2, bit_length=50, sim_seed=7, weeks=[1, 3]
        )
        assert [p.week_index for p in panels] == [1, 3]


class TestClusterPanel:
    def test_cluster_attaches_consistent_map(self, small_table, default_joint):
        (panel,) = stratified_panels(
            small_table, default_joint, 1, seed=3, bit_length=50, sim_seed=7, weeks=[0]
        )
        cluster_panel(panel, k=10, bit_length=50)
        assert panel.cohort_map is not None and panel.cohort_ids is not None
        counts = np.bincount(panel.cohort_ids, minlength=panel.cohort_map.num_cohorts)
        assert counts.tolist() == panel.cohort_map.counts.tolist()
        assert counts.min() >= 10
