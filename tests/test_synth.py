"""Synthetic population generator: determinism, marginals, skew control."""

import io
import re

import numpy as np
import pytest
from scipy import stats

from flocpriv.geo import STATES
from flocpriv.ingest import FormatConfig, WeekConfig, build_machine_weeks, parse_sessions
from flocpriv.panels import N_CELLS
from flocpriv.sensitivity import chi_square_by_group
from flocpriv.synth import SynthConfig, generate_population, write_sessions


class TestConfigValidation:
    def test_rejects_impossible_domain_ranges(self):
        with pytest.raises(ValueError, match="exceeds the vocabulary"):
            SynthConfig(vocab_size=10, max_domains=11)
        with pytest.raises(ValueError, match="range is empty"):
            SynthConfig(min_domains=9, max_domains=8)
        with pytest.raises(ValueError, match="range is empty"):
            SynthConfig(min_domains=0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="at least one machine"):
            SynthConfig(n_machines=0)
        with pytest.raises(ValueError, match="skew"):
            SynthConfig(skew=1.5)
        with pytest.raises(ValueError, match="top_stratum"):
            SynthConfig(vocab_size=50, top_stratum=51, max_domains=10)

    @pytest.mark.parametrize(
        "exponent, message",
        [
            (float("nan"), "zipf_exponent must be finite, got nan"),
            (float("inf"), "zipf_exponent must be finite, got inf"),
            (float("-inf"), "zipf_exponent must be finite, got -inf"),
            (1000.0, "zipf_exponent 1000.0 gives 2 positive finite weights, fewer than "
                     "max_domains 20"),
            (-1000.0, "zipf_exponent -1000.0 gives 0 positive finite weights, fewer than "
                      "max_domains 20"),
            (10.0, "zipf_exponent 10.0 leaves weight 2.7e-13 outside the heaviest 19 "
                   "domains, below 0.0001: filling a row of max_domains 20 would take too "
                   "many draws"),
            (30.0, "zipf_exponent 30.0 leaves weight 1.22e-39 outside the heaviest 19 "
                   "domains, below 0.0001: filling a row of max_domains 20 would take too "
                   "many draws"),
            (3.75, "zipf_exponent 3.75 leaves weight 9.33e-05 outside the heaviest 19 "
                   "domains, below 0.0001: filling a row of max_domains 20 would take too "
                   "many draws"),
        ],
    )
    def test_rejects_zipf_exponents_that_cannot_fill_a_row(self, exponent, message):
        # Each of these made generate_population draw forever, or for hours.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthConfig(n_machines=5, n_weeks=1, vocab_size=200, zipf_exponent=exponent)

    def test_accepts_an_exponent_just_inside_the_bound(self):
        # 1.1e-4 of the weight lies outside the heaviest 19 domains.
        cfg = SynthConfig(n_machines=5, n_weeks=1, vocab_size=200, zipf_exponent=3.7)
        sizes = np.diff(generate_population(cfg).table.offsets)
        assert len(sizes) == 5 and sizes.min() >= cfg.min_domains and sizes.max() <= cfg.max_domains


class TestDeterminism:
    def test_same_seed_reproduces_table_byte_for_byte(self):
        cfg = SynthConfig(n_machines=60, n_weeks=2, vocab_size=500, seed=9)
        a = generate_population(cfg)
        b = generate_population(cfg)
        assert a.table.save_text() == b.table.save_text()
        assert a.demographics_json() == b.demographics_json()

    def test_different_seed_differs(self):
        base = dict(n_machines=60, n_weeks=2, vocab_size=500)
        a = generate_population(SynthConfig(seed=9, **base))
        b = generate_population(SynthConfig(seed=10, **base))
        assert a.table.save_text() != b.table.save_text()


class TestTableShape:
    def test_every_machine_gets_every_week(self, small_population):
        table = small_population.table
        cfg = small_population.config
        assert len(table) == cfg.n_machines * cfg.n_weeks
        for week in range(cfg.n_weeks):
            assert len(table.rows_for_week(week)) == cfg.n_machines

    def test_domain_sets_are_distinct_and_sized(self, small_population):
        table = small_population.table
        cfg = small_population.config
        for i in range(len(table)):
            lo, hi = table.offsets[i], table.offsets[i + 1]
            row = table.dom_indices[lo:hi]
            assert cfg.min_domains <= len(row) <= cfg.max_domains
            assert len(np.unique(row)) == len(row)

    def test_demographics_json_accounts_for_everyone(self, small_population):
        blob = small_population.demographics_json()
        assert blob["n_machines"] == 400
        assert int(np.sum(blob["counts"])) == 400

    def test_states_all_known(self, small_population):
        assert small_population.state_idx.min() >= 0
        assert small_population.state_idx.max() < len(STATES)


class TestDemographicMarginals:
    @pytest.mark.parametrize("seed", range(6))
    def test_cells_fit_target_joint(self, seed):
        cfg = SynthConfig(n_machines=2000, n_weeks=1, seed=seed)
        pop = generate_population(cfg)
        cells = pop.race_idx.astype(np.int64) * 4 + pop.income_idx
        counts = np.bincount(cells, minlength=N_CELLS)
        p = stats.chisquare(counts, 2000 * cfg.joint.flat()).pvalue
        assert p > 0.001


class TestSkewControl:
    def test_demographic_browsing_signal_grows_with_skew(self):
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        observed = []
        for skew in grid:
            cfg = SynthConfig(
                n_machines=3000, n_weeks=2, vocab_size=5000, skew=skew, seed=21
            )
            pop = generate_population(cfg)
            rows = chi_square_by_group(pop.table, "race", [50])
            observed.append(float(np.mean([r.statistic for r in rows])))
        assert all(a < b for a, b in zip(observed, observed[1:])), observed

    def test_zero_skew_looks_like_noise(self):
        cfg = SynthConfig(n_machines=3000, n_weeks=2, vocab_size=5000, skew=0.0, seed=21)
        pop = generate_population(cfg)
        rows = chi_square_by_group(pop.table, "race", [50])
        # 49 degrees of freedom: a mean stat near 49 and no extreme p-values
        assert np.mean([r.statistic for r in rows]) < 80
        assert min(r.p_value for r in rows) > 1e-4


class TestSessionRoundTrip:
    def test_written_sessions_rebuild_the_exact_table(self):
        cfg = SynthConfig(n_machines=50, n_weeks=3, vocab_size=400, seed=3)
        pop = generate_population(cfg)
        buf = io.StringIO()
        n_rows = write_sessions(pop, buf)
        assert n_rows == int(pop.table.offsets[-1])
        buf.seek(0)
        parsed = parse_sessions(buf, FormatConfig())
        assert parsed.rejects.total == 0
        rebuilt = build_machine_weeks(
            parsed.records, WeekConfig(min_domains=cfg.min_domains)
        ).table
        assert rebuilt.save_text() == pop.table.save_text()
        assert np.array_equal(rebuilt.hashes(50, 7), pop.table.hashes(50, 7))
