"""Synthetic population generator: determinism, marginals, skew control."""

import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import synth_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from table_io_oracle import OracleTable

from flocpriv import ingest, synth
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
        "field, value, message",
        [
            # Each of these constructed: 7.5 and the seeds ran, and a float
            # seed or True aliased seed 1; the others failed late with a
            # TypeError or AxisError inside generate_population.
            ("min_domains", 7.5, "min_domains must be an integer, got 7.5"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got True"),
            ("n_machines", True, "n_machines must be an integer, got True"),
            ("vocab_size", 400.0, "vocab_size must be an integer, got 400.0"),
            ("top_stratum", 10.5, "top_stratum must be an integer, got 10.5"),
            ("seed", -1, "seed must fit in 64 bits, got -1"),
        ],
        ids=["min_domains=7.5", "seed=1.5", "seed=True", "n_machines=True", "vocab_size=400.0",
             "top_stratum=10.5", "seed=-1"],
    )
    def test_integer_fields_take_integers_only(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SynthConfig(**{field: value})

    def test_numpy_integers_are_read_as_python_ints(self):
        cfg = SynthConfig(n_machines=np.int64(5), n_weeks=np.uint8(1), seed=np.uint64(3))
        assert [type(v) for v in (cfg.n_machines, cfg.n_weeks, cfg.seed)] == [int, int, int]

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


#: A Zipf exponent of 2 over 200 domains with rows of 20-60: most rows need
#: more than the searched lead, and most of those more than the whole width,
#: so both the redo and the one-draw-at-a-time loop run.
FALLBACK_HEAVY = dict(vocab_size=200, zipf_exponent=2.0, min_domains=20, max_domains=60)


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``, naming the first differing line: pytest's own diff of
    two texts of thousands of lines takes minutes."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"texts differ first at line {i + 1}: {a[i : i + 1]} != {b[i : i + 1]}")


#: Configs whose rows are drawn with every path of ``_draw_rows``: sizes that
#: vary, one size, and rows still short after the full width.
_DRAW_CONFIGS = pytest.mark.parametrize(
    "fields",
    [
        dict(n_machines=40, n_weeks=2, vocab_size=500),
        dict(n_machines=200, n_weeks=1, min_domains=7, max_domains=7),
        dict(n_machines=30, n_weeks=2, **FALLBACK_HEAVY),
    ],
    ids=["default", "fixed-size", "fallback-heavy"],
)


def _oracle_population(cfg):
    with mock.patch.object(synth, "_draw_rows", synth_oracle.draw_rows):
        return generate_population(cfg)


class TestAgainstOracle:
    """The searched-lead draw and the per-machine-week session writer give
    the bytes of the full-width draw and the per-visit writer."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n_machines=st.integers(1, 30),
        n_weeks=st.integers(1, 3),
        vocab_size=st.sampled_from([200, 500, 3000]),
        zipf_exponent=st.sampled_from([0.5, 1.0, 2.0]),
        min_domains=st.integers(1, 30),
        extra=st.integers(0, 30),
        skew=st.sampled_from([0.0, 0.25, 1.0]),
    )
    @example(seed=0, n_machines=30, n_weeks=2, vocab_size=200, zipf_exponent=2.0,
             min_domains=20, extra=40, skew=0.25)  # FALLBACK_HEAVY
    @example(seed=0, n_machines=30, n_weeks=1, vocab_size=3000, zipf_exponent=1.0,
             min_domains=7, extra=0, skew=0.25)
    def test_population_and_sessions_match_oracle(self, seed, extra, **fields):
        cfg = SynthConfig(max_domains=fields["min_domains"] + extra, seed=seed, **fields)
        pop = generate_population(cfg)
        _assert_same_text(pop.table.save_text(), _oracle_population(cfg).table.save_text())
        got, want = io.StringIO(), io.StringIO()
        assert write_sessions(pop, got) == synth_oracle.write_sessions(pop, want)
        _assert_same_text(got.getvalue(), want.getvalue())

    def test_fallback_heavy_config_runs_the_redo_and_the_per_row_loop(self):
        # Rows of this config's sizes over its weights: most hold fewer distinct
        # domains than their size within the lead, and most within the width.
        rng = np.random.default_rng(1)
        sizes = rng.integers(20, 61, size=200)
        need = int(sizes.max())
        cum = np.cumsum(synth._zipf_weights(200, 2.0))
        draws = np.searchsorted(cum, rng.random((len(sizes), 4 * need + 16)), side="right")
        in_lead = np.array([len(set(row[: synth._lead(need)])) for row in draws.tolist()])
        in_width = np.array([len(set(row)) for row in draws.tolist()])
        assert np.mean(in_lead < sizes) > 0.9
        assert np.mean(in_width < sizes) > 0.5

    @pytest.mark.parametrize("lead", [lambda need: 1, lambda need: 4 * need + 16],
                             ids=["one-column", "full-width"])
    @_DRAW_CONFIGS
    def test_output_does_not_depend_on_the_lead(self, monkeypatch, lead, fields):
        cfg = SynthConfig(seed=11, **fields)
        want = generate_population(cfg).table.save_text()
        monkeypatch.setattr(synth, "_lead", lead)
        _assert_same_text(generate_population(cfg).table.save_text(), want)

    @pytest.mark.parametrize("block", ["one-uniform", "one-row", "default"])
    @_DRAW_CONFIGS
    def test_output_does_not_depend_on_the_draw_block(self, monkeypatch, block, fields):
        # Short rows of earlier blocks extend the stream only after the last
        # block, as they do after the oracle's single draw of every row.
        cfg = SynthConfig(seed=11, **fields)
        want = _oracle_population(cfg).table.save_text()
        width = 4 * cfg.max_domains + 16  # the widest row's uniforms
        size = {"one-uniform": 1, "one-row": width, "default": synth._DRAW_BLOCK}[block]
        monkeypatch.setattr(synth, "_DRAW_BLOCK", size)
        _assert_same_text(generate_population(cfg).table.save_text(), want)


def _empty_population(pop):
    """``pop`` with a table of no rows."""
    table = pop.table
    empty = type(table)(
        table.machine_ids[:0], table.week_indices[:0], table.state_labels, table.race_idx[:0],
        table.income_idx[:0], table.state_idx[:0], table.dom_indices[:0], [0], table.vocab,
    )
    return synth.GeneratedPopulation(pop.config, empty, pop.machine_ids, pop.race_idx,
                                     pop.income_idx, pop.state_idx)


class TestBlockWiseWriters:
    """``save_text``, ``save`` and ``write_sessions`` give the per-row
    writers' bytes however many rows a block holds."""

    @pytest.mark.parametrize("block", [1, 2, 3, ingest._BLOCK])
    @pytest.mark.parametrize("rows", ["seven", "none"])
    def test_match_the_per_row_writers(self, tmp_path, block, rows):
        pop = generate_population(SynthConfig(n_machines=7, n_weeks=1, vocab_size=300, seed=5))
        if rows == "none":
            pop = _empty_population(pop)
        t = pop.table
        oracle = OracleTable(t.machine_ids, t.week_indices, t.state_labels, t.race_idx,
                             t.income_idx, t.state_idx, t.dom_indices, t.offsets, t.vocab)
        want_sessions = io.StringIO()
        n = synth_oracle.write_sessions(pop, want_sessions)
        with mock.patch.object(ingest, "_BLOCK", block):
            assert t.save_text() == oracle.save_text()
            t.save(tmp_path / "table.tsv")
            got_sessions = io.StringIO()
            assert write_sessions(pop, got_sessions) == n
        assert (tmp_path / "table.tsv").read_bytes() == oracle.save_text().encode()
        assert got_sessions.getvalue() == want_sessions.getvalue()


def test_generate_population_holds_names_and_weights_of_drawn_rows_only():
    # 20 rows over a 200,000-name vocabulary: naming every entry or holding a
    # weight vector per cell would pass 12 MB; one cell's weights and the
    # drawn entries' names stay well below it.
    cfg = SynthConfig(n_machines=20, n_weeks=1, vocab_size=200_000)
    tracemalloc.start()
    try:
        generate_population(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6
