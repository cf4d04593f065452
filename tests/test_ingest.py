"""Session parsing, machine-week aggregation, and representativeness."""

import datetime as dt
import io
import os
import random
import re
import tempfile
import tracemalloc
from unittest import mock

import ingest_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from table_io_oracle import OracleTable

from flocpriv import hashing, ingest

from flocpriv.geo import UNKNOWN_STATE, representative_zip, state_for_zip
from flocpriv.psl import SuffixSet, registrable_domain, registrable_domains
from flocpriv.synth import _INCOME_TO_CODE, _RACE_TO_CODE, SynthConfig, generate_population
from flocpriv.ingest import (
    INCOME_GROUPS,
    RACE_GROUPS,
    FormatConfig,
    MachineWeekTable,
    SchemaError,
    WeekConfig,
    build_machine_weeks,
    parse_sessions,
    representativeness,
)

HEADER = "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip"


def _row(machine=1, session=1, domain="example.com", date="20170101", time="10:00:00",
         pages=1, duration=5, income=14, race=1, zip_code="36832"):
    return f"{machine}\t{session}\t{domain}\t{date}\t{time}\t{pages}\t{duration}\t{income}\t{race}\t{zip_code}"


def _parse(rows, fmt=None):
    text = HEADER + "\n" + "\n".join(rows) + ("\n" if rows else "")
    return parse_sessions(io.StringIO(text), fmt or FormatConfig())


class TestStateForZip:
    def test_known_prefixes(self):
        assert state_for_zip("36832") == "AL"
        assert state_for_zip("90210") == "CA"
        assert state_for_zip("10001") == "NY"

    def test_three_digit_form(self):
        assert state_for_zip("368") == "AL"

    def test_unknown(self):
        assert state_for_zip("00000") == UNKNOWN_STATE
        assert state_for_zip("") == UNKNOWN_STATE
        assert state_for_zip("abcde") == UNKNOWN_STATE

    def test_representative_zip_round_trips(self):
        for state in ("AL", "CA", "NY", "TX", "WA"):
            assert state_for_zip(representative_zip(state)) == state


class TestParseSessions:
    def test_table2_style_row(self):
        result = _parse([_row(machine=169007206, session=27157206, domain="example.com",
                              date="20170515", time="8:36:55", pages=1, duration=5)])
        assert len(result.records) == 1
        rec = result.records
        assert rec.machine_ids.tolist() == [169007206]
        assert rec.hosts == ["example.com"]
        assert rec.days.tolist() == [dt.date(2017, 5, 15).toordinal()]
        assert [INCOME_GROUPS[i] for i in rec.income_idx] == ["75k_150k"]
        assert [RACE_GROUPS[i] for i in rec.race_idx] == ["white"]
        assert rec.zip_codes == ["36832"]
        assert result.rejects.total == 0

    def test_empty_stream_with_header(self):
        result = _parse([])
        assert len(result.records) == 0
        assert result.records.hosts == [] and result.records.zip_codes == []
        for column in ("machine_ids", "days"):
            assert getattr(result.records, column).dtype == np.int64
        for column in ("race_idx", "income_idx"):
            assert getattr(result.records, column).dtype == np.int8
        assert result.rejects.total == 0

    @pytest.mark.parametrize(
        "maps, message",
        [
            ({"race_code_map": {"1": "hispanic"}}, "race_code_map maps code '1' to 'hispanic'"),
            ({"income_code_map": {"1": "lt25k", "9": "rich"}}, "income_code_map maps code '9' to 'rich'"),
            ({"race_code_map": {"2": "25k_75k"}}, "race_code_map maps code '2' to '25k_75k'"),
        ],
    )
    def test_code_maps_must_name_canonical_groups(self, maps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FormatConfig(**maps)

    def test_default_and_canonical_code_maps_construct(self):
        default = FormatConfig()
        assert set(default.race_code_map.values()) == set(RACE_GROUPS)
        assert set(default.income_code_map.values()) == set(INCOME_GROUPS)
        custom = FormatConfig(race_code_map={"7": "asian"}, income_code_map={"x": "ge150k"})
        records = _parse([_row(race=7, income="x")], custom).records
        assert [(RACE_GROUPS[r], INCOME_GROUPS[i])
                for r, i in zip(records.race_idx, records.income_idx)] == [("asian", "ge150k")]

    def test_missing_header_is_fatal(self):
        with pytest.raises(SchemaError):
            parse_sessions(io.StringIO(""), FormatConfig())

    def test_missing_column_is_fatal(self):
        text = "machine_id\tdomain\n1\texample.com\n"
        with pytest.raises(SchemaError):
            parse_sessions(io.StringIO(text), FormatConfig())

    def test_non_numeric_pages_rejected_not_fatal(self):
        result = _parse([_row(pages="xx"), _row(session=2)])
        assert len(result.records) == 1
        assert result.rejects.total == 1
        assert result.rejects.counts["bad_integer_field"] == 1

    def test_machine_id_outside_int64_rejected_not_fatal(self):
        inside = [2**63 - 1, -(2**63)]
        outside = [2**63, -(2**63) - 1, 2**64 + 1]
        result = _parse([_row(machine=m) for m in inside + outside])
        assert result.records.machine_ids.tolist() == inside
        assert result.rejects.counts == {"bad_integer_field": len(outside)}

    @pytest.mark.parametrize(
        "field, attribute",
        [("machine", "machine_id"), ("session", "session_id"), ("pages", "pages"),
         ("duration", "duration")],
    )
    def test_only_ascii_digits_are_integers(self, field, attribute):
        lenient = ["1_000", "١٠٠٠", "+1000", " 1000", "1000 ", "", "-", "1e3", "0x10"]
        result = _parse([_row(**{field: v}) for v in lenient] + [_row(**{field: "1000"})])
        # Only the machine ID is stored; the other integer fields are
        # checked, so the one spelling accepted is the ASCII one.
        assert len(result.records) == 1
        if attribute == "machine_id":
            assert result.records.machine_ids.tolist() == [1000]
        assert result.rejects.counts == {"bad_integer_field": len(lenient)}
        assert result.rejects.samples["bad_integer_field"] == [
            _row(**{field: v}) for v in lenient[:5]
        ]

    def test_distinct_machine_spellings_do_not_merge(self):
        result = _parse([_row(machine="1_000"), _row(machine="١٠٠٠"),
                         _row(machine="1000"), _row(machine="-0042")])
        assert result.records.machine_ids.tolist() == [1000, -42]
        assert result.rejects.counts == {"bad_integer_field": 2}

    def test_negative_duration_rejected(self):
        result = _parse([_row(duration=-5)])
        assert result.rejects.counts["negative_count"] == 1

    def test_bad_date_and_codes_rejected(self):
        result = _parse([_row(date="2017051"), _row(race=99), _row(income=99)])
        assert result.rejects.total == 3
        assert set(result.rejects.counts) == {"bad_date", "bad_race_code", "bad_income_code"}

    def test_repeated_bad_dates_each_rejected(self):
        bad = ["2017051", "20170230", "2017051", "20170230", "2017051"]
        result = _parse([_row(date=d) for d in bad] + [_row(date="20170105")])
        assert len(result.records) == 1
        assert result.rejects.counts == {"bad_date": len(bad)}
        assert result.rejects.samples["bad_date"] == [_row(date=d) for d in bad]

    def test_custom_date_format_matches_per_line_strptime(self):
        fmt = FormatConfig(date_format="%d/%m/%Y")
        dates = ["01/01/2017", "08/01/2017", "01/01/2017", "1/1/2017", "31/12/2017", "08/01/2017"]
        rows = [r for m, d in enumerate(dates) for r in _sessions_for(m, DOMAINS_7, date=d)]
        result = _parse(rows, fmt)
        assert result.rejects.counts == {"bad_date": len(DOMAINS_7)}  # "1/1/2017" is not canonical
        epoch = WeekConfig().epoch
        expected = [
            (m, (dt.datetime.strptime(d, fmt.date_format).date() - epoch).days // 7)
            for m, d in enumerate(dates)
            if m != 3
        ]
        table = build_machine_weeks(result.records, WeekConfig()).table
        assert list(zip(table.machine_ids.tolist(), table.week_indices.tolist())) == expected
        assert [w for _, w in expected] == [0, 1, 0, 52, 1]

    def test_parses_share_no_date_memo(self):
        default = _parse([_row(date="20170102"), _row(date="02/01/2017")])
        slashed = _parse([_row(date="20170102"), _row(date="02/01/2017")],
                         FormatConfig(date_format="%d/%m/%Y"))
        again = _parse([_row(date="20170102"), _row(date="02/01/2017")])
        for result, bad in ((default, "02/01/2017"), (slashed, "20170102"), (again, "02/01/2017")):
            assert result.records.days.tolist() == [dt.date(2017, 1, 2).toordinal()]
            assert result.rejects.samples["bad_date"] == [_row(date=bad)]

    def test_records_are_plain_tuples(self):
        # One line's columns: padding is stripped from the stored text
        # fields and the code fields; session, time, pages and duration
        # are not stored.
        line = _row(machine=-7, domain=" a.example.com ", date="20170103", income=" 4",
                    race="2 ", zip_code=" 90210\r")
        records = _parse([line]).records
        assert records.machine_ids.dtype == np.int64 and records.machine_ids.tolist() == [-7]
        assert records.hosts == ["a.example.com"]
        assert records.days.tolist() == [736332]
        assert records.race_idx.tolist() == [RACE_GROUPS.index("black")]
        assert records.income_idx.tolist() == [INCOME_GROUPS.index("lt25k")]
        assert records.zip_codes == ["90210"]

    def test_reject_report_keeps_samples(self):
        result = _parse([_row(pages="bad") for _ in range(9)])
        report = result.rejects.to_json_dict()
        assert report["total"] == 9
        assert report["counts"]["bad_integer_field"] == 9
        assert len(report["samples"]["bad_integer_field"]) == 5

    def test_crlf_log_parses_like_its_lf_twin(self):
        # zip is the last column, so a "\r" left on it would break the
        # header and every line's ZIP.
        rows = [_row(), _row(machine=2, domain=" b.example.org ", zip_code="90210"),
                "", _row(pages="x"), _row(race=99), _row(machine=3)[:-6]]
        lf = _parse(rows)
        text = "\r\n".join([HEADER, *rows]) + "\r\n"
        crlf = parse_sessions(io.StringIO(text), FormatConfig())
        for column in ("machine_ids", "days", "race_idx", "income_idx"):
            assert np.array_equal(getattr(crlf.records, column), getattr(lf.records, column))
        assert crlf.records.hosts == lf.records.hosts == ["example.com", "b.example.org"]
        assert crlf.records.zip_codes == lf.records.zip_codes == ["36832", "90210"]
        assert crlf.rejects.to_json_dict() == lf.rejects.to_json_dict()
        assert lf.rejects.counts == {
            "bad_integer_field": 1, "bad_race_code": 1, "field_count": 1,
        }

    def test_custom_column_order(self):
        fmt = FormatConfig()
        text = (
            "domain\tmachine_id\tsession_id\tdate\ttime\tpages\tduration\tincome\trace\tzip\n"
            "example.com\t7\t1\t20170101\t09:00:00\t1\t5\t14\t1\t36832\n"
        )
        result = parse_sessions(io.StringIO(text), fmt)
        assert result.records.machine_ids.tolist() == [7]
        assert result.records.hosts == ["example.com"]
        assert result.rejects.total == 0

    @pytest.mark.parametrize("column", [
        [], [""], ["1", ""], ["12", "0"], ["1", "-2"], ["-0", "7"], ["1", "\u00b2"],
        ["\u0661", "1"], ["1 ", "2"], ["1\n2"], ["1_000"], ["+1"], ["1", "x"],
    ])
    def test_integer_column_check_matches_the_per_value_rule(self, column):
        assert ingest._not_integers(column).tolist() == [
            not re.fullmatch(r"-?[0-9]+", value) for value in column
        ]

    def test_a_column_of_digits_is_checked_without_a_regex(self):
        # A regex over the joined column allocates about 200 bytes a value,
        # 1.7 MB for a block of 8,192; one test of the joined digits does not.
        column = [str(i * 7919 % 100_000) for i in range(8192)]
        tracemalloc.start()
        try:
            not_integers = ingest._not_integers(column)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not not_integers.any()
        assert peak < 100_000


def _sessions_for(machine, domains, date="20170101", zip_code="36832", race=1, income=14):
    return [
        _row(machine=machine, session=i + 1, domain=d, date=date,
             zip_code=zip_code, race=race, income=income)
        for i, d in enumerate(domains)
    ]


DOMAINS_7 = [f"d{i}.com" for i in range(7)]


def _read_like_lines(lines, block):
    """What each ``_read_block`` call over ``lines`` returns, by a per-line
    strip and split of tab-delimited, three-field lines: one read per
    ``block`` lines, and a last read of 0 lines when ``block`` divides
    their number."""
    reads = []
    for start in range(0, len(lines) + 1, block):
        stripped = [line.rstrip("\r\n") for line in lines[start : start + block]]
        places = [i for i, line in enumerate(stripped) if line.strip()]
        kept = [stripped[i] for i in places]
        well = [len(line.split("\t")) == 3 for line in kept]
        rows = [line.split("\t") for line, w in zip(kept, well) if w]
        columns = [[row[p] for row in rows] for p in range(3)]
        reads.append((len(stripped), kept, places, well, columns))
    return reads


class TestReadBlock:
    """``_read_block``, the one line reader of ``parse_sessions`` and
    ``MachineWeekTable.load``, reads blocks as a per-line strip and split
    does."""

    # At blocks of 1, 2 and 3, blank lines fall at block edges, and lines
    # 4-5 (and 6-7 at 2) make a block with no three-field line.
    LINES = [
        "\n", "a\tb\tc\n", "d\te\tf\r\n", " \t \t \r\n", "g\th\n", "i\tj\tk\tl\r\n",
        "m\n", "n\to\tp\tq\n", " x \t\t\n", "\t\t\r\n", "r\ts\tt\n", "\r\n",
    ]

    @pytest.mark.parametrize("block", [ingest._BLOCK, 1, 2, 3])
    @pytest.mark.parametrize("tail", [[], ["u\tv\tw"], None])
    def test_blocks_match_a_per_line_split(self, block, tail):
        if tail is None:  # a file with no three-field line
            lines = ["x\n", "\n", "a\tb\tc\td\r\n"]
        else:  # whole blocks, the fewest that hold LINES, and maybe one line without its end
            n = -(-len(self.LINES) // block) * block
            lines = (self.LINES * n)[:n] + tail
        it = iter(lines)
        with mock.patch.object(ingest, "_BLOCK", block):
            for n_read, kept, places, well, columns in _read_like_lines(lines, block):
                got = ingest._read_block(it, "\t", 3)
                assert got[0] == n_read and got[1] == kept and got[4] == columns
                assert got[2].tolist() == places and got[3].tolist() == well
            assert got[0] < block and next(it, None) is None


class TestBuildMachineWeeks:
    def test_seven_domain_boundary(self):
        parsed = _parse(_sessions_for(1, DOMAINS_7))
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert len(built.table) == 1
        assert built.table.domains(0) == DOMAINS_7

    def test_six_domains_dropped(self):
        parsed = _parse(_sessions_for(1, DOMAINS_7[:6]))
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert len(built.table) == 0
        assert built.report["machine_weeks_below_cutoff"] == 1

    def test_repeat_visits_counted_once(self):
        rows = _sessions_for(1, DOMAINS_7) + _sessions_for(1, ["d0.com"] * 5)
        parsed = _parse(rows)
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert built.table.domains(0) == DOMAINS_7

    def test_invalid_domains_filtered(self):
        rows = _sessions_for(1, DOMAINS_7 + ["not_a_tld.nosuchtld", "192.168.0.1"])
        parsed = _parse(rows)
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert built.table.domains(0) == DOMAINS_7
        assert built.report["rejected_domains"] == 2

    def test_week_binning(self):
        rows = _sessions_for(1, DOMAINS_7, date="20170101") + _sessions_for(
            1, DOMAINS_7, date="20170108"
        )
        parsed = _parse(rows)
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert sorted(built.table.week_indices.tolist()) == [0, 1]

    def test_pre_epoch_dates_out_of_range(self):
        parsed = _parse(_sessions_for(1, DOMAINS_7, date="20161225"))
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert len(built.table) == 0
        assert built.report["weeks_out_of_range"] == len(DOMAINS_7)

    def test_unknown_zip_keeps_row_with_sentinel(self):
        parsed = _parse(_sessions_for(1, DOMAINS_7, zip_code="00000"))
        built = build_machine_weeks(parsed.records, WeekConfig())
        table = built.table
        assert table.state_labels[table.state_idx[0]] == UNKNOWN_STATE

    def test_demographic_conflicts_first_seen_wins(self):
        rows = _sessions_for(1, DOMAINS_7[:4], race=1) + _sessions_for(1, DOMAINS_7[4:], race=2)
        parsed = _parse(rows)
        built = build_machine_weeks(parsed.records, WeekConfig())
        assert RACE_GROUPS[built.table.race_idx[0]] == "white"
        assert built.report["demographic_conflicts"] > 0

    def test_idempotence(self):
        # Re-expanding aggregated output to one session per domain and
        # re-aggregating reproduces the identical table.
        rows = []
        rows += _sessions_for(1, [f"a{i}.com" for i in range(9)], date="20170101")
        rows += _sessions_for(2, [f"b{i}.com" for i in range(8)], date="20170103",
                              zip_code="90210", race=4, income=4)
        rows += _sessions_for(2, [f"c{i}.com" for i in range(7)], date="20170110",
                              zip_code="90210", race=4, income=4)
        parsed = _parse(rows)
        built = build_machine_weeks(parsed.records, WeekConfig())

        re_expanded = []
        code_of_race = {"white": 1, "black": 2, "asian": 4, "other": 3}
        code_of_income = {"lt25k": 4, "25k_75k": 10, "75k_150k": 14, "ge150k": 16}
        table = built.table
        for i in range(len(table)):
            date = f"201701{1 + 7 * int(table.week_indices[i]):02d}"
            re_expanded += _sessions_for(
                int(table.machine_ids[i]), table.domains(i), date=date,
                zip_code=representative_zip(table.state_labels[table.state_idx[i]]),
                race=code_of_race[RACE_GROUPS[table.race_idx[i]]],
                income=code_of_income[INCOME_GROUPS[table.income_idx[i]]],
            )
        rebuilt = build_machine_weeks(_parse(re_expanded).records, WeekConfig())
        assert rebuilt.table.save_text() == built.table.save_text()


class TestWeekConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            # Unchecked, True keeps week 0 alone, 2.5 and 7.5 act as 3 and 8,
            # a cutoff of -3 or 0 as 1, and 0 weeks drop every line.
            ("n_weeks", True, "n_weeks must be an integer, got True"),
            ("n_weeks", 2.5, "n_weeks must be an integer, got 2.5"),
            ("min_domains", 7.5, "min_domains must be an integer, got 7.5"),
            ("min_domains", -3, "min_domains must be at least 1, got -3"),
            ("min_domains", 0, "min_domains must be at least 1, got 0"),
            ("n_weeks", 0, "n_weeks must be at least 1, got 0"),
        ],
        ids=["n_weeks=True", "n_weeks=2.5", "min_domains=7.5", "min_domains=-3",
             "min_domains=0", "n_weeks=0"],
    )
    def test_fields_take_positive_integers_only(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeekConfig(**{field: value})

    def test_numpy_integers_are_read_as_python_ints(self):
        cfg = WeekConfig(n_weeks=np.int16(3), min_domains=np.uint8(1))
        assert (cfg.n_weeks, cfg.min_domains) == (3, 1)
        assert type(cfg.n_weeks) is int and type(cfg.min_domains) is int
        assert WeekConfig().n_weeks is None

    # Unchecked, each of these constructs and build_machine_weeks then fails
    # on epoch.toordinal() with an AttributeError.
    @pytest.mark.parametrize("epoch", ["2017-01-01", 20170101, None])
    def test_epoch_must_be_a_date(self, epoch):
        message = f"epoch must be a datetime.date, got {epoch!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeekConfig(epoch=epoch)

    def test_a_datetime_epoch_counts_by_its_date(self):
        rows = _sessions_for(1, DOMAINS_7) + _sessions_for(1, DOMAINS_7, date="20170108")
        records = _parse(rows).records
        noon = WeekConfig(epoch=dt.datetime(2017, 1, 1, 12, 30))
        built = build_machine_weeks(records, noon).table
        assert built.week_indices.tolist() == [0, 1]
        assert built.save_text() == build_machine_weeks(records, WeekConfig()).table.save_text()


_OUT_OF_RANGE = "machine_id must fit in int64 and week_index in int32"
_NOT_INTEGERS = "machine_id and week_index must be integers"


class TestMachineWeekTable:
    def test_save_load_round_trip(self, tmp_path, small_table):
        path = tmp_path / "table.tsv"
        small_table.save(path)
        loaded = MachineWeekTable.load(path)
        assert loaded.save_text() == small_table.save_text()
        assert np.array_equal(loaded.machine_ids, small_table.machine_ids)
        hashes_a = small_table.hashes(50, 7)
        hashes_b = loaded.hashes(50, 7)
        assert np.array_equal(hashes_a, hashes_b)

    def test_rows_sorted_by_machine_then_week(self, small_table):
        keys = list(zip(small_table.machine_ids.tolist(), small_table.week_indices.tolist()))
        assert keys == sorted(keys)

    def test_constructor_rejects_rows_out_of_order(self):
        args = (["XX"], [0, 0], [0, 0], [0, 0], [0, 1], [0, 1, 2], ["a.com", "b.com"])
        MachineWeekTable([1, 1], [0, 1], *args)
        for machine_ids, weeks in (([2, 1], [0, 0]), ([1, 1], [1, 0]), ([1, 1], [0, 0])):
            with pytest.raises(ValueError, match="strictly ascending"):
                MachineWeekTable(machine_ids, weeks, *args)

    @pytest.mark.parametrize("index", [-1, 2, 2**32])
    def test_constructor_rejects_domain_indices_outside_the_vocabulary(self, index):
        args = ([1], [0], ["XX"], [0], [0], [0])
        MachineWeekTable(*args, [1, 0], [0, 2], ["a.com", "b.com"])
        with pytest.raises(ValueError, match=r"domain indices must lie in \[0, 2\)"):
            MachineWeekTable(*args, np.array([0, index]), [0, 2], ["a.com", "b.com"])

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1\t0\tAL\twhite\tlt25k\ta.com|b.com", "machine 1, week 0 appears twice"),
            ("2\t0\tAL\twhite\tlt25k", "expected 6 fields, got 5"),
            ("2\t0\tAL\twhite\tlt25k\ta.com\tx", "expected 6 fields, got 7"),
            ("x2\t0\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("2\t0.5\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("2\t0\tAL\tpurple\tlt25k\ta.com", "unknown race/income label"),
            ("2\t0\tAL\twhite\trich\ta.com", "unknown race/income label"),
            ("2\t0\tAL\twhite\tlt25k\ta.com|a.com", "a domain is listed twice"),
            (f"{2**64 + 1}\t0\tAL\twhite\tlt25k\ta.com", _OUT_OF_RANGE),
            (f"{2**63}\t0\tAL\twhite\tlt25k\ta.com", _OUT_OF_RANGE),
            (f"{-(2**63) - 1}\t0\tAL\twhite\tlt25k\ta.com", _OUT_OF_RANGE),
            ("2\t99999999999\tAL\twhite\tlt25k\ta.com", _OUT_OF_RANGE),
            (f"2\t{-(2**31) - 1}\tAL\twhite\tlt25k\ta.com", _OUT_OF_RANGE),
            ("1_000\t0\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("\u0661\u0660\u0660\u0660\t0\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("+2\t0\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("2\t 0\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("2\t\u0660\tAL\twhite\tlt25k\ta.com", _NOT_INTEGERS),
            ("2\t0\tAL\twhite\tlt25k\ta.com||b.com", "empty domain name"),
            ("2\t0\tAL\twhite\tlt25k\ta.com|", "empty domain name"),
            ("2\t0\tAL\twhite\tlt25k\t|a.com", "empty domain name"),
            ("2\t0\tAL\twhite\tlt25k\t|", "empty domain name"),
            ("2\t0\tAL\twhite\tlt25k\tb.com|a.com|b.com", "a domain is listed twice"),
        ],
        ids=[
            "duplicate", "short", "long", "machine", "week", "race", "income", "domain",
            "machine_2**64+1", "machine_2**63", "machine_below_int64", "week_above_int32",
            "week_below_int32", "machine_underscore", "machine_arabic_indic", "machine_plus",
            "week_padded", "week_arabic_indic", "empty_inner", "empty_last", "empty_first",
            "empty_both", "domain_unsorted",
        ],
    )
    def test_load_rejects_malformed_lines(self, tmp_path, line, message):
        path = tmp_path / "table.tsv"
        good = "1\t0\tAL\twhite\tlt25k\ta.com|c.com"
        path.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            f"{good}\n\n{line}\n"
        )
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:4: {message}")):
            MachineWeekTable.load(path)

    def test_load_keeps_int64_and_int32_extremes(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            f"{-(2**63)}\t{2**31 - 1}\tAL\twhite\tlt25k\ta.com\n"
            f"{2**63 - 1}\t{-(2**31)}\tAL\twhite\tlt25k\ta.com\n"
        )
        table = MachineWeekTable.load(path)
        assert table.machine_ids.tolist() == [-(2**63), 2**63 - 1]
        assert table.week_indices.tolist() == [2**31 - 1, -(2**31)]

    @pytest.mark.parametrize("n_states, fits", [(2**15 - 1, True), (2**15, False)])
    def test_load_rejects_states_beyond_int16(self, tmp_path, n_states, fits):
        # UNKNOWN_STATE takes index 0, so 32,767 more states fill int16.
        path = tmp_path / "table.tsv"
        path.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            + "".join(f"{i}\t0\tS{i}\twhite\tlt25k\t\n" for i in range(n_states))
        )
        if fits:
            table = MachineWeekTable.load(path)
            assert table.state_idx.max() == n_states
            assert table.state_labels[-1] == f"S{n_states - 1}"
        else:
            with pytest.raises(ValueError, match="int16 state indices hold at most 32768"):
                MachineWeekTable.load(path)

    def test_building_loading_and_saving_never_hash_a_domain(self, tmp_path, monkeypatch):
        def refuse(names):
            raise AssertionError(f"hashed {list(names)!r}")

        monkeypatch.setattr(ingest, "domain_hashes64", refuse)
        rows = _sessions_for(2, DOMAINS_7[::-1]) + _sessions_for(1, [f"a{i}.com" for i in range(8)])
        built = build_machine_weeks(_parse(rows).records, WeekConfig())
        path = tmp_path / "table.tsv"
        built.table.save(path)
        loaded = MachineWeekTable.load(path)
        assert loaded.save_text() == built.table.save_text() == path.read_text()
        assert [loaded.domains(i) for i in range(len(loaded))] == [
            [f"a{i}.com" for i in range(8)], DOMAINS_7,
        ]
        with pytest.raises(AssertionError, match="hashed"):
            loaded.hashes(50, 7)

    def test_vocabulary_hashes_leave_the_scalar_hash_cache_alone(self):
        rows = _sessions_for(1, [f"uncached{i}.com" for i in range(8)])
        table = build_machine_weeks(_parse(rows).records, WeekConfig()).table
        assert len(table.vocab) == 8
        before = hashing.domain_hash64.cache_info().currsize
        hashes = table.vocab_hashes
        assert hashing.domain_hash64.cache_info().currsize == before
        assert hashes.tolist() == [hashing.domain_hash64(d) for d in table.vocab]

    def test_empty_domains_field_is_a_row_without_domains(self, tmp_path):
        path = tmp_path / "table.tsv"
        path.write_text(
            "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
            "1\t0\tAL\twhite\tlt25k\t\n"
            "2\t0\tAL\twhite\tlt25k\ta.com\n"
        )
        table = MachineWeekTable.load(path)
        assert [table.domains(i) for i in range(len(table))] == [[], ["a.com"]]
        assert table.vocab == ["a.com"]


_TABLE_HEADER = "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains"
_ARRAYS = ("machine_ids", "week_indices", "race_idx", "income_idx", "state_idx", "dom_indices",
           "offsets", "vocab_hashes")

# Name characters: anything a UTF-8 table line can hold inside a field,
# including separators that str.splitlines would break on but a file
# read line by line does not.
_NAME_TEXT = st.text(
    st.characters(blacklist_characters="|\t\n\r", blacklist_categories=("Cs",)),
    min_size=1, max_size=5,
)
_SHARED_NAMES = ("a.com", "b.com", "c.org", "é.fr", "x\x1cy.net", "z .io", " ")
_NAME = st.one_of(st.sampled_from(_SHARED_NAMES), _NAME_TEXT)
_MACHINE = st.one_of(
    st.integers(-3, 3), st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1])
)
_WEEK = st.one_of(st.integers(-2, 5), st.sampled_from([-(2**31), 2**31 - 1]))
_STATE = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=3)
_BLANK = st.sampled_from(["", " ", "\t", " \t \t", "\t\t\t\t\t", " \t \t \t \t \t "])


def _write(lines):
    """A table file of ``lines`` after the header, in a new directory."""
    directory = tempfile.TemporaryDirectory()
    path = os.path.join(directory.name, "table.tsv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([_TABLE_HEADER, *lines]) + "\n")
    return directory, path


def _assert_same_table(table, oracle):
    for name in _ARRAYS:
        got, want = getattr(table, name), getattr(oracle, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert table.vocab == oracle.vocab
    assert table.state_labels == oracle.state_labels
    assert table.save_text() == oracle.save_text()


def _load_like_oracle(lines):
    """The runtime and the oracle table of a file of ``lines``, checked equal,
    or None when both reject the file with the same message."""
    directory, path = _write(lines)
    with directory:
        try:
            oracle = OracleTable.load(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                MachineWeekTable.load(path)
            assert str(got.value) == str(exc)
            return None
        table = MachineWeekTable.load(path)
    _assert_same_table(table, oracle)
    return table, oracle


@st.composite
def _valid_lines(draw):
    rows = draw(st.dictionaries(
        st.tuples(_MACHINE, _WEEK),
        st.tuples(_STATE, st.sampled_from(RACE_GROUPS), st.sampled_from(INCOME_GROUPS),
                  st.lists(_NAME, unique=True, max_size=6)),
        max_size=12,
    ))
    lines = [
        "\t".join([str(m), str(w), state, race, income, "|".join(names)])
        for (m, w), (state, race, income, names) in rows.items()
    ]
    lines += draw(st.lists(_BLANK, max_size=3))
    return draw(st.permutations(lines))


_BAD_INTEGERS = ("1_000", "+2", "x", "", "١", " 1", "0.5", "--1")
_CORRUPTIONS = (None,) * 6 + (
    "short", "long", "machine", "week", "machine_range", "week_range", "race", "income", "empty",
)


@st.composite
def _maybe_bad_line(draw):
    """A table line that may be malformed; keys and names collide often."""
    fields = [
        str(draw(st.sampled_from([1, 2, -3, 2**63 - 1, -(2**63)]))),
        str(draw(st.sampled_from([0, 1, 2**31 - 1]))),
        draw(st.sampled_from(["AL", "CA", "??"])),
        draw(st.sampled_from(RACE_GROUPS)),
        draw(st.sampled_from(INCOME_GROUPS)),
    ]
    names = draw(st.lists(st.sampled_from(_SHARED_NAMES + ("d.com", "e.com")), max_size=4))
    corruption = draw(st.sampled_from(_CORRUPTIONS))
    if corruption == "empty":
        names.insert(draw(st.integers(0, len(names))), "")
    elif corruption in ("machine", "week"):
        fields[corruption == "week"] = draw(st.sampled_from(_BAD_INTEGERS))
    elif corruption == "machine_range":
        fields[0] = str(draw(st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1])))
    elif corruption == "week_range":
        fields[1] = str(draw(st.sampled_from([2**31, -(2**31) - 1])))
    elif corruption in ("race", "income"):
        fields[3 if corruption == "race" else 4] = "purple"
    fields.append("|".join(names))
    if corruption == "short":
        fields.pop()
    elif corruption == "long":
        fields.append("x")
    return "\t".join(fields)


#: Lines ``load`` reads at once: the module's, or so few that repeated keys,
#: repeated names and the first offending line fall in different blocks.
_LOAD_BLOCK = st.sampled_from([ingest._BLOCK, 1, 2, 3])


class TestTableIOMatchesOracle:
    """``load``, the builder, the constructor, ``save_text`` and the hashes
    give what the per-line implementations in ``table_io_oracle`` give."""

    @settings(max_examples=300, deadline=None)
    @given(_valid_lines(), _LOAD_BLOCK)
    def test_valid_files(self, lines, block):
        with mock.patch.object(ingest, "_BLOCK", block):
            assert _load_like_oracle(lines) is not None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_maybe_bad_line(), _BLANK), min_size=1, max_size=10), _LOAD_BLOCK)
    def test_malformed_files(self, lines, block):
        with mock.patch.object(ingest, "_BLOCK", block):
            _load_like_oracle(lines)

    @pytest.mark.parametrize("block", [ingest._BLOCK, 1, 3])
    def test_the_first_repeated_key_is_on_the_earliest_line(self, block):
        # (2, 0) repeats on line 4 and (1, 0) on line 5, though (1, 0) sorts first.
        directory, path = _write([f"{m}\t0\tAL\twhite\tlt25k\ta.com" for m in (2, 1, 2, 1)])
        message = "^" + re.escape(f"{path}:4: machine 2, week 0 appears twice") + "$"
        with directory, mock.patch.object(ingest, "_BLOCK", block):
            for table_type in (MachineWeekTable, OracleTable):
                with pytest.raises(ValueError, match=message):
                    table_type.load(path)

    def test_shuffled_crlf_file_across_blocks_loads_like_the_sorted_file(self, tmp_path):
        rng = random.Random(26)
        lines = [
            f"{m}\t{w}\t{rng.choice(['AL', 'CA', 'NY'])}\t{rng.choice(RACE_GROUPS)}\t"
            f"{rng.choice(INCOME_GROUPS)}\t" + "|".join(sorted(rng.sample(_SHARED_NAMES, 3)))
            for m in range(-4, 6) for w in range(3)
        ]
        sorted_path, shuffled_path = tmp_path / "sorted.tsv", tmp_path / "shuffled.tsv"
        sorted_path.write_text("\n".join([_TABLE_HEADER, *lines]) + "\n", encoding="utf-8")
        rng.shuffle(lines)
        for at in (3, 9, 9, 17, 25):
            lines.insert(at, rng.choice(["", " ", "\t", " \t \t"]))
        shuffled_path.write_bytes(("\r\n".join([_TABLE_HEADER, *lines]) + "\r\n").encode())
        want = MachineWeekTable.load(sorted_path)
        for block in (1, 2, 4, 7):
            with mock.patch.object(ingest, "_BLOCK", block):
                table = MachineWeekTable.load(shuffled_path)
            _assert_same_table(table, want)
        assert want.save_text() == sorted_path.read_text()

    def test_hash_collisions_sort_like_the_oracle(self, monkeypatch):
        alias = {"b.com": "a.com", "d.com": "a.com", "e.com": "c.com"}
        real = hashing.domain_hash64

        def colliding(name):
            return real(alias.get(name, name))

        monkeypatch.setattr(
            ingest, "domain_hashes64", lambda names: np.array(list(map(colliding, names)), np.uint64)
        )
        monkeypatch.setattr("table_io_oracle.domain_hash64", colliding)
        palette = ["a.com", "b.com", "c.com", "d.com", "e.com", "f.com", "g.com"]
        rng = random.Random(4)
        collided = 0
        for _ in range(40):
            lines = [
                f"{m}\t{w}\tAL\twhite\tlt25k\t" + "|".join(rng.sample(palette, rng.randint(0, 7)))
                for m in range(1, 4) for w in range(rng.randint(1, 3))
            ]
            rng.shuffle(lines)
            table, oracle = _load_like_oracle(lines)
            collided += len(np.unique(table.vocab_hashes)) < len(table.vocab)
            for bits, seed in ((50, 7), (64, 0)):
                assert np.array_equal(table.hashes(bits, seed), oracle.hashes(bits, seed))
        assert collided > 30


# ---------------------------------------------------------------------------
# One table whatever path builds it.

#: Registrable names whose first-seen order is rarely name order;
#: "site100000.com" sorts before "site10001.com".
_CANONICAL_NAMES = (
    "site10001.com", "site100000.com", "b.com", "a.org", "aa.com", "a.com", "a-b.com",
    "z.net", "x.co.uk",
)


@st.composite
def _canonical_rows(draw):
    """``{(machine, week): (state, race, income, names)}``, demographics per machine."""
    machines = draw(st.lists(st.integers(-3, 2**40), unique=True, min_size=1, max_size=4))
    demographics = {
        m: (draw(st.sampled_from(("AL", "CA", "NY"))), draw(st.sampled_from(RACE_GROUPS)),
            draw(st.sampled_from(INCOME_GROUPS)))
        for m in machines
    }
    keys = draw(st.lists(st.tuples(st.sampled_from(machines), st.integers(0, 3)),
                         unique=True, min_size=1, max_size=8))
    return {
        key: (*demographics[key[0]],
              draw(st.lists(st.sampled_from(_CANONICAL_NAMES), unique=True, min_size=1)))
        for key in keys
    }


def _assert_canonical(table):
    assert table.vocab == sorted(set(table.vocab))
    for lo, hi in zip(table.offsets[:-1], table.offsets[1:]):
        assert np.all(np.diff(table.dom_indices[lo:hi]) > 0)


class TestCanonicalTable:
    """The builder, ``load`` and the constructor order domains one way."""

    @settings(max_examples=150, deadline=None)
    @given(rows=_canonical_rows(), data=st.data())
    def test_every_path_gives_the_same_arrays(self, rows, data):
        keys = sorted(rows)
        session_lines = [
            _row(machine=m, domain=name,
                 date=(WeekConfig().epoch + dt.timedelta(weeks=w)).strftime("%Y%m%d"),
                 income=_INCOME_TO_CODE[income], race=_RACE_TO_CODE[race],
                 zip_code=representative_zip(state))
            for (m, w), (state, race, income, names) in rows.items() for name in names
        ]
        built = build_machine_weeks(
            _parse(data.draw(st.permutations(session_lines))).records, WeekConfig(min_domains=1)
        ).table

        table_lines = [
            "\t".join([str(m), str(w), state, race, income,
                       "|".join(data.draw(st.permutations(names)))])
            for (m, w), (state, race, income, names) in rows.items()
        ]
        directory, path = _write(data.draw(st.permutations(table_lines)))
        with directory:
            loaded = MachineWeekTable.load(path)

        names = sorted({name for *_, row_names in rows.values() for name in row_names})
        vocab = data.draw(st.permutations(names))
        index = {name: i for i, name in enumerate(vocab)}
        states = list(dict.fromkeys([UNKNOWN_STATE] + [rows[key][0] for key in keys]))
        constructed = MachineWeekTable(
            [m for m, _ in keys],
            [w for _, w in keys],
            states,
            [RACE_GROUPS.index(rows[key][1]) for key in keys],
            [INCOME_GROUPS.index(rows[key][2]) for key in keys],
            [states.index(rows[key][0]) for key in keys],
            [index[name] for key in keys for name in data.draw(st.permutations(rows[key][3]))],
            np.cumsum([0] + [len(rows[key][3]) for key in keys]),
            vocab,
        )
        for table in (built, loaded, constructed):
            _assert_canonical(table)
        _assert_same_table(loaded, built)
        _assert_same_table(constructed, built)

    def test_synth_table_keeps_only_the_names_its_rows_use(self, tmp_path):
        cfg = SynthConfig(n_machines=500, seed=0)
        table = generate_population(cfg).table
        path = str(tmp_path / "table.tsv")
        table.save(path)
        loaded = MachineWeekTable.load(path)
        _assert_canonical(table)
        assert len(np.unique(table.dom_indices)) == len(table.vocab) < cfg.vocab_size
        assert table.vocab == loaded.vocab
        for name in ("dom_indices", "offsets", "vocab_hashes"):
            assert np.array_equal(getattr(table, name), getattr(loaded, name)), name
        assert loaded.save_text() == table.save_text()


# ---------------------------------------------------------------------------
# Columnar parse and build against the per-line ones in ``ingest_oracle``.

_EPOCH = WeekConfig().epoch
#: Dates one week before the epoch to five weeks after it.
_DATES = [_EPOCH + dt.timedelta(days=d) for d in (-7, -1, 0, 3, 7, 13, 14, 20, 40)]
_DATE_FORMATS = ("%Y%m%d", "%d/%m/%Y", "%Y-%m-%d")
_BAD_DATES = ("2017051", "20170230", "", "1/1/2017", "2017-13-01", "x")
_MACHINES = ("1", "2", "3", "-4", "0007", "-0", str(2**63 - 1), str(-(2**63)))
_BAD_SESSION_INTEGERS = (
    "\u0661\u0660\u0660\u0660", "1_000", "+1", " 1", "1 ", "", "-", "0x10", "1e3", "--1",
    "1\n2",
)
_OUTSIDE_INT64 = (str(2**63), str(-(2**63) - 1), str(2**64 + 1))
_COUNTS = ("0", "1", "12", "-0", "-00", "007", str(2**63))
_NEGATIVE_COUNTS = ("-1", "-007", "-" + str(2**63))
_HOSTS = (
    "a.example.com", "www.example.com", "m.a.b.example.com", " b.example.org ", "EXAMPLE.NET.",
    "example.co.uk", "x.y.example.co.uk", "co.uk", "com", "192.168.0.1", "x.nosuchtld",
    "foo.custom.test", "custom.test", "a.b.c.deep.test", "\u98df\u72ee.com.cn", "ex_ample.com",
    "exa mple.com", "example.com:8080",
)
_EMPTY_HOSTS = ("", "  ")
_ZIPS = ("36832", "90210", " 10001", "00000", "", "abc")
#: Suffix rules for the hosts above, used in place of the bundled list.
_CUSTOM_PSL = SuffixSet.from_text("com\norg\ncustom.test\n*.deep.test\n!b.c.deep.test\nco.uk\n")


@st.composite
def _format(draw):
    """A FormatConfig with its header line: delimiter, column names and
    order, an unused column, date format and code maps all vary."""
    delimiter = draw(st.sampled_from(["\t", ",", "|", ";", "\u00a6"]))
    renamed = draw(st.sets(st.sampled_from(ingest._FIELDS), max_size=3))
    columns = {f: (f"col_{f}" if f in renamed else f) for f in ingest._FIELDS}
    header = list(columns.values()) + draw(st.sampled_from([[], ["unused"]]))
    header = draw(st.permutations(header))
    codes = {}
    if draw(st.booleans()):
        codes = {
            "race_code_map": {"1": "white", "2": "black", "x": "asian", " 3": "other"},
            "income_code_map": {"1": "lt25k", "2": "25k_75k", "3": "75k_150k", "y": "ge150k"},
        }
    fmt = FormatConfig(
        delimiter=delimiter, date_format=draw(st.sampled_from(_DATE_FORMATS)),
        columns=columns, **codes,
    )
    return fmt, header


@st.composite
def _line(draw, fmt, header):
    """A session line that may fail any number of checks at once, a blank
    or whitespace-only line, or a line of spaces in the header's field
    count (whitespace-only when the delimiter is a tab)."""
    if draw(st.integers(0, 9)) == 0:
        spaces = fmt.delimiter.join([" "] * len(header))
        return draw(st.sampled_from(["", " ", "\t", " \t ", "\r", spaces]))
    bad = draw(st.sets(st.sampled_from(
        ["count", "machine", "range", "session", "pages", "duration", "negative", "domain",
         "date", "income", "race"]
    ), max_size=2)) if draw(st.integers(0, 2)) == 0 else set()

    def pick(pool, flaw, flawed):
        return draw(st.sampled_from(flawed if flaw in bad else pool))

    machines = _OUTSIDE_INT64 if "range" in bad else _MACHINES
    race_codes = sorted(fmt.race_code_map) + [" " + min(fmt.race_code_map)]
    income_codes = sorted(fmt.income_code_map) + [min(fmt.income_code_map) + " "]
    date = draw(st.sampled_from(_DATES)).strftime(fmt.date_format)
    values = {
        "machine_id": pick(machines, "machine", _BAD_SESSION_INTEGERS),
        "session_id": pick(("1", "2", "-3", "-0", "99"), "session", _BAD_SESSION_INTEGERS),
        "domain": pick(_HOSTS, "domain", _EMPTY_HOSTS),
        "date": date if "date" not in bad else draw(st.sampled_from(_BAD_DATES)),
        "time": draw(st.sampled_from(["10:00:00", "", " x "])),
        "pages": pick(_COUNTS, "pages", _BAD_SESSION_INTEGERS),
        "duration": pick(_COUNTS, "duration", _BAD_SESSION_INTEGERS),
        "income": pick(income_codes, "income", ("99", "", "z")),
        "race": pick(race_codes, "race", ("99", "", "z")),
        "zip": draw(st.sampled_from(_ZIPS)),
    }
    if "negative" in bad:
        values[draw(st.sampled_from(["pages", "duration"]))] = draw(
            st.sampled_from(_NEGATIVE_COUNTS)
        )
    by_name = {fmt.columns[f]: v for f, v in values.items()}
    fields = [by_name.get(name, "u") for name in header]
    if "count" in bad:
        fields = fields[:-1] if draw(st.booleans()) else fields + ["extra"]
    return fmt.delimiter.join(fields)


@st.composite
def _session_log(draw):
    """(source, fmt): a header and up to 30 lines, as a StringIO or as a
    list of lines, with or without a final newline, and "\n" or CRLF line
    ends."""
    fmt, header = draw(_format())
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [fmt.delimiter.join(header)]
    lines += draw(st.lists(_line(fmt, header), max_size=30))
    final = draw(st.sampled_from(["", end]))
    if draw(st.booleans()):
        return io.StringIO(end.join(lines) + final), fmt
    return [line + end for line in lines[:-1]] + [lines[-1] + final], fmt


def _spy(calls, resolve):
    """``resolve``, recording its first argument in ``calls`` at each call."""

    def spy(hosts, *args, **kwargs):
        calls.append(hosts)
        return resolve(hosts, *args, **kwargs)

    return spy


def _assert_like_oracle(source, fmt, week_cfg, suffixes, implicit_star):
    """Parse and build ``source`` with the runtime and the oracle and
    require the same rejects, records, report, table and PSL calls."""
    copy = (lambda: io.StringIO(source.getvalue())) if isinstance(source, io.StringIO) else (
        lambda: iter(source)
    )
    got = parse_sessions(copy(), fmt)
    want = ingest_oracle.parse_sessions(copy(), fmt)
    # Dict order shows which reason was met first: rejects in line order.
    assert list(got.rejects.counts.items()) == list(want.rejects.counts.items())
    assert list(got.rejects.samples.items()) == list(want.rejects.samples.items())
    assert got.rejects.to_json_dict() == want.rejects.to_json_dict()
    records = got.records
    assert len(records) == len(want.records)
    assert records.machine_ids.tolist() == [r.machine_id for r in want.records]
    assert records.hosts == [r.domain for r in want.records]
    assert records.days.tolist() == [r.date.toordinal() for r in want.records]
    assert [RACE_GROUPS[i] for i in records.race_idx] == [r.race_group for r in want.records]
    assert [INCOME_GROUPS[i] for i in records.income_idx] == [
        r.income_group for r in want.records
    ]
    assert records.zip_codes == [r.zip_code for r in want.records]

    got_calls, want_calls = [], []
    with mock.patch.object(ingest, "registrable_domains", _spy(got_calls, registrable_domains)), \
            mock.patch.object(ingest_oracle, "registrable_domain",
                              _spy(want_calls, registrable_domain)):
        built = build_machine_weeks(records, week_cfg, suffixes, implicit_star=implicit_star)
        oracle = ingest_oracle.build_machine_weeks(
            want.records, week_cfg, suffixes, implicit_star=implicit_star
        )
    # One batch holding each in-range host once, in first-seen order.
    assert [list(hosts) for hosts in got_calls] == [want_calls]
    assert built.report == oracle.report
    _assert_same_table(built.table, oracle.table)
    return got, built


class TestIngestMatchesOracle:
    """``parse_sessions`` and ``build_machine_weeks`` give what the per-line
    implementations in ``ingest_oracle`` give, across block boundaries."""

    @settings(max_examples=400, deadline=None)
    @given(
        log=_session_log(),
        block=st.sampled_from([1, 3, 8192]),
        n_weeks=st.sampled_from([None, 1, 2, 6]),
        min_domains=st.integers(1, 4),
        psl=st.sampled_from([None, _CUSTOM_PSL]),
        implicit_star=st.booleans(),
    )
    def test_random_logs(self, log, block, n_weeks, min_domains, psl, implicit_star):
        source, fmt = log
        with mock.patch.object(ingest, "_BLOCK", block):
            _assert_like_oracle(
                source, fmt, WeekConfig(n_weeks=n_weeks, min_domains=min_domains), psl,
                implicit_star,
            )

    def test_every_reject_reason_around_block_boundaries(self):
        fmt = FormatConfig(delimiter=",", date_format="%d/%m/%Y")
        rows = [
            "1,1,a.example.com,01/01/2017,t,1,5,14,1,36832",
            "1,2,b.example.com,02/01/2017,t,-0,0,14,2,36832\r",  # conflict with line 1
            "1,2,b.example.com,02/01/2017,t,1,5",  # field_count
            "\u0661\u0660\u0660\u0660,1,a.example.com,01/01/2017,t,1,5,14,1,36832",
            f"{2**63},1,a.example.com,01/01/2017,t,1,5,14,1,36832",
            f"{-(2**63)},1,a.example.com,01/01/2017,t,1,5,14,1,36832",
            "2,1,a.example.com,01/01/2017,t,-1,5,14,1,36832",  # negative_count
            "2,1, ,01/01/2017,t,1,5,14,1,36832",  # empty_domain
            "",
            "2,1,a.example.com,1/1/2017,t,1,5,14,1,36832",  # bad_date
            "2,1,a.example.com,01/01/2017,t,1,5,99,1,36832",  # bad_income_code
            "2,1,a.example.com,01/01/2017,t,1,5,14,99,36832",  # bad_race_code
            "x,1,,x,t,-1,5,99,99,36832",  # fails five checks: bad_integer_field
            "1,3,c.example.com,09/01/2017,t,1,5,14,1,36832",  # week 1
            "1,3,d.example.com,09/01/2017,t,1,5,14,1,36832",
            "3,1,com,01/01/2017,t,1,5,14,1,36832",  # PSL rejects a bare suffix
            "3,1,out.example.com,25/12/2016,t,1,5,14,1,36832",  # before the epoch
        ]
        header = ",".join(ingest._FIELDS)
        text = "\n".join([header, *rows])  # no final newline
        for block in (1, 2, 3, 4, 8192):
            with mock.patch.object(ingest, "_BLOCK", block):
                got, built = _assert_like_oracle(
                    io.StringIO(text), fmt, WeekConfig(n_weeks=1, min_domains=1), None, False
                )
        assert got.rejects.counts == {
            "field_count": 1, "bad_integer_field": 3, "negative_count": 1, "empty_domain": 1,
            "bad_date": 1, "bad_income_code": 1, "bad_race_code": 1,
        }
        assert built.report == {
            "n_records": 7, "n_machines": 3, "n_machine_weeks": 2, "rejected_domains": 1,
            "weeks_out_of_range": 3, "machine_weeks_below_cutoff": 0, "demographic_conflicts": 1,
        }


class TestDelimiter:
    @pytest.mark.parametrize("delimiter", ["", "::", "\n", "\r", "\r\n"])
    def test_rejected(self, delimiter):
        with pytest.raises(ValueError, match="delimiter must be one character"):
            FormatConfig(delimiter=delimiter)

    def test_comma_parses(self):
        fmt = FormatConfig(delimiter=",")
        rows = [_row(), _row(machine=2, domain="b.example.com")]
        text = "\n".join([HEADER, *rows]).replace("\t", ",") + "\n"
        result = parse_sessions(io.StringIO(text), fmt)
        assert result.records.machine_ids.tolist() == [1, 2]
        assert result.records.hosts == ["example.com", "b.example.com"]
        assert result.rejects.total == 0


class TestRepresentativeness:
    def test_identical_histograms(self):
        obs = {"a": 10, "b": 20, "c": 30, "d": 40}
        r, p = representativeness(obs, obs)
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_exact_reversal(self):
        obs = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        ref = {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1}
        r, _ = representativeness(obs, ref)
        assert r == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance(self):
        obs = {"a": 1, "b": 2, "c": 3, "d": 4}
        ref = {"a": 2.0, "b": 1.0, "c": 4.0, "d": 3.0}
        r1, p1 = representativeness(obs, ref)
        r2, p2 = representativeness({k: 100 * v for k, v in obs.items()}, ref)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_frozen_spreadsheet_case(self):
        obs = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        ref = {"a": 0.2, "b": 0.1, "c": 0.4, "d": 0.3}
        r, p = representativeness(obs, ref)
        assert r == pytest.approx(0.6, abs=1e-12)
        assert p == pytest.approx(0.4, abs=1e-10)

    def test_category_mismatch_errors(self):
        with pytest.raises(ValueError):
            representativeness({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "x": 3})

    def test_too_few_categories_errors(self):
        with pytest.raises(ValueError):
            representativeness({"a": 1, "b": 2}, {"a": 1, "b": 2})

    def test_zero_variance_errors(self):
        with pytest.raises(ValueError):
            representativeness({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 2, "c": 3})
