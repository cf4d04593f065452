"""The per-line session parse and machine-week build that the columnar ones replaced.

``parse_sessions`` turns each accepted line into a ``SessionRecord`` tuple,
checking one line at a time, and ``build_machine_weeks`` walks those
records one at a time into per-(machine, week) domain sets, and hands the
table's constructor indices it interns itself. Tests compare the runtime's
``rejects``, ``report`` and whole table with these.
"""

from __future__ import annotations

import datetime as dt
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence, TextIO

from flocpriv.geo import UNKNOWN_STATE, state_for_zip
from flocpriv.ingest import (
    _FIELDS,
    _INCOME_CODES,
    _INT64_MAX,
    _INT64_MIN,
    _RACE_CODES,
    BuildResult,
    FormatConfig,
    MachineWeekTable,
    RejectReport,
    SchemaError,
    WeekConfig,
    _is_integer,
    _parse_date,
)
from flocpriv.psl import SuffixSet, registrable_domain


class SessionRecord(NamedTuple):
    """One validated session line, as a plain tuple in field order."""

    machine_id: int
    session_id: int
    domain: str
    date: dt.date
    time: str
    pages: int
    duration: int
    income_group: str
    race_group: str
    zip_code: str


class ParseResult(NamedTuple):
    records: list[SessionRecord]
    rejects: RejectReport


def parse_sessions(source: Iterable[str] | TextIO, fmt: FormatConfig | None = None) -> ParseResult:
    fmt = fmt or FormatConfig()
    records: list[SessionRecord] = []
    rejects = RejectReport()
    lines = iter(source)
    header_line = next(lines, None)
    if header_line is None:
        raise SchemaError("empty stream: no header row")
    header = header_line.rstrip("\r\n").split(fmt.delimiter)
    positions: list[int] = []
    for logical in _FIELDS:
        name = fmt.columns.get(logical, logical)
        if name not in header:
            raise SchemaError(f"required column {name!r} ({logical}) missing from header")
        positions.append(header.index(name))
    pick = itemgetter(*positions)
    n_columns = len(header)
    dates: dict[str, dt.date | None] = {}
    for line in map(str.rstrip, lines, repeat("\r\n")):
        if not line.strip():
            continue
        parts = line.split(fmt.delimiter)
        if len(parts) != n_columns:
            rejects.add("field_count", line)
            continue
        mid, sid, domain, date_s, time_s, pages_s, dur_s, inc_s, race_s, zip_s = pick(parts)
        if not (
            _is_integer(mid) and _is_integer(sid) and _is_integer(pages_s) and _is_integer(dur_s)
        ):
            rejects.add("bad_integer_field", line)
            continue
        machine_id = int(mid)
        if not _INT64_MIN <= machine_id <= _INT64_MAX:
            rejects.add("bad_integer_field", line)
            continue
        pages = int(pages_s)
        duration = int(dur_s)
        if pages < 0 or duration < 0:
            rejects.add("negative_count", line)
            continue
        domain = domain.strip()
        if not domain:
            rejects.add("empty_domain", line)
            continue
        try:
            date = dates[date_s]
        except KeyError:
            date = dates[date_s] = _parse_date(date_s, fmt.date_format)
        if date is None:
            rejects.add("bad_date", line)
            continue
        income = fmt.income_code_map.get(inc_s.strip())
        if income is None:
            rejects.add("bad_income_code", line)
            continue
        race = fmt.race_code_map.get(race_s.strip())
        if race is None:
            rejects.add("bad_race_code", line)
            continue
        records.append(
            SessionRecord(
                machine_id, int(sid), domain, date, time_s.strip(), pages, duration,
                income, race, zip_s.strip(),
            )
        )
    return ParseResult(records, rejects)


def build_machine_weeks(
    records: Sequence[SessionRecord],
    week_config: WeekConfig | None = None,
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> BuildResult:
    cfg = week_config or WeekConfig()
    domain_cache: dict[str, str | None] = {}
    week_cache: dict[dt.date, int | None] = {}  # None: outside the week range
    machine_demo: dict[int, tuple[str, str, str]] = {}
    conflicts = 0
    bad_domains = 0
    out_of_range = 0
    weeks: dict[tuple[int, int], set[str]] = {}

    for machine_id, _, host, date, _, _, _, income, race, zip_code in records:
        demo = (race, income, zip_code)
        seen = machine_demo.setdefault(machine_id, demo)
        if seen != demo:
            conflicts += 1
        try:
            week = week_cache[date]
        except KeyError:
            week = (date - cfg.epoch).days // 7
            if week < 0 or (cfg.n_weeks is not None and week >= cfg.n_weeks):
                week = None
            week_cache[date] = week
        if week is None:
            out_of_range += 1
            continue
        try:
            rd = domain_cache[host]
        except KeyError:
            rd = domain_cache[host] = registrable_domain(
                host, suffixes, implicit_star=implicit_star
            )
        if rd is None:
            bad_domains += 1
            continue
        weeks.setdefault((machine_id, week), set()).add(rd)

    keys = sorted(key for key, domains in weeks.items() if len(domains) >= cfg.min_domains)
    demographics = [machine_demo[machine_id] for machine_id, _ in keys]
    states = [state_for_zip(zip_code) for _, _, zip_code in demographics]
    labels = list(dict.fromkeys([UNKNOWN_STATE, *states]))  # row order after UNKNOWN_STATE
    row_domains = [sorted(weeks[key]) for key in keys]
    vocab = sorted(set(chain.from_iterable(row_domains)))
    position = {name: i for i, name in enumerate(vocab)}
    table = MachineWeekTable(
        [machine_id for machine_id, _ in keys],
        [week for _, week in keys],
        labels,
        [_RACE_CODES[race] for race, _, _ in demographics],
        [_INCOME_CODES[income] for _, income, _ in demographics],
        list(map(labels.index, states)),
        [position[name] for name in chain.from_iterable(row_domains)],
        [0, *accumulate(map(len, row_domains))],
        vocab,
    )
    report = {
        "n_records": len(records),
        "n_machines": len(machine_demo),
        "n_machine_weeks": len(table),
        "rejected_domains": bad_domains,
        "weeks_out_of_range": out_of_range,
        "machine_weeks_below_cutoff": len(weeks) - len(keys),
        "demographic_conflicts": conflicts,
    }
    return BuildResult(table, report)
