"""Session-log parsing and weekly per-machine domain profiles.

The pipeline is: raw session rows -> ``SessionColumns``, the accepted
lines as columns -> one row per (machine, epoch week) of
``MachineWeekTable`` holding the registrable domains visited, the
machine's state (from its ZIP) and its demographic groups. Profiles with
fewer distinct domains than the cutoff are dropped. The table's columnar
CSR arrays are the only representation of machine-weeks;
``build_machine_weeks`` and ``MachineWeekTable.load`` fill them through
one builder, which takes per-row columns.

``parse_sessions`` reads the log in blocks of lines. Only the blank-line
filter and the field count look at each line on its own; a block's
well-formed lines are split into columns at once and every check runs
over a whole column. ``build_machine_weeks`` keys rows with array
operations on integer codes. Work that depends only on a value is done
once per distinct value: each date string is parsed and checked once per
``parse_sessions`` call, and each hostname's registrable domain found
once per ``build_machine_weeks`` call. Integer fields are ASCII digits
with an optional leading "-"; any other spelling is rejected, not
converted.

Table text is handled per line only where a line has its own fields:
``load`` splits and checks each line, then treats the domains of all
lines in bulk (one join and split, a sort of each row's names, one
vectorised comparison of neighbours that finds a domain named twice, one
interning pass), and ``save_text`` sorts every row's domain names in one
array sort and joins each row once.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from . import kernels, special
from .geo import UNKNOWN_STATE, state_for_zip
from .hashing import domain_hash64, seed_key
from .psl import SuffixSet, registrable_domain

RACE_GROUPS: tuple[str, ...] = ("white", "black", "asian", "other")
INCOME_GROUPS: tuple[str, ...] = ("lt25k", "25k_75k", "75k_150k", "ge150k")
_RACE_CODES = {group: code for code, group in enumerate(RACE_GROUPS)}
_INCOME_CODES = {group: code for code, group in enumerate(INCOME_GROUPS)}

#: Distinct registrable domains a machine-week must reach to be kept.
MIN_WEEKLY_DOMAINS = 7

# Machine IDs are stored as int64, week indices as int32 and state
# indices as int16.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1
_INT16_MAX = 2**15 - 1

# Integer fields of outside input: ASCII digits with an optional leading
# "-". ``int`` alone also takes "1_000", "+1", padding and non-ASCII digits
# such as "١٠٠٠", which would silently merge distinct machine IDs.
_is_integer = re.compile(r"-?[0-9]+").fullmatch


def _default_race_codes() -> dict[str, str]:
    codes = {"1": "white", "2": "black", "4": "asian"}
    for c in range(1, 27):
        codes.setdefault(str(c), "other")
    return codes


def _default_income_codes() -> dict[str, str]:
    bands = [(7, "lt25k"), (13, "25k_75k"), (15, "75k_150k"), (16, "ge150k")]
    codes: dict[str, str] = {}
    for c in range(1, 17):
        codes[str(c)] = next(band for upper, band in bands if c <= upper)
    return codes


class SchemaError(ValueError):
    """A required column is missing from the session-file header."""


_FIELDS = (
    "machine_id",
    "session_id",
    "domain",
    "date",
    "time",
    "pages",
    "duration",
    "income",
    "race",
    "zip",
)


@dataclass(frozen=True)
class FormatConfig:
    """Shape of the raw session log.

    The file carries a header row; ``columns`` maps each logical field to
    its header name (identity by default). Demographic code maps
    translate survey-style numeric codes into the four canonical groups.
    The delimiter is one character other than a line break, so that
    splitting lines joined by it splits each line as splitting it alone
    would; anything else raises ``ValueError``.
    """

    delimiter: str = "\t"
    date_format: str = "%Y%m%d"
    columns: Mapping[str, str] = field(default_factory=lambda: {f: f for f in _FIELDS})
    race_code_map: Mapping[str, str] = field(default_factory=_default_race_codes)
    income_code_map: Mapping[str, str] = field(default_factory=_default_income_codes)

    def __post_init__(self) -> None:
        if len(self.delimiter) != 1 or self.delimiter in "\n\r":
            raise ValueError(
                f"delimiter must be one character other than a line break, "
                f"got {self.delimiter!r}"
            )
        for name, codes, groups in (
            ("race_code_map", self.race_code_map, RACE_GROUPS),
            ("income_code_map", self.income_code_map, INCOME_GROUPS),
        ):
            for code, group in codes.items():
                if group not in groups:
                    raise ValueError(
                        f"{name} maps code {code!r} to {group!r}, "
                        f"which is not one of {', '.join(groups)}"
                    )


@dataclass
class RejectReport:
    """Counts of dropped rows by reason, with a few sample lines each."""

    counts: dict[str, int] = field(default_factory=dict)
    samples: dict[str, list[str]] = field(default_factory=dict)

    def add(self, reason: str, line: str) -> None:
        self.counts[reason] = self.counts.get(reason, 0) + 1
        bucket = self.samples.setdefault(reason, [])
        if len(bucket) < 5:
            bucket.append(line.rstrip("\n")[:200])

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "samples": {k: v for k, v in sorted(self.samples.items())},
        }


@dataclass(frozen=True, eq=False)
class SessionColumns:
    """Accepted session lines as columns, one entry per line in file order.

    Only what ``build_machine_weeks`` reads is kept; session IDs, times,
    page counts and durations are checked by ``parse_sessions`` but not
    stored.
    """

    machine_ids: np.ndarray  # int64
    hosts: list[str]  # the domain field, stripped
    days: np.ndarray  # int64 proleptic Gregorian ordinal of the date
    race_idx: np.ndarray  # int8 index into RACE_GROUPS
    income_idx: np.ndarray  # int8 index into INCOME_GROUPS
    zip_codes: list[str]  # stripped

    def __len__(self) -> int:
        return len(self.machine_ids)


@dataclass
class ParseResult:
    records: SessionColumns
    rejects: RejectReport


def _parse_date(text: str, date_format: str) -> dt.date | None:
    """The date ``text`` names in ``date_format``, or None if it is invalid."""
    try:
        date = dt.datetime.strptime(text, date_format).date()
    except ValueError:
        return None
    # strptime tolerates short month/day fields ("2017051"); require the
    # canonical rendering so truncated dates are rejected, not guessed at.
    return date if date.strftime(date_format) == text else None


#: Lines parsed together. A block's split fields are held at once, so
#: splitting a whole file in one piece would raise peak memory by several
#: times the file's size.
_BLOCK = 8192

#: Reject reasons in the order a line is checked; a line counts under the
#: first check it fails.
_REASONS = (
    "field_count",
    "bad_integer_field",
    "negative_count",
    "empty_domain",
    "bad_date",
    "bad_income_code",
    "bad_race_code",
)

# A column of integers joined by "\n". A value holding "\n" itself (only a
# list-of-lines source can supply one) is caught by counting the "\n"s.
_is_integer_column = re.compile(r"-?[0-9]+(?:\n-?[0-9]+)*").fullmatch
# On an integer, a match means it is below zero ("-0" is not).
_is_negative = re.compile(r"-0*[1-9]").match
# ASCII digits with an optional "-" in at most 18 characters fit in int64.
_INT64_SAFE_CHARS = 18


def _where(column: list[str], test: Callable[[str], object]) -> np.ndarray:
    """Which values of ``column`` pass ``test``, called once per distinct value."""
    verdict = {value: bool(test(value)) for value in dict.fromkeys(column)}
    return np.fromiter(map(verdict.__getitem__, column), dtype=bool, count=len(column))


def _not_integers(column: list[str]) -> np.ndarray:
    """Which values of ``column`` are not integers; one regex when none."""
    joined = "\n".join(column)
    if _is_integer_column(joined) and joined.count("\n") == len(column) - 1:
        return np.zeros(len(column), dtype=bool)
    return ~_where(column, _is_integer)


def _negatives(column: list[str]) -> np.ndarray:
    """Which integer values of ``column`` are below zero."""
    if "-" not in "".join(column):
        return np.zeros(len(column), dtype=bool)
    return _where(column, _is_negative)


def _outside_int64(column: list[str]) -> np.ndarray:
    """Which integer values of ``column`` do not fit in int64."""
    if max(map(len, column)) <= _INT64_SAFE_CHARS:
        return np.zeros(len(column), dtype=bool)
    return _where(
        column, lambda v: _is_integer(v) and not _INT64_MIN <= int(v) <= _INT64_MAX
    )


def parse_sessions(source: Iterable[str] | TextIO, fmt: FormatConfig | None = None) -> ParseResult:
    """Parse raw session rows, counting (not raising on) malformed ones.

    The first line must be a header naming every configured column;
    a missing column raises ``SchemaError``. Line ends, ``"\n"`` or
    ``"\r\n"``, are stripped, and blank lines skipped. Each other line is
    checked in turn for, and rejected at the first failure of: its field
    count; integer fields (machine ID, session ID, pages, duration) that
    are ASCII digits with an optional leading "-", with the machine ID
    inside signed 64-bit; nonnegative pages and duration; a nonempty
    domain; a valid date in ``fmt.date_format``; known income and race
    codes. Rejects are counted in line order.

    Lines are read in blocks of ``_BLOCK``. Only the blank-line filter and
    the field count look at each line on its own; each block's well-formed
    lines are split into columns at once, and each check runs over a
    whole column. Each distinct date string is parsed once per call.
    """
    fmt = fmt or FormatConfig()
    rejects = RejectReport()
    lines = iter(source)
    header_line = next(lines, None)
    if header_line is None:
        raise SchemaError("empty stream: no header row")
    delimiter = fmt.delimiter
    header = header_line.rstrip("\r\n").split(delimiter)
    positions: list[int] = []
    for logical in _FIELDS:
        name = fmt.columns.get(logical, logical)
        if name not in header:
            raise SchemaError(f"required column {name!r} ({logical}) missing from header")
        positions.append(header.index(name))
    n_columns = len(header)
    income_codes = {code: _INCOME_CODES[g] for code, g in fmt.income_code_map.items()}
    race_codes = {code: _RACE_CODES[g] for code, g in fmt.race_code_map.items()}
    days: dict[str, int] = {}  # date string -> day ordinal, 0 if invalid
    ids: list[np.ndarray] = []
    hosts: list[str] = []
    day_parts: list[np.ndarray] = []
    races: list[np.ndarray] = []
    incomes: list[np.ndarray] = []
    zips: list[str] = []
    while block := list(islice(lines, _BLOCK)):
        block = list(filter(str.strip, map(str.rstrip, block, repeat("\r\n"))))
        n_delimiters = np.fromiter(map(str.count, block, repeat(delimiter)), np.int64, len(block))
        well = n_delimiters == n_columns - 1
        reason = np.zeros(len(block), dtype=np.int8)  # index into _REASONS; -1: accepted
        if well.any():
            # One delimiter character cannot straddle the join of two lines,
            # so this splits each line exactly as splitting it alone would.
            fields = delimiter.join(compress(block, well.tolist())).split(delimiter)
            mid, sid, host, date, _, pages, dur, income, race, zip_code = (
                fields[p::n_columns] for p in positions
            )
            n = len(mid)
            host = list(map(str.strip, host))
            for text in dict.fromkeys(date).keys() - days.keys():
                parsed = _parse_date(text, fmt.date_format)
                days[text] = 0 if parsed is None else parsed.toordinal()
            day = np.fromiter(map(days.__getitem__, date), np.int64, n)
            income_idx = np.fromiter(
                map(income_codes.get, map(str.strip, income), repeat(-1)), np.int8, n
            )
            race_idx = np.fromiter(
                map(race_codes.get, map(str.strip, race), repeat(-1)), np.int8, n
            )
            failed = [  # one mask per check, in _REASONS order after field_count
                _not_integers(mid) | _not_integers(sid) | _not_integers(pages)
                | _not_integers(dur) | _outside_int64(mid),
                _negatives(pages) | _negatives(dur),
                ~np.fromiter(map(bool, host), dtype=bool, count=n),
                day == 0,
                income_idx < 0,
                race_idx < 0,
            ]
            # np.select takes the first true condition: the first failed check.
            found = np.select(failed, range(1, len(_REASONS)), -1)
            reason[well] = found
            accepted = found < 0
            ok = accepted.tolist()
            ids.append(np.fromiter(map(int, compress(mid, ok)), np.int64))
            hosts.extend(compress(host, ok))
            day_parts.append(day[accepted])
            races.append(race_idx[accepted])
            incomes.append(income_idx[accepted])
            zips.extend(map(str.strip, compress(zip_code, ok)))
        for i in np.flatnonzero(reason >= 0).tolist():
            rejects.add(_REASONS[reason[i]], block[i])
    records = SessionColumns(
        np.concatenate([np.zeros(0, np.int64), *ids]),
        hosts,
        np.concatenate([np.zeros(0, np.int64), *day_parts]),
        np.concatenate([np.zeros(0, np.int8), *races]),
        np.concatenate([np.zeros(0, np.int8), *incomes]),
        zips,
    )
    return ParseResult(records, rejects)


@dataclass(frozen=True)
class WeekConfig:
    """Epoch anchoring week 0 and the optional week-range clamp."""

    epoch: dt.date = dt.date(2017, 1, 1)
    n_weeks: int | None = None
    min_domains: int = MIN_WEEKLY_DOMAINS


def _intern(names: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct names in first-seen order, and each name's index in them."""
    first: dict[str, int] = {}  # name -> position of its first occurrence
    at = np.fromiter(map(first.setdefault, names, count()), dtype=np.int64, count=len(names))
    index = np.empty(len(names), dtype=np.int32)
    index[np.fromiter(first.values(), dtype=np.int64, count=len(first))] = np.arange(len(first))
    return list(first), index[at]


def _name_ranks(vocab: Sequence[str]) -> np.ndarray:
    """Each vocabulary entry's position in name order."""
    ranks = np.empty(len(vocab), dtype=np.int64)
    ranks[sorted(range(len(vocab)), key=vocab.__getitem__)] = np.arange(len(vocab))
    return ranks


def _sort_runs(names: list[str], counts: Sequence[int]) -> None:
    """Sort each row's run of ``names`` in place; row i holds the next ``counts[i]``."""
    offsets = np.cumsum([0, *counts]).tolist()
    for lo, hi in zip(offsets, offsets[1:]):
        names[lo:hi] = sorted(names[lo:hi])


def _sort_each_row(names: list[str], counts: Sequence[int]) -> list[int]:
    """Sort each row's run of ``names`` in place; return the rows naming one twice.

    Row i holds the next ``counts[i]`` names. After the sort a repeat sits
    next to itself, so one vectorised comparison of neighbours finds it.
    """
    _sort_runs(names, counts)
    row = np.repeat(np.arange(len(counts)), counts)
    text = np.array(names, dtype=object)
    repeated = (text[1:] == text[:-1]) & (row[1:] == row[:-1])
    return np.unique(row[1:][repeated]).tolist()


class MachineWeekTable:
    """Columnar store of machine-weeks, one row per (machine, epoch week).

    Rows are strictly ascending by ``(machine_id, week_index)``, so no
    (machine, week) appears twice; the constructor raises ``ValueError``
    otherwise. Domains are interned in a vocabulary; each row's domain
    indices keep the order they were given in: name order from ``load``
    and ``build_machine_weeks``.
    """

    def __init__(
        self,
        machine_ids: np.ndarray,
        week_indices: np.ndarray,
        state_labels: Sequence[str],
        race_idx: np.ndarray,
        income_idx: np.ndarray,
        state_idx: np.ndarray,
        dom_indices: np.ndarray,
        offsets: np.ndarray,
        vocab: Sequence[str],
    ):
        self.machine_ids = np.asarray(machine_ids, dtype=np.int64)
        self.week_indices = np.asarray(week_indices, dtype=np.int32)
        self.state_labels = tuple(state_labels)
        self.race_idx = np.asarray(race_idx, dtype=np.int8)
        self.income_idx = np.asarray(income_idx, dtype=np.int8)
        self.state_idx = np.asarray(state_idx, dtype=np.int16)
        self.dom_indices = np.asarray(dom_indices, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.vocab = list(vocab)
        ids, weeks = self.machine_ids, self.week_indices
        unordered = (ids[1:] < ids[:-1]) | ((ids[1:] == ids[:-1]) & (weeks[1:] <= weeks[:-1]))
        if unordered.any():
            i = int(np.argmax(unordered)) + 1
            raise ValueError(
                f"row {i} (machine {ids[i]}, week {weeks[i]}) does not follow row {i - 1} "
                f"(machine {ids[i - 1]}, week {weeks[i - 1]}): rows must be strictly "
                "ascending by (machine_id, week_index)"
            )
        self._hash_cache: dict[tuple[int, int], np.ndarray] = {}
        self._ranking: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_columns(
        cls,
        keys: Sequence[tuple[int, int]],
        states: Sequence[str],
        race_idx: Sequence[int],
        income_idx: Sequence[int],
        names: list[str],
        counts: Sequence[int],
    ) -> "MachineWeekTable":
        """Table from per-row columns, rows ascending by ``(machine_id, week)``.

        Row i is ``keys[i]`` and holds the next ``counts[i]`` of ``names``;
        each row's names must be distinct and ascending. States are interned
        in row order after ``UNKNOWN_STATE``, and domains in first-seen
        order, which is the order a walk over the rows meets them.
        """
        ids = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=2 * len(keys))
        ids = ids.reshape(-1, 2)  # (machine_id, week) per row
        labels, state_idx = _intern([UNKNOWN_STATE, *states])
        if len(labels) > _INT16_MAX + 1:
            raise ValueError(
                f"{len(labels)} distinct states; int16 state indices hold at most "
                f"{_INT16_MAX + 1}"
            )
        vocab, dom_indices = _intern(names)
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            ids[:, 0], ids[:, 1], labels, race_idx, income_idx, state_idx[1:],
            dom_indices, offsets, vocab,
        )

    def __len__(self) -> int:
        return len(self.machine_ids)

    @cached_property
    def vocab_hashes(self) -> np.ndarray:
        """Each vocabulary entry's 64-bit domain hash, computed on first use."""
        return np.fromiter(map(domain_hash64, self.vocab), dtype=np.uint64, count=len(self.vocab))

    def week_values(self) -> np.ndarray:
        return np.unique(self.week_indices)

    def rows_for_week(self, week: int) -> np.ndarray:
        return np.nonzero(self.week_indices == week)[0]

    def domains(self, i: int) -> list[str]:
        """Row i's domain names, sorted."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return sorted(self.vocab[j] for j in self.dom_indices[lo:hi])

    def hashes(self, bit_length: int, seed: int) -> np.ndarray:
        """Per-row hash bitvectors, cached per (bit_length, seed)."""
        key = (int(bit_length), int(seed))
        cached = self._hash_cache.get(key)
        if cached is None:
            values = self.vocab_hashes[self.dom_indices]
            cached = kernels.simhash_rows(values, self.offsets, bit_length, seed_key(seed))
            self._hash_cache[key] = cached
        return cached

    def domain_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """Visited domains ranked by machine-week visit count, cached.

        Returns ``(order, counts)``: ``counts[v]`` is the number of rows
        holding vocabulary entry ``v``, and ``order`` lists the entries with
        a nonzero count by descending count, ties by ascending name, so the
        top-D domains are ``order[:D]``.
        """
        if self._ranking is None:
            counts = np.bincount(self.dom_indices, minlength=len(self.vocab))
            order = np.lexsort((_name_ranks(self.vocab), -counts))
            self._ranking = (order[: np.count_nonzero(counts)], counts)
        return self._ranking

    def save_text(self) -> str:
        """The table as deterministic TSV text (domains sorted, |-joined)."""
        v = len(self.vocab)
        name_rank = _name_ranks(self.vocab)
        by_name = np.empty_like(name_rank)
        by_name[name_rank] = np.arange(v)
        row_of = np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.offsets))
        # A row's domains are distinct, so its (row, name rank) keys are too.
        keys = np.sort(row_of * v + name_rank[self.dom_indices])
        names = list(map(self.vocab.__getitem__, by_name[keys % v].tolist()))
        bounds = self.offsets.tolist()
        columns = zip(
            map(str, self.machine_ids.tolist()),
            map(str, self.week_indices.tolist()),
            map(self.state_labels.__getitem__, self.state_idx.tolist()),
            map(RACE_GROUPS.__getitem__, self.race_idx.tolist()),
            map(INCOME_GROUPS.__getitem__, self.income_idx.tolist()),
            ("|".join(names[lo:hi]) for lo, hi in zip(bounds, bounds[1:])),
        )
        lines = ["machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains"]
        lines.extend(map("\t".join, columns))
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.save_text())

    @classmethod
    def load(cls, path: str) -> "MachineWeekTable":
        """Read a table written by ``save``; lines may come in any order.

        The file is read once. Each line is split and its fields checked
        on their own. The domains of all lines are then handled in bulk:
        split from one joined string in row order, sorted row by row,
        checked for repeats with one vectorised comparison of neighbours,
        and interned in one pass.

        A malformed line raises ``ValueError("<path>:<line>: ...")`` for the
        first offending line: a wrong field count, a machine ID or week
        that is not ASCII digits with an optional leading "-", a machine ID
        outside int64 or a week outside int32, an unknown race or income
        label, a (machine, week) already seen on an earlier line, an empty
        domain name, or a domain listed twice. An empty domains field is a
        row without domains. A file naming more than 32,767 distinct states
        besides ``UNKNOWN_STATE`` raises ``ValueError``, since state indices
        are int16.
        """
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("machine_id\t"):
                raise ValueError(f"{path}: not a machine-week table")
            text = fh.read()
        rows: dict[tuple[int, int], tuple[int, str, str, str, str]] = {}
        problem = None
        for lineno, line in enumerate(text.split("\n"), start=2):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 6:
                problem = f"expected 6 fields, got {len(fields)}"
                break
            mid, week, state, race, income, domains = fields
            if not (_is_integer(mid) and _is_integer(week)):
                problem = "machine_id and week_index must be integers"
                break
            key = (int(mid), int(week))
            if not (_INT64_MIN <= key[0] <= _INT64_MAX and _INT32_MIN <= key[1] <= _INT32_MAX):
                problem = "machine_id must fit in int64 and week_index in int32"
                break
            if race not in _RACE_CODES or income not in _INCOME_CODES:
                problem = f"unknown race/income label {race!r}/{income!r}"
                break
            if key in rows:
                problem = f"machine {key[0]}, week {key[1]} appears twice"
                break
            if domains[:1] == "|" or domains[-1:] == "|" or "||" in domains:
                problem = "empty domain name"
                break
            rows[key] = (lineno, state, race, income, domains)

        keys = sorted(rows)
        linenos, states, races, incomes, fields = (
            zip(*map(rows.__getitem__, keys)) if keys else ((),) * 5
        )
        counts = [d.count("|") + 1 if d else 0 for d in fields]
        joined = "|".join(filter(None, fields))
        names = joined.split("|") if joined else []
        # Every line before a failing one was kept, so a repeat found here
        # is on an earlier line than the failure.
        repeats = _sort_each_row(names, counts)
        if repeats:
            first = min(linenos[r] for r in repeats)
            raise ValueError(f"{path}:{first}: a domain is listed twice")
        if problem is not None:
            raise ValueError(f"{path}:{lineno}: {problem}")
        return cls._from_columns(
            keys,
            states,
            list(map(_RACE_CODES.__getitem__, races)),
            list(map(_INCOME_CODES.__getitem__, incomes)),
            names,
            counts,
        )


@dataclass
class BuildResult:
    table: MachineWeekTable
    report: dict


def build_machine_weeks(
    records: SessionColumns,
    week_config: WeekConfig | None = None,
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> BuildResult:
    """Aggregate parsed session lines into the weekly domain-set table.

    Lines dated outside the week range are dropped (counted), and so are
    lines whose hostname yields no registrable domain (counted);
    machine-weeks under the distinct-domain cutoff are dropped (counted).
    A machine's demographics and ZIP come from its first line; later
    lines with other values are counted as conflicts, not applied.

    Each distinct hostname of an in-range line is resolved once; the rest
    is array work on integer keys.
    """
    cfg = week_config or WeekConfig()
    machines, first, machine = np.unique(
        records.machine_ids, return_index=True, return_inverse=True
    )
    differs = np.zeros(len(records), dtype=bool)
    zip_codes = np.array(records.zip_codes, dtype=object)
    for column in (records.race_idx, records.income_idx, zip_codes):
        differs |= column != column[first][machine]
    week = (records.days - cfg.epoch.toordinal()) // 7
    in_range = week >= 0
    if cfg.n_weeks is not None:
        in_range &= week < cfg.n_weeks
    at = np.flatnonzero(in_range)
    n_in_range = len(at)
    hosts, host_idx = _intern(list(compress(records.hosts, in_range.tolist())))
    resolved = [registrable_domain(h, suffixes, implicit_star=implicit_star) for h in hosts]
    domains, domain_idx = _intern([None, *resolved])  # index 0: no registrable domain
    dom = domain_idx[1:][host_idx]
    valid = dom > 0
    at, dom = at[valid], dom[valid]
    # Rows are keyed by (machine rank, week), so ascending keys are the
    # table's row order, and a row's domains by (row, domain index).
    span = int(week[at].max()) + 1 if len(at) else 1
    rows, row = np.unique(machine[at] * span + week[at], return_inverse=True)
    width = len(domains)
    pairs = np.sort(row * width + dom)
    pairs = pairs[np.diff(pairs, prepend=-1) > 0]  # each (row, domain) once
    counts = np.bincount(pairs // width, minlength=len(rows))
    keep = counts >= cfg.min_domains
    names = list(map(domains.__getitem__, (pairs[keep[pairs // width]] % width).tolist()))
    _sort_runs(names, counts[keep].tolist())
    row_machine, row_week = np.divmod(rows[keep], span)
    line = first[row_machine]  # each kept row's machine's first line
    states = [state_for_zip(records.zip_codes[i]) for i in first.tolist()]
    table = MachineWeekTable._from_columns(
        list(zip(machines[row_machine].tolist(), row_week.tolist())),
        list(map(states.__getitem__, row_machine.tolist())),
        records.race_idx[line],
        records.income_idx[line],
        names,
        counts[keep],
    )
    report = {
        "n_records": len(records),
        "n_machines": len(machines),
        "n_machine_weeks": len(table),
        "rejected_domains": n_in_range - len(at),
        "weeks_out_of_range": len(records) - n_in_range,
        "machine_weeks_below_cutoff": len(rows) - len(table),
        "demographic_conflicts": int(np.count_nonzero(differs)),
    }
    return BuildResult(table, report)


def representativeness(
    observed: Mapping[str, float], reference: Mapping[str, float]
) -> tuple[float, float]:
    """Pearson r (and two-sided p) between two categorical distributions.

    Both mappings must cover the same categories. Raises
    ``special.ConstantInputError`` when either gives every category the
    same share, since r is then undefined.
    """
    if set(observed) != set(reference):
        raise ValueError("distributions cover different categories")
    keys = sorted(observed)
    return special.pearson_r([observed[k] for k in keys], [reference[k] for k in keys])
