"""Session-log parsing and weekly per-machine domain profiles.

The pipeline is: raw session rows -> ``SessionColumns``, the accepted
lines as columns -> one row per (machine, epoch week) of
``MachineWeekTable`` holding the registrable domains visited, the
machine's state (from its ZIP) and its demographic groups. Profiles with
fewer distinct domains than the cutoff are dropped. The table's columnar
CSR arrays are the only representation of machine-weeks, and its
constructor takes integer columns: ``build_machine_weeks`` hands it the
domain and state indices it has already interned, and
``MachineWeekTable.load`` interns the file's names and states first.

A row is a set of domains, and only the table's constructor orders
them. ``parse_sessions`` and ``MachineWeekTable.load`` read their file
through one reader, ``_read_block``: ``_BLOCK`` lines at a time, line ends
stripped, blank and whitespace-only lines skipped (but counted in line
numbers), and the well-formed lines split into columns at once. Each
check runs over a whole column of a block (their docstrings give the
rules), and ``save_text`` formats a block of rows at a time;
``build_machine_weeks`` keys rows with array operations on integer
codes. Work that depends only on a value is done once per distinct
value: each date string is parsed once per ``parse_sessions`` call, and
``build_machine_weeks`` resolves its distinct hostnames in one
``registrable_domains`` call.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice, repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import kernels, special
from .geo import UNKNOWN_STATE, state_for_zip
from .hashing import check_bit_length, check_integer, check_seed, domain_hashes64, seed_key
from .manifest import utf8_error
from .psl import SuffixSet, registrable_domains

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
        return {"total": self.total, "counts": self.counts, "samples": self.samples}


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


#: Lines ``_read_block`` reads and splits together, and rows
#: ``MachineWeekTable.save_text`` and ``synth.write_sessions`` format
#: together. A block's fields or lines are held at once, so a whole file in
#: one piece would raise peak memory by several times the file's size.
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

# On an integer, a match means it is below zero ("-0" is not).
_is_negative = re.compile(r"-0*[1-9]").match


def _where(column: list[str], test: Callable[[str], object]) -> np.ndarray:
    """Which values of ``column`` pass ``test``, called once per distinct value."""
    verdict = {value: bool(test(value)) for value in dict.fromkeys(column)}
    return np.fromiter(map(verdict.__getitem__, column), dtype=bool, count=len(column))


def _not_integers(column: list[str]) -> np.ndarray:
    """Which values of ``column`` are not integers. The column is tested
    once, without a regex (whose matching allocates about 200 bytes per
    value). Its values joined by "\n", each one's leading "-" dropped, must
    be ASCII digits, with one "\n" between each two values (so no value
    holds a "\n") and no empty value. Only a column holding a non-integer
    is checked a distinct value at a time."""
    text = "\n".join(column).replace("\n-", "\n").removeprefix("-")
    if (
        text.isascii()
        and text.replace("\n", "").isdigit()
        and text.count("\n") == len(column) - 1
        and "\n\n" not in text
        and not text.startswith("\n")
        and not text.endswith("\n")
    ):
        return np.zeros(len(column), dtype=bool)
    return ~_where(column, _is_integer)


def _negatives(column: list[str]) -> np.ndarray:
    """Which integer values of ``column`` are below zero."""
    if "-" not in "".join(column):
        return np.zeros(len(column), dtype=bool)
    return _where(column, _is_negative)


def _outside(column: list[str], lo: int, hi: int) -> np.ndarray:
    """Which integer values of ``column`` lie outside [lo, hi], the range of
    a signed integer type; none is converted when all are short.

    A value with fewer characters than ``hi`` has digits is fewer digits
    than ``hi`` has, or a "-" and fewer digits than ``lo`` has, so it fits.
    """
    if max(map(len, column), default=0) < len(str(hi)):
        return np.zeros(len(column), dtype=bool)
    return _where(column, lambda v: _is_integer(v) and not lo <= int(v) <= hi)


def _read_block(
    lines: Iterator[str], delimiter: str, n_fields: int
) -> tuple[int, list[str], np.ndarray, np.ndarray, list[list[str]]]:
    """The next ``_BLOCK`` lines of ``lines`` as ``parse_sessions`` and
    ``MachineWeekTable.load`` read them: how many were read; the lines kept,
    each without its end ("\n" or "\r\n"), blank and whitespace-only lines
    dropped, with their places among those read; which of them hold
    ``n_fields`` fields; and those lines' ``n_fields`` columns."""
    block = list(map(str.rstrip, islice(lines, _BLOCK), repeat("\r\n")))
    filled = np.fromiter(map(bool, map(str.strip, block)), bool, len(block))
    kept = list(compress(block, filled.tolist()))
    well = np.fromiter(map(str.count, kept, repeat(delimiter)), np.int64, len(kept)) == n_fields - 1
    # One delimiter character cannot straddle the join of two lines, so this
    # splits each line exactly as splitting it alone would.
    fields = delimiter.join(compress(kept, well.tolist())).split(delimiter) if well.any() else []
    columns = [fields[p::n_fields] for p in range(n_fields)]
    return len(block), kept, np.flatnonzero(filled), well, columns


def parse_sessions(source: Iterable[str] | TextIO, fmt: FormatConfig | None = None) -> ParseResult:
    """Parse raw session rows, counting (not raising on) malformed ones.

    The first line must be a header naming every configured column;
    a missing column raises ``SchemaError``. ``_read_block`` reads the
    other lines, ``_BLOCK`` at a time: it strips line ends, ``"\n"`` or
    ``"\r\n"``, skips blank and whitespace-only lines, and splits the lines
    of the header's field count into columns at once. Each other line is
    checked in turn for, and rejected at the first failure of: its field
    count; integer fields (machine ID, session ID, pages, duration) that
    are ASCII digits with an optional leading "-", with the machine ID
    inside signed 64-bit; nonnegative pages and duration; a nonempty
    domain; a valid date in ``fmt.date_format``; known income and race
    codes. Rejects are counted in line order. Each check runs over a whole
    column of a block; each distinct date string is parsed once per call.
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
    income_codes = {code: _INCOME_CODES[g] for code, g in fmt.income_code_map.items()}
    race_codes = {code: _RACE_CODES[g] for code, g in fmt.race_code_map.items()}
    days: dict[str, int] = {}  # date string -> day ordinal, 0 if invalid
    hosts: list[str] = []
    zips: list[str] = []
    blocks = []  # each block's accepted machine IDs, days, race and income codes

    def parse_block() -> int:
        # A function of its own, so that a block's lines and columns are
        # freed before the next block is read.
        n_read, block, _, well, columns = _read_block(lines, delimiter, len(header))
        mid, sid, host, date, _, pages, dur, income, race, zip_code = (
            columns[p] for p in positions
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
        race_idx = np.fromiter(map(race_codes.get, map(str.strip, race), repeat(-1)), np.int8, n)
        failed = [  # one mask per check, in _REASONS order after field_count
            _not_integers(mid) | _not_integers(sid) | _not_integers(pages)
            | _not_integers(dur) | _outside(mid, _INT64_MIN, _INT64_MAX),
            _negatives(pages) | _negatives(dur),
            ~np.fromiter(map(bool, host), dtype=bool, count=n),
            day == 0,
            income_idx < 0,
            race_idx < 0,
        ]
        # np.select takes the first true condition: the first failed check.
        found = np.select(failed, range(1, len(_REASONS)), -1)
        reason = np.zeros(len(block), dtype=np.int8)  # index into _REASONS; -1: accepted
        reason[well] = found
        accepted = found < 0
        ok = accepted.tolist()
        hosts.extend(compress(host, ok))
        zips.extend(map(str.strip, compress(zip_code, ok)))
        blocks.append((
            np.fromiter(map(int, compress(mid, ok)), np.int64),
            day[accepted], race_idx[accepted], income_idx[accepted],
        ))
        for i in np.flatnonzero(reason >= 0).tolist():
            rejects.add(_REASONS[reason[i]], block[i])
        return n_read

    while parse_block() == _BLOCK:
        pass
    ids, day, race, income = map(np.concatenate, zip(*blocks))
    return ParseResult(SessionColumns(ids, hosts, day, race, income, zips), rejects)


@dataclass(frozen=True)
class WeekConfig:
    """Epoch anchoring week 0, the optional week-range clamp and the cutoff.

    ``epoch`` must be a ``datetime.date``; a ``datetime`` is one and is
    accepted, and only its date counts. ``n_weeks`` (None: no clamp) and
    ``min_domains`` must be integers of at least 1, as ``check_integer``
    reads them. Anything else raises ``ValueError`` naming the field.
    """

    epoch: dt.date = dt.date(2017, 1, 1)
    n_weeks: int | None = None
    min_domains: int = MIN_WEEKLY_DOMAINS

    def __post_init__(self) -> None:
        if not isinstance(self.epoch, dt.date):
            raise ValueError(f"epoch must be a datetime.date, got {self.epoch!r}")
        for name in ("min_domains",) if self.n_weeks is None else ("n_weeks", "min_domains"):
            value = check_integer(getattr(self, name), name)
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
            object.__setattr__(self, name, value)


def _intern_into(index: dict, names: list) -> np.ndarray:
    """Each name's index in ``index``, a dict of distinct names to their
    first-seen order, which gains the names it lacks; one dict operation
    per name, so a sequence read a block at a time interns like a whole."""
    # Before each name is looked up, the second iterator yields the index a
    # new name takes: the number of names seen so far.
    return np.fromiter(
        map(index.setdefault, names, iter(index.__len__, -1)), np.int32, len(names)
    )


def _intern(names: list) -> tuple[list, np.ndarray]:
    """The distinct names in first-seen order, and each name's index in them."""
    index: dict = {}
    at = _intern_into(index, names)
    return list(index), at


#: Why a table line fails on its own, in the order its fields are checked;
#: formatted with the line's fields and their number ``n``.
_TABLE_PROBLEMS = (
    "expected 6 fields, got {n}",
    "machine_id and week_index must be integers",
    "machine_id must fit in int64 and week_index in int32",
    "unknown race/income label {3!r}/{4!r}",
)


def _table_block(
    lines: Iterator[str], lineno: int, names: dict[str, int], states: dict[str, int]
) -> tuple[int, tuple[np.ndarray, ...], tuple[int, str] | None]:
    """Read the next block of table lines, the first one numbered
    ``lineno``. Returns how many lines were read; for each line kept (up to
    the block's first failing line) its number, machine ID, week, state and
    domain count, its race and income codes and each domain's index into
    ``names``; and the number and problem of the first line failing on its
    own, or None. ``names`` and ``states`` gain the block's new names.
    Every check runs over a whole column.
    """
    n_read, block, places, well, (mid, week, state, race, income, domains) = _read_block(
        lines, "\t", 6
    )
    race_idx = np.fromiter(map(_RACE_CODES.get, race, repeat(-1)), np.int8, len(mid))
    income_idx = np.fromiter(map(_INCOME_CODES.get, income, repeat(-1)), np.int8, len(mid))
    failed = [
        _not_integers(mid) | _not_integers(week),
        _outside(mid, _INT64_MIN, _INT64_MAX) | _outside(week, _INT32_MIN, _INT32_MAX),
        (race_idx < 0) | (income_idx < 0),
    ]
    reason = np.zeros(len(block), dtype=np.int8)  # index into _TABLE_PROBLEMS; -1: passes
    reason[well] = np.select(failed, range(1, len(_TABLE_PROBLEMS)), -1)
    kept = reason < 0
    problem = None
    if not kept.all():
        first = int(np.argmin(kept))
        kept[first:] = False
        fields = block[first].split("\t")
        problem = (lineno + int(places[first]), _TABLE_PROBLEMS[reason[first]].format(
            *fields, n=len(fields)
        ))
    ok = kept[well]
    if not ok.all():
        keep = ok.tolist()
        mid, week, state, domains = (list(compress(c, keep)) for c in (mid, week, state, domains))
        race_idx, income_idx = race_idx[ok], income_idx[ok]
    counts = np.fromiter(map(str.count, domains, repeat("|")), np.int64, len(domains))
    counts += np.fromiter(map(bool, domains), bool, len(domains))  # an empty field has none
    joined = "|".join(filter(None, domains))
    columns = (
        places[kept] + lineno,
        np.fromiter(map(int, mid), np.int64, len(mid)),
        np.fromiter(map(int, week), np.int32, len(week)),
        _intern_into(states, state),
        race_idx,
        income_idx,
        counts,
        _intern_into(names, joined.split("|") if joined else []),
    )
    return n_read, columns, problem


class MachineWeekTable:
    """Columnar store of machine-weeks, one row per (machine, epoch week).

    Rows are strictly ascending by ``(machine_id, week_index)``, so no
    (machine, week) appears twice; the constructor raises ``ValueError``
    otherwise, and when a domain index lies outside the vocabulary.
    Domains are interned in a vocabulary. A row is a set, so the
    constructor keeps only the names some row holds, puts them in name
    order (``str`` order) and each row's indices ascending, whatever
    vocabulary and order they were given in.
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
        self.offsets = np.asarray(offsets, dtype=np.int64)
        vocab = list(vocab)
        dom_indices = np.asarray(dom_indices)
        if len(dom_indices) and not 0 <= dom_indices.min() <= dom_indices.max() < len(vocab):
            raise ValueError(f"domain indices must lie in [0, {len(vocab)}), the vocabulary's size")
        dom_indices = dom_indices.astype(np.int32, copy=False)
        used = np.zeros(len(vocab), dtype=bool)
        used[dom_indices] = True
        by_name = sorted(np.flatnonzero(used).tolist(), key=vocab.__getitem__)
        self.vocab = list(map(vocab.__getitem__, by_name))
        rank = np.zeros(len(vocab), dtype=np.int32)  # each used entry's position in name order
        rank[by_name] = np.arange(len(by_name))
        width = max(len(by_name), 1)
        keys = np.repeat(np.arange(len(self.offsets) - 1) * width, np.diff(self.offsets))
        keys += rank[dom_indices]
        keys.sort()
        self.dom_indices = np.remainder(keys, width, out=keys).astype(np.int32, copy=False)
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

    def __len__(self) -> int:
        return len(self.machine_ids)

    @cached_property
    def vocab_hashes(self) -> np.ndarray:
        """Each vocabulary entry's 64-bit domain hash, computed on first use."""
        return domain_hashes64(self.vocab)

    def week_values(self) -> np.ndarray:
        return np.unique(self.week_indices)

    def rows_for_week(self, week: int) -> np.ndarray:
        return np.nonzero(self.week_indices == week)[0]

    def domains(self, i: int) -> list[str]:
        """Row i's domain names, in name order."""
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return list(map(self.vocab.__getitem__, self.dom_indices[lo:hi].tolist()))

    def hashes(self, bit_length: int, seed: int) -> np.ndarray:
        """Per-row hash bitvectors, cached per (bit_length, seed), from the rows
        as stored: the kernel reads ``dom_indices`` into ``vocab_hashes``.

        Bit b of a hash depends on feature b alone, so a narrower hash is
        the top bits of a wider one. When some width W > ``bit_length`` is
        cached for ``seed``, the result is that array shifted right by
        W - ``bit_length``, and nothing is hashed. A width or seed that
        ``SimHashConfig`` rejects raises ``ValueError`` and caches nothing.
        """
        bit_length, seed = check_bit_length(bit_length), check_seed(seed)
        key = (bit_length, seed)
        cached = self._hash_cache.get(key)
        if cached is None:
            wider = next((w for w, s in self._hash_cache if s == seed and w > bit_length), None)
            if wider is None:
                rows = self.dom_indices, self.offsets, self.vocab_hashes
                cached = kernels.simhash_rows(*rows, bit_length, seed_key(seed))
            else:
                cached = self._hash_cache[wider, seed] >> np.uint64(wider - bit_length)
            self._hash_cache[key] = cached
        return cached

    def domain_ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """Visited domains ranked by machine-week visit count, cached.

        Returns ``(order, counts)``: ``counts[v]`` is the number of rows
        holding vocabulary entry ``v`` (at least 1), and ``order`` lists the
        entries by descending count, ties by ascending name, so the top-D
        domains are ``order[:D]``.
        """
        if self._ranking is None:
            counts = np.bincount(self.dom_indices, minlength=len(self.vocab))
            # The vocabulary is in name order, so a stable sort breaks ties by name.
            self._ranking = (np.argsort(-counts, kind="stable"), counts)
        return self._ranking

    def save_text(self) -> str:
        """The table as deterministic TSV text (each row's domains in name order, |-joined).

        The text is built ``_BLOCK`` rows at a time from slices of the
        columns, so besides the text only one block's names and lines are
        held, never a Python object per row-domain pair of the table.
        """
        return "".join(self._text_blocks())

    def save(self, path: str) -> None:
        """Write ``save_text()`` to ``path`` one block of rows at a time."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(self._text_blocks())

    def _text_blocks(self) -> Iterator[str]:
        """``save_text()`` in pieces: the header line, then ``_BLOCK`` rows' lines each."""
        yield "machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains\n"
        for start in range(0, len(self), _BLOCK):
            stop = min(start + _BLOCK, len(self))
            lo, hi = self.offsets[start], self.offsets[stop]
            names = list(map(self.vocab.__getitem__, self.dom_indices[lo:hi].tolist()))
            bounds = (self.offsets[start : stop + 1] - lo).tolist()
            columns = zip(
                map(str, self.machine_ids[start:stop].tolist()),
                map(str, self.week_indices[start:stop].tolist()),
                map(self.state_labels.__getitem__, self.state_idx[start:stop].tolist()),
                map(RACE_GROUPS.__getitem__, self.race_idx[start:stop].tolist()),
                map(INCOME_GROUPS.__getitem__, self.income_idx[start:stop].tolist()),
                ("|".join(names[i:j]) for i, j in zip(bounds, bounds[1:])),
            )
            yield "\n".join([*map("\t".join, columns), ""])  # ends with its last line's "\n"

    @classmethod
    def load(cls, path: str) -> "MachineWeekTable":
        """Read a table written by ``save``; lines and a line's names may come in any order.

        ``_read_block`` reads the file ``_BLOCK`` lines at a time, by the
        rules of ``parse_sessions``: it strips line ends, skips blank and
        whitespace-only lines (which still count in line numbers) and splits
        a block's six-field lines into columns at once. Each check runs over
        a whole column; only integer columns and the vocabulary, one dict of
        every distinct name, outlive the block, so memory follows the table's
        integer columns plus one block's text, never the whole file's. After
        the last block one ``lexsort`` finds a (machine, week) on two lines
        and puts the rows in order; a domain listed twice then sits next
        to itself in the built table's sorted row, where one comparison of
        neighbours finds it.

        A malformed line raises ``ValueError("<path>:<line>: ...")`` for the
        first offending line: a wrong field count, a machine ID or week
        that is not ASCII digits with an optional leading "-", a machine ID
        outside int64 or a week outside int32, an unknown race or income
        label, a (machine, week) already seen on an earlier line, an empty
        domain name, a domain listed twice, or a byte that is not UTF-8. An
        empty domains field is a row without domains. A file naming more
        than 32,767 distinct states besides ``UNKNOWN_STATE`` raises
        ``ValueError``, since state indices are int16.
        """
        names: dict[str, int] = {}  # domain name -> index, in first-seen order
        states = {UNKNOWN_STATE: 0}
        blocks = []
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline()
                if not header.startswith("machine_id\t"):
                    raise ValueError(f"{path}: not a machine-week table")
                lineno, n_read, problem = 2, _BLOCK, None
                while n_read == _BLOCK and problem is None:
                    n_read, columns, problem = _table_block(fh, lineno, names, states)
                    blocks.append(columns)
                    lineno += n_read
        except UnicodeDecodeError:
            raise utf8_error(path) from None
        found = [] if problem is None else [problem]  # (line, message) of each failure kind
        linenos, ids, weeks, codes, races, incomes, counts, dom = map(np.concatenate, zip(*blocks))
        del blocks  # before the constructor's temporaries are allocated
        offsets = np.concatenate(([0], np.cumsum(counts)))
        order = np.lexsort((weeks, ids))
        same = (ids[order[1:]] == ids[order[:-1]]) & (weeks[order[1:]] == weeks[order[:-1]])
        if same.any():
            # The sort is stable, so a key's first line comes first and every
            # line after it on the key is a repeat.
            i = int(order[1:][same].min())
            found.append((int(linenos[i]), f"machine {ids[i]}, week {weeks[i]} appears twice"))
            order = order[order < i]
        linenos, ids, weeks, codes, races, incomes, counts = (
            column[order] for column in (linenos, ids, weeks, codes, races, incomes, counts)
        )
        starts = offsets[:-1][order]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        dom = dom[np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])]
        distinct, state_idx = _intern([0, *codes.tolist()])  # states in row order
        labels = list(map(list(states).__getitem__, distinct))
        table = cls(ids, weeks, labels, races, incomes, state_idx[1:], dom, offsets, list(names))
        dom, offsets = table.dom_indices, table.offsets
        if table.vocab[:1] == [""]:  # "" sorts first, so a row holding it starts with it
            filled = np.flatnonzero(np.diff(offsets))
            rows = filled[dom[offsets[filled]] == 0]
            found.append((int(linenos[rows].min()), "empty domain name"))
        twice = np.flatnonzero(dom[1:] == dom[:-1]) + 1  # pairs equal to the one before
        rows = np.searchsorted(offsets, twice, side="right") - 1
        rows = rows[offsets[rows] != twice]  # not a row's first pair
        if len(rows):
            found.append((int(linenos[rows].min()), "a domain is listed twice"))
        if found:
            # The first offending line; on one line an empty name outranks a
            # name listed twice.
            line, message = min(found, key=lambda f: f[0])
            raise ValueError(f"{path}:{line}: {message}")
        # A file-wide limit, checked after every line's checks; past it the
        # table's int16 state indices have wrapped, so it is not returned.
        if len(table.state_labels) > _INT16_MAX + 1:
            raise ValueError(
                f"{len(table.state_labels)} distinct states; int16 state indices hold at most "
                f"{_INT16_MAX + 1}"
            )
        return table


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

    The distinct hostnames of in-range lines, in first-seen order, are
    resolved by one ``registrable_domains`` call, and ZIP codes are
    interned once; the rest is array work on integer keys.
    """
    cfg = week_config or WeekConfig()
    machines, first, machine = np.unique(
        records.machine_ids, return_index=True, return_inverse=True
    )
    differs = np.zeros(len(records), dtype=bool)
    _, zip_idx = _intern(records.zip_codes)
    for column in (records.race_idx, records.income_idx, zip_idx):
        differs |= column != column[first][machine]
    week = (records.days - cfg.epoch.toordinal()) // 7
    in_range = week >= 0
    if cfg.n_weeks is not None:
        in_range &= week < cfg.n_weeks
    at = np.flatnonzero(in_range)
    n_in_range = len(at)
    hosts, host_idx = _intern(list(compress(records.hosts, in_range.tolist())))
    resolved = registrable_domains(hosts, suffixes, implicit_star=implicit_star)
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
    offsets = np.concatenate(([0], np.cumsum(counts[keep])))
    row_machine, row_week = np.divmod(rows[keep], span)
    line = first[row_machine]  # each kept row's machine's first line
    # Rows ascend by machine, so the kept machines in ascending order meet
    # their states in row order, the order ``load`` interns them in.
    kept, row_kept = np.unique(row_machine, return_inverse=True)
    states = [state_for_zip(records.zip_codes[i]) for i in first[kept].tolist()]
    labels, state_idx = _intern([UNKNOWN_STATE, *states])
    table = MachineWeekTable(
        machines[row_machine], row_week, labels,
        records.race_idx[line], records.income_idx[line], state_idx[1:][row_kept],
        pairs[keep[pairs // width]] % width, offsets, domains,
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
