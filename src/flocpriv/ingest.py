"""Session-log parsing and weekly per-machine domain profiles.

The pipeline is: raw session rows -> validated ``SessionRecord`` tuples ->
one row per (machine, epoch week) of ``MachineWeekTable`` holding the
registrable domains visited, the machine's state (from its ZIP) and its
demographic groups. Profiles with fewer distinct domains than the cutoff
are dropped. The table's columnar CSR arrays are the only representation
of machine-weeks; ``build_machine_weeks`` and ``MachineWeekTable.load``
fill them through one builder.

Work that depends only on a value is done once per distinct value: each
date string is parsed and checked once per ``parse_sessions`` call, and
each date's week and each hostname's registrable domain once per
``build_machine_weeks`` call. Integer fields are ASCII digits with an
optional leading "-"; any other spelling is rejected, not converted.
"""

from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from . import special
from .geo import UNKNOWN_STATE, state_for_zip
from .hashing import domain_hash64
from .psl import SuffixSet, registrable_domain

RACE_GROUPS: tuple[str, ...] = ("white", "black", "asian", "other")
INCOME_GROUPS: tuple[str, ...] = ("lt25k", "25k_75k", "75k_150k", "ge150k")

#: Distinct registrable domains a machine-week must reach to be kept.
MIN_WEEKLY_DOMAINS = 7

# Machine IDs are stored as int64 and week indices as int32.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1

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
    """

    delimiter: str = "\t"
    date_format: str = "%Y%m%d"
    columns: Mapping[str, str] = field(default_factory=lambda: {f: f for f in _FIELDS})
    race_code_map: Mapping[str, str] = field(default_factory=_default_race_codes)
    income_code_map: Mapping[str, str] = field(default_factory=_default_income_codes)


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


@dataclass
class ParseResult:
    records: list[SessionRecord]
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


def parse_sessions(source: Iterable[str] | TextIO, fmt: FormatConfig | None = None) -> ParseResult:
    """Parse raw session rows, counting (not raising on) malformed ones.

    The first line must be a header naming every configured column;
    a missing column raises ``SchemaError``. An integer field that is not
    ASCII digits with an optional leading "-", or a machine ID outside
    signed 64-bit, counts as a ``bad_integer_field`` reject. Each distinct
    date string is parsed and checked once per call.
    """
    fmt = fmt or FormatConfig()
    records: list[SessionRecord] = []
    rejects = RejectReport()
    lines = iter(source)
    header_line = next(lines, None)
    if header_line is None:
        raise SchemaError("empty stream: no header row")
    header = header_line.rstrip("\n").split(fmt.delimiter)
    positions: list[int] = []
    for logical in _FIELDS:
        name = fmt.columns.get(logical, logical)
        if name not in header:
            raise SchemaError(f"required column {name!r} ({logical}) missing from header")
        positions.append(header.index(name))
    pick = itemgetter(*positions)
    n_columns = len(header)
    dates: dict[str, dt.date | None] = {}
    for line in lines:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(fmt.delimiter)
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


@dataclass(frozen=True)
class WeekConfig:
    """Epoch anchoring week 0 and the optional week-range clamp."""

    epoch: dt.date = dt.date(2017, 1, 1)
    n_weeks: int | None = None
    min_domains: int = MIN_WEEKLY_DOMAINS

    def week_index(self, date: dt.date) -> int:
        return (date - self.epoch).days // 7


class MachineWeekTable:
    """Columnar store of machine-weeks, one row per (machine, epoch week).

    Rows are strictly ascending by ``(machine_id, week_index)``, so no
    (machine, week) appears twice; the constructor raises ``ValueError``
    otherwise. Domains are interned in a vocabulary; each row's domain
    indices are kept sorted by the 64-bit domain hash so the hashing kernel
    can run straight over the CSR arrays.
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
        self.vocab_hashes = np.fromiter(
            (domain_hash64(d) for d in self.vocab), dtype=np.uint64, count=len(self.vocab)
        )
        ids, weeks = self.machine_ids, self.week_indices
        unordered = (ids[1:] < ids[:-1]) | ((ids[1:] == ids[:-1]) & (weeks[1:] <= weeks[:-1]))
        if unordered.any():
            i = int(np.argmax(unordered)) + 1
            raise ValueError(
                f"row {i} (machine {ids[i]}, week {weeks[i]}) does not follow row {i - 1} "
                f"(machine {ids[i - 1]}, week {weeks[i - 1]}): rows must be strictly "
                "ascending by (machine_id, week_index)"
            )
        # Within each row, order domain indices by hash value (column
        # order required by the hashing kernel).
        if len(self.dom_indices):
            row_of = np.repeat(
                np.arange(len(self), dtype=np.int64), np.diff(self.offsets)
            )
            perm = np.lexsort((self.vocab_hashes[self.dom_indices], row_of))
            self.dom_indices = self.dom_indices[perm]
        self._hash_cache: dict[tuple[int, int], np.ndarray] = {}
        self._ranking: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_rows(
        cls, rows: Mapping[tuple[int, int], tuple[str, str, str, Iterable[str]]]
    ) -> "MachineWeekTable":
        """Table from ``{(machine_id, week): (state, race, income, domains)}``."""
        keys = sorted(rows)
        n = len(keys)
        vocab: dict[str, int] = {}
        states: dict[str, int] = {UNKNOWN_STATE: 0}
        race_idx = np.empty(n, dtype=np.int8)
        income_idx = np.empty(n, dtype=np.int8)
        state_idx = np.empty(n, dtype=np.int16)
        offsets = np.zeros(n + 1, dtype=np.int64)
        dom_indices: list[int] = []
        for i, key in enumerate(keys):
            state, race, income, domains = rows[key]
            state_idx[i] = states.setdefault(state, len(states))
            race_idx[i] = RACE_GROUPS.index(race)
            income_idx[i] = INCOME_GROUPS.index(income)
            dom_indices.extend(vocab.setdefault(d, len(vocab)) for d in sorted(domains))
            offsets[i + 1] = len(dom_indices)
        return cls(
            np.array([m for m, _ in keys], dtype=np.int64),
            np.array([w for _, w in keys], dtype=np.int32),
            list(states),
            race_idx,
            income_idx,
            state_idx,
            np.array(dom_indices, dtype=np.int32),
            offsets,
            list(vocab),
        )

    def __len__(self) -> int:
        return len(self.machine_ids)

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
            from . import kernels
            from .hashing import seed_key

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
            by_name = sorted(range(len(self.vocab)), key=self.vocab.__getitem__)
            name_rank = np.empty(len(self.vocab), dtype=np.int64)
            name_rank[by_name] = np.arange(len(self.vocab))
            order = np.lexsort((name_rank, -counts))
            self._ranking = (order[: np.count_nonzero(counts)], counts)
        return self._ranking

    def save_text(self) -> str:
        """The table as deterministic TSV text (domains sorted, |-joined)."""
        lines = ["machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains"]
        for i in range(len(self)):
            lines.append(
                f"{self.machine_ids[i]}\t{self.week_indices[i]}\t"
                f"{self.state_labels[self.state_idx[i]]}\t"
                f"{RACE_GROUPS[self.race_idx[i]]}\t"
                f"{INCOME_GROUPS[self.income_idx[i]]}\t{'|'.join(self.domains(i))}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.save_text())

    @classmethod
    def load(cls, path: str) -> "MachineWeekTable":
        """Read a table written by ``save``; lines may come in any order.

        A malformed line raises ``ValueError("<path>:<line>: ...")``: a
        wrong field count, a machine ID or week that is not ASCII digits
        with an optional leading "-", a machine ID outside int64 or a week
        outside int32, an unknown race or income label, a domain listed
        twice, or a (machine, week) already seen on an earlier line.
        """
        rows: dict[tuple[int, int], tuple[str, str, str, list[str]]] = {}
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("machine_id\t"):
                raise ValueError(f"{path}: not a machine-week table")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 6:
                    raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
                mid, week, state, race, income, domains = fields
                if not (_is_integer(mid) and _is_integer(week)):
                    raise ValueError(f"{path}:{lineno}: machine_id and week_index must be integers")
                key = (int(mid), int(week))
                if not (_INT64_MIN <= key[0] <= _INT64_MAX and _INT32_MIN <= key[1] <= _INT32_MAX):
                    raise ValueError(
                        f"{path}:{lineno}: machine_id must fit in int64 and week_index in int32"
                    )
                if race not in RACE_GROUPS or income not in INCOME_GROUPS:
                    raise ValueError(
                        f"{path}:{lineno}: unknown race/income label {race!r}/{income!r}"
                    )
                if key in rows:
                    raise ValueError(
                        f"{path}:{lineno}: machine {key[0]}, week {key[1]} appears twice"
                    )
                names = domains.split("|") if domains else []
                if len(set(names)) != len(names):
                    raise ValueError(f"{path}:{lineno}: a domain is listed twice")
                rows[key] = (state, race, income, names)
        return cls._from_rows(rows)


@dataclass
class BuildResult:
    table: MachineWeekTable
    report: dict


def build_machine_weeks(
    records: Sequence[SessionRecord],
    week_config: WeekConfig | None = None,
    suffixes: SuffixSet | None = None,
    *,
    implicit_star: bool = False,
) -> BuildResult:
    """Aggregate session records into the weekly domain-set table.

    Hostnames that yield no registrable domain are dropped (counted);
    machine-weeks under the distinct-domain cutoff are dropped (counted).
    A machine's demographics and ZIP come from its first record; later
    conflicting values are counted, not applied.
    """
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
            week = cfg.week_index(date)
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

    rows: dict[tuple[int, int], tuple[str, str, str, set[str]]] = {}
    dropped_small = 0
    for key, domains in weeks.items():
        if len(domains) < cfg.min_domains:
            dropped_small += 1
            continue
        race, income, zip_code = machine_demo[key[0]]
        rows[key] = (state_for_zip(zip_code) or UNKNOWN_STATE, race, income, domains)
    table = MachineWeekTable._from_rows(rows)
    report = {
        "n_records": len(records),
        "n_machines": len(machine_demo),
        "n_machine_weeks": len(table),
        "rejected_domains": bad_domains,
        "weeks_out_of_range": out_of_range,
        "machine_weeks_below_cutoff": dropped_small,
        "demographic_conflicts": conflicts,
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
