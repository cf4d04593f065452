"""Synthetic browsing-population generator.

Machines draw weekly domain sets from a shared Zipf-weighted vocabulary.
Each demographic cell mixes the global popularity ranking with its own
permutation of the top stratum, so subpopulations develop distinctive
domain preferences whose strength is controlled by ``skew`` (0 = all
cells browse identically). Output is a ready-made machine-week table (or
a session log in the raw ingest format), fully determined by the seed.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TextIO

import numpy as np

from . import ingest
from .geo import STATES, representative_zip
from .hashing import check_integer, check_seed, derive_seed
from .ingest import INCOME_GROUPS, RACE_GROUPS, MachineWeekTable, WeekConfig
from .panels import N_CELLS, JointDistribution


#: Least weight a row's last domain may be drawn from. The weights outside
#: the heaviest ``max_domains - 1`` bound the chance that a draw is new to a
#: row, so a row needs about 1 / MIN_NEW_DRAW_MASS draws per domain at most.
MIN_NEW_DRAW_MASS = 1e-4

#: Uniforms ``_draw_rows`` draws at once (at least one row's), so a cell's
#: temporaries stay one block's size whatever its number of rows.
_DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class SynthConfig:
    n_machines: int = 1000
    n_weeks: int = 4
    vocab_size: int = 20_000
    min_domains: int = 7
    max_domains: int = 20
    zipf_exponent: float = 1.0
    #: Top-ranked domains whose order each demographic cell permutes.
    top_stratum: int = 100
    #: Mixing weight of the cell-specific ranking (0 = no demographic signal).
    skew: float = 0.25
    joint: JointDistribution = field(default_factory=JointDistribution.default)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_machines", "n_weeks", "vocab_size", "min_domains", "max_domains",
                     "top_stratum"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.n_machines < 1 or self.n_weeks < 1:
            raise ValueError("need at least one machine and one week")
        if not 1 <= self.min_domains <= self.max_domains:
            raise ValueError("domain count range is empty")
        if self.max_domains > self.vocab_size:
            raise ValueError("max_domains exceeds the vocabulary")
        if not 0.0 <= self.skew <= 1.0:
            raise ValueError(f"skew must be in [0, 1], got {self.skew}")
        if not 0 <= self.top_stratum <= self.vocab_size:
            raise ValueError("top_stratum must be within the vocabulary")
        # A row draws max_domains distinct domains, which only positive
        # weights can supply; otherwise _draw_rows would never finish.
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            weights = _zipf_weights(self.vocab_size, self.zipf_exponent)
        drawable = int(np.count_nonzero(np.isfinite(weights) & (weights > 0)))
        if drawable < self.max_domains:
            raise ValueError(
                f"zipf_exponent {self.zipf_exponent!r} gives {drawable} positive finite "
                f"weights, fewer than max_domains {self.max_domains}"
            )
        # A cell's blend of these weights with a permutation of them leaves at
        # least as much weight outside its heaviest max_domains - 1.
        tail = float(np.sort(weights)[: self.vocab_size - self.max_domains + 1].sum())
        if tail < MIN_NEW_DRAW_MASS:
            raise ValueError(
                f"zipf_exponent {self.zipf_exponent!r} leaves weight {tail:.3g} outside the "
                f"heaviest {self.max_domains - 1} domains, below {MIN_NEW_DRAW_MASS:g}: "
                f"filling a row of max_domains {self.max_domains} would take too many draws"
            )


@dataclass
class GeneratedPopulation:
    config: SynthConfig
    table: MachineWeekTable
    machine_ids: np.ndarray
    race_idx: np.ndarray
    income_idx: np.ndarray
    state_idx: np.ndarray  # into geo.STATES

    def demographics_json(self) -> dict:
        cells = self.race_idx.astype(np.int64) * len(INCOME_GROUPS) + self.income_idx
        counts = np.bincount(cells, minlength=N_CELLS).reshape(
            len(RACE_GROUPS), len(INCOME_GROUPS)
        )
        return {
            "n_machines": len(self.machine_ids),
            "race": list(RACE_GROUPS),
            "income": list(INCOME_GROUPS),
            "counts": counts.tolist(),
        }


def _zipf_weights(size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, size + 1, dtype=np.float64)
    w = ranks ** (-exponent)
    return w / w.sum()


def _cell_weights(cfg: SynthConfig, base: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
    """A cell's sampling weights: the global Zipf ``base`` blended with the
    copy of it whose top stratum is reordered by ``perm`` (``None``: no skew)."""
    if perm is None:
        return base
    weights = base.copy()
    weights[: cfg.top_stratum] = base[: cfg.top_stratum][perm]
    weights *= cfg.skew
    weights += (1.0 - cfg.skew) * base
    return weights


def _lead(need: int) -> int:
    """Columns of a row's uniforms that ``_draw_rows`` searches first."""
    return 2 * need


def _draw_rows(weights: np.ndarray, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sequential sampling without replacement, vectorized across rows.

    Each row i receives the first ``sizes[i]`` distinct values of an
    i.i.d. stream drawn from ``weights`` (successive sampling). Every row
    draws ``4 * need + 16`` uniforms, but only the first ``_lead(need)``
    are searched in the CDF and ranked; the rows that do not reach their
    size within that lead are redone on the full width. A row's kept
    values are its first distinct draws, so the lead holds them all
    whenever it holds enough, and the output does not depend on the lead.
    Rows are drawn in blocks of whole rows of about ``_DRAW_BLOCK``
    uniforms, which take the stream in the order one draw of every row's
    uniforms would. Rows whose whole width had too many repeats keep their
    kept values and, after the last block and in row order, extend the
    stream one draw at a time.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    need = int(sizes.max())
    width = 4 * need + 16
    out_vals = np.zeros((len(sizes), need), dtype=np.int64)
    step = max(1, _DRAW_BLOCK // width)
    short_rows, short_got = [], []
    for start in range(0, len(sizes), step):
        uniforms = rng.random((min(step, len(sizes) - start), width))
        rows = np.arange(start, start + len(uniforms))
        for cols in (min(_lead(need), width), width):
            draws = np.searchsorted(cum, uniforms[rows - start, :cols], side="right")
            # Mark the first occurrence of each value per row, in draw order.
            order = np.argsort(draws, axis=1, kind="stable")
            sorted_vals = np.take_along_axis(draws, order, axis=1)
            first_sorted = np.ones_like(sorted_vals, dtype=bool)
            first_sorted[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
            first = np.zeros_like(first_sorted)
            np.put_along_axis(first, order, first_sorted, axis=1)
            rank = np.cumsum(first, axis=1)  # distinct values seen so far
            # The j-th distinct value of a row goes to its slot j - 1.
            r, c = np.nonzero(first & (rank <= sizes[rows, None]))
            out_vals[rows[r], rank[r, c] - 1] = draws[r, c]
            short = rank[:, -1] < sizes[rows]
            rows, got = rows[short], rank[short, -1]
        short_rows += rows.tolist()
        short_got += got.tolist()

    for i, j in zip(short_rows, short_got):
        seen = set(out_vals[i, :j].tolist())
        while j < sizes[i]:
            v = int(np.searchsorted(cum, rng.random(), side="right"))
            if v not in seen:
                seen.add(v)
                out_vals[i, j] = v
                j += 1
    return out_vals


def generate_population(cfg: SynthConfig) -> GeneratedPopulation:
    """Deterministically generate a population and its machine-week table."""
    rng_demo = np.random.default_rng(derive_seed(cfg.seed, "synth-demographics"))
    rng_pref = np.random.default_rng(derive_seed(cfg.seed, "synth-preferences"))
    rng_domains = np.random.default_rng(derive_seed(cfg.seed, "synth-domains"))

    machine_ids = np.arange(1, cfg.n_machines + 1, dtype=np.int64)
    cell_of_machine = rng_demo.choice(N_CELLS, size=cfg.n_machines, p=cfg.joint.flat())
    race_idx = (cell_of_machine // len(INCOME_GROUPS)).astype(np.int8)
    income_idx = (cell_of_machine % len(INCOME_GROUPS)).astype(np.int8)
    state_idx = rng_demo.integers(0, len(STATES), size=cfg.n_machines).astype(np.int16)

    n_rows = cfg.n_machines * cfg.n_weeks
    sizes = rng_domains.integers(cfg.min_domains, cfg.max_domains + 1, size=n_rows)
    row_machine = np.repeat(np.arange(cfg.n_machines), cfg.n_weeks)
    row_week = np.tile(np.arange(cfg.n_weeks), cfg.n_machines)
    row_cell = cell_of_machine[row_machine]
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])

    # Each cell's values go straight to its rows' slots; a cell's weights
    # exist only while its rows are drawn, but every cell takes its
    # permutation, so that each takes the same one whichever cells are empty.
    base = _zipf_weights(cfg.vocab_size, cfg.zipf_exponent)
    skewed = cfg.skew > 0.0 and cfg.top_stratum > 1
    dom_indices = np.empty(offsets[-1], dtype=np.int32)
    for cell in range(N_CELLS):
        perm = rng_pref.permutation(cfg.top_stratum) if skewed else None
        rows = np.flatnonzero(row_cell == cell)
        if len(rows) == 0:
            continue
        vals = _draw_rows(_cell_weights(cfg, base, perm), sizes[rows], rng_domains)
        slots = np.arange(vals.shape[1])
        filled = slots < sizes[rows, None]
        dom_indices[(offsets[rows, None] + slots)[filled]] = vals[filled]
        del vals, filled  # before the next cell's are allocated

    # Name only the entries some row drew, and index them in that list.
    drawn = np.zeros(cfg.vocab_size, dtype=bool)
    drawn[dom_indices] = True
    entries = np.flatnonzero(drawn)
    vocab = [f"site{v:05d}.com" for v in entries.tolist()]
    position = np.cumsum(drawn, dtype=np.int32) - 1
    dom_indices = position[dom_indices]

    table = MachineWeekTable(
        machine_ids[row_machine],
        row_week.astype(np.int32),
        STATES,
        race_idx[row_machine],
        income_idx[row_machine],
        state_idx[row_machine],
        dom_indices,
        offsets,
        vocab,
    )
    return GeneratedPopulation(
        config=cfg,
        table=table,
        machine_ids=machine_ids,
        race_idx=race_idx,
        income_idx=income_idx,
        state_idx=state_idx,
    )


_RACE_TO_CODE = {"white": "1", "black": "2", "asian": "4", "other": "3"}
_INCOME_TO_CODE = {"lt25k": "4", "25k_75k": "10", "75k_150k": "14", "ge150k": "16"}


def write_sessions(pop: GeneratedPopulation, fh: TextIO) -> int:
    """Emit the population as a raw session log (one row per visit).

    Week w's visits are dated w weeks after ``WeekConfig().epoch``. Returns
    the number of session rows written. Parsing the output back through
    the ingest pipeline reproduces ``pop.table`` exactly. Each machine-week
    formats its fixed head (machine id) and tail (date, time, pages,
    duration and demographic codes) once. The log is built and written
    ``ingest._BLOCK`` machine-weeks at a time from slices of the table's
    columns, so only one block's names, session IDs and text are held.
    """
    epoch = WeekConfig().epoch
    fh.write("machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip\n")
    table = pop.table
    weeks = table.week_values().tolist()
    dates = {w: (epoch + dt.timedelta(weeks=w)).strftime("%Y%m%d") for w in weeks}
    zips = list(map(representative_zip, STATES))
    machines = (pop.machine_ids, pop.income_idx, pop.race_idx, pop.state_idx)
    codes = {  # each machine's income, race and ZIP columns
        m: f"\t{_INCOME_TO_CODE[INCOME_GROUPS[i]]}\t{_RACE_TO_CODE[RACE_GROUPS[r]]}\t{zips[s]}\n"
        for m, i, r, s in zip(*(column.tolist() for column in machines))
    }
    for start in range(0, len(table), ingest._BLOCK):
        stop = min(start + ingest._BLOCK, len(table))
        lo, hi = table.offsets[start], table.offsets[stop]
        ids = table.machine_ids[start:stop].tolist()
        tails = (
            f"\t{dates[w]}\t12:00:00\t1\t60{codes[m]}"
            for m, w in zip(ids, table.week_indices[start:stop].tolist())
        )
        counts = np.diff(table.offsets[start : stop + 1]).tolist()
        visits = zip(
            chain.from_iterable(map(repeat, map("{}\t".format, ids), counts)),
            map("{}\t".format, range(lo + 1, hi + 1)),  # session IDs
            map(table.vocab.__getitem__, table.dom_indices[lo:hi].tolist()),
            chain.from_iterable(map(repeat, tails, counts)),
        )
        fh.write("".join(chain.from_iterable(visits)))
    return int(table.offsets[-1])
