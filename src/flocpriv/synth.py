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

from .geo import STATES, representative_zip
from .hashing import check_integer, check_seed, derive_seed
from .ingest import INCOME_GROUPS, RACE_GROUPS, MachineWeekTable, WeekConfig
from .panels import N_CELLS, JointDistribution


#: Least weight a row's last domain may be drawn from. The weights outside
#: the heaviest ``max_domains - 1`` bound the chance that a draw is new to a
#: row, so a row needs about 1 / MIN_NEW_DRAW_MASS draws per domain at most.
MIN_NEW_DRAW_MASS = 1e-4


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


def _cell_weights(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-cell sampling weights: global Zipf blended with a permuted top."""
    base = _zipf_weights(cfg.vocab_size, cfg.zipf_exponent)
    cells = np.tile(base, (N_CELLS, 1))
    if cfg.skew > 0.0 and cfg.top_stratum > 1:
        for c in range(N_CELLS):
            perm = rng.permutation(cfg.top_stratum)
            permuted = base.copy()
            permuted[: cfg.top_stratum] = base[:cfg.top_stratum][perm]
            cells[c] = (1.0 - cfg.skew) * base + cfg.skew * permuted
    return cells


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
    Rows whose whole width had too many repeats keep their kept values and
    extend the stream one draw at a time.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    need = int(sizes.max())
    width = 4 * need + 16
    out_vals = np.zeros((len(sizes), need), dtype=np.int64)
    uniforms = rng.random((len(sizes), width))
    rows = np.arange(len(sizes))
    for cols in (min(_lead(need), width), width):
        draws = np.searchsorted(cum, uniforms[rows, :cols], side="right")
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

    for i, j in zip(rows.tolist(), got.tolist()):
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

    weights = _cell_weights(cfg, rng_pref)
    vocab = [f"site{v:05d}.com" for v in range(cfg.vocab_size)]

    n_rows = cfg.n_machines * cfg.n_weeks
    sizes = rng_domains.integers(cfg.min_domains, cfg.max_domains + 1, size=n_rows)
    row_machine = np.repeat(np.arange(cfg.n_machines), cfg.n_weeks)
    row_week = np.tile(np.arange(cfg.n_weeks), cfg.n_machines)
    row_cell = cell_of_machine[row_machine]

    dom_values = np.zeros((n_rows, int(sizes.max())), dtype=np.int64)
    for cell in range(N_CELLS):
        rows = np.nonzero(row_cell == cell)[0]
        if len(rows) == 0:
            continue
        vals = _draw_rows(weights[cell], sizes[rows], rng_domains)
        dom_values[rows, : vals.shape[1]] = vals

    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    row_mask = np.arange(dom_values.shape[1]) < sizes[:, None]
    dom_indices = dom_values[row_mask].astype(np.int32)

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
    duration and demographic codes) once, and writes its visit lines as
    one join of the head, session id, domain and tail columns.
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
    names = list(map(table.vocab.__getitem__, table.dom_indices.tolist()))
    bounds = table.offsets.tolist()
    session_ids = [f"{s}\t" for s in range(1, bounds[-1] + 1)]
    for i, (mid, week) in enumerate(zip(table.machine_ids.tolist(), table.week_indices.tolist())):
        head, tail = f"{mid}\t", f"\t{dates[week]}\t12:00:00\t1\t60{codes[mid]}"
        lo, hi = bounds[i], bounds[i + 1]
        visits = zip(repeat(head), session_ids[lo:hi], names[lo:hi], repeat(tail))
        fh.write("".join(chain.from_iterable(visits)))
    return bounds[-1]
