"""Weekly cohort assignment over a machine-week table.

Ties hashing and prefix clustering together: each week's population is
hashed, clustered at the requested k, and every machine-week row gets a
(week, cohort id) pair. Cohort ids are only meaningful within their week.

A build at level k hashes its population at W bits first, where
``_first_pass_width`` gives W = min(bit_length, ``FIRST_PASS_BITS`` = 16,
((N - 1) // k).bit_length() + 3), N being the larger of the table's
largest weekly population and the population's own size. A tree over N
hashes at level k has leaves about log2(N / k) bits deep, and the + 3
covers the deepest ones measured: at 500 machines a week the deepest leaf
needs 5-6 bits at k = 30 (W = 8) and 7-8 at k = 10 (W = 9); at 90,000
machines and k = 30, W is 15. Every week of a table asks for one width at
a given k, and so does every position of a sequence set (its positions
pool as many rows each), so one kernel call serves them all.

At depth d the prefix tree reads only bit d, and a node stops at the
first depth where it cannot split; bit b of a hash depends on feature b
alone, so the W-bit hashes are the top bits of the full-width ones. A
build shifts them up to the configured width and builds the map there.
Shifted values that agree on their top W bits never split below depth W,
so every leaf shorter than W bits is a leaf of the full-width tree, with
the same rows. A leaf of length W is a node of that tree at depth W, and
holds exactly the rows that share its W-bit prefix; only those rows are
hashed again at full width, their runs sorted again, and the map rebuilt
once. That map and its ids equal a full-width build's. When W is the
configured width itself, the first pass is the only one.

Each pass sorts its population once, and none of that depends on k:
``SortedPopulation`` keeps each pass's order and shifted values, and each
k's refinement of them, and its ``cluster(k)`` is the per-k build on the
narrowest kept pass at least W bits wide. ``unicity.sweep_k`` makes each
position's pass for its grid's smallest k first, the widest the grid
asks for, so it sorts each population once in any grid order. The map's
leaves are consecutive runs of the sorted values in cohort-id order, so
the ids are read off that same order: no ``CohortMap.assign`` searches
for the leaves the build just found. ``assign`` is what a browser does
with a published map.
"""

from __future__ import annotations

from dataclasses import dataclass
import weakref

import numpy as np

from . import kernels
from .hashing import seed_key
from .ingest import MachineWeekTable
from .prefixlsh import CohortError, CohortMap, _check_k, build_cohort_map
from .simhash import SimHashConfig

#: Widest first clustering pass: hashes of at most 16 bits sort as ``uint16``.
FIRST_PASS_BITS = 16


def _first_pass_width(population: int, k: int, bit_length: int) -> int:
    """Hash width of the first pass at level k for a largest population of
    ``population`` rows: the leaves' depth, about log2(population / k)
    bits, plus 3, and at most ``FIRST_PASS_BITS`` and ``bit_length``."""
    return min(bit_length, FIRST_PASS_BITS, ((population - 1) // k).bit_length() + 3)


#: Each table's largest weekly population, found on a table's first build.
_largest_weeks: weakref.WeakKeyDictionary[MachineWeekTable, int] = weakref.WeakKeyDictionary()


def _largest_week(table: MachineWeekTable) -> int:
    """The most rows one week of ``table`` holds (0 for no rows)."""
    if table not in _largest_weeks:
        counts = np.unique(table.week_indices, return_counts=True)[1]
        _largest_weeks[table] = int(counts.max(initial=0))
    return _largest_weeks[table]


def _full_width_hashes(
    table: MachineWeekTable, rows: np.ndarray, config: SimHashConfig
) -> np.ndarray:
    """``table.hashes(config.bit_length, config.seed)[rows]``, from one
    kernel call on those rows' slice of the table and their names alone."""
    lo = table.offsets[rows]
    lengths = table.offsets[rows + 1] - lo
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    pairs = np.repeat(lo - offsets[:-1], lengths) + np.arange(offsets[-1])
    names, indices = np.unique(table.dom_indices[pairs], return_inverse=True)
    hashes = table.vocab_hashes[names]
    return kernels.simhash_rows(indices, offsets, hashes, config.bit_length, seed_key(config.seed))


class SortedPopulation:
    """The rows ``rows`` of ``table`` in ascending hash order under ``config``,
    sorted once and clustered at any number of k.

    A build at level k reads the first pass ``_first_pass_width`` gives for
    the larger of the table's largest week and this population, so every
    week of a table, and every position of a sequence set, asks for one
    width. A pass is made the first time a build asks for a width that no
    kept pass reaches: its hashes are read, argsorted once as ``uint16``
    (which NumPy radix-sorts) and shifted up to the configured width. Every
    pass is kept, and so is each k's refinement of its deep leaves, so a
    repeated k sorts nothing.
    """

    def __init__(self, table: MachineWeekTable, rows: np.ndarray, config: SimHashConfig):
        self.table, self.rows, self.config = table, rows, config
        self._size = max(_largest_week(table), len(rows))
        self._passes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._refined: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def presort(self, k: int) -> None:
        """Make the first pass a build at level k reads, which serves every
        larger k too; raises ``CohortError`` for a k ``cluster`` refuses."""
        self._sorted(self._width(_check_k(k)))

    def _width(self, k: int) -> int:
        return _first_pass_width(self._size, k, self.config.bit_length)

    def _sorted(self, width: int) -> tuple[int, np.ndarray, np.ndarray]:
        """The narrowest kept pass at least ``width`` bits wide, else a new
        ``width``-bit one: its width, its argsort order of the rows' hashes,
        and the hashes in that order shifted up to the configured width."""
        wider = [w for w in self._passes if w >= width]
        if wider:
            width = min(wider)
        else:
            values = self.table.hashes(width, self.config.seed)[self.rows]
            order = np.argsort(values.astype(np.uint16), kind="stable")
            shift = np.uint64(self.config.bit_length - width)
            self._passes[width] = order, values[order] << shift
        return (width, *self._passes[width])

    def cluster(self, k: int) -> tuple[CohortMap, np.ndarray]:
        """Cohort map of the population at level k, and each row's id.

        The map is the one ``build_cohort_map`` gives on the rows'
        full-width hashes, and the ids are its ``assign`` of them; see the
        module docstring for why the first pass and the refinement of its
        deep leaves give both exactly. Each leaf's run of the pass's order
        gets its cohort id. Raises ``CohortError`` as ``build_cohort_map``
        does.
        """
        k = _check_k(k)
        bits = self.config.bit_length
        width, order, values = self._sorted(self._width(k))
        refined = self._refined.get((width, k))
        if refined is not None:
            order, values = refined
        cmap = build_cohort_map(values, k, bits)
        if refined is None and width < bits and cmap.lengths.max() == width:
            # The rows of the leaves of length W, whose runs are in prefix
            # order and each share a W-bit prefix, so one sort of their
            # full-width hashes sorts each run in place.
            deep = np.flatnonzero(np.repeat(cmap.lengths == width, cmap.counts))
            full = _full_width_hashes(self.table, self.rows[order[deep]], self.config)
            resort = np.argsort(full)
            order, values = order.copy(), values.copy()
            order[deep], values[deep] = order[deep][resort], full[resort]
            self._refined[width, k] = order, values
            cmap = build_cohort_map(values, k, bits)
        ids = np.empty(len(order), dtype=np.int32)
        ids[order] = np.repeat(np.arange(cmap.num_cohorts, dtype=np.int32), cmap.counts)
        return cmap, ids


@dataclass
class WeeklyCohorts:
    """Cohort maps and row-aligned assignments for every week."""

    k: int
    config: SimHashConfig
    maps: dict[int, CohortMap]
    cohort_ids: np.ndarray  # aligned with the source table rows


def compute_weekly_cohorts(
    table: MachineWeekTable,
    k: int,
    config: SimHashConfig = SimHashConfig(),
) -> WeeklyCohorts:
    """Cluster every week of the table at anonymity level k.

    Raises ``CohortError`` naming the week when some week's population is
    smaller than k.
    """
    cohort_ids = np.full(len(table), -1, dtype=np.int32)
    maps: dict[int, CohortMap] = {}
    for week in table.week_values():
        rows = table.rows_for_week(int(week))
        try:
            cmap, ids = SortedPopulation(table, rows, config).cluster(k)
        except CohortError as exc:
            raise CohortError(f"week {int(week)}: {exc}") from None
        maps[int(week)] = cmap
        cohort_ids[rows] = ids
    return WeeklyCohorts(k=k, config=config, maps=maps, cohort_ids=cohort_ids)
