"""Weekly cohort assignment over a machine-week table.

Ties hashing and prefix clustering together: each week's population is
hashed, clustered at the requested k, and every machine-week row gets a
(week, cohort id) pair. Cohort ids are only meaningful within their week.

Every population is hashed at ``FIRST_PASS_BITS`` bits first. At depth d
the prefix tree reads only bit d, and a node stops at the first depth
where it cannot split; bit b of a hash depends on feature b alone, so the
16-bit hashes are the top bits of the full-width ones. A build
shifts them up to the configured width and builds the map there. When
every leaf is shorter than 16 bits, each split read bits both widths
share, so the map and the ids equal a full-width build's. A leaf of
length 16 means the first pass ran out of bits (shifted values that agree
on their top 16 bits never split below depth 16), and only then are the
rows hashed again at full width. A width of 16 or less takes one pass.

Each pass sorts its population once, and none of that depends on k:
``SortedPopulation`` keeps each pass's order and shifted values, and its
``cluster(k)`` is the per-k build, so ``unicity.sweep_k`` clusters one
population at many k and sorts nothing again. The map's leaves are
consecutive runs of the sorted values in cohort-id order, so the ids are
read off that same order: no ``CohortMap.assign`` searches for the
leaves the build just found. ``assign`` is what a browser does with a
published map.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .ingest import MachineWeekTable
from .prefixlsh import CohortError, CohortMap, build_cohort_map
from .simhash import SimHashConfig

#: Hash width of the first clustering pass. n hashes at level k give
#: leaves about log2(n / k) bits deep, so few builds reach 16 bits.
FIRST_PASS_BITS = 16


class SortedPopulation:
    """The rows ``rows`` of ``table`` in ascending hash order under ``config``,
    sorted once and clustered at any number of k.

    Each pass's hashes are read, argsorted once (hashes of at most 16 bits
    as ``uint16``, which NumPy radix-sorts) and shifted up to the configured
    width: the ``FIRST_PASS_BITS`` pass when the population is made, the
    full-width pass the first time a build falls back to it. Both are kept,
    so a k grid sorts each population at most twice.
    """

    def __init__(self, table: MachineWeekTable, rows: np.ndarray, config: SimHashConfig):
        self.table, self.rows, self.config = table, rows, config
        self._passes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sorted(min(FIRST_PASS_BITS, config.bit_length))

    def _sorted(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The argsort order of the rows' ``width``-bit hashes, and the
        hashes in that order shifted up to the configured width."""
        if width not in self._passes:
            values = self.table.hashes(width, self.config.seed)[self.rows]
            if width <= 16:
                order = np.argsort(values.astype(np.uint16), kind="stable")
            else:
                order = np.argsort(values)
            shift = np.uint64(self.config.bit_length - width)
            self._passes[width] = order, values[order] << shift
        return self._passes[width]

    def cluster(self, k: int) -> tuple[CohortMap, np.ndarray]:
        """Cohort map of the population at level k, and each row's id.

        The map is the one ``build_cohort_map`` gives on the rows'
        full-width hashes, and the ids are its ``assign`` of them; see the
        module docstring for why the first pass gives both exactly. Each
        leaf's run of the pass's order gets its cohort id. Raises
        ``CohortError`` as ``build_cohort_map`` does.
        """
        bits = self.config.bit_length
        for width in (min(FIRST_PASS_BITS, bits), bits):
            order, values = self._sorted(width)
            cmap = build_cohort_map(values, k, bits)
            if width == bits or cmap.lengths.max() < width:
                break
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
