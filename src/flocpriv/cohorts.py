"""Weekly cohort assignment over a machine-week table.

Ties hashing and prefix clustering together: each week's population is
hashed, clustered at the requested k, and every machine-week row gets a
(week, cohort id) pair. Cohort ids are only meaningful within their week.

Every population is hashed at ``FIRST_PASS_BITS`` bits first. At depth d
the prefix tree reads only bit d, and a node stops at the first depth
where it cannot split; bit b of a hash depends on feature b alone, so the
16-bit hashes are the top bits of the full-width ones. ``cluster_rows``
shifts them up to the configured width and builds the map there. When
every leaf is shorter than 16 bits, each split read bits both widths
share, so the map and the ids equal a full-width build's. A leaf of
length 16 means the first pass ran out of bits (shifted values that agree
on their top 16 bits never split below depth 16), and only then are the
rows hashed again at full width. A width of 16 or less takes one pass.
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


def first_pass_width(bit_length: int) -> int:
    """Width of the first pass for a ``bit_length``-bit map."""
    return min(FIRST_PASS_BITS, bit_length)


def cluster_rows(
    table: MachineWeekTable, rows: np.ndarray, k: int, config: SimHashConfig
) -> tuple[CohortMap, np.ndarray]:
    """Cohort map of the table rows ``rows`` at level k, and each row's id.

    The map is the one ``build_cohort_map`` gives on the rows' full-width
    hashes, and the ids are its ``assign`` of them; see the module
    docstring for why the first pass at ``FIRST_PASS_BITS`` bits gives
    both exactly. Raises ``CohortError`` as ``build_cohort_map`` does.
    """
    bits = config.bit_length
    first = first_pass_width(bits)
    values = table.hashes(first, config.seed)[rows] << np.uint64(bits - first)
    cmap = build_cohort_map(values, k, bits)
    if first < bits and cmap.lengths.max() >= first:
        values = table.hashes(bits, config.seed)[rows]
        cmap = build_cohort_map(values, k, bits)
    return cmap, cmap.assign(values)


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
            cmap, ids = cluster_rows(table, rows, k, config)
        except CohortError as exc:
            raise CohortError(f"week {int(week)}: {exc}") from None
        maps[int(week)] = cmap
        cohort_ids[rows] = ids
    return WeeklyCohorts(k=k, config=config, maps=maps, cohort_ids=cohort_ids)
