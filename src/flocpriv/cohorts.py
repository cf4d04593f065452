"""Weekly cohort assignment over a machine-week table.

Ties hashing and prefix clustering together: each week's population is
hashed, clustered at the requested k, and every machine-week row gets a
(week, cohort id) pair. Cohort ids are only meaningful within their week.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .ingest import MachineWeekTable
from .prefixlsh import CohortError, CohortMap, build_cohort_map
from .simhash import SimHashConfig


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
    hashes = table.hashes(config.bit_length, config.seed)
    cohort_ids = np.full(len(table), -1, dtype=np.int32)
    maps: dict[int, CohortMap] = {}
    for week in table.week_values():
        rows = table.rows_for_week(int(week))
        try:
            cmap = build_cohort_map(hashes[rows], k, config.bit_length)
        except CohortError as exc:
            raise CohortError(f"week {int(week)}: {exc}") from None
        maps[int(week)] = cmap
        cohort_ids[rows] = cmap.assign(hashes[rows])
    return WeeklyCohorts(k=k, config=config, maps=maps, cohort_ids=cohort_ids)
