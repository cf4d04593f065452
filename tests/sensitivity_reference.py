"""Per-cohort and per-domain views of the analysis inputs, for tests.

``t_violations`` flags each cohort of one panel at one threshold; the
runtime's ``violation_curves`` row for the panel must give its violating
fraction at every t. ``cohort_counts`` counts each cohort's members per
category one cohort at a time, with none of the runtime's counting code.
``top_domains`` names the top-D vocabulary entries the chi-square step
counts, with their machine-week visit counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flocpriv.ingest import MachineWeekTable
from flocpriv.panels import Panel
from flocpriv.sensitivity import _top_ranked, anomalous_category, attribute_groups


@dataclass
class TViolations:
    t: float
    attribute: str
    fraction: float
    flags: np.ndarray  # per cohort
    excesses: np.ndarray
    categories: np.ndarray


def cohort_counts(panel: Panel, attribute: str) -> np.ndarray:
    """(num_cohorts, num_groups) member counts of a clustered panel."""
    labels = panel.race_idx if attribute == "race" else panel.income_idx
    n_groups = len(attribute_groups(attribute))
    counts = np.zeros((panel.cohort_map.num_cohorts, n_groups), dtype=np.int64)
    for cohort in range(len(counts)):
        members = labels[panel.cohort_ids == cohort]
        counts[cohort] = [np.count_nonzero(members == g) for g in range(n_groups)]
    return counts


def t_violations(panel: Panel, t: float, attribute: str) -> TViolations:
    """Flag cohorts whose anomalous-category excess strictly exceeds t."""
    counts = cohort_counts(panel, attribute)
    totals = counts.sum(axis=0)
    categories, excesses = anomalous_category(counts, totals / totals.sum())
    flags = excesses > t
    return TViolations(
        t=float(t),
        attribute=attribute,
        fraction=float(flags.mean()) if len(flags) else 0.0,
        flags=flags,
        excesses=excesses,
        categories=categories,
    )


def top_domains(table: MachineWeekTable, d: int) -> list[tuple[str, int]]:
    """Top-D domains by machine-week visit count (ties: lexicographic).

    A "visit" is one machine-week containing the domain; repeat visits
    within a week were already collapsed at ingest.
    """
    _, counts = table.domain_ranking()
    return [(table.vocab[v], int(counts[v])) for v in _top_ranked(table, d).tolist()]
