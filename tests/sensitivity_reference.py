"""Per-cohort and per-domain views of the analysis inputs, for tests.

``t_violations`` flags each cohort of one panel at one threshold; the
runtime's ``violation_curve`` must give its violating fraction at every t.
``top_domains`` names the top-D vocabulary entries the chi-square step
counts, with their machine-week visit counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from flocpriv.ingest import MachineWeekTable
from flocpriv.panels import Panel
from flocpriv.sensitivity import (
    _top_ranked,
    anomalous_category,
    cohort_category_counts,
    population_freqs,
)


@dataclass
class TViolations:
    t: float
    attribute: str
    fraction: float
    flags: np.ndarray  # per cohort
    excesses: np.ndarray
    categories: np.ndarray


def t_violations(panel: Panel, t: float, attribute: str) -> TViolations:
    """Flag cohorts whose anomalous-category excess strictly exceeds t."""
    categories, excesses = anomalous_category(
        cohort_category_counts(panel, attribute), population_freqs(panel, attribute)
    )
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
