"""Demographic-leakage analyses over clustered panels.

Covers four related measurements:

* t-closeness: per cohort, the demographic category whose in-cohort
  frequency most exceeds its panel-wide frequency; a cohort violates
  threshold t when that excess is strictly greater than t.
* Null baselines: demographic labels shuffled against hash values
  (empirical null) and a binomial tail model (analytic null).
* Chi-square browsing-difference tests of subpopulation visit counts
  over the top-D domains against the aggregate.
* A streamed control run at deployment scale, where cohort sizes are in
  the thousands and no cohort is expected to violate t-closeness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import special
from .hashing import derive_seed
from .ingest import INCOME_GROUPS, RACE_GROUPS, MachineWeekTable
from .panels import JointDistribution, Panel

ATTRIBUTES = ("race", "income")


def attribute_groups(attribute: str) -> tuple[str, ...]:
    if attribute == "race":
        return RACE_GROUPS
    if attribute == "income":
        return INCOME_GROUPS
    raise ValueError(f"unknown attribute {attribute!r}")


def _attr_idx(panel: Panel, attribute: str) -> np.ndarray:
    return panel.race_idx if attribute == "race" else panel.income_idx


def population_freqs(panel: Panel, attribute: str) -> np.ndarray:
    """Panel-wide category frequencies (the Eq. reference distribution)."""
    groups = attribute_groups(attribute)
    counts = np.bincount(_attr_idx(panel, attribute), minlength=len(groups))
    return counts / counts.sum()


def cohort_category_counts(panel: Panel, attribute: str) -> np.ndarray:
    """(num_cohorts, num_groups) member counts; requires clustering."""
    if panel.cohort_ids is None or panel.cohort_map is None:
        raise ValueError("panel has no cohort assignments; cluster it first")
    groups = attribute_groups(attribute)
    n_cohorts = panel.cohort_map.num_cohorts
    flat = panel.cohort_ids.astype(np.int64) * len(groups) + _attr_idx(panel, attribute)
    return np.bincount(flat, minlength=n_cohorts * len(groups)).reshape(
        n_cohorts, len(groups)
    )


def anomalous_category(
    cohort_counts: np.ndarray, pop_freqs: np.ndarray
) -> tuple[np.ndarray | np.intp, np.ndarray | np.float64]:
    """Category with the largest cohort-over-population frequency excess.

    ``cohort_counts`` holds one cohort's (C,) category counts or a (..., C)
    stack of them; the returned indices and excesses have the leading
    shape, so a single cohort gives NumPy scalars (use ``int()`` and
    ``float()`` for Python ones). Ties break toward the lower category
    index (the canonical group order), making the result deterministic.
    """
    counts = np.asarray(cohort_counts, dtype=np.float64)
    totals = counts.sum(axis=-1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("cohort is empty")
    excess = counts / totals - np.asarray(pop_freqs, dtype=np.float64)
    # argmax returns the first maximum
    return np.argmax(excess, axis=-1), excess.max(axis=-1)


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


def violation_curve(panel: Panel, t_grid: Sequence[float], attribute: str) -> np.ndarray:
    """Violating fraction at every t (one pass over the excesses)."""
    _, excesses = anomalous_category(
        cohort_category_counts(panel, attribute), population_freqs(panel, attribute)
    )
    return np.array([(excesses > t).mean() for t in t_grid], dtype=np.float64)


def shuffle_baseline(panel: Panel, seed: int) -> Panel:
    """Panel with demographics decoupled from browsing.

    Permutes the demographic columns against the hash column; marginals
    are untouched, so any remaining cohort-demographic association is
    sampling noise. The hashes do not move, so the shuffled panel shares
    the panel's cohort map and ids (re-clustering could only rebuild them).
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(panel.size)
    return Panel(
        panel_id=panel.panel_id,
        week_index=panel.week_index,
        rows=panel.rows,
        machine_ids=panel.machine_ids,
        race_idx=panel.race_idx[perm],
        income_idx=panel.income_idx[perm],
        hashes=panel.hashes,
        cohort_map=panel.cohort_map,
        cohort_ids=panel.cohort_ids,
    )


def binomial_baseline(n: int, p_r: float, t: float) -> float:
    """Probability a size-n cohort over-represents group r by more than t.

    Models the group-r count as Binomial(n, p_r): returns
    1 - F(floor(n * (p_r + t)); n, p_r), with the boundary conventions
    that a threshold at or above n gives 0 and below 0 gives 1.
    """
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    k_r = n * (p_r + t)
    if k_r >= n:
        return 0.0
    if k_r < 0:
        return 1.0
    return special.binomial_sf(math.floor(k_r), n, p_r)


def cohort_violation_probability(n: int, pop_freqs: Sequence[float], t: float) -> float:
    """Chance any category's excess beats t, treating categories as
    independent binomials (the cross-category union of the model)."""
    keep = 1.0
    for p_r in pop_freqs:
        keep *= 1.0 - binomial_baseline(n, float(p_r), t)
    return 1.0 - keep


@dataclass
class TClosenessReport:
    attribute: str
    k: int
    t_grid: list[float]
    mean: list[float]
    ci_low: list[float]
    ci_high: list[float]
    shuffle_mean: list[float] | None
    binomial: list[float] | None
    n_panels: int
    mean_cohort_size: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "k": self.k,
            "n_panels": self.n_panels,
            "mean_cohort_size": self.mean_cohort_size,
            "points": [
                {
                    "t": self.t_grid[i],
                    "mean": self.mean[i],
                    "ci_low": self.ci_low[i],
                    "ci_high": self.ci_high[i],
                    "shuffle_baseline": None if self.shuffle_mean is None else self.shuffle_mean[i],
                    "binomial_baseline": None if self.binomial is None else self.binomial[i],
                }
                for i in range(len(self.t_grid))
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["t,mean,ci_low,ci_high,shuffle_baseline,binomial_baseline"]
        for i in range(len(self.t_grid)):
            shuffle = "" if self.shuffle_mean is None else f"{self.shuffle_mean[i]:.10g}"
            binom = "" if self.binomial is None else f"{self.binomial[i]:.10g}"
            lines.append(
                f"{self.t_grid[i]:.10g},{self.mean[i]:.10g},{self.ci_low[i]:.10g},"
                f"{self.ci_high[i]:.10g},{shuffle},{binom}"
            )
        return "\n".join(lines) + "\n"


DEFAULT_T_GRID = [round(0.01 * i, 2) for i in range(51)]


def t_closeness_curve(
    panels: Sequence[Panel],
    t_grid: Sequence[float],
    attribute: str,
    *,
    shuffled: Sequence[Panel] | None = None,
    confidence: float = 0.95,
) -> TClosenessReport:
    """Mean violating fraction across panels with Student-t CIs.

    ``shuffled`` panels (if given) fill the empirical-null column; the
    analytic column uses the mean cohort size and pooled population
    frequencies of the real panels.
    """
    if len(panels) < 2:
        raise ValueError("need at least 2 panels for a confidence interval")
    curves = np.stack([violation_curve(p, t_grid, attribute) for p in panels])
    means, lows, highs = [], [], []
    for j in range(curves.shape[1]):
        m, lo, hi = special.mean_confidence_interval(curves[:, j].tolist(), confidence)
        means.append(m)
        lows.append(lo)
        highs.append(hi)

    shuffle_mean = None
    if shuffled:
        shuffle_curves = np.stack([violation_curve(p, t_grid, attribute) for p in shuffled])
        shuffle_mean = shuffle_curves.mean(axis=0).tolist()

    sizes = [p.size / p.cohort_map.num_cohorts for p in panels if p.cohort_map is not None]
    mean_n = float(np.mean(sizes)) if sizes else float("nan")
    binomial = None
    if sizes:
        pooled = np.mean([population_freqs(p, attribute) for p in panels], axis=0)
        binomial = [
            cohort_violation_probability(int(round(mean_n)), pooled, t) for t in t_grid
        ]
    k = panels[0].cohort_map.k if panels[0].cohort_map is not None else 0
    return TClosenessReport(
        attribute=attribute,
        k=k,
        t_grid=[float(t) for t in t_grid],
        mean=means,
        ci_low=lows,
        ci_high=highs,
        shuffle_mean=shuffle_mean,
        binomial=binomial,
        n_panels=len(panels),
        mean_cohort_size=mean_n,
    )


# ---------------------------------------------------------------------------
# Browsing-difference chi-square tests


def top_domains(table: MachineWeekTable, d: int) -> list[tuple[str, int]]:
    """Top-D domains by machine-week visit count (ties: lexicographic).

    A "visit" is one machine-week containing the domain; repeat visits
    within a week were already collapsed at ingest.
    """
    if d < 1:
        raise ValueError(f"D must be >= 1, got {d}")
    counts = np.bincount(table.dom_indices, minlength=len(table.vocab))
    pairs = [(int(c), dom) for dom, c in zip(table.vocab, counts) if c > 0]
    pairs.sort(key=lambda pc: (-pc[0], pc[1]))
    if d > len(pairs):
        warnings.warn(
            f"requested top {d} domains but only {len(pairs)} distinct exist; truncating",
            stacklevel=2,
        )
    return [(dom, c) for c, dom in pairs[:d]]


def domain_visit_counts(
    table: MachineWeekTable, domains: Sequence[str], row_mask: np.ndarray | None = None
) -> np.ndarray:
    """Visit counts for the given domains, optionally over a row subset."""
    index = {dom: i for i, dom in enumerate(domains)}
    remap = np.full(len(table.vocab), -1, dtype=np.int64)
    for v, dom in enumerate(table.vocab):
        hit = index.get(dom)
        if hit is not None:
            remap[v] = hit
    dom_idx = table.dom_indices
    if row_mask is not None:
        row_of = np.repeat(np.arange(len(table)), np.diff(table.offsets))
        dom_idx = dom_idx[row_mask[row_of]]
    mapped = remap[dom_idx]
    mapped = mapped[mapped >= 0]
    return np.bincount(mapped, minlength=len(domains))


def chi_square_test(
    subpop_counts: np.ndarray, aggregate_counts: np.ndarray
) -> tuple[float, float]:
    """Goodness-of-fit of subpopulation visit counts to aggregate shares.

    Expected counts scale the aggregate shares to the subpopulation
    total; degrees of freedom = D - 1.
    """
    obs = np.asarray(subpop_counts, dtype=np.float64)
    agg = np.asarray(aggregate_counts, dtype=np.float64)
    if obs.shape != agg.shape or obs.ndim != 1:
        raise ValueError("count vectors must be 1-D and aligned")
    if len(obs) < 2:
        raise ValueError("need at least 2 categories")
    expected = agg / agg.sum() * obs.sum()
    if np.any(expected <= 0.0):
        raise ValueError("zero expected count; reduce D")
    stat = float(((obs - expected) ** 2 / expected).sum())
    return stat, special.chi_square_sf(stat, len(obs) - 1)


@dataclass
class ChiSquareRow:
    attribute: str
    group: str
    d: int
    statistic: float
    p_value: float

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "attribute": self.attribute,
            "group": self.group,
            "D": self.d,
            "statistic": self.statistic,
            "p_value": self.p_value,
        }


def chi_square_by_group(
    table: MachineWeekTable, attribute: str, d_grid: Sequence[int]
) -> list[ChiSquareRow]:
    """Chi-square of every demographic subpopulation against the aggregate."""
    groups = attribute_groups(attribute)
    attr_idx = table.race_idx if attribute == "race" else table.income_idx
    rows: list[ChiSquareRow] = []
    for d in d_grid:
        domains = [dom for dom, _ in top_domains(table, d)]
        aggregate = domain_visit_counts(table, domains)
        for gi, group in enumerate(groups):
            mask = attr_idx == gi
            sub = domain_visit_counts(table, domains, row_mask=mask)
            stat, p = chi_square_test(sub, aggregate)
            rows.append(ChiSquareRow(attribute, group, int(d), stat, p))
    return rows


def random_subsample_pvalue(
    table: MachineWeekTable, d: int, fraction: float, seed: int
) -> float:
    """Control: chi-square p of a demographics-blind row subsample.

    Raises ``ValueError`` unless ``0 < fraction <= 1``.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"control fraction must be in (0, 1], got {fraction!r}")
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(table), dtype=bool)
    take = int(round(len(table) * fraction))
    mask[rng.choice(len(table), size=take, replace=False)] = True
    domains = [dom for dom, _ in top_domains(table, d)]
    aggregate = domain_visit_counts(table, domains)
    sub = domain_visit_counts(table, domains, row_mask=mask)
    _, p = chi_square_test(sub, aggregate)
    return p


def chi_square_csv(rows: Sequence[ChiSquareRow]) -> str:
    lines = ["attribute,group,D,statistic,p_value"]
    for r in rows:
        lines.append(f"{r.attribute},{r.group},{r.d},{r.statistic:.10g},{r.p_value:.10g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Deployment-scale control


@dataclass
class OTControlResult:
    num_cohorts: int
    k: int
    cohort_size_ratio: float
    t: float
    n_members: int
    violations: dict[str, int]
    max_excess: dict[str, float]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "num_cohorts": self.num_cohorts,
            "k": self.k,
            "cohort_size_ratio": self.cohort_size_ratio,
            "t": self.t,
            "n_members": self.n_members,
            "violations": dict(sorted(self.violations.items())),
            "max_excess": {k: float(v) for k, v in sorted(self.max_excess.items())},
        }


def ot_scale_control(
    num_cohorts: int,
    k: int,
    cohort_size_ratio: float,
    target: JointDistribution,
    t: float,
    seed: int,
    *,
    chunk_size: int = 4_000_000,
) -> OTControlResult:
    """Streamed t-closeness check on a deployment-scale population.

    Members number num_cohorts * k * ratio. The first num_cohorts * k get
    cohort id (index // k); the rest draw cohorts uniformly. Demographics
    are i.i.d. from the target joint. Only per-cohort demographic count
    matrices are held in memory, never the member-level population.
    """
    for name, value in (("num_cohorts", num_cohorts), ("k", k), ("chunk_size", chunk_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    n_members = int(round(num_cohorts * k * cohort_size_ratio))
    n_direct = num_cohorts * k
    if n_direct > n_members:
        raise ValueError("cohort_size_ratio must be >= 1")
    n_cells = len(RACE_GROUPS) * len(INCOME_GROUPS)
    cell_cum = np.cumsum(target.flat())
    cell_cum[-1] = 1.0
    counts = np.zeros(num_cohorts * n_cells, dtype=np.int64)
    # Separate streams, one double consumed per member, so the result is
    # independent of how the population is chunked.
    rng_cohort = np.random.default_rng(derive_seed(seed, "ot-control", 0))
    rng_cell = np.random.default_rng(derive_seed(seed, "ot-control", 1))

    done = 0
    while done < n_members:
        size = min(chunk_size, n_members - done)
        idx = np.arange(done, done + size, dtype=np.int64)
        cohorts = idx // k
        n_tail = int((idx >= n_direct).sum())
        if n_tail:
            cohorts[size - n_tail :] = np.floor(
                rng_cohort.random(n_tail) * num_cohorts
            ).astype(np.int64)
        cells = np.searchsorted(cell_cum, rng_cell.random(size), side="right")
        counts += np.bincount(cohorts * n_cells + cells, minlength=len(counts))
        done += size

    grid = counts.reshape(num_cohorts, len(RACE_GROUPS), len(INCOME_GROUPS))
    violations: dict[str, int] = {}
    max_excess: dict[str, float] = {}
    for attribute, axis in (("race", 2), ("income", 1)):
        attr_counts = grid.sum(axis=axis)  # (num_cohorts, 4)
        pop = attr_counts.sum(axis=0) / attr_counts.sum()
        _, worst = anomalous_category(attr_counts, pop)
        violations[attribute] = int((worst > t).sum())
        max_excess[attribute] = float(worst.max())
    return OTControlResult(
        num_cohorts=num_cohorts,
        k=k,
        cohort_size_ratio=cohort_size_ratio,
        t=float(t),
        n_members=n_members,
        violations=violations,
        max_excess=max_excess,
    )
