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
from dataclasses import dataclass
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


def violation_curve(panel: Panel, t_grid: Sequence[float], attribute: str) -> np.ndarray:
    """Violating fraction at every t.

    The excesses are sorted once; the share strictly above t is then
    ``(n - searchsorted(sorted, t, side="right")) / n`` for the whole grid.
    """
    _, excesses = anomalous_category(
        cohort_category_counts(panel, attribute), population_freqs(panel, attribute)
    )
    n = len(excesses)
    t = np.asarray(t_grid, dtype=np.float64)
    return (n - np.searchsorted(np.sort(excesses), t, side="right")) / n


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
    binomial: list[float]
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
                    "binomial_baseline": self.binomial[i],
                }
                for i in range(len(self.t_grid))
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["t,mean,ci_low,ci_high,shuffle_baseline,binomial_baseline"]
        for i in range(len(self.t_grid)):
            shuffle = "" if self.shuffle_mean is None else f"{self.shuffle_mean[i]:.10g}"
            lines.append(
                f"{self.t_grid[i]:.10g},{self.mean[i]:.10g},{self.ci_low[i]:.10g},"
                f"{self.ci_high[i]:.10g},{shuffle},{self.binomial[i]:.10g}"
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
    intervals = special.mean_confidence_intervals(curves.T.tolist(), confidence)
    means = [m for m, _, _ in intervals]
    lows = [lo for _, lo, _ in intervals]
    highs = [hi for _, _, hi in intervals]

    shuffle_mean = None
    if shuffled:
        shuffle_curves = np.stack([violation_curve(p, t_grid, attribute) for p in shuffled])
        shuffle_mean = shuffle_curves.mean(axis=0).tolist()

    # violation_curve has rejected any panel without a cohort map.
    mean_n = float(np.mean([p.size / p.cohort_map.num_cohorts for p in panels]))
    pooled = np.mean([population_freqs(p, attribute) for p in panels], axis=0)
    binomial = [cohort_violation_probability(int(round(mean_n)), pooled, t) for t in t_grid]
    return TClosenessReport(
        attribute=attribute,
        k=panels[0].cohort_map.k,
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


def _top_ranked(table: MachineWeekTable, d: int) -> np.ndarray:
    """Vocabulary indices of the top-D domains (a prefix of the table's ranking)."""
    if d < 1:
        raise ValueError(f"D must be >= 1, got {d}")
    order, _ = table.domain_ranking()
    if d > len(order):
        warnings.warn(
            f"requested top {d} domains but only {len(order)} distinct exist; truncating",
            stacklevel=3,
        )
    return order[:d]


def _top_visit_counts(
    table: MachineWeekTable, top: np.ndarray, labels: np.ndarray, n_labels: int
) -> np.ndarray:
    """(n_labels, len(top)) visit counts of the ``top`` vocabulary entries.

    A "visit" is one machine-week containing the domain; it counts in the
    row of the visiting row's label. One ``bincount`` counts them all.
    """
    width = len(top)
    column = np.full(len(table.vocab), width, dtype=np.int64)
    column[top] = np.arange(width)
    cols = column[table.dom_indices]
    keep = cols < width
    row_labels = np.repeat(labels, np.diff(table.offsets))[keep].astype(np.int64)
    flat = row_labels * width + cols[keep]
    return np.bincount(flat, minlength=n_labels * width).reshape(n_labels, width)


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
    widths = [len(_top_ranked(table, d)) for d in d_grid]
    # Top-D is a prefix of the ranking, so counting the largest D once gives
    # every smaller D as a column prefix; every row is in exactly one group.
    order, _ = table.domain_ranking()
    by_group = _top_visit_counts(table, order[: max(widths, default=0)], attr_idx, len(groups))
    aggregate = by_group.sum(axis=0)
    rows: list[ChiSquareRow] = []
    for d, width in zip(d_grid, widths):
        for gi, group in enumerate(groups):
            stat, p = chi_square_test(by_group[gi, :width], aggregate[:width])
            rows.append(ChiSquareRow(attribute, group, int(d), stat, p))
    return rows


def random_subsample_pvalue(
    table: MachineWeekTable, d: int, fraction: float, seed: int
) -> float:
    """Control: chi-square p of a demographics-blind row subsample.

    Raises ``ValueError`` unless ``0 < fraction <= 1`` and the sample holds a row.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"control fraction must be in (0, 1], got {fraction!r}")
    take = int(round(len(table) * fraction))
    if take == 0:
        raise ValueError(f"control fraction {fraction!r} of {len(table)} rows samples no row")
    rng = np.random.default_rng(seed)
    mask = np.zeros(len(table), dtype=bool)
    mask[rng.choice(len(table), size=take, replace=False)] = True
    counts = _top_visit_counts(table, _top_ranked(table, d), mask, 2)
    _, p = chi_square_test(counts[1], counts.sum(axis=0))
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


_CELL_BINS = 2**16
_SPLIT_BIN = np.iinfo(np.uint8).max

# Most members drawn per block: the block's buffers stay in cache.
_OT_BLOCK = 1 << 16


def _cell_lookup_table(cell_cum: np.ndarray) -> np.ndarray:
    """Cell of every uniform in each of ``_CELL_BINS`` equal bins of [0, 1).

    Entry b is ``searchsorted(cell_cum, u, side="right")`` for every u in
    [b, b + 1) / _CELL_BINS, or ``_SPLIT_BIN`` when a threshold lies strictly
    inside the bin (at most ``len(cell_cum) - 1`` bins), where it depends on u.
    """
    edges = np.arange(_CELL_BINS + 1) / _CELL_BINS
    low = np.searchsorted(cell_cum, edges[:-1], side="right")
    high = np.searchsorted(cell_cum, edges[1:], side="left")
    return np.where(low == high, low, _SPLIT_BIN).astype(np.uint8)


def _uniform_cells(
    u: np.ndarray, cell_cum: np.ndarray, cell_lut: np.ndarray, bins: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``searchsorted(cell_cum, u, side="right")`` into the uint8 ``out``, for u in [0, 1).

    Reads each cell from ``cell_lut`` (``_cell_lookup_table(cell_cum)``) by
    u's bin and searches only in split bins. Scales ``u`` in place and uses
    the uint16 ``bins`` (of u's length) as scratch.
    """
    u *= _CELL_BINS  # exact: a power-of-two scaling
    np.copyto(bins, u, casting="unsafe")  # truncation gives the bin
    np.take(cell_lut, bins, out=out, mode="clip")  # bins are in range; "clip" is unbuffered
    split = np.flatnonzero(out == _SPLIT_BIN)
    out[split] = np.searchsorted(cell_cum, u[split] / _CELL_BINS, side="right")
    return out


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
    are i.i.d. from the target joint. Members are streamed in fixed blocks
    of at most ``min(_OT_BLOCK, chunk_size)`` through buffers allocated
    once, so scratch memory is constant and only the per-cohort demographic
    count matrices are held, never the member-level population.
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
    counts = np.zeros((num_cohorts, n_cells), dtype=np.int64)
    # Separate streams, one double consumed per member, so the result is
    # independent of how the population is split into blocks.
    rng_cohort = np.random.default_rng(derive_seed(seed, "ot-control", 0))
    rng_cell = np.random.default_rng(derive_seed(seed, "ot-control", 1))
    cell_lut = _cell_lookup_table(cell_cum)

    block = min(_OT_BLOCK, chunk_size, n_members)
    u = np.empty(block)
    bins = np.empty(block, dtype=np.uint16)
    cells = np.empty(block, dtype=np.uint8)
    flat = np.empty(block, dtype=np.intp)

    def next_cells(n: int) -> np.ndarray:
        """Cells of the next n members of the cell stream."""
        rng_cell.random(n, out=u[:n])
        return _uniform_cells(u[:n], cell_cum, cell_lut, bins[:n], cells[:n])

    per_block = block // k
    if per_block:
        # A block holds whole cohorts; member i of it counts in row i // k.
        offsets = np.repeat(np.arange(per_block, dtype=np.intp) * n_cells, k)
        for lo in range(0, num_cohorts, per_block):
            c = min(per_block, num_cohorts - lo)
            n = c * k
            np.add(offsets[:n], next_cells(n), out=flat[:n])
            counts[lo : lo + c] += np.bincount(flat[:n], minlength=c * n_cells).reshape(c, -1)
    else:
        # A cohort spans several blocks, which count into its row alone.
        for row in counts:
            for lo in range(0, k, block):
                row += np.bincount(next_cells(min(block, k - lo)), minlength=n_cells)

    flat_counts = counts.reshape(-1)
    for lo in range(n_direct, n_members, block):
        n = min(block, n_members - lo)
        cohort = u[:n]
        rng_cohort.random(n, out=cohort)
        cohort *= num_cohorts
        np.floor(cohort, out=cohort)
        cohort *= n_cells  # exact: integers below 2**53
        np.copyto(flat[:n], cohort, casting="unsafe")
        flat[:n] += next_cells(n)  # overwrites u; the cohorts are already in flat
        np.add.at(flat_counts, flat[:n], 1)

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
