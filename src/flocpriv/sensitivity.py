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

import contextlib
import ctypes
import math
import mmap
import numbers
import os
import signal
import threading
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Any, Sequence

import numpy as np

from . import special
from .hashing import check_integer, derive_seed
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


def _cohort_ids(panel: Panel) -> np.ndarray:
    """The panel's per-member cohort ids; a panel not yet clustered is an error."""
    if panel.cohort_ids is None or panel.cohort_map is None:
        raise ValueError("panel has no cohort assignments; cluster it first")
    return panel.cohort_ids


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


def violation_curves(
    panels: Sequence[Panel], t_grid: Sequence[float], attribute: str
) -> np.ndarray:
    """(len(panels), len(t_grid)) violating fractions, one row per panel.

    Counts every panel at once. One ``bincount`` over each member's
    panel-offset cohort id and category gives all cohort counts, and each
    panel's category totals are the sums of its cohorts' rows. A cohort with
    excess e violates t exactly when more grid values lie below e than
    below t, so one ``searchsorted`` into the sorted grid gives each
    cohort's count of grid values below its excess, and a per-panel
    ``bincount`` of those counts, cumulated, gives the number of cohorts
    violating each t. Memory is O(cohorts + panels x grid). Each fraction is
    the same integer over the same cohort count as a per-panel, per-t count
    of ``excess > t``, so the result is exact.
    """
    t = np.asarray(t_grid, dtype=np.float64)
    if not panels:
        return np.empty((0, len(t)))
    n_groups = len(attribute_groups(attribute))
    ids = [_cohort_ids(p) for p in panels]
    n_cohorts = np.array([p.cohort_map.num_cohorts for p in panels], dtype=np.int64)
    starts = np.cumsum(n_cohorts) - n_cohorts
    # Built in place, a panel at a time: the one member-sized array is the key.
    key = np.concatenate(ids, dtype=np.int64)
    lo = 0
    for panel, panel_ids, start in zip(panels, ids, starts.tolist()):
        seg = key[lo : lo + len(panel_ids)]
        seg += start
        seg *= n_groups
        seg += _attr_idx(panel, attribute)
        lo += len(panel_ids)
    counts = np.bincount(key, minlength=int(n_cohorts.sum()) * n_groups).reshape(-1, n_groups)
    del key
    totals = np.add.reduceat(counts, starts, axis=0)
    pop = totals / totals.sum(axis=1, keepdims=True)
    _, excesses = anomalous_category(counts, np.repeat(pop, n_cohorts, axis=0))

    width = len(t) + 1
    grid = np.sort(t)
    below = np.searchsorted(grid, excesses, side="left")
    rank = np.searchsorted(grid, t, side="left")  # grid values below each t
    del grid
    below += np.repeat(np.arange(len(panels)) * width, n_cohorts)
    # at_most[p, j]: cohorts of panel p with at most j grid values below their excess
    at_most = np.bincount(below, minlength=len(panels) * width).reshape(-1, width)
    np.cumsum(at_most, axis=1, out=at_most)
    violating = np.take(at_most, rank, axis=1)  # C order, as the means sum rows in order
    del at_most, rank
    np.subtract(n_cohorts[:, None], violating, out=violating)
    return violating / n_cohorts[:, None]


def shuffle_baseline(panel: Panel, seed: int) -> Panel:
    """Panel with demographics decoupled from browsing.

    Permutes the two demographic label columns together against the
    rows; marginals are untouched, so any remaining cohort-demographic
    association is sampling noise. The rows, and so their hashes, do not
    move, so the shuffled panel shares every other field with the panel,
    its cohort map and ids included (re-clustering could only rebuild them).
    """
    perm = np.random.default_rng(seed).permutation(panel.size)
    return replace(panel, race_idx=panel.race_idx[perm], income_idx=panel.income_idx[perm])


def _tail_threshold(n: int, p_r: float, t: float) -> int:
    """floor(n * (p_r + t)), held at n from n up and at -1 below 0.

    ``binomial_baseline`` depends on t only through this threshold.
    """
    k_r = n * (p_r + t)
    if k_r >= n:
        return n
    if k_r < 0:
        return -1
    return math.floor(k_r)


def binomial_baseline(n: int, p_r: float, t: float) -> float:
    """Probability a size-n cohort over-represents group r by more than t.

    Models the group-r count as Binomial(n, p_r): returns
    1 - F(floor(n * (p_r + t)); n, p_r), with the boundary conventions
    that a threshold at or above n gives 0 and below 0 gives 1.
    """
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    threshold = _tail_threshold(n, p_r, t)
    if threshold == n:
        return 0.0
    if threshold < 0:
        return 1.0
    return special.binomial_sf(threshold, n, p_r)


def cohort_violation_probabilities(
    n: int, pop_freqs: Sequence[float], t_grid: Sequence[float]
) -> list[float]:
    """Chance any category's excess beats t, at each t of the grid,
    treating categories as independent binomials (the cross-category
    union of the model).

    A tail depends on t only through its threshold floor(n * (p_r + t)),
    so each distinct (threshold, p_r) is evaluated once per call.
    """
    tails: dict[tuple[int, float], float] = {}
    out = []
    for t in t_grid:
        keep = 1.0
        for p_r in map(float, pop_freqs):
            key = (_tail_threshold(n, p_r, t), p_r)
            if key not in tails:
                tails[key] = binomial_baseline(n, p_r, t)
            keep *= 1.0 - tails[key]
        out.append(1.0 - keep)
    return out


#: A t-closeness point's keys, in CSV column order.
_POINT_COLUMNS = ("t", "mean", "ci_low", "ci_high", "shuffle_baseline", "binomial_baseline")


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
        shuffle = self.shuffle_mean or [None] * len(self.t_grid)
        columns = (self.t_grid, self.mean, self.ci_low, self.ci_high, shuffle, self.binomial)
        return {
            "attribute": self.attribute,
            "k": self.k,
            "n_panels": self.n_panels,
            "mean_cohort_size": self.mean_cohort_size,
            "points": [dict(zip(_POINT_COLUMNS, point)) for point in zip(*columns)],
        }


DEFAULT_T_GRID = [round(0.01 * i, 2) for i in range(51)]


def t_closeness_curve(
    panels: Sequence[Panel],
    t_grid: Sequence[float],
    attribute: str,
    *,
    shuffled: Sequence[Panel] | None = None,
) -> TClosenessReport:
    """Mean violating fraction across panels with 95% Student-t CIs.

    ``shuffled`` panels (if given) fill the empirical-null column; the
    analytic column uses the mean cohort size and pooled population
    frequencies of the real panels.
    """
    if len(panels) < 2:
        raise ValueError("need at least 2 panels for a confidence interval")
    curves = violation_curves(panels, t_grid, attribute)
    intervals = special.mean_confidence_intervals(curves.T.tolist())
    means = [m for m, _, _ in intervals]
    lows = [lo for _, lo, _ in intervals]
    highs = [hi for _, _, hi in intervals]

    shuffle_mean = None
    if shuffled:
        shuffle_mean = violation_curves(shuffled, t_grid, attribute).mean(axis=0).tolist()

    # violation_curves has rejected any panel without a cohort map.
    mean_n = float(np.mean([p.size / p.cohort_map.num_cohorts for p in panels]))
    pooled = np.mean([population_freqs(p, attribute) for p in panels], axis=0)
    binomial = cohort_violation_probabilities(int(round(mean_n)), pooled, t_grid)
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


def _check_real(value: float, name: str) -> float:
    """``value``; a ``ValueError`` naming ``name`` if it is a ``bool`` or not a
    ``numbers.Real`` (a string, a complex number, ``np.bool_``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def random_subsample_pvalue(
    table: MachineWeekTable, d: int, fraction: float, seed: int
) -> float:
    """Control: chi-square p of a demographics-blind row subsample.

    Raises ``ValueError`` unless ``fraction`` is a real number (not a
    ``bool``) with ``0 < fraction <= 1`` and the sample holds a row.
    """
    if not 0 < _check_real(fraction, "fraction") <= 1:
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
        return asdict(self)


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


def _count_members(
    m0: int, m1: int, counts: np.ndarray, k: int, cell_cum: np.ndarray, cell_lut: np.ndarray,
    seed: int,
) -> None:
    """Add the members ``[m0, m1)`` to the (num_cohorts, cells) ``counts``.

    Member i's cell is the cell stream's draw i, and a member past the
    first num_cohorts * k draws its cohort as the cohort stream's draw
    i - num_cohorts * k; each draw is one double, so the streams jump to m0
    by ``advance``. A bound inside the direct phase is a multiple of k.
    """
    num_cohorts, n_cells = counts.shape
    n_direct = num_cohorts * k
    rng_cohort = np.random.default_rng(derive_seed(seed, "ot-control", 0))
    rng_cell = np.random.default_rng(derive_seed(seed, "ot-control", 1))
    rng_cell.bit_generator.advance(m0)
    rng_cohort.bit_generator.advance(max(m0, n_direct) - n_direct)

    block = min(_OT_BLOCK, m1 - m0)
    u = np.empty(block)
    bins = np.empty(block, dtype=np.uint16)
    cells = np.empty(block, dtype=np.uint8)
    flat = np.empty(block, dtype=np.intp)

    def next_cells(n: int) -> np.ndarray:
        """Cells of the next n members of the cell stream."""
        rng_cell.random(n, out=u[:n])
        return _uniform_cells(u[:n], cell_cum, cell_lut, bins[:n], cells[:n])

    # A block holds per_block whole cohorts, or one span of a cohort longer
    # than a block; member i of it counts in row i // span of the block.
    per_block, span = max(1, block // k), min(k, block)
    offsets = np.repeat(np.arange(per_block, dtype=np.intp) * n_cells, span)
    last = min(m1, n_direct) // k
    for lo in range(m0 // k, last, per_block):
        c = min(per_block, last - lo)
        for start in range(0, k, span):
            n = c * min(span, k - start)
            np.add(offsets[:n], next_cells(n), out=flat[:n])
            counts[lo : lo + c] += np.bincount(flat[:n], minlength=c * n_cells).reshape(c, -1)

    flat_counts = counts.reshape(-1)
    for lo in range(max(m0, n_direct), m1, block):
        n = min(block, m1 - lo)
        cohort = u[:n]
        rng_cohort.random(n, out=cohort)
        cohort *= num_cohorts
        np.floor(cohort, out=cohort)
        cohort *= n_cells  # exact: integers below 2**53
        np.copyto(flat[:n], cohort, casting="unsafe")
        flat[:n] += next_cells(n)  # overwrites u; the cohorts are already in flat
        np.add.at(flat_counts, flat[:n], 1)


class OTWorkerError(RuntimeError):
    """A worker process of ``ot_scale_control`` exited non-zero or before its counts were done."""


#: Fewest members a worker's share may hold, since a fork and its reaping
#: cost milliseconds: on a 2-core x86-64 VM two processes counted a smallest
#: share of 0.21 M members at 0.89 times the speed of one and of 0.42 M at
#: 1.19 times. 2^21 leaves a margin for a bigger caller (BENCH_30.json).
_OT_MIN_WORKER_MEMBERS = 1 << 21

#: Fewest members a worker's share may hold per entry of the count matrix.
#: Each process fills its own copy of the matrix, and the caller adds each
#: child's copy: on the same VM a split of 10 M members ran at 0.83-1.09
#: times the speed of one process at 0.4-3.9 members per entry in the
#: smaller share, 1.12 at 7.8 and 1.79 at 19.5. At 8, a child's copy holds
#: at most one byte per member it counts.
_OT_MIN_MEMBERS_PER_COUNT = 8


def _member_ranges(
    num_cohorts: int, k: int, n_members: int, workers: int
) -> list[tuple[int, ...]]:
    """Each process's share of ``[0, n_members)``, as the bounds of its ranges.

    Of P shares, share i is ``(d0, d1, t0, t1)``: the i-th of P equal runs of
    whole cohorts of the direct phase, ``[d0, d1)``, and the i-th of P equal
    runs of the tail, ``[t0, t1)``; either may be empty. So every process
    counts the same work of each phase, whatever the phases' costs. P is the
    most shares, at most ``workers``, each holding at least
    ``_OT_MIN_WORKER_MEMBERS`` members and ``_OT_MIN_MEMBERS_PER_COUNT``
    members per count-matrix entry; else the one share is ``(0, n_members)``.
    """
    n_direct = num_cohorts * k
    n_counts = num_cohorts * len(RACE_GROUPS) * len(INCOME_GROUPS)
    least = max(_OT_MIN_WORKER_MEMBERS, _OT_MIN_MEMBERS_PER_COUNT * n_counts)
    for parts in range(workers, 1, -1):
        direct = [k * (num_cohorts * i // parts) for i in range(parts + 1)]
        tail = [n_direct + (n_members - n_direct) * i // parts for i in range(parts + 1)]
        shares = [(*direct[i : i + 2], *tail[i : i + 2]) for i in range(parts)]
        if all(d1 - d0 + t1 - t0 >= least for d0, d1, t0, t1 in shares):
            return shares
    return [(0, n_members)]


def _ranges(share: tuple[int, ...]) -> list[tuple[int, int]]:
    """The non-empty ranges ``[m0, m1)`` whose bounds ``share`` lists."""
    return [(m0, m1) for m0, m1 in zip(share[::2], share[1::2]) if m0 < m1]


def _worker_cpus() -> set[int]:
    """The CPUs this process may run on, each to count in one process; none
    where ``os.fork`` or ``os.sched_getaffinity`` is missing, or where another
    Python thread runs, since a child forked then could inherit a lock that
    thread holds and hang on it."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return set()
    if threading.active_count() > 1:
        return set()
    return os.sched_getaffinity(0)


def _current_cpu() -> int | None:
    """The CPU the calling thread is on (the C library's ``sched_getcpu``), or None."""
    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (OSError, AttributeError):
        return None
    sched_getcpu.argtypes, sched_getcpu.restype = [], ctypes.c_int
    cpu = sched_getcpu()
    return cpu if cpu >= 0 else None


def _count_in_workers(
    shares: list[tuple[int, ...]], counts: np.ndarray, cpus: set[int], args: tuple
) -> None:
    """Count ``shares[0]`` into ``counts`` here and each other share, if any, in
    a forked child, then add each child's counts exactly.

    Each child counts into its own anonymous shared ``mmap``, made just
    before its fork, and then sets the mapping's last byte, its done byte.
    The children run on the allowed ``cpus`` other than the one the caller
    is on; the caller's own affinity never changes, and a child's pinning is
    best effort. Left to the scheduler, ``study``'s split was faster than
    one process in 3 of 10 alternated runs at one seed and 9 of 10 at
    another; pinned, in 20 of 20 (BENCH_30.json). The caller reaps the
    children in order; a non-zero exit or a done byte not set raises
    ``OTWorkerError``, else the child's counts are added and its mapping
    closed. No child outlives the call: on any exception every child still
    running is killed and reaped, and every mapping is closed.
    """
    others = cpus - {_current_cpu()}
    maps: list[mmap.mmap] = []
    pids: list[int] = []
    try:
        for share in shares[1:]:
            maps.append(mmap.mmap(-1, counts.nbytes + 1))
            pids.append(os.fork())
            if pids[-1] == 0:  # the child always leaves through os._exit
                status = 1
                try:
                    if others:
                        with contextlib.suppress(OSError):
                            os.sched_setaffinity(0, others)
                    mine = np.frombuffer(maps[-1], np.int64, counts.size).reshape(counts.shape)
                    for m0, m1 in _ranges(share):
                        _count_members(m0, m1, mine, *args)
                    maps[-1][-1] = 1
                    status = 0
                finally:
                    os._exit(status)
        for m0, m1 in _ranges(shares[0]):
            _count_members(m0, m1, counts, *args)
        for share in shares[1:]:
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            done = maps[0][-1]
            if status or not done:
                members = " and ".join(f"[{m0}, {m1})" for m0, m1 in _ranges(share))
                early = "" if done else " before its counts were done"
                raise OTWorkerError(
                    f"worker counting members {members} exited with status {status}{early}"
                )
            # No view of the mapping outlives this line, so that it can close.
            counts += np.frombuffer(maps[0], np.int64, counts.size).reshape(counts.shape)
            maps.pop(0).close()
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for shared in maps:
            shared.close()


def ot_scale_control(
    num_cohorts: int,
    k: int,
    cohort_size_ratio: float,
    target: JointDistribution,
    t: float,
    seed: int,
) -> OTControlResult:
    """Streamed t-closeness check on a deployment-scale population.

    Members number num_cohorts * k * ratio. The first num_cohorts * k get
    cohort id (index // k); the rest draw cohorts uniformly. Demographics
    are i.i.d. from the target joint. Members are streamed in fixed blocks
    of at most ``_OT_BLOCK`` through buffers allocated once, so scratch
    memory is constant and only the per-cohort demographic count matrices
    are held, never the member-level population.

    Where the process may run on more than one CPU (``os.sched_getaffinity``)
    and no other Python thread runs, the members are split into as many
    shares, each an equal part of each phase, as there are CPUs and big
    enough shares (``_member_ranges``), and all but the first are counted in
    forked children pinned off the caller's CPU (``_count_in_workers``).
    Counts are integers added exactly, and every range jumps its streams to
    its first member, so the result depends neither on the number of shares
    nor on the block.

    A count that is not an integer (as ``check_integer`` reads it) or is
    below 1, a ratio or ``t`` that is a ``bool`` or not a real number, a
    ratio below 1, a non-finite ``t`` or ratio, or a non-finite member count
    is a ``ValueError``.
    """
    num_cohorts, k = check_integer(num_cohorts, "num_cohorts"), check_integer(k, "k")
    for name, value in (("num_cohorts", num_cohorts), ("k", k)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    for name, value in (("cohort_size_ratio", cohort_size_ratio), ("t", t)):
        if not math.isfinite(_check_real(value, name)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    try:
        members = num_cohorts * k * cohort_size_ratio
    except OverflowError:  # an integer product beyond the float range
        members = math.inf
    if not math.isfinite(members):
        raise ValueError(f"num_cohorts * k * cohort_size_ratio must be finite, got {members!r}")
    n_members = int(round(members))
    if num_cohorts * k > n_members:
        raise ValueError("cohort_size_ratio must be >= 1")
    cell_cum = np.cumsum(target.flat())
    cell_cum[-1] = 1.0
    counts = np.zeros((num_cohorts, len(RACE_GROUPS) * len(INCOME_GROUPS)), dtype=np.int64)
    args = (k, cell_cum, _cell_lookup_table(cell_cum), seed)
    cpus = _worker_cpus()
    shares = _member_ranges(num_cohorts, k, n_members, max(1, len(cpus)))
    _count_in_workers(shares, counts, cpus, args)

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
