"""Cohort-sequence unicity analysis.

Machines are observed over aligned, non-overlapping windows of
consecutive weeks. Every complete window becomes one sample, its weeks
relabeled to positions 1..w; samples from all windows are pooled, each
position's pooled population is clustered independently, and a sample's
signature at horizon h is its cohort ids at positions 1..h (optionally
prefixed with the machine's state). The unicity fraction is the share of
samples whose signature is unique in the pool.

A signature is one mixed-radix int64 key per sample (``_signature_key``:
``key * (col.max() + 1) + col``, column by column), equal for two
samples exactly when their id tuples are. Only when the next column could
carry the key past int64 is it replaced by its dense rank, which needs an
argsort and a scatter; otherwise no rank is computed, because a share
reads only group sizes. Each reported share (``_unique_share``) is then
one sort of its keys, ``np.unique`` with counts only.
``unicity_fractions`` carries the key from one horizon to the next and
takes three shares per horizon: the key's, the known-state subset's, and
that subset's (key, state) fingerprint key's. A sweep point reports the
full-window horizon alone: the window's key share and its fingerprint's.

A sweep over k clusters the same positions at every k. Each position's
pooled population is sorted by hash once (``cohorts.SortedPopulation``),
kept in its ``SequenceSet`` per hash width and seed, and clustered again
at each k; ``SequenceSet.select`` starts a new set with nothing kept. A
smaller k asks for a wider first pass, which serves every larger k, so
the sweep sorts each position for its grid's smallest k before the first
point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from .cohorts import SortedPopulation
from .geo import UNKNOWN_STATE
from .hashing import check_integer
from .ingest import MachineWeekTable
from .prefixlsh import CohortError, CohortMap, _check_k
from .simhash import SimHashConfig


@dataclass
class SequenceSet:
    """All complete windows of a table, pooled across machines and time."""

    table: MachineWeekTable
    window: int
    row_matrix: np.ndarray  # (n_samples, window) rows into table
    machine_ids: np.ndarray
    window_index: np.ndarray
    state_idx: np.ndarray
    known_state: np.ndarray
    # (bit_length, seed, position) -> that position's population sorted by hash
    _populations: dict[tuple[int, int, int], SortedPopulation] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_samples(self) -> int:
        return len(self.machine_ids)

    def select(self, sample_mask: np.ndarray) -> "SequenceSet":
        return SequenceSet(
            table=self.table,
            window=self.window,
            row_matrix=self.row_matrix[sample_mask],
            machine_ids=self.machine_ids[sample_mask],
            window_index=self.window_index[sample_mask],
            state_idx=self.state_idx[sample_mask],
            known_state=self.known_state[sample_mask],
        )

    def population(self, position: int, config: SimHashConfig) -> SortedPopulation:
        """Position ``position``'s pooled rows sorted by hash under ``config``,
        sorted on first use and kept per (bit_length, seed), as the table
        keeps its hashes."""
        key = (config.bit_length, config.seed, position)
        if key not in self._populations:
            rows = self.row_matrix[:, position]
            self._populations[key] = SortedPopulation(self.table, rows, config)
        return self._populations[key]


def build_sequences(table: MachineWeekTable, window: int = 4) -> SequenceSet:
    """Pool every machine's complete aligned windows.

    Window j covers weeks [j*window, (j+1)*window); a machine contributes
    a sample for j only when all of those weeks are present. A ``window``
    that is not an integer (as ``check_integer`` reads it) or is below 1
    raises ``ValueError``.
    """
    window = check_integer(window, "window")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(table)
    win_of_row = table.week_indices.astype(np.int64) // window
    # Rows are sorted by (machine, week), so each (machine, window) group is
    # a run of adjacent rows already in ascending week order. Comparing
    # neighbours (no arithmetic on machine IDs) keeps any int64 ID exact.
    ids = table.machine_ids
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (ids[1:] != ids[:-1]) | (win_of_row[1:] != win_of_row[:-1])
    starts = np.flatnonzero(new_group)
    counts = np.diff(starts, append=n)
    full = counts == window
    starts = starts[full]
    row_matrix = starts[:, None] + np.arange(window, dtype=np.int64)
    first = row_matrix[:, 0] if len(starts) else np.empty(0, dtype=np.int64)
    state_idx = table.state_idx[first].astype(np.int64)
    unknown = table.state_labels.index(UNKNOWN_STATE) if UNKNOWN_STATE in table.state_labels else -1
    return SequenceSet(
        table=table,
        window=window,
        row_matrix=row_matrix,
        machine_ids=table.machine_ids[first],
        window_index=win_of_row[first],
        state_idx=state_idx,
        known_state=state_idx != unknown,
    )


@dataclass
class SequenceCohorts:
    """Per-position cohort maps and the (n_samples, window) id matrix."""

    k: int
    window: int
    maps: list[CohortMap]
    cohort_ids: np.ndarray

    def cohorts_per_position(self) -> list[int]:
        return [m.num_cohorts for m in self.maps]


def assign_sequence_cohorts(
    seqs: SequenceSet, k: int, config: SimHashConfig = SimHashConfig()
) -> SequenceCohorts:
    """Cluster each relabeled position's pooled population at level k.

    Each position's population is sorted by hash on the set's first call
    under ``config`` and reused by every later one (``SequenceSet.population``).
    """
    if seqs.n_samples == 0:
        raise CohortError(f"no complete {seqs.window}-week windows to cluster")
    maps: list[CohortMap] = []
    ids = np.empty((seqs.n_samples, seqs.window), dtype=np.int32)
    for p in range(seqs.window):
        cmap, ids[:, p] = seqs.population(p, config).cluster(k)
        maps.append(cmap)
    return SequenceCohorts(k=k, window=seqs.window, maps=maps, cohort_ids=ids)


@dataclass
class HorizonRow:
    horizon: int
    frac_sequence: float
    frac_fingerprint: float
    frac_sequence_known: float  # sequence-only, on the known-state subset


@dataclass
class UnicityReport:
    k: int
    window: int
    n_samples: int
    n_known_state: int
    n_unknown_excluded: int
    cohorts_per_position: list[int]
    rows: list[HorizonRow] = field(default_factory=list)

    def fraction(self, horizon: int, *, fingerprint: bool = False) -> float:
        row = self.rows[horizon - 1]
        return row.frac_fingerprint if fingerprint else row.frac_sequence

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "window": self.window,
            "n_samples": self.n_samples,
            "n_known_state": self.n_known_state,
            "n_unknown_excluded": self.n_unknown_excluded,
            "cohorts_per_position": self.cohorts_per_position,
            "horizons": [asdict(r) for r in self.rows],
        }


def _signature_key(columns: Iterable[np.ndarray]) -> np.ndarray:
    """One int64 key per sample, equal for two samples exactly when their
    tuples of (non-negative) column values are.

    The key is ``key * (col.max() + 1) + col`` per column. When the next
    product could pass 2**63 the key is first replaced by its dense rank,
    which is below n; so every value must stay below 2**63 / n, as int32
    cohort IDs and state indices do.
    """
    key: Any = 0
    bound = 1  # every key is below it
    for col in columns:
        col = col.astype(np.int64)
        radix = int(col.max(initial=0)) + 1
        if bound * radix > 2**63:
            uniques, key = np.unique(key, return_inverse=True)
            bound = len(uniques)
        key = key * radix + col
        bound *= radix
    return key


def _unique_share(key: np.ndarray) -> float:
    """Share of the samples whose key no other sample has: one sort."""
    _, counts = np.unique(key, return_counts=True)
    return float((counts == 1).sum()) / len(key) if len(key) else 0.0


def unicity_fractions(seqs: SequenceSet, cohorts: SequenceCohorts) -> UnicityReport:
    """Unicity at every horizon, with and without the state fingerprint.

    The fingerprint column is computed over the subpopulation whose state
    is known; unknown-state samples are excluded from it and counted.

    Each horizon's key is ``_signature_key`` of the pair (key at h-1,
    cohort ID at h). The known-state column is the share of the same keys
    within the known subset, and the fingerprint column the share of the
    (key, state) key on that subset.
    """
    known = seqs.known_state
    n = seqs.n_samples
    n_known = int(known.sum())
    report = UnicityReport(
        k=cohorts.k,
        window=seqs.window,
        n_samples=n,
        n_known_state=n_known,
        n_unknown_excluded=n - n_known,
        cohorts_per_position=cohorts.cohorts_per_position(),
    )
    states = seqs.state_idx[known]
    key = np.zeros(n, dtype=np.int64)
    for h, col in enumerate(cohorts.cohort_ids.T, start=1):
        key = _signature_key((key, col))
        report.rows.append(
            HorizonRow(
                h,
                _unique_share(key),
                _unique_share(_signature_key((key[known], states))),
                _unique_share(key[known]),
            )
        )
    return report


@dataclass
class SweepPoint:
    param: int
    n_samples: int
    frac_sequence: float
    frac_fingerprint: float


@dataclass
class SweepResult:
    param_name: str
    window: int  # every point is at the full-window horizon
    points: list[SweepPoint]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "param": self.param_name,
            "window": self.window,
            "horizon": self.window,
            "points": [
                {
                    self.param_name: p.param,
                    "n_samples": p.n_samples,
                    "frac_sequence": p.frac_sequence,
                    "frac_fingerprint": p.frac_fingerprint,
                }
                for p in self.points
            ],
        }


def _point(seqs: SequenceSet, k: int, config: SimHashConfig, param: int) -> SweepPoint:
    """Unicity at the full-window horizon only: ``unicity_fractions``' last row."""
    cohorts = assign_sequence_cohorts(seqs, k, config)
    key = _signature_key(cohorts.cohort_ids.T)
    known = seqs.known_state
    return SweepPoint(
        param=param,
        n_samples=seqs.n_samples,
        frac_sequence=_unique_share(key),
        frac_fingerprint=_unique_share(_signature_key((key[known], seqs.state_idx[known]))),
    )


def sweep_population(
    seqs: SequenceSet,
    k: int,
    n_grid: Sequence[int],
    seed: int,
    config: SimHashConfig = SimHashConfig(),
) -> SweepResult:
    """Unicity at the full-window horizon versus population size.

    For each grid value, that many machines are drawn without replacement
    and cohorts are rebuilt from scratch on the reduced pool. A set with no
    complete window is a ``CohortError``, as in ``assign_sequence_cohorts``;
    a grid value below 1 or above the number of machines is a ``ValueError``.
    """
    if seqs.n_samples == 0:
        raise CohortError(f"no complete {seqs.window}-week windows to cluster")
    rng = np.random.default_rng(seed)
    machines = np.unique(seqs.machine_ids)
    points = []
    for n in n_grid:
        if n < 1:
            raise ValueError(f"population grid value {n} must be >= 1")
        if n > len(machines):
            raise ValueError(f"population grid value {n} exceeds {len(machines)} machines")
        chosen = rng.choice(machines, size=n, replace=False)
        mask = np.isin(seqs.machine_ids, chosen)
        points.append(_point(seqs.select(mask), k, config, int(n)))
    return SweepResult("n_machines", seqs.window, points)


def sweep_k(
    seqs: SequenceSet, k_grid: Sequence[int], config: SimHashConfig = SimHashConfig()
) -> SweepResult:
    """Unicity at the full-window horizon versus the anonymity level k.

    Every k clusters the same positions, so each position's population is
    sorted once for the whole grid (``SequenceSet.population``), at the
    first pass of the grid's smallest k. Every k is checked first: one
    ``prefixlsh`` refuses raises ``CohortError`` before any sort.
    """
    k_grid = [_check_k(k) for k in k_grid]
    for position in range(seqs.window if k_grid else 0):
        seqs.population(position, config).presort(min(k_grid))
    points = [_point(seqs, k, config, k) for k in k_grid]
    return SweepResult("k", seqs.window, points)
