"""Demographically stratified weekly panels.

A panel is a subset of one week's machines whose race x income cell
counts exactly match a target joint distribution under largest-remainder
apportionment. Panels drawn for the same week are disjoint, so repeated
panels give independent-ish views of the same population.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

import numpy as np

from .cohorts import SortedPopulation
from .ingest import INCOME_GROUPS, RACE_GROUPS, MachineWeekTable
from .prefixlsh import CohortMap
from .simhash import SimHashConfig

N_CELLS = len(RACE_GROUPS) * len(INCOME_GROUPS)


def _is_number(value: Any) -> bool:
    """Whether a JSON value is a finite number (``bool`` is not one)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max  # False for NaN and ints beyond float


class PanelError(ValueError):
    """Raised when a week's population cannot fill the requested panels."""


@dataclass(frozen=True)
class JointDistribution:
    """Race x income cell probabilities (race-major, rows sum to 1 overall)."""

    cells: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.cells) != len(RACE_GROUPS) or any(
            len(row) != len(INCOME_GROUPS) for row in self.cells
        ):
            raise ValueError("joint distribution must be race x income shaped")
        flat = [p for row in self.cells for p in row]
        if not all(p >= 0 for p in flat):  # NaN fails too
            raise ValueError("cell probabilities must be non-negative")
        if abs(sum(flat) - 1.0) > 1e-9:
            raise ValueError(f"cell probabilities sum to {sum(flat)!r}, not 1")

    def flat(self) -> np.ndarray:
        return np.array([p for row in self.cells for p in row], dtype=np.float64)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "race": list(RACE_GROUPS),
            "income": list(INCOME_GROUPS),
            "probabilities": [list(row) for row in self.cells],
        }

    @classmethod
    def from_json_dict(cls, payload: Any) -> "JointDistribution":
        """The distribution of a ``to_json_dict`` payload; a bad key is a ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"joint distribution must be a JSON object, not {type(payload).__name__}"
            )
        for key in ("race", "income", "probabilities"):
            if not isinstance(payload.get(key), list):
                raise ValueError(f"joint distribution needs a list under {key!r}")
        if tuple(payload["race"]) != RACE_GROUPS or tuple(payload["income"]) != INCOME_GROUPS:
            raise ValueError("joint distribution labels do not match canonical groups")
        rows = payload["probabilities"]
        if not all(isinstance(row, list) and all(map(_is_number, row)) for row in rows):
            raise ValueError(
                "joint distribution 'probabilities' must be a list of lists of finite numbers"
            )
        return cls(tuple(tuple(float(p) for p in row) for row in rows))

    @classmethod
    def default(cls) -> "JointDistribution":
        """Bundled illustrative household joint distribution."""
        text = resources.files("flocpriv.data").joinpath("joint_default.json").read_text("utf-8")
        return cls.from_json_dict(json.loads(text))


def apportion(total: int, probs: np.ndarray) -> np.ndarray:
    """Largest-remainder integer apportionment of ``total`` over ``probs``.

    Ties on remainders break toward the lower index, so the result is
    deterministic.
    """
    quotas = total * np.asarray(probs, dtype=np.float64)
    base = np.floor(quotas).astype(np.int64)
    short = total - int(base.sum())
    if short:
        remainders = quotas - base
        order = np.lexsort((np.arange(len(probs)), -remainders))
        base[order[:short]] += 1
    return base


@dataclass
class Panel:
    """One stratified sample of a week's machine population.

    A panel is a draw of table rows and their demographic labels; it holds
    no hashes. ``cluster_panel`` hashes ``rows`` of ``table`` with
    ``hash_seed``, so it needs both; ``stratified_panels`` sets them.
    """

    panel_id: int
    week_index: int
    rows: np.ndarray  # row indices into the source table
    race_idx: np.ndarray
    income_idx: np.ndarray
    cohort_map: CohortMap | None = field(default=None)
    cohort_ids: np.ndarray | None = field(default=None)
    table: MachineWeekTable | None = field(default=None, repr=False)
    hash_seed: int | None = field(default=None)

    @property
    def size(self) -> int:
        return len(self.rows)


def _max_feasible_size(avail: np.ndarray, probs: np.ndarray, panels_per_week: int) -> int:
    support = probs > 0
    with np.errstate(divide="ignore"):
        bounds = np.floor(avail[support] / panels_per_week / probs[support])
    m = int(min(bounds.min(), avail.sum() // panels_per_week)) if support.any() else 0
    while m > 0:
        if np.all(apportion(m, probs) * panels_per_week <= avail):
            return m
        m -= 1
    return 0


def stratified_panels(
    table: MachineWeekTable,
    target: JointDistribution,
    panels_per_week: int,
    seed: int,
    *,
    bit_length: int,
    sim_seed: int,
) -> list[Panel]:
    """Draw ``panels_per_week`` disjoint stratified panels for each week.

    Panel size is the largest m for which every demographic cell can
    supply its apportioned count to all panels; cell counts then match
    the target exactly. Raises ``PanelError`` (naming the week and the
    binding cell) when even m = 1 is infeasible, and ``ValueError`` before
    any draw when ``SimHashConfig`` rejects ``bit_length`` or ``sim_seed``.
    The draw hashes nothing; ``cluster_panel`` hashes with ``sim_seed``.
    """
    config = SimHashConfig(bit_length, sim_seed)
    if panels_per_week < 1:
        raise PanelError("panels_per_week must be >= 1")
    rng = np.random.default_rng(seed)
    probs = target.flat()
    panels: list[Panel] = []

    for week in table.week_values().tolist():
        rows = table.rows_for_week(week)
        cells = table.race_idx[rows].astype(np.int64) * len(INCOME_GROUPS) + table.income_idx[rows]
        avail = np.bincount(cells, minlength=N_CELLS)
        m = _max_feasible_size(avail, probs, panels_per_week)
        if m < 1:
            worst = int(np.argmax((probs > 0) & (avail == 0)))
            race = RACE_GROUPS[worst // len(INCOME_GROUPS)]
            income = INCOME_GROUPS[worst % len(INCOME_GROUPS)]
            raise PanelError(
                f"week {week}: cannot fill {panels_per_week} stratified panel(s); "
                f"cell ({race}, {income}) has {avail[worst]} machines"
            )
        counts = apportion(m, probs)
        picks: list[list[np.ndarray]] = [[] for _ in range(panels_per_week)]
        for cell in range(N_CELLS):
            need = int(counts[cell]) * panels_per_week
            if need == 0:
                continue
            pool = rows[cells == cell]
            chosen = rng.permutation(pool)[:need]
            for p in range(panels_per_week):
                picks[p].append(chosen[p * counts[cell] : (p + 1) * counts[cell]])
        for p in range(panels_per_week):
            panel_rows = np.sort(np.concatenate(picks[p]))
            panels.append(
                Panel(
                    panel_id=len(panels),
                    week_index=week,
                    rows=panel_rows,
                    race_idx=table.race_idx[panel_rows],
                    income_idx=table.income_idx[panel_rows],
                    table=table,
                    hash_seed=config.seed,
                )
            )
    return panels


def cluster_panel(panel: Panel, k: int, bit_length: int) -> Panel:
    """Attach the panel's cohort map and per-machine cohort ids.

    The map is built on the panel rows' ``bit_length``-bit hashes with the
    panel's ``hash_seed``, by a ``cohorts.SortedPopulation``. Raises
    ``PanelError`` for a panel without a source table.
    """
    if panel.table is None or panel.hash_seed is None:
        raise PanelError(f"panel {panel.panel_id} has no source table and hash seed to cluster")
    sim = SimHashConfig(bit_length, panel.hash_seed)
    panel.cohort_map, panel.cohort_ids = SortedPopulation(panel.table, panel.rows, sim).cluster(k)
    return panel
