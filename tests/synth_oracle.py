"""The per-row definitions of ``synth``'s draw and session log, for tests.

``draw_rows`` maps every uniform of a row to a domain and ranks them all;
``write_sessions`` formats and writes one visit at a time. ``synth._draw_rows``
and ``synth.write_sessions`` must give the same values, leave the generator in
the same state, and write the same bytes.
"""

from __future__ import annotations

import datetime as dt
from typing import TextIO

import numpy as np

from flocpriv.geo import STATES, representative_zip
from flocpriv.ingest import INCOME_GROUPS, RACE_GROUPS, WeekConfig
from flocpriv.synth import _INCOME_TO_CODE, _RACE_TO_CODE, GeneratedPopulation


def draw_rows(weights: np.ndarray, sizes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sequential sampling without replacement, vectorized across rows.

    Each row i receives the first ``sizes[i]`` distinct values of an
    i.i.d. stream drawn from ``weights`` (successive sampling). One wide
    vectorized round covers nearly all rows; rows whose stream had too
    many repeats keep their kept values and extend the stream one draw
    at a time.
    """
    n_rows = len(sizes)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    need = int(sizes.max())
    width = 4 * need + 16
    out_vals = np.zeros((n_rows, need), dtype=np.int64)

    draws = np.searchsorted(cum, rng.random((n_rows, width)), side="right")
    # Mark the first occurrence of each value per row, in draw order.
    order = np.argsort(draws, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(draws, order, axis=1)
    first_sorted = np.ones_like(sorted_vals, dtype=bool)
    first_sorted[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    first = np.zeros_like(first_sorted)
    np.put_along_axis(first, order, first_sorted, axis=1)
    rank = np.cumsum(first, axis=1)  # distinct values seen so far
    keep = first & (rank <= sizes[:, None])
    got = np.minimum(rank[:, -1], sizes)

    # Row i keeps got[i] values, so its first got[i] slots take them in order.
    out_vals[np.arange(need) < got[:, None]] = draws[keep]

    for i in np.nonzero(got < sizes)[0]:
        seen = set(int(v) for v in out_vals[i, : got[i]])
        j = int(got[i])
        while j < sizes[i]:
            v = int(np.searchsorted(cum, rng.random(), side="right"))
            if v not in seen:
                seen.add(v)
                out_vals[i, j] = v
                j += 1
    return out_vals


def write_sessions(pop: GeneratedPopulation, fh: TextIO) -> int:
    """Emit the population as a raw session log (one row per visit).

    Week w's visits are dated w weeks after ``WeekConfig().epoch``. Returns
    the number of session rows written. Parsing the output back through
    the ingest pipeline reproduces ``pop.table`` exactly.
    """
    epoch = WeekConfig().epoch
    fh.write(
        "machine_id\tsession_id\tdomain\tdate\ttime\tpages\tduration\tincome\trace\tzip\n"
    )
    table = pop.table
    machine_pos = {int(m): i for i, m in enumerate(pop.machine_ids)}
    session_id = 0
    n = 0
    for i in range(len(table)):
        mid = int(table.machine_ids[i])
        pos = machine_pos[mid]
        date = (epoch + dt.timedelta(weeks=int(table.week_indices[i]))).strftime("%Y%m%d")
        income = _INCOME_TO_CODE[INCOME_GROUPS[pop.income_idx[pos]]]
        race = _RACE_TO_CODE[RACE_GROUPS[pop.race_idx[pos]]]
        zip_code = representative_zip(STATES[pop.state_idx[pos]])
        for j in table.domains(i):
            session_id += 1
            fh.write(
                f"{mid}\t{session_id}\t{j}\t{date}\t12:00:00\t1\t60\t{income}\t{race}\t{zip_code}\n"
            )
            n += 1
    return n
