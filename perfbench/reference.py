"""A fixed reference computation that measures how fast the host runs now.

On a shared host, co-tenants slow every process by up to half for tens of
seconds at a time, so raw wall times of the same code spread by 20-45%
between runs. The benchmark runs this reference between repetitions of
the timed region and divides each repetition's wall time by the host's
speed at that moment: the mean of the reference times just before and
just after it, relative to ``PINNED_S``. It normalises set-up times the
same way. The ratio of two such times is steady where the raw times are
not.

The reference mixes the kinds of work the workloads do, in about equal
shares of its time: splitting tab-separated lines and counting them in a
dictionary over a large vocabulary; NumPy ``unique`` and ``argsort`` on
an array that fits the per-core cache; and a stable ``argsort`` and a
row-wise ``unique`` on arrays that do not, which feel the memory
contention the sweeps feel. Its inputs never change, and it imports
nothing from flocpriv, so a change to flocpriv cannot move it.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

#: The reference's time on the 2-vCPU host (Python 3.11, NumPy 2.4) the
#: benchmark was defined on, in a quiet moment. A normalised second is a
#: wall second scaled by ``PINNED_S`` over the reference time measured
#: alongside; the constant only sets the unit.
PINNED_S = 0.3
LINES = 30_000
VOCAB = 60_000
KEYS = 200_000
BIG_KEYS = 600_000
ROWS = (60_000, 4)
ROUNDS = 3


class Reference:
    """Builds the fixed inputs once; ``time()`` runs and times the work."""

    def __init__(self) -> None:
        rng = random.Random(20220128)
        self.lines = [
            f"{i}\t{i % 4}\td{rng.randrange(VOCAB):06d}.example.com\t20200101\t{i % 9}"
            for i in range(LINES)
        ]
        gen = np.random.default_rng(20220128)
        self.keys = gen.integers(0, 1 << 40, size=KEYS)
        self.big_keys = gen.integers(0, 1 << 40, size=BIG_KEYS)
        self.rows = gen.integers(0, 50, size=ROWS)

    def _work(self) -> int:
        total = 0
        for _ in range(ROUNDS):
            counts: dict[str, int] = {}
            for line in self.lines:
                fields = line.split("\t")
                key = fields[2].rsplit(".", 2)[0]
                counts[key] = counts.get(key, 0) + int(fields[4])
            total += len(sorted(counts))
        total += len(np.unique(self.keys)) + int(np.argsort(self.keys, kind="stable")[0])
        total += int(np.argsort(self.big_keys, kind="stable")[0])
        return total + len(np.unique(self.rows, axis=0))

    def time(self) -> float:
        """Seconds the reference work takes now, with the collector off so
        that the heap the workload left behind does not change it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def speed_scale(*reference_s: float) -> float:
    """Factor that turns wall seconds into normalised seconds, from the
    reference times measured around the timed work."""
    return PINNED_S * len(reference_s) / sum(reference_s)
