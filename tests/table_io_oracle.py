"""The per-line machine-week table I/O that the bulk ``load`` replaced.

``OracleTable`` keeps the earlier constructor, which hashes the whole
vocabulary up front, the per-row builder ``_from_rows``, the per-line
``load`` and the per-row ``save_text``. Like the runtime's, its
vocabulary is in name order and each row lists its domains in name order,
here by interning the sorted set of names. Tests compare
the runtime ``MachineWeekTable`` with it array by array and byte by byte.
The one rule added since is the rejection of an empty domain name, marked
below, so that malformed files raise the same message from both.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from flocpriv.geo import UNKNOWN_STATE
from flocpriv.hashing import domain_hash64
from flocpriv.ingest import (
    _INT32_MAX,
    _INT32_MIN,
    _INT64_MAX,
    _INT64_MIN,
    INCOME_GROUPS,
    RACE_GROUPS,
    MachineWeekTable,
    _is_integer,
)


class OracleTable(MachineWeekTable):
    def __init__(
        self,
        machine_ids: np.ndarray,
        week_indices: np.ndarray,
        state_labels: Sequence[str],
        race_idx: np.ndarray,
        income_idx: np.ndarray,
        state_idx: np.ndarray,
        dom_indices: np.ndarray,
        offsets: np.ndarray,
        vocab: Sequence[str],
    ):
        self.machine_ids = np.asarray(machine_ids, dtype=np.int64)
        self.week_indices = np.asarray(week_indices, dtype=np.int32)
        self.state_labels = tuple(state_labels)
        self.race_idx = np.asarray(race_idx, dtype=np.int8)
        self.income_idx = np.asarray(income_idx, dtype=np.int8)
        self.state_idx = np.asarray(state_idx, dtype=np.int16)
        self.dom_indices = np.asarray(dom_indices, dtype=np.int32)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.vocab = list(vocab)
        self.vocab_hashes = np.fromiter(
            (domain_hash64(d) for d in self.vocab), dtype=np.uint64, count=len(self.vocab)
        )
        ids, weeks = self.machine_ids, self.week_indices
        unordered = (ids[1:] < ids[:-1]) | ((ids[1:] == ids[:-1]) & (weeks[1:] <= weeks[:-1]))
        if unordered.any():
            i = int(np.argmax(unordered)) + 1
            raise ValueError(
                f"row {i} (machine {ids[i]}, week {weeks[i]}) does not follow row {i - 1} "
                f"(machine {ids[i - 1]}, week {weeks[i - 1]}): rows must be strictly "
                "ascending by (machine_id, week_index)"
            )
        self._hash_cache: dict[tuple[int, int], np.ndarray] = {}
        self._ranking: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_rows(
        cls, rows: Mapping[tuple[int, int], tuple[str, str, str, Iterable[str]]]
    ) -> "OracleTable":
        """Table from ``{(machine_id, week): (state, race, income, domains)}``."""
        keys = sorted(rows)
        n = len(keys)
        names = sorted({d for _, _, _, domains in rows.values() for d in domains})
        vocab = {d: i for i, d in enumerate(names)}
        states: dict[str, int] = {UNKNOWN_STATE: 0}
        race_idx = np.empty(n, dtype=np.int8)
        income_idx = np.empty(n, dtype=np.int8)
        state_idx = np.empty(n, dtype=np.int16)
        offsets = np.zeros(n + 1, dtype=np.int64)
        dom_indices: list[int] = []
        for i, key in enumerate(keys):
            state, race, income, domains = rows[key]
            state_idx[i] = states.setdefault(state, len(states))
            race_idx[i] = RACE_GROUPS.index(race)
            income_idx[i] = INCOME_GROUPS.index(income)
            dom_indices.extend(vocab[d] for d in sorted(domains))
            offsets[i + 1] = len(dom_indices)
        return cls(
            np.array([m for m, _ in keys], dtype=np.int64),
            np.array([w for _, w in keys], dtype=np.int32),
            list(states),
            race_idx,
            income_idx,
            state_idx,
            np.array(dom_indices, dtype=np.int32),
            offsets,
            list(vocab),
        )

    def save_text(self) -> str:
        lines = ["machine_id\tweek_index\tstate\trace_group\tincome_group\tdomains"]
        for i in range(len(self)):
            lines.append(
                f"{self.machine_ids[i]}\t{self.week_indices[i]}\t"
                f"{self.state_labels[self.state_idx[i]]}\t"
                f"{RACE_GROUPS[self.race_idx[i]]}\t"
                f"{INCOME_GROUPS[self.income_idx[i]]}\t{'|'.join(self.domains(i))}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path: str) -> "OracleTable":
        rows: dict[tuple[int, int], tuple[str, str, str, list[str]]] = {}
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("machine_id\t"):
                raise ValueError(f"{path}: not a machine-week table")
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split("\t")
                if len(fields) != 6:
                    raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
                mid, week, state, race, income, domains = fields
                if not (_is_integer(mid) and _is_integer(week)):
                    raise ValueError(f"{path}:{lineno}: machine_id and week_index must be integers")
                key = (int(mid), int(week))
                if not (_INT64_MIN <= key[0] <= _INT64_MAX and _INT32_MIN <= key[1] <= _INT32_MAX):
                    raise ValueError(
                        f"{path}:{lineno}: machine_id must fit in int64 and week_index in int32"
                    )
                if race not in RACE_GROUPS or income not in INCOME_GROUPS:
                    raise ValueError(
                        f"{path}:{lineno}: unknown race/income label {race!r}/{income!r}"
                    )
                if key in rows:
                    raise ValueError(
                        f"{path}:{lineno}: machine {key[0]}, week {key[1]} appears twice"
                    )
                names = domains.split("|") if domains else []
                if "" in names:  # the rule added since
                    raise ValueError(f"{path}:{lineno}: empty domain name")
                if len(set(names)) != len(names):
                    raise ValueError(f"{path}:{lineno}: a domain is listed twice")
                rows[key] = (state, race, income, names)
        return cls._from_rows(rows)
