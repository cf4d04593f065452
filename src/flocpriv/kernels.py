"""The hash-bitvector kernel: one NumPy pass over a per-domain feature table.

A SimHash feature depends only on (domain hash, bit, seed), so the kernel
tabulates ``F[v, b]`` once for each distinct domain hash ``v`` and then sums
table rows per CSR row. Results are bit-identical to the scalar definition
in ``simhash.gaussian_feature``: the uniform draws are exact (integer
scramble, then an exact power-of-two scale), each feature adds its 12
uniforms in order before subtracting 6.0, and each row adds its features in
ascending domain-hash order. ``np.sum`` is pairwise and would round
differently, so both reductions are written as explicit sequential adds.
"""

from __future__ import annotations

import numpy as np

from .hashing import DRAWS_PER_FEATURE, GOLDEN, INV_2_53, MIX_C1, MIX_C2

KERNEL_NAME = "numpy-table"

_U64 = np.uint64
_SHIFT_33 = _U64(33)
_SHIFT_11 = _U64(11)

# Bound on each (domains or rows, bit_length) scratch block, in elements.
_CHUNK_BUDGET = 1 << 20


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> _SHIFT_33)
    x = x * _U64(MIX_C1)
    x = x ^ (x >> _SHIFT_33)
    x = x * _U64(MIX_C2)
    return x ^ (x >> _SHIFT_33)


def _feature_table(keys: np.ndarray, bit_length: int) -> np.ndarray:
    """``F[v, b]`` for stream keys ``keys[v]``, shape (len(keys), bit_length).

    Draw j of bit b uses counter t = b * 12 + j, i.e. the scramble of
    ``key + GOLDEN * (t + 1)`` (wrapping mod 2**64).
    """
    counters = (
        np.arange(1, bit_length * DRAWS_PER_FEATURE + 1, dtype=np.uint64) * _U64(GOLDEN)
    ).reshape(bit_length, DRAWS_PER_FEATURE)
    table = np.empty((len(keys), bit_length))
    block = max(1, _CHUNK_BUDGET // bit_length)
    for lo in range(0, len(keys), block):
        chunk = keys[lo : lo + block, None]
        acc = table[lo : lo + block]
        for j in range(DRAWS_PER_FEATURE):
            u = (_mix64(chunk + counters[:, j]) >> _SHIFT_11).astype(np.float64) * INV_2_53
            if j == 0:
                acc[...] = u
            else:
                acc += u
        acc -= 6.0
    return table


def simhash_rows(
    values: np.ndarray,
    offsets: np.ndarray,
    bit_length: int,
    seed_key: int,
) -> np.ndarray:
    """Hash bitvectors for every row of a CSR (values, offsets) layout.

    ``values`` holds concatenated 64-bit domain hashes, each row slice
    sorted ascending; ``offsets`` is the usual length n_rows + 1 index
    array. Bit b of a result (counting from the most significant end of a
    ``bit_length``-wide value) is 1 iff the row's summed feature is > 0, so
    empty rows hash to 0. Memory is O(distinct hashes × bit_length) for the
    feature table plus scratch capped by ``_CHUNK_BUDGET``.
    """
    values = np.asarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    bit_length = int(bit_length)
    out = np.zeros(len(offsets) - 1, dtype=np.uint64)
    if not len(values):
        return out
    distinct, inv = np.unique(values, return_inverse=True)
    table = _feature_table(_mix64(distinct ^ _U64(seed_key)), bit_length)

    # Longest rows first, so the rows still open at position p are a prefix.
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = offsets[:-1][order]
    shifts = np.arange(bit_length - 1, -1, -1, dtype=np.uint64)
    block = max(1, _CHUNK_BUDGET // bit_length)
    for lo in range(0, int(np.count_nonzero(lengths)), block):
        rows_len = lengths[lo : lo + block]
        rows_start = starts[lo : lo + block]
        acc = np.zeros((len(rows_len), bit_length))
        for p in range(int(rows_len[0])):
            n_open = int(np.count_nonzero(rows_len > p))
            acc[:n_open] += table[inv[rows_start[:n_open] + p]]
        bits = (acc > 0.0).astype(np.uint64)
        out[order[lo : lo + block]] = np.bitwise_or.reduce(bits << shifts, axis=1)
    return out
