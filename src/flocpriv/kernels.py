"""The hash-bitvector kernel: one NumPy pass over a per-domain feature table.

A SimHash feature depends only on (domain hash, bit, seed), so the kernel
tabulates ``F[v, b]`` once for each distinct domain hash ``v`` and then sums
table rows per CSR row. Results are bit-identical to the scalar definition
in ``simhash.gaussian_feature``: the uniform draws are exact (integer
scramble, then an exact power-of-two scale), each feature adds its 12
uniforms in order before subtracting 6.0, and each row adds its features in
ascending domain-hash order. ``np.sum`` is pairwise and would round
differently, so both reductions are written as explicit sequential adds.
Rows may list their domains in any order: the kernel sorts each row by hash
itself, and equal hashes share a table row, so their order changes no sum.

Both the table fill and the row sums work through blocks of about
``_BLOCK`` elements, in buffers allocated once per call, so the working set
stays in cache and scratch memory does not grow with the input.
"""

from __future__ import annotations

import numpy as np

from .hashing import DRAWS_PER_FEATURE, GOLDEN, INV_2_53, MIX_C1, MIX_C2, check_bit_length

KERNEL_NAME = "numpy-table"

_U64 = np.uint64
_SHIFT_33 = _U64(33)
_SHIFT_11 = _U64(11)

_MIX_C1 = _U64(MIX_C1)
_MIX_C2 = _U64(MIX_C2)

# Elements in each (domains or rows, bit_length) scratch block: small
# enough that a block's buffers stay in cache.
_BLOCK = 1 << 15


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """``hashing.mix64`` of every element of ``x``, in place; ``tmp`` is
    scratch of x's shape."""
    np.right_shift(x, _SHIFT_33, out=tmp)
    x ^= tmp
    x *= _MIX_C1
    np.right_shift(x, _SHIFT_33, out=tmp)
    x ^= tmp
    x *= _MIX_C2
    np.right_shift(x, _SHIFT_33, out=tmp)
    x ^= tmp


def _feature_table(keys: np.ndarray, bit_length: int) -> np.ndarray:
    """``F[v, b]`` for stream keys ``keys[v]``, shape (len(keys), bit_length).

    Draw j of bit b uses counter t = b * 12 + j, i.e. the scramble of
    ``key + GOLDEN * (t + 1)`` (wrapping mod 2**64). The table is filled
    block by block of whole key rows; each draw is scrambled, shifted and
    scaled in the reused ``x``/``tmp``/``u`` buffers.
    """
    counters = (
        np.arange(1, bit_length * DRAWS_PER_FEATURE + 1, dtype=np.uint64) * _U64(GOLDEN)
    ).reshape(bit_length, DRAWS_PER_FEATURE).T.copy()  # row j: draw j of every bit
    table = np.empty((len(keys), bit_length))
    block = max(1, min(_BLOCK // bit_length, len(keys)))
    x = np.empty((block, bit_length), dtype=np.uint64)
    tmp = np.empty_like(x)
    u = np.empty((block, bit_length))
    for lo in range(0, len(keys), block):
        chunk = keys[lo : lo + block, None]
        n = len(chunk)
        acc = table[lo : lo + n]
        for j in range(DRAWS_PER_FEATURE):
            np.add(chunk, counters[j], out=x[:n])
            _mix64(x[:n], tmp[:n])
            x[:n] >>= _SHIFT_11
            # exact: a 53-bit integer times a power of two
            if j == 0:
                np.multiply(x[:n], INV_2_53, out=acc)
            else:
                np.multiply(x[:n], INV_2_53, out=u[:n])
                acc += u[:n]
        acc -= 6.0
    return table


def simhash_rows(
    values: np.ndarray,
    offsets: np.ndarray,
    bit_length: int,
    seed_key: int,
) -> np.ndarray:
    """Hash bitvectors for every row of a CSR (values, offsets) layout.

    ``values`` holds concatenated 64-bit domain hashes, each row slice in
    any order; ``offsets`` is the usual length n_rows + 1 index array.
    Bit b of a result (counting from the most significant end of a
    ``bit_length``-wide value) is 1 iff the row's summed feature is > 0, so
    empty rows hash to 0. Memory is O(distinct hashes × bit_length) for the
    feature table plus a constant scratch of a few ``_BLOCK``-element
    buffers. Raises ``ValueError`` unless ``1 <= bit_length <= 64``.
    """
    bit_length = int(bit_length)
    check_bit_length(bit_length)
    values = np.asarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    out = np.zeros(len(offsets) - 1, dtype=np.uint64)
    distinct, inv = np.unique(values, return_inverse=True)
    keys = distinct ^ _U64(seed_key)
    _mix64(keys, np.empty_like(keys))
    table = _feature_table(keys, bit_length)
    # Sorting (row, hash rank) keys puts each row in hash order.
    lengths = np.diff(offsets)
    row_base = np.repeat(np.arange(len(lengths), dtype=np.int64) * len(distinct), lengths)
    inv = np.sort(row_base + inv) - row_base

    # Longest rows first, so the rows still open at position p are a prefix.
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    starts = offsets[:-1][order]
    shifts = np.arange(bit_length - 1, -1, -1, dtype=np.uint64)
    n_rows = int(np.count_nonzero(lengths))
    block = max(1, min(_BLOCK // bit_length, n_rows))
    sums = np.empty((block, bit_length))
    for lo in range(0, n_rows, block):
        rows_len = lengths[lo : lo + block]
        rows_start = starts[lo : lo + block]
        acc = sums[: len(rows_len)]
        acc[...] = 0.0
        for p in range(int(rows_len[0])):
            n_open = int(np.count_nonzero(rows_len > p))
            acc[:n_open] += table[inv[rows_start[:n_open] + p]]
        bits = (acc > 0.0).astype(np.uint64)
        out[order[lo : lo + block]] = np.bitwise_or.reduce(bits << shifts, axis=1)
    return out
