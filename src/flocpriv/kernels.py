"""The hash-bitvector kernel: one NumPy pass over a per-domain feature table.

A SimHash feature depends only on (domain hash, bit, seed), so the kernel
tabulates ``F[v, b]`` once for each distinct domain hash ``v`` and then sums
table rows per CSR row. This is the one hashing path. Results are
bit-identical to the scalar definition, ``gaussian_feature`` in
``tests/simhash_oracle.py``: each feature adds its 12 uniforms in order
before subtracting 6.0, and each row adds its features in ascending
domain-hash order. ``np.sum`` is pairwise and would round differently, so
both reductions are written as explicit sequential adds. Rows may list
their domains in any order: the kernel sorts each row by hash itself, and
equal hashes share a table row, so their order changes no sum.

A uniform is a 53-bit integer draw times 2**-53. The table adds the integer
draws themselves, read as int64 (exact in float64, being below 2**53), and
scales each feature's sum by 2**-53 once at the end. That is exact: no
partial sum is subnormal, and rounding commutes with a power-of-two scale,
so each partial sum is the scalar one times 2**53. No draw is cast
from uint64, because NumPy has no fast uint64-to-float64 conversion and
buffers it, while the int64 view of the same bits converts in one pass.
"""

from __future__ import annotations

import numpy as np

from .hashing import (
    DRAWS_PER_FEATURE,
    GOLDEN,
    INV_2_53,
    MASK64,
    MIX_C1,
    MIX_C2,
    check_bit_length,
)

KERNEL_NAME = "numpy-table"

_U64 = np.uint64
_SHIFT_33 = _U64(33)
_SHIFT_11 = _U64(11)

_MIX_C1 = _U64(MIX_C1)
_MIX_C2 = _U64(MIX_C2)

# Elements in each (domains or rows, bit_length) block of the table fill
# and of the row sums. A block's buffers, allocated once per call, stay in
# cache, and scratch memory does not grow with the input.
_BLOCK = 1 << 15


def _mix64(x: np.ndarray, tmp: np.ndarray) -> None:
    """The stream's 64-bit finalizer (``mix64`` of ``tests/simhash_oracle.py``)
    on every element of ``x``, in place; ``tmp`` is scratch of x's shape."""
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
    block by block of whole key rows. Each block computes
    ``base = key + GOLDEN * (12 b + 1)`` once, so draw j is ``base`` plus the
    scalar ``GOLDEN * j`` (the same value mod 2**64), and each draw is
    scrambled and shifted in the reused ``x``/``tmp`` buffers. The block
    adds the shifted draws through their int64 view, in units of 2**-53,
    then scales by ``INV_2_53`` and subtracts 6.0: bit-identical to adding
    the uniforms, for the reasons in the module docstring.
    """
    bases = np.arange(1, bit_length * DRAWS_PER_FEATURE + 1, DRAWS_PER_FEATURE, dtype=np.uint64)
    bases *= _U64(GOLDEN)
    steps = [_U64(GOLDEN * j & MASK64) for j in range(DRAWS_PER_FEATURE)]
    table = np.empty((len(keys), bit_length))
    block = max(1, min(_BLOCK // bit_length, len(keys)))
    base = np.empty((block, bit_length), dtype=np.uint64)
    x = np.empty_like(base)
    tmp = np.empty_like(base)
    for lo in range(0, len(keys), block):
        chunk = keys[lo : lo + block, None]
        n = len(chunk)
        acc = table[lo : lo + n]
        np.add(chunk, bases, out=base[:n])
        for j, step in enumerate(steps):
            np.add(base[:n], step, out=x[:n])
            _mix64(x[:n], tmp[:n])
            x[:n] >>= _SHIFT_11
            if j == 0:
                np.copyto(acc, x[:n].view(np.int64))
            else:
                np.add(acc, x[:n].view(np.int64), out=acc)
        acc *= INV_2_53  # exact: a power-of-two scale of normal floats
        acc -= 6.0
    return table


def simhash_rows(
    indices: np.ndarray,
    offsets: np.ndarray,
    hashes: np.ndarray,
    bit_length: int,
    seed_key: int,
) -> np.ndarray:
    """Hash bitvectors for every row of a CSR (indices, offsets) layout.

    Each row lists, in any order, positions in ``hashes``, which holds one
    64-bit hash per name; ``offsets`` has n_rows + 1 entries. The hashes
    are ranked once (equal ones share a rank and a table row), never a
    hash per pair. Bit b of a result (from the most significant end of a
    ``bit_length``-wide value) is 1 iff the row's summed feature is > 0,
    so empty rows hash to 0. Memory: the O(distinct hashes × bit_length)
    table, two int64 per pair and a few ``_BLOCK``-element buffers.
    Raises ``ValueError`` unless ``bit_length`` is an integer in [1, 64].
    """
    bit_length = check_bit_length(bit_length)
    offsets = np.asarray(offsets, dtype=np.int64)
    out = np.zeros(len(offsets) - 1, dtype=np.uint64)
    distinct, rank = np.unique(np.asarray(hashes, dtype=np.uint64), return_inverse=True)
    keys = distinct ^ _U64(seed_key)
    _mix64(keys, np.empty_like(keys))
    table = _feature_table(keys, bit_length)
    # Sorting (row, hash rank) keys puts each row in hash order.
    lengths = np.diff(offsets)
    inv = np.repeat(np.arange(len(lengths), dtype=np.int64) * len(distinct), lengths)
    inv += rank[indices]
    inv.sort()
    np.remainder(inv, max(len(distinct), 1), out=inv)

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
