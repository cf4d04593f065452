"""Deterministic 64-bit hashing and the constants of the feature stream.

Everything downstream (hash bitvectors, seeded sweeps, synthetic data)
derives from these primitives, so they are fixed-width integer arithmetic
only: no process salt, no platform-dependent transcendentals. ``kernels``
runs the feature stream; ``tests/simhash_oracle.py`` is its scalar definition.
"""

from __future__ import annotations

import hashlib
import numbers
import operator
from functools import lru_cache
from typing import Iterable

import numpy as np

MASK64 = (1 << 64) - 1

# Golden-ratio increment and the murmur-style finalizer constants used by
# the counter-based stream. Changing any of these changes every hash value.
GOLDEN = 0x9E3779B97F4A7C15
MIX_C1 = 0xFF51AFD7ED558CCD
MIX_C2 = 0xC4CEB9FE1A85EC53
SEED_MUL = 0xD6E8FEB86659FD93

#: Draws folded into one pseudo-Gaussian feature (sum of 12 uniforms - 6).
DRAWS_PER_FEATURE = 12

INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53


def check_integer(value: int, name: str, error: type[ValueError] = ValueError) -> int:
    """``value`` as a Python ``int``; ``error`` unless it is a ``numbers.Integral``
    (``np.uint8`` too) but not a ``bool``. A float would be truncated and alias
    an integer; a narrow NumPy integer would wrap in later arithmetic."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_bit_length(bit_length: int, error: type[ValueError] = ValueError) -> int:
    """``bit_length`` as an ``int``; ``error`` unless an integer in [1, 64]: 64-bit hashes."""
    bit_length = check_integer(bit_length, "bit_length", error)
    if not 1 <= bit_length <= 64:
        raise error(f"bit_length must be in [1, 64], got {bit_length}")
    return bit_length


def check_seed(seed: int) -> int:
    """``seed`` as an ``int``; ``ValueError`` unless an integer in [0, 2**64):
    a wider seed would alias one inside it, as ``seed_key`` reduces mod 2**64."""
    seed = check_integer(seed, "seed")
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    return seed


def seed_key(seed: int) -> int:
    """Fold a user seed into the per-domain stream key (a ``TypeError`` for a non-integer)."""
    return (operator.index(seed) * SEED_MUL) & MASK64


# An empty 8-byte blake2b state. Copying it is about twice as fast as
# building a new state from its parameters; it is never updated itself.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


def _digest8(domain: str) -> bytes:
    """The 8-byte blake2b digest of a domain name's UTF-8 bytes."""
    state = _BLAKE2B_8.copy()
    state.update(domain.encode("utf-8"))
    return state.digest()


@lru_cache(maxsize=1 << 20)
def domain_hash64(domain: str) -> int:
    """Stable 64-bit hash of a domain name (blake2b, little-endian).

    Stable across processes, platforms and Python versions, unlike the
    built-in salted ``hash``.
    """
    return int.from_bytes(_digest8(domain), "little")


def domain_hashes64(domains: Iterable[str]) -> np.ndarray:
    """``domain_hash64`` of each name, as a uint64 array in input order.

    For names already known to be distinct, such as a vocabulary: the
    digests are joined and read in one ``np.frombuffer``, with no cache.
    """
    return np.frombuffer(b"".join(map(_digest8, domains)), dtype="<u8")


def derive_seed(root: int, label: str, index: int = 0) -> int:
    """Derive an independent child seed from (root, purpose label, index).

    All randomness in a run flows from one root seed through this map, so
    adding a consumer never perturbs the streams of existing ones.
    """
    def _encode(value: int) -> bytes:
        value = int(value)
        sign = b"-" if value < 0 else b"+"
        raw = abs(value).to_bytes(max(1, (abs(value).bit_length() + 7) // 8), "little")
        return sign + len(raw).to_bytes(4, "little") + raw

    payload = _encode(root) + label.encode("utf-8") + _encode(index)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
