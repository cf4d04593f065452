"""Deterministic 64-bit hashing and counter-based pseudo-random streams.

Everything downstream (hash bitvectors, seeded sweeps, synthetic data)
derives from these primitives, so they are fixed-width integer arithmetic
only: no process salt, no platform-dependent transcendentals.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

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


def check_bit_length(bit_length: int, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``1 <= bit_length <= 64``: hashes are 64-bit words."""
    if not 1 <= bit_length <= 64:
        raise error(f"bit_length must be in [1, 64], got {bit_length}")


def mix64(x: int) -> int:
    """Finalizer-style bijective scrambler on 64-bit integers."""
    x &= MASK64
    x ^= x >> 33
    x = (x * MIX_C1) & MASK64
    x ^= x >> 33
    x = (x * MIX_C2) & MASK64
    x ^= x >> 33
    return x


def seed_key(seed: int) -> int:
    """Fold a user seed into the per-domain stream key."""
    return (int(seed) * SEED_MUL) & MASK64


@lru_cache(maxsize=1 << 20)
def domain_hash64(domain: str) -> int:
    """Stable 64-bit hash of a domain name (blake2b, little-endian).

    Stable across processes, platforms and Python versions, unlike the
    built-in salted ``hash``.
    """
    digest = hashlib.blake2b(domain.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def uniform_draw(key0: int, t: int) -> float:
    """t-th uniform in [0, 1) of the counter-based stream for ``key0``."""
    u = mix64((key0 + GOLDEN * (t + 1)) & MASK64)
    return (u >> 11) * INV_2_53


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
