"""ZIP-code to US state resolution via 3-digit prefix ranges.

The table is a bundled static approximation of the national 3-digit
prefix allocation (contiguous ranges; military and outlying gaps left
unmapped). Unmapped or malformed ZIPs resolve to ``UNKNOWN_STATE``, the
state callers record as unknown.
"""

from __future__ import annotations

# (first prefix, last prefix, state), inclusive on both ends.
_RANGES: tuple[tuple[int, int, str], ...] = (
    (5, 5, "NY"),
    (6, 7, "PR"),
    (8, 8, "VI"),
    (9, 9, "PR"),
    (10, 27, "MA"),
    (28, 29, "RI"),
    (30, 38, "NH"),
    (39, 49, "ME"),
    (50, 54, "VT"),
    (55, 55, "MA"),
    (56, 59, "VT"),
    (60, 69, "CT"),
    (70, 89, "NJ"),
    (100, 149, "NY"),
    (150, 196, "PA"),
    (197, 199, "DE"),
    (200, 200, "DC"),
    (201, 201, "VA"),
    (202, 205, "DC"),
    (206, 219, "MD"),
    (220, 246, "VA"),
    (247, 268, "WV"),
    (270, 289, "NC"),
    (290, 299, "SC"),
    (300, 319, "GA"),
    (320, 349, "FL"),
    (350, 369, "AL"),
    (370, 385, "TN"),
    (386, 397, "MS"),
    (398, 399, "GA"),
    (400, 427, "KY"),
    (430, 459, "OH"),
    (460, 479, "IN"),
    (480, 499, "MI"),
    (500, 528, "IA"),
    (530, 549, "WI"),
    (550, 567, "MN"),
    (570, 577, "SD"),
    (580, 588, "ND"),
    (590, 599, "MT"),
    (600, 629, "IL"),
    (630, 658, "MO"),
    (660, 679, "KS"),
    (680, 693, "NE"),
    (700, 714, "LA"),
    (716, 729, "AR"),
    (730, 732, "OK"),
    (733, 733, "TX"),
    (734, 749, "OK"),
    (750, 799, "TX"),
    (800, 816, "CO"),
    (820, 831, "WY"),
    (832, 838, "ID"),
    (840, 847, "UT"),
    (850, 865, "AZ"),
    (870, 884, "NM"),
    (889, 898, "NV"),
    (900, 961, "CA"),
    (967, 968, "HI"),
    (970, 979, "OR"),
    (980, 994, "WA"),
    (995, 999, "AK"),
)

UNKNOWN_STATE = "??"

_PREFIX_TO_STATE: dict[int, str] = {}
for _lo, _hi, _state in _RANGES:
    for _p in range(_lo, _hi + 1):
        _PREFIX_TO_STATE[_p] = _state

#: All states the table can produce, in a fixed sorted order.
STATES: tuple[str, ...] = tuple(sorted({s for _, _, s in _RANGES}))


def state_for_zip(zip_code: str) -> str:
    """US state for a 5-digit ZIP (or bare 3-digit prefix).

    Unknown or malformed codes map to the UNKNOWN_STATE sentinel; callers
    keep such rows but exclude them from state-based fingerprinting.
    """
    digits = zip_code.strip()
    if not digits.isdigit() or len(digits) not in (3, 5):
        return UNKNOWN_STATE
    return _PREFIX_TO_STATE.get(int(digits[:3]), UNKNOWN_STATE)


def representative_zip(state: str) -> str:
    """A canonical in-range ZIP for a state (used by the generator)."""
    for lo, _hi, st in _RANGES:
        if st == state:
            return f"{lo:03d}01"
    raise KeyError(f"no ZIP range for state {state!r}")
