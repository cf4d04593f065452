"""Bundled 6-device worked example.

Six devices, three weeks, seven domains per device-week, engineered so
each week's population splits into exactly two cohorts of three at k=3.
The resulting unicity fractions are the canonical worked values: 0/6,
2/6, 6/6 at horizons 1-3 for cohort sequences alone, and 2/6, 6/6, 6/6
once the state fingerprint is added.

The session log ships in ``data/table1_sessions.tsv``. Its generator is
``tests/table1_oracle.py``; a test pins the generated text to the bundled
file so hash-affecting changes fail loudly.
"""

from __future__ import annotations

from importlib import resources

EXPECTED_SEQUENCE_FRACTIONS = (0 / 6, 2 / 6, 6 / 6)
EXPECTED_FINGERPRINT_FRACTIONS = (2 / 6, 6 / 6, 6 / 6)


def bundled_table1_sessions() -> str:
    """The pre-generated fixture text shipped with the package."""
    return resources.files("flocpriv.data").joinpath("table1_sessions.tsv").read_text("utf-8")
