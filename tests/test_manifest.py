"""The CSV writer that every report table goes through, and the writer of
every output file."""

import numpy as np
import pytest

from flocpriv import manifest
from flocpriv.manifest import csv_text, write_text


def test_header_keeps_the_first_rows_key_order():
    rows = [{"t": 0.5, "mean": 0.25, "a": 1}, {"t": 1.0, "mean": 0.0, "a": 2}]
    assert csv_text(rows) == "t,mean,a\n0.5,0.25,1\n1,0,2\n"


def test_floats_take_ten_significant_digits():
    rows = [{"x": 1 / 3, "y": 2.5e-12, "z": np.float64(2 / 3), "w": 123456789012.0}]
    assert csv_text(rows).splitlines()[1] == "0.3333333333,2.5e-12,0.6666666667,1.23456789e+11"


def test_null_is_an_empty_field_and_other_values_are_str():
    rows = [{"attribute": "race", "D": 10**12, "shuffle_baseline": None, "flag": True}]
    assert csv_text(rows).splitlines()[1] == "race,1000000000000,,True"


@pytest.mark.parametrize("piece", [1, 3, manifest._WRITE_PIECE])
def test_write_text_in_pieces_writes_the_text(monkeypatch, tmp_path, piece):
    text = "a\tb\nß→\n" * 5 + "\U0001f600"  # multi-byte characters across piece ends
    monkeypatch.setattr(manifest, "_WRITE_PIECE", piece)
    write_text(tmp_path / "out.txt", text)
    assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")
