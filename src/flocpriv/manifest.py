"""JSON and CSV writers, the one rule for reading input files (UTF-8, then JSON), and
run manifests: the full resolved config echoed next to the outputs.

A report's CSV is ``csv_text`` of its JSON's row list, so the two files
hold the same rows. A manifest contains everything needed to re-run a
subcommand bit-identically (tool version, resolved flags, input digests)
and deliberately nothing else — no timestamps, hostnames, or paths that
vary between identical runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import Any, Mapping, Sequence


def dump_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(rows: Sequence[Mapping[str, Any]]) -> str:
    """CSV of a non-empty list of dict rows: a header of the first row's
    keys in insertion order, then one line per row. A float is written to
    10 significant digits, ``None`` as an empty field, anything else as
    ``str``."""

    def field(value: Any) -> str:
        if isinstance(value, float):
            return format(value, ".10g")
        return "" if value is None else str(value)

    lines = [",".join(rows[0])]
    lines += [",".join(map(field, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(payload))


def utf8_error(path: str) -> ValueError:
    """``ValueError("<path>:<line>: not UTF-8 ...")`` for the first bad byte of
    ``path``. It reads the file again: call it only once a UTF-8 read failed."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if bad := re.search("[\udc80-\udcff]", line):  # byte b escapes to U+DC00 + b
                byte, column = ord(bad.group()) - 0xDC00, bad.start() + 1
                return ValueError(f"{path}:{lineno}: not UTF-8: byte {byte:#04x} at column {column}")
    return ValueError(f"{path}: not UTF-8")


def read_text(path: str) -> str:
    """The text of the UTF-8 file ``path``; a byte that is not UTF-8 raises
    ``utf8_error(path)``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise utf8_error(path) from None


def read_json(path: str) -> Any:
    """The JSON value in the UTF-8 file ``path``. Text that is not JSON raises
    ``ValueError("<path>:<line>: not JSON: ...")``, a byte that is not UTF-8
    ``utf8_error(path)``."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: not JSON: {exc.msg} at column {exc.colno}") from None


#: Characters ``write_text`` hands the encoder at once: a whole output in one
#: write would be encoded into a second copy of itself first.
_WRITE_PIECE = 1 << 20


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for start in range(0, len(text), _WRITE_PIECE):
            fh.write(text[start : start + _WRITE_PIECE])


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: str,
    subcommand: str,
    version: str,
    config: Mapping[str, Any],
    inputs: Mapping[str, str],
    outputs: Sequence[str],
) -> str:
    """Write manifest.json into ``out_dir`` and return its path.

    ``inputs`` maps labels to file paths; files are digested so the
    manifest pins exact input bytes.
    """
    payload = {
        "tool": "flocpriv",
        "version": version,
        "subcommand": subcommand,
        "config": dict(config),
        "inputs": {
            label: {"path": path, "sha256": file_sha256(path)} for label, path in inputs.items()
        },
        "outputs": sorted(outputs),
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, payload)
    return path
