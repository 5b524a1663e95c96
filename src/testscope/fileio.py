"""Artifact text and the atomic writes shared by every output path.

Every file the package writes is rendered here: CSV tables through
:func:`rows_to_csv`, JSON documents through :func:`json_text`, and each cell
or config value through :func:`format_value`. Results are staged in a
temporary file in the destination directory and renamed into place, so an
interrupted run never leaves a partially written artifact behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

__all__ = ["atomic_write", "format_value", "json_text", "rows_to_csv"]


def format_value(value: Any) -> str:
    """A value as artifacts print it: a tuple comma-joined, a float by its
    repr, a string as it is, anything else (ints and flags) as an integer."""
    if isinstance(value, tuple):
        return ",".join(map(format_value, value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value
    return str(int(value))


def rows_to_csv(rows: Iterable[dict], columns: Sequence[str], header_comments: Iterable[str] = ()) -> str:
    """Render rows as CSV text: ``#`` header comments, the ``columns`` header,
    then one line per row."""
    lines = [f"# {c}" for c in header_comments]
    lines.append(",".join(columns))
    lines.extend(",".join(format_value(row[c]) for c in columns) for row in rows)
    return "\n".join(lines) + "\n"


def json_text(document: dict) -> str:
    """A JSON document as written to disk: sorted keys, two-space indent."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def atomic_write(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename)."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
