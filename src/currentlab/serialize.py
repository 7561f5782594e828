"""Deterministic serialization: canonical JSON, CSV, and content digests.

Every output byte is a pure function of the data. Floats are rendered with
17 significant digits (round-trip exact for IEEE doubles), object keys are
emitted in sorted order, line endings are LF, encoding is UTF-8. Non-finite
numbers are rejected rather than silently encoded. A CSV table is handed
over as columns and written a fixed number of rows at a time.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

__all__ = ["canonical_json", "format_float", "write_csv", "write_json"]


def format_float(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("non-finite number in serialized output")
    return format(v, ".17g")


def _emit(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(f"{pad}  {json.dumps(k, ensure_ascii=True)}: ")
            _emit(obj[k], parts, indent + 1)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        parts.append("[")
        for i, item in enumerate(items):
            _emit(item, parts, indent)
            if i + 1 < len(items):
                parts.append(", ")
        parts.append("]")
    else:
        raise TypeError(f"unsupported JSON value type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Render with sorted keys, one object entry per line, inline arrays."""
    parts: list = []
    _emit(obj, parts, 0)
    return "".join(parts)


def write_json(path, obj) -> str:
    """Write canonical JSON; returns the sha256 hex digest of the bytes."""
    data = (canonical_json(obj) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


# rows formatted and hashed per chunk: the text of a whole table is never
# held at once
CHUNK_ROWS = 4096


def _column_format(column) -> str:
    """The %-format of one column, after checking every cell it holds.

    A column is a 1-D float array (`%.17g`, `format_float`'s format, all
    finite), a 1-D integer array (`%d`) or a list of plain strings, none
    of which needs CSV quoting.
    """
    if isinstance(column, np.ndarray) and column.ndim == 1:
        if column.dtype.kind == "f":
            if not np.isfinite(column).all():
                raise ValueError("non-finite number in serialized output")
            return "%.17g"
        if column.dtype.kind in "iu":
            return "%d"
    elif isinstance(column, list) and all(type(v) is str for v in column):
        for v in set(column):
            if any(c in v for c in ',"\r\n'):
                raise ValueError(f"CSV cell needs quoting, refusing: {v!r}")
        return "%s"
    kind = getattr(column, "dtype", type(column).__name__)
    raise TypeError(f"unsupported CSV column type {kind}")


def write_csv(path, header, columns) -> str:
    """Write a comma-separated table; returns the sha256 hex digest.

    `columns` holds one column per header entry, all of one length; see
    `_column_format` for what a column may be. Floats use 17 significant
    digits so byte equality is a meaningful determinism check. Every cell
    is checked before the file is opened, so a rejected table leaves no
    file behind.
    """
    if len(columns) != len(header):
        raise ValueError(
            f"{len(columns)} columns != header width {len(header)}")
    line = ",".join(map(_column_format, columns)) + "\n"
    if len({len(c) for c in columns}) > 1:
        raise ValueError("columns of unequal length")
    n_rows = len(columns[0]) if columns else 0
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(text: str) -> None:
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)

        put(",".join(header) + "\n")
        for lo in range(0, n_rows, CHUNK_ROWS):
            cells = [c[lo:lo + CHUNK_ROWS] for c in columns]
            put("".join(map(line.__mod__, zip(*(
                c.tolist() if isinstance(c, np.ndarray) else c
                for c in cells)))))
    return digest.hexdigest()
