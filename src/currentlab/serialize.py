"""Deterministic serialization: canonical JSON, CSV, and content digests.

Every output byte is a pure function of the data. Floats are rendered with
17 significant digits (round-trip exact for IEEE doubles), object keys are
emitted in sorted order, line endings are LF, encoding is UTF-8. Non-finite
numbers are rejected rather than silently encoded.
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


def _format_cell(v) -> str:
    if isinstance(v, str):
        if any(c in v for c in ',"\r\n'):
            raise ValueError(f"CSV cell needs quoting, refusing: {v!r}")
        return v
    if isinstance(v, (bool, np.bool_)):
        raise ValueError("booleans have no CSV rendering here")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    raise TypeError(f"unsupported CSV cell type {type(v).__name__}")


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


def _column(column) -> tuple:
    """A %-format spec and the values it renders for one column.

    The cells come out as `_format_cell` renders them. A float array is
    checked for finiteness at once (`%.17g` is `format_float`'s format); a
    column of plain strings is checked once per distinct value; any other
    column is rendered cell by cell.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        if not np.isfinite(column).all():
            raise ValueError("non-finite number in serialized output")
        return "%.17g", column.tolist()
    column = list(column)
    if all(type(v) is str for v in column):
        for v in set(column):
            _format_cell(v)
        return "%s", column
    return "%s", [_format_cell(v) for v in column]


def write_csv(path, header, rows=None, *, columns=None) -> str:
    """Write a comma-separated table; returns the sha256 hex digest.

    The table comes as `rows` (an iterable of row sequences) or as `columns`
    (one sequence per header entry, all of one length); both give the same
    bytes. Cells are ints, floats, or plain strings; floats use 17
    significant digits so byte equality is a meaningful determinism check.
    """
    lines = [",".join(header)]
    ncol = len(header)
    if columns is not None:
        if rows is not None:
            raise TypeError("write_csv takes rows or columns, not both")
        if len(columns) != ncol:
            raise ValueError(f"{len(columns)} columns != header width {ncol}")
        specs, values = zip(*map(_column, columns))
        if len({len(v) for v in values}) > 1:
            raise ValueError("columns of unequal length")
        lines.extend(map(",".join(specs).__mod__, zip(*values)))
    else:
        for row in rows:
            if len(row) != ncol:
                raise ValueError(f"row width {len(row)} != header width {ncol}")
            lines.append(",".join(_format_cell(v) for v in row))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
