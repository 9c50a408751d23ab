"""Deterministic JSON/CSV serialization: floats at 17 significant digits."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

INDENT = 2


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def dumps(obj) -> str:
    """JSON with lossless, diff-stable float formatting."""
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out) + "\n"


def _write(obj, out: list[str], level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for k, (key, val) in enumerate(obj.items()):
            out.append(f'{pad}"{key}": ')
            _write(val, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[\n")
        for k, val in enumerate(obj):
            out.append(pad)
            _write(val, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        # numpy scalars and other float-likes
        out.append(format_float(float(obj)))


def csv_lines(columns: Sequence[str], rows: Iterable[dict]) -> list[str]:
    """CSV body with '.' decimals, ',' separators and LF endings."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for col in columns:
            val = row[col]
            if isinstance(val, float):
                cells.append(format_float(val))
            else:
                cells.append(str(val))
        lines.append(",".join(cells))
    return lines
