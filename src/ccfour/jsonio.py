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
    elif isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(brackets)
            return
        out.append(brackets[0] + "\n")
        items = obj.items() if brackets == "{}" else enumerate(obj)
        for k, (key, val) in enumerate(items):
            out.append(f'{pad}"{key}": ' if brackets == "{}" else pad)
            _write(val, out, level + 1)
            out.append(",\n" if k < len(obj) - 1 else "\n")
        out.append(closing + brackets[1])
    else:
        # numpy scalars and other float-likes
        out.append(format_float(float(obj)))


def csv_text(columns: Sequence[str], rows: Iterable[dict]) -> str:
    """CSV with '.' decimals, ',' separators and LF endings."""
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
    return "\n".join(lines) + "\n"
