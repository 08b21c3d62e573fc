"""JSON/CSV writers with exact 17-significant-digit float encoding.

The stdlib ``json`` module offers no control over float formatting, so
``dumps`` here is a small recursive emitter. Every float is rendered with
``%.17g``, which round-trips IEEE-754 doubles exactly through ``float()``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Iterator

import numpy as np


def fmt17(x: float) -> str:
    """Render a finite float with 17 significant digits (exact round trip)."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = format(float(x), ".17g")
    # bare integers like '-0' or '5' would re-parse as int; force a float token
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def fmt17_column(values) -> Iterator[str]:
    """:func:`fmt17` of each entry of a float column, in order. The whole
    column is checked finite here; the strings are made as they are read."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(values[~finite][0])!r}")
    return (s if "." in s or "e" in s else s + ".0"
            for s in (format(x, ".17g") for x in values.tolist()))


def dumps(obj: Any) -> str:
    """Serialize to JSON text indented by 2, floats via :func:`fmt17`, keys in given order."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def _emit(obj: Any, out: list[str], depth: int) -> None:
    pad = "  " * (depth + 1)
    close_pad = "  " * depth
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {type(k)!r}")
            out.append(pad + json.dumps(k) + ": ")
            _emit(v, out, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        # flat numeric rows stay on one line to keep weight arrays readable
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            out.append("[" + ", ".join(
                fmt17(v) if isinstance(v, float) else repr(v) for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad)
            _emit(v, out, depth + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj: Any, path: str | Path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load_json(path: str | Path) -> Any:
    """Parse a JSON file; malformed JSON raises ValueError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def write_csv(path: str | Path, header: list[str], rows: list[list[Any]]) -> None:
    """Write a CSV with LF endings; floats encoded via :func:`fmt17`, fields unquoted."""
    write_lines(path, header, [",".join(fmt17(v) if isinstance(v, float) else str(v)
                                        for v in row) for row in rows])


def write_lines(path: str | Path, header: list[str], lines: list[str]) -> None:
    """Write a CSV of preformatted lines whose fields need no quoting, LF endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        return [], []
    return rows[0], rows[1:]
