"""Check records and deterministic report rendering.

A report is a plain nested dict of JSON-serializable values.  Rendering is
deterministic for identical content: insertion order is preserved and floats
are serialized through ``repr``.  `render_report` is the only gate on
content: it raises ValueError for a non-finite float, numpy's included, and
TypeError for a type JSON cannot hold, so neither ever reaches the output.
A row table (a list of plain dicts with one key order and plain columns,
such as the invert task's rows) is written from one row template, filled
from its columns; every other value takes the recursive path, one call per
value.
"""

from __future__ import annotations

import json.encoder
import math
from dataclasses import dataclass, field


@dataclass
class CheckSet:
    """A named group of checks, e.g. one task or one self-test section.

    Each check is held as the dict the report writes: its name and verdict,
    its measured value when it has one and its detail when that is not empty.
    """

    name: str
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float | None = None, detail: str = "") -> None:
        check: dict = {"name": name, "passed": bool(passed)}
        if value is not None:
            check["value"] = value
        if detail:
            check["detail"] = detail
        self.checks.append(check)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c["passed"])

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "total": len(self.checks),
            "failed": self.n_failed,
            "checks": self.checks,
        }


def render_report(report: dict) -> str:
    """Serialize a report dict to its canonical textual form.

    The bytes, and the exception for rejected input, are json.dumps(report,
    indent=2, allow_nan=False)'s plus a newline, written in one pass: with an
    indent json leaves its C encoder.  Unlike json it does not look for cycles.
    A row table is filled from one template only when every cell is valid,
    so it never raises there; anything else is written value by value, which
    raises in document order as json does.
    """
    return _write(report, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_JSON_TYPES = (str, int, float, list, tuple, dict)


def _write(value, newline: str) -> str:
    """`value` as indented JSON; its later lines start with `newline`'s indent."""
    kind = type(value)
    if kind not in _JSON_TYPES:
        if value is None or kind is bool:
            return "null" if value is None else "true" if value else "false"
        # Subclasses (np.float64, IntEnum) are written as their base type, as json does.
        kind = next((base for base in _JSON_TYPES if isinstance(value, base)), None)
    if kind is float:
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is None:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    brackets = "{}" if kind is dict else "[]"
    if not value:
        return brackets
    inner = newline + "  "
    if kind is dict:
        items = [_encode_str(key if type(key) is str else _key(key)) + ": " + _write(item, inner)
                 for key, item in value.items()]
    # A list of finite plain floats, such as a point, is written without a call per item.
    elif all(type(item) is float for item in value) and all(map(math.isfinite, value)):
        items = map(float.__repr__, value)
    elif kind is list and (table := _table(value, inner)) is not None:
        return "[" + inner + table + newline + "]"
    else:
        items = [_write(item, inner) for item in value]
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _finite_floats(values) -> bool:
    return {*map(type, values)} == {float} and all(map(math.isfinite, values))


_CELL_TYPES = {float, str, list}


def _table(rows: list, inner: str) -> str | None:
    """Two or more plain dicts with one key order, as `_write` joins its items.

    Each column must hold only plain finite floats, only plain strs, or only
    plain lists of one nonzero length of plain finite floats.  Every row is
    one template, filled by `%` from the columns.  For anything else the
    result is None and `_write` writes the rows one value at a time.
    """
    # The first row's cells and every row's key order are checked before any column is built.
    first = rows[0]
    if (type(first) is not dict or len(rows) < 2
            or not _CELL_TYPES.issuperset(map(type, first.values())) or {*map(type, first)} != {str}):
        return None
    keys = tuple(first)
    if not all(type(row) is dict and tuple(row) == keys for row in rows):
        return None
    cell, item = inner + "  ", inner + "    "
    templates, columns = [], []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = {*map(type, column)}
        if kinds == {float} and all(map(math.isfinite, column)):
            template = "%r"
            columns.append(column)
        elif kinds == {str}:
            template = "%s"
            columns.append(list(map(_encode_str, column)))
        elif kinds == {list} and len({*map(len, column)}) == 1 and column[0]:
            parts = list(zip(*column))  # one column per list position
            if not all(map(_finite_floats, parts)):
                return None
            template = "[" + item + ("," + item).join(["%r"] * len(parts)) + cell + "]"
            columns += parts
        else:
            return None
        templates.append(_encode_str(key).replace("%", "%%") + ": " + template)
    row = "{" + cell + ("," + cell).join(templates) + inner + "}"
    # One % per row: one % over the whole table grows its output by reallocation,
    # which fragments the heap of a long-running caller.
    return ("," + inner).join([row % cells for cells in zip(*columns)])


def _key(key) -> str:
    """A dict key as the text json makes of it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _write(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
