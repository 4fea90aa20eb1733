"""Check records and deterministic report rendering.

A report is a plain nested dict of JSON-serializable values.  Rendering is
deterministic for identical content: insertion order is preserved and floats
are serialized through ``repr`` by the json module.  Non-finite numbers are
rejected before rendering so they can never silently reach the output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


@dataclass
class Check:
    """One named pass/fail verification with an optional measured value."""

    name: str
    passed: bool
    value: float | None = None
    detail: str = ""

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "passed": self.passed}
        if self.value is not None:
            out["value"] = self.value
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class CheckSet:
    """A named group of checks, e.g. one task or one self-test section."""

    name: str
    checks: list[Check] = field(default_factory=list)

    def add(self, name: str, passed: bool, value: float | None = None, detail: str = "") -> Check:
        check = Check(name, bool(passed), value, detail)
        self.checks.append(check)
        return check

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "total": len(self.checks),
            "failed": self.n_failed,
            "checks": [c.as_dict() for c in self.checks],
        }


def _assert_finite(value, path: str = "report") -> None:
    if isinstance(value, bool) or value is None:
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite number in {path}: {value!r}")
        return
    if isinstance(value, str):
        return
    if isinstance(value, dict):
        for k, v in value.items():
            _assert_finite(v, f"{path}.{k}")
        return
    if isinstance(value, (list, tuple)):
        for idx, v in enumerate(value):
            _assert_finite(v, f"{path}[{idx}]")
        return
    raise TypeError(f"unsupported value in {path}: {type(value).__name__}")


def render_report(report: dict) -> str:
    """Serialize a report dict to its canonical textual form."""
    _assert_finite(report)
    return json.dumps(report, indent=2, allow_nan=False) + "\n"
