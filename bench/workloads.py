"""Seeded workload generators and the reference checks for their reports.

Each workload turns (seed, index) into one CLI operation: the argument list
for ``diracinv.cli.main`` (without ``--out``) and a reference that judges the
exit code and the report bytes.  References come from the generator's own
closed forms and constants, never from the verdicts the program writes.

Operation ``i`` of a seed depends only on (seed, i), so a run that needs more
operations than another still shares its first ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("family_sweep", "gauge_round_trip", "selftest")

FAMILY_SAMPLES = 1000
GAUGE_SAMPLES = 300
FAMILY_TASKS = ["classify", "mass", "invert", "family", "verify"]
GAUGE_TASKS = ["classify", "mass", "invert", "verify"]

# Real family directions f, used round-robin so every run holds the same mix.
FAMILY_DIRECTIONS = ("sin(x0+x1)", "x0*x2", "exp(0.3*x2)", "cos(x1-x3)")

# One gauge operation in PERTURB_EVERY carries a defect and must exit 1.
PERTURB_EVERY = 5

MASS_TOL = 1e-9
INVERT_TOL = 1e-8

# Sections and check count of `diracinv selftest` at 100 samples.
SELFTEST_SECTIONS = ("gamma-structure", "expression-derivatives",
                     "algebraic-identities", "catalog")
SELFTEST_CHECKS = 71


def _num(x: float) -> str:
    text = f"{x:.4f}"
    return f"({text})" if x < 0 else text


def _round(x: float) -> float:
    return float(f"{x:.4f}")


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


# ---------------------------------------------------------------------------
# Reference checks

class Reference:
    """Judges one operation's exit code and report bytes."""

    expected_exit = 0

    def problems(self, code: int, report: bytes) -> list[str]:
        out = []
        if code != self.expected_exit:
            out.append(f"exit code {code}, expected {self.expected_exit}")
            if code == 2:
                return out
        try:
            data = json.loads(report)
            status = data["summary"]["status"]
            want = "pass" if self.expected_exit == 0 else "fail"
            if status != want:
                out.append(f"summary status {status!r}, expected {want!r}")
            out.extend(self._content_problems(data))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out.append(f"malformed report: {type(exc).__name__}: {exc}")
        return out

    def _content_problems(self, data: dict) -> list[str]:
        raise NotImplementedError


def _task(data: dict, name: str) -> dict:
    for task in data["tasks"]:
        if task["task"] == name:
            return task
    raise KeyError(f"task {name!r} missing from report")


def _mass_problems(data: dict, kappa: float) -> list[str]:
    found = _task(data, "mass")["kappa"]
    if not abs(found - kappa) < MASS_TOL:
        return [f"mass {found!r} differs from reference {kappa!r}"]
    return []


def _verdict_problems(data: dict, verdict: str) -> list[str]:
    found = _task(data, "classify")["verdict"]
    return [] if found == verdict else [f"verdict {found!r}, expected {verdict!r}"]


@dataclass(frozen=True)
class FamilyReference(Reference):
    kappa: float

    def _content_problems(self, data):
        return _verdict_problems(data, "degenerate") + _mass_problems(data, self.kappa)


@dataclass(frozen=True)
class SelftestReference(Reference):
    seed: int

    def _content_problems(self, data):
        out = []
        if data["seed"] != self.seed:
            out.append(f"report seed {data['seed']!r}, expected {self.seed}")
        names = tuple(s["name"] for s in data["sections"])
        if names != SELFTEST_SECTIONS:
            out.append(f"sections {names}, expected {SELFTEST_SECTIONS}")
        total = sum(s["total"] for s in data["sections"])
        if data["summary"]["checks"] != SELFTEST_CHECKS or total != SELFTEST_CHECKS:
            out.append(f"{data['summary']['checks']} checks ({total} in sections), "
                       f"expected {SELFTEST_CHECKS}")
        return out


# ---------------------------------------------------------------------------
# Gauge round trip: psi = exp(-i*(kappa*x0 + f)) * (1, 0, 0, 0) solves the
# equation with a = (d0 f, -d1 f, -d2 f, -d3 f).  Declaring kappa' instead
# of kappa moves the recovered a0 by kappa - kappa'.

@dataclass(frozen=True)
class GaugeField:
    """f = b.x + c*x_j*x_k + d*trig(k.x + phase) + e*exp(m.x)."""

    b: tuple[float, ...]
    c: float
    pair: tuple[int, int]
    trig: str
    d: float
    k: tuple[float, ...]
    phase: float
    e: float
    m: tuple[float, ...]

    def _linear(self, coeffs, offset: float | None = None) -> str:
        parts = [f"{_num(v)}*x{axis}" for axis, v in enumerate(coeffs) if v != 0.0]
        if offset is not None:
            parts.append(_num(offset))
        return " + ".join(parts)

    def text(self) -> str:
        j, k = self.pair
        return (f"{self._linear(self.b)} + {_num(self.c)}*x{j}*x{k}"
                f" + {_num(self.d)}*{self.trig}({self._linear(self.k, self.phase)})"
                f" + {_num(self.e)}*exp({self._linear(self.m)})")

    def partial_text(self, axis: int) -> str:
        """Closed-form d f / d x_axis, written out term by term."""
        j, k = self.pair
        parts = []
        if self.b[axis] != 0.0:
            parts.append(_num(self.b[axis]))
        if axis == j:
            parts.append(f"{_num(self.c)}*x{k}")
        if axis == k:
            parts.append(f"{_num(self.c)}*x{j}")
        if self.k[axis] != 0.0:
            arg = self._linear(self.k, self.phase)
            if self.trig == "sin":
                parts.append(f"{_num(self.d)}*{_num(self.k[axis])}*cos({arg})")
            else:
                parts.append(f"{_num(-self.d)}*{_num(self.k[axis])}*sin({arg})")
        if self.m[axis] != 0.0:
            parts.append(f"{_num(self.e)}*{_num(self.m[axis])}*exp({self._linear(self.m)})")
        return " + ".join(parts) if parts else "0"

    def gradient(self, points: np.ndarray) -> np.ndarray:
        """(N, 4) values of the partials of f, evaluated in numpy."""
        x = np.asarray(points, dtype=float)
        grad = np.tile(np.array(self.b), (len(x), 1))
        j, k = self.pair
        grad[:, j] += self.c * x[:, k]
        grad[:, k] += self.c * x[:, j]
        arg = x @ np.array(self.k) + self.phase
        dtrig = np.cos(arg) if self.trig == "sin" else -np.sin(arg)
        grad += self.d * dtrig[:, None] * np.array(self.k)[None, :]
        grad += self.e * np.exp(x @ np.array(self.m))[:, None] * np.array(self.m)[None, :]
        return grad


def _two_axis_vector(rng: np.random.Generator, scale: float) -> tuple[float, ...]:
    """Two seeded nonzero entries, so every operation has the same term count."""
    axes = rng.choice(4, size=2, replace=False)
    out = [0.0] * 4
    for axis in axes:
        out[int(axis)] = _round(rng.uniform(-scale, scale)) or scale / 2
    return tuple(out)


def _gauge_field(rng: np.random.Generator) -> GaugeField:
    b = [_round(rng.uniform(-0.5, 0.5)) for _ in range(4)]
    # A nonzero d0 f gives a nonzero a0, which turns on the gauge-fixed
    # quadrature cross-check of the mass.
    b[0] = _round(math.copysign(rng.uniform(0.1, 0.5), rng.uniform(-1, 1)))
    pair = tuple(sorted(int(a) for a in rng.choice(4, size=2, replace=False)))
    return GaugeField(
        b=tuple(b),
        c=_round(rng.uniform(-0.4, 0.4)),
        pair=pair,
        trig=str(rng.choice(("sin", "cos"))),
        d=_round(rng.uniform(0.2, 0.6)),
        k=_two_axis_vector(rng, 1.0),
        phase=_round(rng.uniform(-1.0, 1.0)),
        e=_round(rng.uniform(0.1, 0.4)),
        m=_two_axis_vector(rng, 0.5),
    )


@dataclass(frozen=True)
class GaugeReference(Reference):
    kappa: float            # mass the spinor carries
    declared_kappa: float   # mass the scenario declares
    field: GaugeField
    expected_exit: int = 0

    def potential(self, points: np.ndarray) -> np.ndarray:
        """The potential the combined inversion must recover at the points."""
        a = -self.field.gradient(points)
        a[:, 0] = -a[:, 0] + (self.kappa - self.declared_kappa)
        return a

    def _content_problems(self, data):
        out = _verdict_problems(data, "non-degenerate") + _mass_problems(data, self.kappa)
        rows = [r for r in _task(data, "invert")["rows"] if r["status"] == "ok"]
        if not rows:
            return out + ["no invert row was recovered"]
        points = np.array([r["point"] for r in rows], dtype=float)
        found = np.array([r["a"] for r in rows], dtype=float)
        if points.shape[1:] != (4,) or found.shape != points.shape:
            return out + ["invert rows do not hold 4-vectors"]
        gap = float(np.abs(found - self.potential(points)).max())
        if not gap < INVERT_TOL:
            out.append(f"recovered potential is {gap:.3e} from the closed form")
        return out


# ---------------------------------------------------------------------------
# Generators

@dataclass(frozen=True)
class Operation:
    index: int
    argv: tuple[str, ...]
    reference: Reference


def _write(directory: Path, index: int, scenario: dict) -> str:
    path = directory / f"op-{index:05d}.json"
    path.write_text(json.dumps(scenario, indent=1) + "\n")
    return str(path)


def _family_op(seed: int, index: int, directory: Path) -> Operation:
    rng = _rng(seed, index)
    kappa = _round(rng.uniform(0.6, 1.6))
    # |alpha|, |phi2| <= 0.6 keeps cos(alpha) and cos(phi2) above 0.82, far
    # from the catalog's singular locus.
    params = {"alpha": _round(rng.uniform(-0.6, 0.6)),
              "phi1": _round(rng.uniform(-1.0, 1.0)),
              "phi2": _round(rng.uniform(-0.6, 0.6))}
    scenario = {
        "kappa": kappa,
        "spinor": {"catalog": "degenerate_example", "params": params},
        "f": FAMILY_DIRECTIONS[index % len(FAMILY_DIRECTIONS)],
        "domain": {"count": FAMILY_SAMPLES, "seed": int(rng.integers(0, 2 ** 31))},
        "tasks": FAMILY_TASKS,
    }
    return Operation(index, ("run", _write(directory, index, scenario)),
                     FamilyReference(kappa))


def _gauge_op(seed: int, index: int, directory: Path) -> Operation:
    rng = _rng(seed, index)
    kappa = _round(rng.uniform(0.5, 2.0))
    field = _gauge_field(rng)
    potential = [field.partial_text(0)] + [f"-({field.partial_text(axis)})"
                                           for axis in (1, 2, 3)]
    declared = kappa
    expected_exit = 0
    if index % PERTURB_EVERY == PERTURB_EVERY - 1:
        expected_exit = 1
        if (index // PERTURB_EVERY) % 2 == 0:
            shift = _round(math.copysign(rng.uniform(0.05, 0.5), rng.uniform(-1, 1)))
            potential[1] = f"{potential[1]} + {_num(shift)}"
        else:
            delta = math.copysign(rng.uniform(0.05, 0.3), rng.uniform(-1, 1))
            declared = _round(kappa + delta)
    scenario = {
        "kappa": declared,
        "spinor": {"exprs": [f"exp(-i*(kappa*x0 + {field.text()}))", "0", "0", "0"],
                   "params": {"kappa": kappa}},
        "potential": {"exprs": potential},
        "domain": {"count": GAUGE_SAMPLES, "seed": int(rng.integers(0, 2 ** 31))},
        "tasks": GAUGE_TASKS,
    }
    return Operation(index, ("run", _write(directory, index, scenario)),
                     GaugeReference(kappa, declared, field, expected_exit))


def _selftest_op(seed: int, index: int, directory: Path) -> Operation:
    run_seed = int(_rng(seed, index).integers(0, 2 ** 31))
    return Operation(index, ("selftest", "--seed", str(run_seed)),
                     SelftestReference(run_seed))


_GENERATORS = {
    "family_sweep": _family_op,
    "gauge_round_trip": _gauge_op,
    "selftest": _selftest_op,
}


def generate(workload: str, seed: int, count: int, directory: Path) -> list[Operation]:
    """Write the scenario files of operations 0..count-1 and return them."""
    directory.mkdir(parents=True, exist_ok=True)
    make = _GENERATORS[workload]
    return [make(seed, index, directory) for index in range(count)]
