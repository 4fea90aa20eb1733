"""Scenario files: schema validation and construction of run inputs.

A scenario is a JSON object::

    {
      "kappa": 1.0,
      "spinor": {"exprs": ["...", "...", "...", "..."], "params": {...}}
              | {"catalog": "rest_plane_wave" | "degenerate_example" | "lset",
                 "params": {...}},
      "potential": {"exprs": [...], "params": {...}}
                 | {"catalog_family": {"f": "expr", "alpha": ..., "phi1": ..., "phi2": ...,
                                       "params": {...}}}
                 | absent (zero potential),
      "f": "expression",                       # family direction, optional
      "domain": {"box": [[lo, hi] x4], "count": 100, "seed": 0},
      "tolerances": {...},                     # overrides, see DEFAULT_TOLERANCES
      "tasks": ["classify", "mass", "invert", "family", "verify", "selftest"]
    }

Parameter values are numbers or [re, im] pairs, named neither x0..x3 nor
i, pi or e, which the evaluator resolves first.  The catalog_family
potential inherits alpha/phi1/phi2 from a degenerate_example spinor when
they are not given explicitly.

Bad input is rejected here, before any computation: a key not shown above,
a catalog parameter its entry does not take (`catalog.ENTRIES`), or a
catalog kappa other than the scenario's; kappa must be a finite real
number, parameters and box bounds finite, tolerances finite and positive,
and the sample count at most MAX_SAMPLES.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import catalog, exprlang
from .catalog import CatalogInstance
from .errors import DiracinvError, ScenarioError
from .exprlang import Expr
from .fields import SampleDomain, SpinorField
from .inversion import FourPotential

TASKS = ("classify", "mass", "invert", "family", "verify", "selftest")

# Every sampled point is evaluated, so a larger domain.count (or --samples)
# is rejected as absurd before anything is allocated.
MAX_SAMPLES = 100_000

DEFAULT_TOLERANCES = {
    "support": 1e-12,        # spinor support threshold (relative)
    "classify": 1e-10,       # indicator threshold (relative to |psi|^2)
    "guard": 1e-10,          # inversion denominators (relative to |psi|^2)
    "real": 1e-6,            # allowed relative imaginary residue
    "residual": 1e-9,        # forward residual bound for verify
    "family_residual": 1e-9,
    "invert": 1e-8,          # recovered-vs-known potential error
    "agreement": 1e-8,       # cross-route inversion agreement
    "mass": 1e-9,            # recovered-vs-known mass error
    "mass_spread": 1e-8,     # pointwise mass consistency
    "tensor": 1e-10,         # field-tensor equality
    "lightlike": 1e-8,
}


@dataclass
class Scenario:
    raw: dict
    kappa: float
    spinor: SpinorField
    instance: CatalogInstance | None
    potential: FourPotential | None
    f: Expr | None
    domain: SampleDomain
    tolerances: dict
    tasks: list[str] = field(default_factory=list)


def _is_number(value) -> bool:
    # JSON true and false load as bool, a subclass of int; an integer literal
    # past the float range makes float() overflow.  Neither is a number here.
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def _as_complex(value, where: str) -> complex:
    pair = [value, 0] if _is_number(value) else value
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
        raise ScenarioError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    if not all(math.isfinite(v) for v in pair):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    return complex(pair[0], pair[1])


def _real(value, where: str) -> float:
    """A real number; its consumer checks that it is finite."""
    if not _is_number(value):
        raise ScenarioError(f"{where}: expected a real number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if not _is_number(value) or isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _tolerance(value, where: str) -> float:
    if not (_is_number(value) and math.isfinite(value) and value > 0):
        raise ScenarioError(f"{where}: expected a finite positive number, got {value!r}")
    return float(value)


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown key {key!r}; allowed: {', '.join(allowed)}")


def _parse_params(obj, where: str) -> dict[str, complex]:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: params must be an object")
    for k in obj:
        if k in exprlang.VARIABLES or k in exprlang.BUILTIN_CONSTANTS:
            raise ScenarioError(f"{where}.{k}: a coordinate or built-in constant, "
                                f"not a parameter name")
    return {str(k): _as_complex(v, f"{where}.{k}") for k, v in obj.items()}


def _parse_exprs(texts, where: str) -> list[Expr]:
    if not isinstance(texts, list) or len(texts) != 4:
        raise ScenarioError(f"{where}: expected a list of 4 expression strings")
    out = []
    for idx, text in enumerate(texts):
        if not isinstance(text, str):
            raise ScenarioError(f"{where}[{idx}]: expected a string")
        try:
            out.append(exprlang.parse(text))
        except exprlang.ParseError as exc:
            raise ScenarioError(f"{where}[{idx}]: {exc}") from exc
    return out


def _build_spinor(obj, kappa: float) -> tuple[SpinorField, CatalogInstance | None]:
    if not isinstance(obj, dict):
        raise ScenarioError("spinor: expected an object")
    if ("catalog" in obj) == ("exprs" in obj):
        raise ScenarioError("spinor: needs exactly one of 'exprs' or 'catalog'")
    _check_keys(obj, ("catalog" if "catalog" in obj else "exprs", "params"), "spinor")
    if "catalog" in obj:
        name = obj["catalog"]
        if not isinstance(name, str) or name not in catalog.ENTRIES:
            raise ScenarioError(f"spinor.catalog: unknown entry {name!r}; "
                        f"available: {', '.join(sorted(catalog.ENTRIES))}")
        params = obj.get("params")
        if params is not None and not isinstance(params, dict):
            raise ScenarioError("spinor.params: params must be an object")
        try:
            instance = catalog.build(name, {"kappa": kappa, **(params or {})})
        except ValueError as exc:  # its message starts with the parameter's name
            raise ScenarioError(f"spinor.params.{exc}") from exc
        except DiracinvError as exc:
            raise ScenarioError(f"spinor.catalog: {exc}") from exc
        if params and "kappa" in params and params["kappa"] != kappa:
            raise ScenarioError(f"spinor.params.kappa: {params['kappa']!r} differs from the "
                                f"scenario's kappa {kappa!r}; give kappa once, at the top level")
        return instance.spinor, instance
    params = _parse_params(obj.get("params"), "spinor.params")
    return SpinorField(_parse_exprs(obj["exprs"], "spinor.exprs"), params), None


def _build_potential(obj, kappa: float,
                     instance: CatalogInstance | None) -> FourPotential | None:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise ScenarioError("potential: expected an object")
    if ("catalog_family" in obj) == ("exprs" in obj):
        raise ScenarioError("potential: needs exactly one of 'exprs' or 'catalog_family'")
    _check_keys(obj, ("catalog_family",) if "catalog_family" in obj else ("exprs", "params"),
                "potential")
    if "catalog_family" in obj:
        fam = obj["catalog_family"]
        if not isinstance(fam, dict) or "f" not in fam:
            raise ScenarioError("potential.catalog_family: needs an 'f' expression")
        _check_keys(fam, ("f", "alpha", "phi1", "phi2", "params"),
                    "potential.catalog_family")
        inherited = dict(instance.params or {}) if instance is not None \
            and instance.name == "degenerate_example" else {}
        def pick(key):
            if key in fam:
                return _real(fam[key], f"potential.catalog_family.{key}")
            if key in inherited:
                return float(inherited[key])
            raise ScenarioError(f"potential.catalog_family: missing {key!r} and no "
                        f"degenerate_example spinor to inherit it from")
        try:
            f = exprlang.parse(str(fam["f"]))
        except exprlang.ParseError as exc:
            raise ScenarioError(f"potential.catalog_family.f: {exc}") from exc
        f_params = _parse_params(fam.get("params"), "potential.catalog_family.params")
        alpha, phi1, phi2 = pick("alpha"), pick("phi1"), pick("phi2")
        try:
            return catalog.example_family(kappa, alpha, phi1, phi2, f, f_params)
        except (DiracinvError, ValueError) as exc:
            raise ScenarioError(f"potential.catalog_family: {exc}") from exc
    params = _parse_params(obj.get("params"), "potential.params")
    return FourPotential(_parse_exprs(obj["exprs"], "potential.exprs"), params)


def _build_domain(obj, seed: int | None, samples: int | None) -> SampleDomain:
    obj = obj or {}
    if not isinstance(obj, dict):
        raise ScenarioError("domain: expected an object")
    _check_keys(obj, ("box", "count", "seed"), "domain")
    box = obj.get("box", [[-1.0, 1.0]] * 4)
    if not (isinstance(box, list) and len(box) == 4
            and all(isinstance(iv, list) and len(iv) == 2 for iv in box)):
        raise ScenarioError("domain.box: expected 4 [lo, hi] intervals")
    try:
        domain = SampleDomain(
            box=tuple((_real(lo, "domain.box"), _real(hi, "domain.box")) for lo, hi in box),
            count=_integer(obj.get("count", 100), "domain.count") if samples is None
            else samples,
            seed=_integer(obj.get("seed", 0), "domain.seed") if seed is None else seed)
    except ValueError as exc:  # its message starts with the field's name
        raise ScenarioError(f"domain.{exc}") from exc
    if domain.count > MAX_SAMPLES:
        raise ScenarioError(f"domain.count: {domain.count} samples exceed the maximum "
                    f"of {MAX_SAMPLES}")
    return domain


def build_scenario(data: dict, seed: int | None = None, samples: int | None = None,
                   tol: float | None = None) -> Scenario:
    """Validate a scenario dict and construct run inputs; overrides are optional."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _check_keys(data, ("kappa", "spinor", "potential", "f", "domain", "tolerances", "tasks"),
                "scenario")
    if "kappa" not in data:
        raise ScenarioError("scenario needs 'kappa'")
    kappa = _real(data["kappa"], "kappa")
    if not math.isfinite(kappa):
        raise ScenarioError(f"kappa: expected a finite real number, got {kappa!r}")

    tasks = data.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ScenarioError("scenario needs a nonempty 'tasks' list")
    for t in tasks:
        if t not in TASKS:
            raise ScenarioError(f"unknown task {t!r}; available: {', '.join(TASKS)}")

    # Domain and tolerances come before the spinor: a catalog spinor runs its
    # self-test as soon as it is built.
    domain = _build_domain(data.get("domain"), seed, samples)
    tolerances = dict(DEFAULT_TOLERANCES)
    overrides = data.get("tolerances") or {}
    if not isinstance(overrides, dict):
        raise ScenarioError("tolerances: expected an object")
    _check_keys(overrides, tuple(DEFAULT_TOLERANCES), "tolerances")
    for key, value in overrides.items():
        tolerances[key] = _tolerance(value, f"tolerances.{key}")
    if tol is not None:
        tolerances["classify"] = _tolerance(tol, "--tol")

    if "spinor" not in data:
        raise ScenarioError("scenario needs 'spinor'")
    spinor, instance = _build_spinor(data["spinor"], kappa)
    potential = _build_potential(data.get("potential"), kappa, instance)

    f = None
    if data.get("f") is not None:
        if not isinstance(data["f"], str):
            raise ScenarioError("f: expected an expression string")
        try:
            f = exprlang.parse(data["f"])
        except exprlang.ParseError as exc:
            raise ScenarioError(f"f: {exc}") from exc

    return Scenario(data, kappa, spinor, instance, potential, f, domain, tolerances,
                    list(tasks))


def load_scenario(path: str | Path, **overrides) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return build_scenario(data, **overrides)


def demo_scenario(name: str) -> dict:
    """Canonical scenario dict for a catalog entry."""
    if name == "rest_plane_wave":
        return {
            "kappa": 1.0,
            "spinor": {"catalog": "rest_plane_wave"},
            "domain": {"count": 100, "seed": 7},
            "tasks": ["classify", "mass", "invert", "verify"],
        }
    if name == "degenerate_example":
        return {
            "kappa": 1.0,
            "spinor": {"catalog": "degenerate_example",
                       "params": {"alpha": 0.3, "phi1": 0.2, "phi2": -0.1}},
            "f": "sin(x0+x1)",
            "domain": {"count": 100, "seed": 7},
            "tasks": ["classify", "mass", "invert", "family", "verify"],
        }
    if name == "lset":
        return {
            "kappa": 0.0,
            "spinor": {"catalog": "lset",
                       "params": {"member": 0, "psi1": "1", "psi2": "exp(i*x1)"}},
            "domain": {"count": 100, "seed": 7},
            "tasks": ["classify"],
        }
    raise ScenarioError(f"no demo for {name!r}; "
                        f"available: degenerate_example, lset, rest_plane_wave")
