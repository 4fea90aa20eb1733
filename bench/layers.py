"""The layers the traced run measures, and the workloads each one must reach.

A layer is one public function of a ``diracinv`` module.  ``used_on`` names
the workloads whose operations call it; a traced run on such a workload that
records zero calls fails, because the layer's metrics would then measure
nothing.  README.md in this directory says which end-to-end metric each
layer is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL = frozenset({"family_sweep", "gauge_round_trip", "selftest"})
FAMILY = frozenset({"family_sweep"})
GAUGE = frozenset({"gauge_round_trip"})
SELFTEST = frozenset({"selftest"})
SCENARIO_RUNS = FAMILY | GAUGE


@dataclass(frozen=True)
class Layer:
    name: str                  # metric prefix
    module: str                # module that defines or binds the function
    attr: str                  # attribute path in that module
    used_on: frozenset
    key: str | None = None     # entry of the dict named by attr, for dispatch tables
    counter: str | None = None  # extra count: "rejects", "points" or "bytes"
    calls_metric: bool = True
    # An optional binding may be absent from the program; its layer then
    # reports zero and is not required.  Only the scipy quadrature is
    # optional, because removing scipy is a planned change.
    optional: bool = False


LAYERS = (
    Layer("exprlang.parse", "diracinv.exprlang", "parse", ALL),
    Layer("exprlang.differentiate", "diracinv.exprlang", "differentiate", ALL),
    Layer("exprlang.evaluate", "diracinv.exprlang", "evaluate", ALL),
    Layer("exprlang.evaluate_many", "diracinv.exprlang", "evaluate_many", ALL,
          counter="points"),
    Layer("exprlang.quad", "diracinv.exprlang", "scipy.integrate.quad",
          GAUGE | SELFTEST, optional=True),
    Layer("fields.frame", "diracinv.fields", "frame", ALL),
    Layer("fields.sample_support", "diracinv.fields", "sample_support", ALL),
    Layer("inversion.invert_combined", "diracinv.inversion", "invert_combined",
          SCENARIO_RUNS, counter="rejects"),
    Layer("inversion.invert_gamma4", "diracinv.inversion", "invert_gamma4",
          GAUGE, counter="rejects"),
    Layer("inversion.invert_gamma5gamma4", "diracinv.inversion", "invert_gamma5gamma4",
          GAUGE, counter="rejects"),
    Layer("inversion.extract_mass", "diracinv.inversion", "extract_mass", ALL),
    Layer("inversion.extract_mass_at", "diracinv.inversion", "extract_mass_at", ALL),
    Layer("degeneracy.classify", "diracinv.degeneracy", "classify", ALL),
    Layer("degeneracy.theta", "diracinv.degeneracy", "theta", SELFTEST),
    Layer("degeneracy.potential_family", "diracinv.degeneracy", "potential_family",
          FAMILY | SELFTEST),
    Layer("verify.dirac_residual", "diracinv.verify", "dirac_residual", ALL),
    Layer("verify.residual_norm", "diracinv.verify", "residual_norm", ALL),
    Layer("verify.field_tensor", "diracinv.verify", "field_tensor", FAMILY | SELFTEST),
    Layer("verify.tensor_gap", "diracinv.verify", "tensor_gap", FAMILY | SELFTEST),
    Layer("verify.lightlike_gap", "diracinv.verify", "lightlike_gap", FAMILY | SELFTEST),
    Layer("catalog.build", "diracinv.catalog", "build", FAMILY | SELFTEST),
    Layer("scenario.build_scenario", "diracinv.scenario", "build_scenario",
          SCENARIO_RUNS),
    Layer("report.render_report", "diracinv.report", "render_report", ALL,
          counter="bytes"),
    *(Layer(f"cli.task.{task}", "diracinv.cli", "_TASK_RUNNERS", SCENARIO_RUNS,
            key=task, calls_metric=False)
      for task in ("classify", "mass", "invert", "verify")),
    Layer("cli.task.family", "diracinv.cli", "_TASK_RUNNERS", FAMILY,
          key="family", calls_metric=False),
    *(Layer(f"selftest.{suite}", "diracinv.selftest", suite, SELFTEST,
            calls_metric=False)
      for suite in ("gamma_structure_suite", "derivative_suite", "identity_suite",
                    "catalog_suite")),
)

_COUNTER_UNITS = {"rejects": "count/op", "points": "count/op", "bytes": "B/op"}

# Metrics of the traced run that belong to no single layer.
TRACE_OVERHEAD = "trace.overhead_frac"
COMBINED_REJECT_FRAC = "inversion.invert_combined.reject_frac"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        if layer.calls_metric:
            units[f"{layer.name}.calls"] = "count/op"
        units[f"{layer.name}.self_s"] = "s/op"
        if layer.counter:
            units[f"{layer.name}.{layer.counter}"] = _COUNTER_UNITS[layer.counter]
    units[COMBINED_REJECT_FRAC] = "ratio"
    units[TRACE_OVERHEAD] = "ratio"
    return units
