"""The five scenario tasks: what each reads, checks and reports.

A task, `task(sc, state, checks)`, adds its checks and returns its report
block.  `state` holds what one run's tasks share, built by its first reader:
"sample" evaluates the spinor at every sampled point; "classification" no
expression, forming the degeneracy indicator from the sample's values; and
"potential" the scenario potential at every support point.
"""

from __future__ import annotations

import numpy as np

from . import degeneracy, exprlang, fields, inversion, verify
from .degeneracy import Classification
from .errors import MassInconsistent, NotDegenerate
from .fields import SupportSample
from .inversion import real_part
from .report import CheckSet
from .scenario import Scenario

_INVERT_TABLE_LIMIT = 200


def _sample(sc: Scenario, state: dict) -> SupportSample:
    """The run's one support sample, and through it one frame, shared by every task."""
    if "sample" not in state:
        state["sample"] = fields.sample_support(sc.spinor, sc.domain, sc.tolerances["support"])
    return state["sample"]


def _classification(sc: Scenario, state: dict) -> Classification:
    """The scenario's classification, computed by the first task that needs it."""
    if "classification" not in state:
        state["classification"] = degeneracy.classify(
            _sample(sc, state), sc.tolerances["classify"])
    return state["classification"]


def _potential(sc: Scenario, state: dict) -> np.ndarray:
    """The scenario potential's complex values (N, 4) at every support point.

    The first task that reads them evaluates them, after the support frame,
    so a spinor partial that cannot be evaluated is reported first.  Each
    task real-checks the columns and rows it reads.
    """
    if "potential" not in state:
        state["potential"] = fields.ExpressionField.values(
            sc.potential, _sample(sc, state).frame.points)
    return state["potential"]


def classify_task(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    cls = _classification(sc, state)
    expected = sc.instance.expected_verdict if sc.instance else None
    if expected is not None:
        checks.add("verdict matches catalog expectation", cls.verdict == expected,
                   detail=f"expected {expected}, got {cls.verdict}")
    return {
        "verdict": cls.verdict,
        "support_points": len(cls.support_points),
        "s_points": len(cls.s_points),
        "degenerate_points": len(cls.degenerate_points),
        "tolerance": cls.tol,
        "relative_to_sample": True,
    }


def mass_task(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    a0 = _potential(sc, state)[:, 0] if sc.potential is not None else None
    try:
        estimate = inversion.extract_mass(_sample(sc, state), a0,
                                          spread_tol=sc.tolerances["mass_spread"],
                                          real_tol=sc.tolerances["real"])
    except MassInconsistent as exc:
        checks.add("pointwise mass is consistent", False, detail=str(exc))
        return {"error": "MassInconsistent"}
    out = {"kappa": estimate.kappa, "spread": estimate.spread,
           "points": estimate.count, "max_imag": estimate.max_imag}
    checks.add("pointwise mass is consistent", True, value=estimate.spread)
    checks.add("recovered mass matches scenario kappa",
               abs(estimate.kappa - sc.kappa) < sc.tolerances["mass"],
               value=abs(estimate.kappa - sc.kappa))
    return out


def invert_task(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    fr = _sample(sc, state).frame.rows(slice(_INVERT_TABLE_LIMIT))
    pts = fr.points
    guard = sc.tolerances["guard"]
    real_tol = sc.tolerances["real"]
    # The routes run on this one row frame and read the one table it holds.
    # The other two are read only where the combined one passes its guard,
    # so they run only if some point passes it.
    combined = inversion.invert_combined(fr, sc.kappa, guard=guard)
    ok = combined.ok
    others = [inversion.invert_gamma4(fr, sc.kappa, guard=guard),
              inversion.invert_gamma5gamma4(fr, sc.kappa, guard=guard)] if ok.any() else []

    # Fail as a point-by-point walk would: at the lowest failing point, and
    # there in the order combined route, known potential, other routes.  The
    # other routes are read only where the combined one passes its guard.
    non_real = np.stack([combined.non_real(real_tol)]
                        + [route.non_real(real_tol) & ok for route in others])
    failed = np.flatnonzero(non_real.any(axis=0))
    stop = int(failed[0]) if failed.size else len(pts)
    known = None
    if sc.potential is not None:
        upto = stop if failed.size and non_real[0, stop] else stop + 1
        rows = np.flatnonzero(ok[:upto])
        known = real_part(_potential(sc, state)[rows], pts[rows], real_tol)
    if failed.size:
        raise (combined, *others)[int(np.argmax(non_real[:, stop]))].non_real_error(stop)

    rows = [{"point": p, "status": "ok", "a": a, "imag_residue": residue} if passed
            else {"point": p, "status": "degenerate-locus"}
            for p, a, residue, passed in zip(pts.tolist(), combined.a.tolist(),
                                             combined.imag_residue.tolist(), ok.tolist())]
    recovered = int(np.count_nonzero(ok))
    out = {
        "rows": rows,
        "recovered_points": recovered,
        "degenerate_locus_points": len(rows) - recovered,
    }
    if recovered:
        a = combined.a[ok]
        worst_oracle = float(verify.residual_norm_at(fr.rows(ok), a, sc.kappa).max())
        worst_agreement = max(float(np.abs(combined.a - route.a)[ok & route.ok].max(initial=0.0))
                              for route in others)
        checks.add("recovered potential passes the residual oracle",
                   worst_oracle < sc.tolerances["residual"], value=worst_oracle)
        checks.add("inversion routes agree where guards pass",
                   worst_agreement < sc.tolerances["agreement"], value=worst_agreement)
        if known is not None:
            worst_vs_known = float(np.abs(a - known).max())
            checks.add("recovered potential matches the known one",
                       worst_vs_known < sc.tolerances["invert"], value=worst_vs_known)
    return out


def family_task(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    cls = _classification(sc, state)
    out: dict = {"members": []}
    try:
        degeneracy.require_degenerate(cls)
    except NotDegenerate as exc:
        checks.add("spinor is degenerate", False, detail=str(exc))
        return out
    directions: dict[str, exprlang.Expr] = {"1": exprlang.ONE, "x0": exprlang.Name("x0")}
    # A scenario f that prints as one of the fixed members adds no member.
    if sc.f is not None:
        directions.setdefault(exprlang.to_text(sc.f), sc.f)
    # The family is defined on the whole support; the direction is held on
    # this row frame, not on the run's support frame.
    fr = _sample(sc, state).frame.rows(slice(None))
    real_tol = sc.tolerances["real"]
    if sc.potential is not None:
        base = fields.frame(sc.potential, fr.points,
                            real_part(_potential(sc, state), fr.points, real_tol))
    else:
        base = fields.zero_frame(fr.points)
    gaps = {}
    for label, f in directions.items():
        member = degeneracy.potential_family(fr, base, f, cls, real_tol)
        worst = float(verify.residual_norm_at(fr, member.value, sc.kappa).max())
        gap = verify.lightlike_gap_max(member, base)
        out["members"].append({
            "f": label,
            "residual_max": worst,
            "lightlike_gap_max": gap,
        })
        checks.add(f"family member f={label} passes the residual oracle",
                   worst < sc.tolerances["family_residual"], value=worst)
        checks.add(f"family member f={label} is light-like separated from base",
                   gap < sc.tolerances["lightlike"], value=gap)
        if label in ("1", "x0"):
            gaps[label] = verify.tensor_gap(member, base, real_tol)

    gap_const, gap_linear = gaps["1"], gaps["x0"]
    out["gauge_criterion"] = "field-tensor equality on the sampled simply-connected box"
    out["tensor_gap_f_1"] = gap_const
    out["tensor_gap_f_x0"] = gap_linear
    checks.add("a gauge-inequivalent member exists (f=x0)",
               gap_linear >= 10 * sc.tolerances["tensor"], value=gap_linear)
    return out


def verify_task(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    sample = _sample(sc, state)
    a = (None if sc.potential is None
         else real_part(_potential(sc, state), sample.frame.points, sc.tolerances["real"]))
    report = verify.residual_norm(sample, a, sc.kappa)
    checks.add("forward residual within tolerance",
               report.max_norm < sc.tolerances["residual"], value=report.max_norm)
    return {"residual_max": report.max_norm, "residual_relative_max": report.relative_max,
            "argmax_point": list(report.argmax_point), "points": report.count}
