"""Command-line front end: scenario runner, catalog demos, self-test.

Exit codes: 0 when every check passes, 1 when a check fails, 2 on input
errors (unreadable or schema-invalid scenario, expression parse failure,
evaluation failure).  Reports are deterministic for a fixed scenario, seed
and build: byte-identical output, stable field order, no non-finite numbers.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__, degeneracy, exprlang, fields, inversion, selftest, verify
from .degeneracy import Classification
from .errors import (DiracinvError, MassInconsistent, NoSupportPoints, NonRealPotential,
                     NotDegenerate, ParseError, ScenarioError)
from .exprlang import EvaluationError
from .fields import SupportSample
from .report import CheckSet, render_report
from .scenario import (MAX_SAMPLES, TASKS, Scenario, build_scenario, demo_scenario,
                       load_scenario)
from .verify import tensor_gap

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
            _sample(sc, state), sc.tolerances["classify"], kappa=sc.kappa)
    return state["classification"]


def _task_classify(sc: Scenario, state: dict) -> dict:
    checks = CheckSet("classify")
    cls = _classification(sc, state)
    expected = sc.instance.expected_verdict if sc.instance else None
    if expected is not None:
        checks.add("verdict matches catalog expectation", cls.verdict == expected,
                   detail=f"expected {expected}, got {cls.verdict}")
    out = {
        "verdict": cls.verdict,
        "support_points": len(cls.support_points),
        "s_points": len(cls.s_points),
        "degenerate_points": len(cls.degenerate_points),
        "tolerance": cls.tol,
        "relative_to_sample": True,
    }
    if cls.gamma2_cover_fraction is not None:
        out["gamma2_cover_fraction"] = cls.gamma2_cover_fraction
    if cls.gamma2_covers_support is not None:
        out["gamma2_covers_support"] = cls.gamma2_covers_support
        checks.add("transpose bilinear covers sampled support",
                   cls.gamma2_covers_support, value=cls.gamma2_cover_fraction)
    out["checks"] = checks.as_dict()
    return out


def _task_mass(sc: Scenario, state: dict) -> dict:
    checks = CheckSet("mass")
    a0 = sc.potential.components[0] if sc.potential is not None else None
    a0_params = sc.potential.params if sc.potential is not None else None
    out: dict = {}
    try:
        estimate = inversion.extract_mass(
            _sample(sc, state), a0, a0_params=a0_params,
            spread_tol=sc.tolerances["mass_spread"])
    except MassInconsistent as exc:
        checks.add("pointwise mass is consistent", False, detail=str(exc))
        out["error"] = "MassInconsistent"
    else:
        out.update({"kappa": estimate.kappa, "spread": estimate.spread,
                    "points": estimate.count, "max_imag": estimate.max_imag})
        if estimate.crosscheck_gap is not None:
            out["gauge_fixed_crosscheck_gap"] = estimate.crosscheck_gap
        checks.add("pointwise mass is consistent", True, value=estimate.spread)
        checks.add("recovered mass matches scenario kappa",
                   abs(estimate.kappa - sc.kappa) < sc.tolerances["mass"],
                   value=abs(estimate.kappa - sc.kappa))
    out["checks"] = checks.as_dict()
    return out


def _task_invert(sc: Scenario, state: dict) -> dict:
    checks = CheckSet("invert")
    fr = _sample(sc, state).frame.rows(slice(_INVERT_TABLE_LIMIT))
    pts = fr.points
    guard = sc.tolerances["guard"]
    real_tol = sc.tolerances["real"]
    combined = inversion.invert_combined(fr, sc.kappa, guard=guard)
    others = [route(fr, sc.kappa, guard=guard)
              for route in (inversion.invert_gamma4, inversion.invert_gamma5gamma4)]
    ok = combined.ok

    # Fail as a point-by-point walk would: at the lowest failing point, and
    # there in the order combined route, known potential, other routes.
    non_real = np.stack([combined.non_real(real_tol)]
                        + [ok & route.non_real(real_tol) for route in others])
    failed = np.flatnonzero(non_real.any(axis=0))
    stop = int(failed[0]) if failed.size else len(pts)
    known = None
    if sc.potential is not None:
        upto = stop if failed.size and non_real[0, stop] else stop + 1
        known = sc.potential.values(pts[:upto][ok[:upto]], real_tol=real_tol)
    if failed.size:
        route = (combined, *others)[int(np.argmax(non_real[:, stop]))]
        raise route.non_real_error(stop)

    rows = []
    for p, a, residue, passed in zip(pts, combined.a, combined.imag_residue, ok):
        row: dict = {"point": p.tolist()}
        if passed:
            row.update({"status": "ok", "a": a.tolist(), "imag_residue": float(residue)})
        else:
            row["status"] = "degenerate-locus"
        rows.append(row)
    recovered = int(np.count_nonzero(ok))
    out = {
        "rows": rows,
        "recovered_points": recovered,
        "degenerate_locus_points": len(rows) - recovered,
    }
    if recovered:
        a = combined.a[ok]
        worst_oracle = float(verify.residual_norm_at(fr.rows(ok), a, sc.kappa).max())
        gaps = [np.abs(combined.a - route.a)[ok & route.ok] for route in others]
        worst_agreement = float(max((g.max() for g in gaps if g.size), default=0.0))
        checks.add("recovered potential passes the residual oracle",
                   worst_oracle < sc.tolerances["residual"], value=worst_oracle)
        checks.add("inversion routes agree where guards pass",
                   worst_agreement < sc.tolerances["agreement"], value=worst_agreement)
        if known is not None:
            worst_vs_known = float(np.abs(a - known).max())
            checks.add("recovered potential matches the known one",
                       worst_vs_known < sc.tolerances["invert"], value=worst_vs_known)
    out["checks"] = checks.as_dict()
    return out


def _task_family(sc: Scenario, state: dict) -> dict:
    checks = CheckSet("family")
    cls = _classification(sc, state)
    out: dict = {"members": [], "region": "supp(transpose-g2-bilinear)"}
    base = sc.potential if sc.potential is not None else inversion.FourPotential.zero()
    directions: list[tuple[str, exprlang.Expr]] = [
        ("1", exprlang.ONE), ("x0", exprlang.Name("x0"))]
    if sc.f is not None:
        directions.append((exprlang.to_text(sc.f), sc.f))
    # The family is defined where the transpose g2 bilinear passes the guard:
    # for nonzero mass the whole support of a degenerate solution, for zero
    # mass possibly less.
    region = np.flatnonzero(degeneracy.gamma2_covered(cls.transpose_g2, cls.norm_sq,
                                                      sc.tolerances["guard"]))
    out["region_points"] = len(region)
    checks.add("family region is nonempty on the sample", len(region) > 0,
               value=float(len(region)))
    if len(region) == 0:
        out["checks"] = checks.as_dict()
        return out
    fr = _sample(sc, state).frame.rows(region[:50])
    pts = fr.points
    members = {}
    try:
        for label, f in directions:
            member = degeneracy.potential_family(sc.spinor, base, f, cls)
            members[label] = member
            worst = float(verify.residual_norm_at(fr, member, sc.kappa).max())
            gap = verify.lightlike_gap_max(member, base, pts)
            out["members"].append({
                "f": label,
                "residual_max": worst,
                "lightlike_gap_max": gap,
            })
            checks.add(f"family member f={label} passes the residual oracle",
                       worst < sc.tolerances["family_residual"], value=worst)
            checks.add(f"family member f={label} is light-like separated from base",
                       gap < sc.tolerances["lightlike"], value=gap)
    except NotDegenerate as exc:
        checks.add("spinor is degenerate", False, detail=str(exc))
        out["checks"] = checks.as_dict()
        return out

    gap_const = tensor_gap(members["1"], base, pts)
    gap_linear = tensor_gap(members["x0"], base, pts)
    out["gauge_criterion"] = "field-tensor equality on the sampled simply-connected box"
    out["tensor_gap_f_1"] = gap_const
    out["tensor_gap_f_x0"] = gap_linear
    checks.add("constant member shares the base field tensor",
               gap_const < sc.tolerances["tensor"], value=gap_const)
    checks.add("a gauge-inequivalent member exists (f=x0)",
               gap_linear >= 10 * sc.tolerances["tensor"], value=gap_linear)
    out["checks"] = checks.as_dict()
    return out


def _task_verify(sc: Scenario, state: dict) -> dict:
    checks = CheckSet("verify")
    report = verify.residual_norm(_sample(sc, state), sc.potential, sc.kappa)
    out: dict = {"no_support": report.no_support}
    if report.no_support:
        checks.add("sample contains support points", False,
                   detail="NoSupportPoints: spinor vanishes on the whole sample")
    else:
        out.update({
            "residual_max": report.max_norm,
            "residual_relative_max": report.relative_max,
            "argmax_point": list(report.argmax_point),
            "points": report.count,
        })
        checks.add("forward residual within tolerance",
                   report.max_norm < sc.tolerances["residual"], value=report.max_norm)
    out["checks"] = checks.as_dict()
    return out


def _task_selftest(sc: Scenario, state: dict) -> dict:
    sections, total, failed = selftest.run_selftest(sc.domain.seed, sc.domain.count)
    return {"sections": sections,
            "checks": {"name": "selftest", "total": total, "failed": failed, "checks": []}}


_TASK_RUNNERS = {
    "classify": _task_classify,
    "mass": _task_mass,
    "invert": _task_invert,
    "family": _task_family,
    "verify": _task_verify,
    "selftest": _task_selftest,
}


def execute_scenario(sc: Scenario, command: str) -> tuple[dict, int]:
    state: dict = {}
    task_reports = []
    total = failed = 0
    # Tasks run in the order of scenario.TASKS, whatever order they are listed in.
    for name in (t for t in TASKS if t in sc.tasks):
        try:
            result = _TASK_RUNNERS[name](sc, state)
        except (NoSupportPoints, NonRealPotential, MassInconsistent) as exc:
            result = {"error": type(exc).__name__,
                      "checks": {"name": name, "total": 1, "failed": 1,
                                 "checks": [{"name": f"{name} completed", "passed": False,
                                             "detail": str(exc)}]}}
        total += result["checks"]["total"]
        failed += result["checks"]["failed"]
        task_reports.append({"task": name, **result})
    return _report(command, sc.domain.seed, sc.domain.count,
                   {"scenario": sc.raw, "tasks": task_reports}, total, failed)


def _report(command: str, seed: int, samples: int, body: dict, total: int,
            failed: int) -> tuple[dict, int]:
    """The report envelope around `body`, and the exit code its check counts give."""
    report = {
        "tool": {"name": "diracinv", "version": __version__},
        "command": command,
        "seed": seed,
        "samples": samples,
        **body,
        "summary": {"checks": total, "failed": failed,
                    "status": "pass" if failed == 0 else "fail"},
    }
    return report, 0 if failed == 0 else 1


def _emit(report: dict, out_path: str | None) -> None:
    text = render_report(report)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _add_common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Registered on the main parser and again on every subcommand so the
    # flags are accepted on either side of the subcommand word.
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default,
                        help="override the sampling seed")
    parser.add_argument("--samples", type=int, default=default,
                        help="override the sample point count")
    parser.add_argument("--tol", type=float, default=default,
                        help="override the classification tolerance")
    parser.add_argument("--out", type=str, default=default,
                        help="write the report to a file instead of stdout")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diracinv",
        description="Invert the coupled spinor system: classify degeneracy, recover "
                    "potentials and mass, verify against the forward residual.")
    _add_common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a scenario file")
    run_cmd.add_argument("scenario", type=str)
    _add_common_flags(run_cmd, suppress=True)

    demo_cmd = sub.add_parser("demo", help="run a canonical catalog scenario")
    demo_cmd.add_argument("name", type=str)
    _add_common_flags(demo_cmd, suppress=True)

    selftest_cmd = sub.add_parser("selftest", help="run every built-in invariant suite")
    _add_common_flags(selftest_cmd, suppress=True)

    args = parser.parse_args(argv)
    try:
        overrides = {"seed": args.seed, "samples": args.samples, "tol": args.tol}
        if args.command == "run":
            report, code = execute_scenario(load_scenario(args.scenario, **overrides), "run")
        elif args.command == "demo":
            sc = build_scenario(demo_scenario(args.name), **overrides)
            report, code = execute_scenario(sc, "demo")
        else:
            seed = 42 if args.seed is None else args.seed
            samples = 100 if args.samples is None else args.samples
            if not 1 <= samples <= MAX_SAMPLES:
                raise ScenarioError(f"--samples: {samples} is not in 1..{MAX_SAMPLES}")
            sections, total, failed = selftest.run_selftest(seed, samples)
            report, code = _report("selftest", seed, samples, {"sections": sections},
                                   total, failed)
    except (ScenarioError, ParseError, EvaluationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DiracinvError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    try:
        _emit(report, args.out)
    except ValueError as exc:  # non-finite number reached the report
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
