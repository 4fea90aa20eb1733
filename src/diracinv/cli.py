"""Command-line front end: scenario runner, catalog demos, self-test.

Exit codes: 0 when every check passes, 1 when a check fails, 2 on input
errors (unreadable or schema-invalid scenario, expression parse failure,
evaluation failure).  Reports are deterministic for a fixed scenario, seed
and build: byte-identical output, stable field order, no non-finite numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys

import numpy as np

from . import __version__, degeneracy, exprlang, fields, inversion, verify
from .degeneracy import Classification
from .errors import (DiracinvError, MassInconsistent, NoSupportPoints, NonRealPotential,
                     NotDegenerate, ParseError, ScenarioError)
from .exprlang import EvaluationError
from .fields import SupportSample
from .inversion import real_part
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


def _task_classify(sc: Scenario, state: dict, checks: CheckSet) -> dict:
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


def _task_mass(sc: Scenario, state: dict, checks: CheckSet) -> dict:
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


def _task_invert(sc: Scenario, state: dict, checks: CheckSet) -> dict:
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


def _task_family(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    cls = _classification(sc, state)
    out: dict = {"members": []}
    try:
        degeneracy.require_degenerate(cls)
    except NotDegenerate as exc:
        checks.add("spinor is degenerate", False, detail=str(exc))
        return out
    directions: list[tuple[str, exprlang.Expr]] = [
        ("1", exprlang.ONE), ("x0", exprlang.Name("x0"))]
    if sc.f is not None:
        directions.append((exprlang.to_text(sc.f), sc.f))
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
    for label, f in directions:
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
            gaps[label] = tensor_gap(member, base, real_tol)

    gap_const, gap_linear = gaps["1"], gaps["x0"]
    out["gauge_criterion"] = "field-tensor equality on the sampled simply-connected box"
    out["tensor_gap_f_1"] = gap_const
    out["tensor_gap_f_x0"] = gap_linear
    checks.add("a gauge-inequivalent member exists (f=x0)",
               gap_linear >= 10 * sc.tolerances["tensor"], value=gap_linear)
    return out


def _task_verify(sc: Scenario, state: dict, checks: CheckSet) -> dict:
    sample = _sample(sc, state)
    a = (None if sc.potential is None
         else real_part(_potential(sc, state), sample.frame.points, sc.tolerances["real"]))
    report = verify.residual_norm(sample, a, sc.kappa)
    checks.add("forward residual within tolerance",
               report.max_norm < sc.tolerances["residual"], value=report.max_norm)
    return {"residual_max": report.max_norm, "residual_relative_max": report.relative_max,
            "argmax_point": list(report.argmax_point), "points": report.count}


_TASK_RUNNERS = {
    "classify": _task_classify,
    "mass": _task_mass,
    "invert": _task_invert,
    "family": _task_family,
    "verify": _task_verify,
}


def execute_scenario(sc: Scenario, command: str) -> tuple[dict, int]:
    state: dict = {}
    task_reports = []
    total = failed = 0
    # Tasks run in the order of scenario.TASKS, whatever order they are listed in.
    for name in (t for t in TASKS if t in sc.tasks):
        checks = CheckSet(name)
        try:
            # An overflow (a kappa near the float limit) leaves an inf or a NaN,
            # which render_report rejects: exit 2, not a numpy warning.
            with np.errstate(all="ignore"):
                result = _TASK_RUNNERS[name](sc, state, checks)
        except (NoSupportPoints, NonRealPotential) as exc:
            # A task that cannot complete reports that alone, not what it checked before.
            checks = CheckSet(name)
            checks.add(f"{name} completed", False, detail=str(exc))
            result = {"error": type(exc).__name__}
        block = checks.as_dict()
        total += block["total"]
        failed += block["failed"]
        task_reports.append({"task": name, **result, "checks": block})
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
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as handle:
            handle.write(text)
    except OSError as exc:  # a missing directory, a directory, no permission
        raise ValueError(f"--out: {exc}") from None


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call to `main` and reused."""
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
    return parser


# glibc's mallopt parameter numbers, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed heap pages mapped, so a later run does not fault them in again.

    Blocks under 32 MiB (glibc's cap on its dynamic mmap threshold) come from
    the heap, and up to 256 MiB of free heap top stays mapped.  Setting either
    turns the dynamic threshold off, so the mmap threshold must stay above a
    run's largest array (26 MB at 100 000 samples).  Only `main` calls this;
    importing the package leaves the allocator alone.  Off Linux nothing is
    set.
    """
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = _parser().parse_args(argv)
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
            if seed < 0:
                raise ScenarioError(f"--seed: {seed} is negative")
            if args.tol is not None:
                raise ScenarioError("--tol: applies to run and demo only")
            from .selftest import run_selftest  # only this command needs the suites
            sections, total, failed = run_selftest(seed, samples)
            report, code = _report("selftest", seed, samples, {"sections": sections},
                                   total, failed)
    except (ScenarioError, ParseError, EvaluationError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DiracinvError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    except RecursionError:
        sys.stderr.write("error: an expression is nested too deeply to parse or evaluate\n")
        return 2
    try:
        _emit(report, args.out)
    except ValueError as exc:  # a non-finite number reached the report, or --out failed
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
