"""Command-line front end: argument parsing, task dispatch, report emission.

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

from . import __version__, tasks
from .errors import DiracinvError, NoSupportPoints, NonRealPotential, ParseError, ScenarioError
from .exprlang import EvaluationError
from .report import CheckSet, render_report
from .scenario import (MAX_SAMPLES, TASKS, Scenario, build_scenario, demo_scenario,
                       load_scenario)
# `tensor_gap` only for bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_restores_them
from .verify import tensor_gap

_TASK_RUNNERS = {
    "classify": tasks.classify_task,
    "mass": tasks.mass_task,
    "invert": tasks.invert_task,
    "family": tasks.family_task,
    "verify": tasks.verify_task,
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
