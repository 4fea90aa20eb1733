"""Time two diracinv sources against each other in one process, operation by operation.

Usage, from the root of a source checkout::

    python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC --workload family_sweep --ops 40 --rounds 5
    python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC --workload all --ops 30 --rounds 4

PARENT_SRC and CHANGE_SRC are ``src`` directories that each hold a
``diracinv`` package, such as this checkout's ``src`` and that of a copy of
its parent commit.  Both packages are copied under two names into a
temporary directory and imported side by side.  Operations 0..ops-1 of the
workload at ``--seed`` come from ``bench/workloads.py`` of this checkout,
which is only read.  Every operation runs once on each side, untimed, to
warm both up; then each round runs every operation on both sides, the side
that goes first alternating from one operation to the next.  Each call is
one ``cli.main(argv + ["--out", path])``, timed from the call to its return.

Two runs in separate processes meet the host's drift at different times;
two packages alternated per operation in one process meet it together, so
a few percent shows in a few hundred pairs.  For each workload, one or
``all`` of them in turn, the script prints each side's median and
quartiles over all timed calls, then one line with the change's median
ratio, its win count over the operation pairs, and whether every pair had
the same exit code and byte-identical reports.  Where a pair differed, one
more line names the first such operation and where its pair differs: the
exit codes, or the first JSON path of the reports whose values differ, such
as ``tasks[3].checks.checks[0].value``, with both values, so that a planned
change of report bytes shows where it is.  A last line sums that up over
the workloads, and the script exits 1 when some pair differed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import WORKLOADS, generate  # noqa: E402

SIDES = ("parent", "change")


def load_side(src: Path, name: str, directory: Path):
    """The `cli` module of src/diracinv, copied and imported as package `name`."""
    package = Path(src) / "diracinv"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {src} holds no diracinv package")
    shutil.copytree(package, directory / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_once(cli, argv: tuple[str, ...], out: Path) -> tuple[int, bytes, float]:
    """One operation: (exit code, report bytes, seconds)."""
    out.unlink(missing_ok=True)
    start = perf_counter()
    code = cli.main([*argv, "--out", str(out)])
    elapsed = perf_counter() - start
    return code, out.read_bytes() if out.exists() else b"", elapsed


def first_difference(a: bytes, b: bytes) -> str | None:
    """Where two reports first differ, as "path: value != value"; None if they are equal."""
    if a == b:
        return None
    try:
        left, right = json.loads(a), json.loads(b)
    except ValueError:  # an empty report, after an input error
        return f"report bytes: {len(a)} != {len(b)} bytes"
    return _difference(left, right, "") or "same values, different bytes"


def _difference(a, b, path: str) -> str | None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            at = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return (f"{at}: {json.dumps(a[key]) if key in a else '(missing)'} != "
                        f"{json.dumps(b[key]) if key in b else '(missing)'}")
            found = _difference(a[key], b[key], at)
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = _difference(x, y, f"{path}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{path}: {len(a)} != {len(b)} items"
        return None
    if json.dumps(a) != json.dumps(b):
        return f"{path}: {json.dumps(a)} != {json.dumps(b)}"
    return None


def quartiles(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return (times[0],) * 3
    q1, q2, q3 = statistics.quantiles(times, n=4)
    return q1, q2, q3


def compare(parent_src: Path, change_src: Path, workload: str, ops: int, rounds: int,
            seed: int = 1) -> dict:
    """Timings of both sides and whether every report pair matched."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        try:
            clis = [load_side(src, f"diracinv_ab_{side}", tmp)
                    for src, side in zip((parent_src, change_src), SIDES)]
            operations = generate(workload, seed, ops, tmp / "ops")
            out = tmp / "report.json"
            for op in operations:
                for cli in clis:
                    run_once(cli, op.argv, out)
            times: dict[str, list[float]] = {side: [] for side in SIDES}
            wins, identical, difference = 0, True, None
            for _ in range(rounds):
                for op in operations:
                    order = (0, 1) if op.index % 2 == 0 else (1, 0)
                    results = {i: run_once(clis[i], op.argv, out) for i in order}
                    (code_a, report_a, time_a), (code_b, report_b, time_b) = results[0], results[1]
                    same = code_a == code_b and report_a == report_b
                    if not same and difference is None:
                        where = first_difference(report_a, report_b)
                        difference = f"operation {op.index}: " + "; ".join(
                            ([f"exit {code_a} != {code_b}"] if code_a != code_b else [])
                            + ([where] if where else []))
                    identical &= same
                    wins += time_b < time_a
                    times["parent"].append(time_a)
                    times["change"].append(time_b)
        finally:
            sys.path.remove(str(tmp))
            for name in [m for m in sys.modules if m.startswith("diracinv_ab_")]:
                del sys.modules[name]
    ratios = [b / a for a, b in zip(times["parent"], times["change"])]
    return {"times": times, "wins": wins, "pairs": len(ratios),
            "ratio": statistics.median(ratios), "identical": identical,
            "difference": difference}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--ops", type=int, default=40)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.ops < 1 or args.rounds < 1:
        parser.error("--ops and --rounds must be at least 1")
    identical = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = compare(args.parent_src, args.change_src, workload, args.ops, args.rounds,
                         args.seed)
        identical &= result["identical"]
        for side in SIDES:
            q1, q2, q3 = quartiles(result["times"][side])
            print(f"{workload}  {side:6s}  median {q2 * 1e3:9.3f} ms  quartiles "
                  f"{q1 * 1e3:9.3f} {q3 * 1e3:9.3f} ms")
        print(f"{workload}  change/parent median ratio {result['ratio']:.3f}; change faster "
              f"in {result['wins']} of {result['pairs']} pairs; reports "
              + ("identical" if result["identical"] else "DIFFER"))
        if result.get("difference"):
            print(f"{workload}  first difference, {result['difference']}")
    print("reports: " + ("every pair identical" if identical else "PAIRS DIFFER"))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
