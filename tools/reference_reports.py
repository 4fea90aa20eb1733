"""Exit code and report digests of the reference commands, for before/after diffs.

Usage, from the root of a source checkout::

    python3 tools/reference_reports.py > after.txt
    python3 tools/reference_reports.py "demo degenerate_example --samples 10000"

Each output line is ``exit md5(stdout) md5(stderr) command``.  The 71
reference commands are ``run`` on the three shipped scenarios, ``demo`` of the
three catalog entries, ``selftest --seed 42``, ``demo degenerate_example``
and the three shipped scenarios again at ``--samples 10000``, and operations
0-19 of each benchmark workload at seed 1, as ``bench/workloads.py``
generates them.
Each argument adds one command, split like a shell line.  Every command
runs in this one process through ``diracinv.cli.main`` from this
checkout's ``src``.  Run it on two checkouts and diff the outputs: a
command whose exit code, report or error message changed shows a
different line.  Workload scenario files are written to a temporary
directory, and commands are shown with that directory and the checkout
root cut off, so the lines of two checkouts compare equal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from diracinv import cli  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SHIPPED = ("degenerate_family", "gauge_round_trip", "superposition")
DEMOS = ("degenerate_example", "lset", "rest_plane_wave")
WORKLOAD_SEED = 1
WORKLOAD_OPERATIONS = 20
LARGE_SAMPLES = "10000"


def reference_commands(directory: Path) -> list[list[str]]:
    """The reference commands; workload scenario files go into `directory`."""
    commands = [["run", str(ROOT / "scenarios" / f"{name}.json")] for name in SHIPPED]
    commands += [["demo", name] for name in DEMOS]
    commands.append(["selftest", "--seed", "42"])
    commands.append(["demo", "degenerate_example", "--samples", LARGE_SAMPLES])
    commands += [["run", str(ROOT / "scenarios" / f"{name}.json"), "--samples", LARGE_SAMPLES]
                 for name in SHIPPED]
    for workload in WORKLOADS:
        ops = generate(workload, WORKLOAD_SEED, WORKLOAD_OPERATIONS, directory / workload)
        commands += [list(op.argv) for op in ops]
    return commands


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def main(extra: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        commands = reference_commands(Path(tmp)) + [shlex.split(line) for line in extra]
        for argv in commands:
            code, out, err = run(argv)
            shown = shlex.join(arg.replace(tmp + os.sep, "").replace(f"{ROOT}{os.sep}", "")
                               for arg in argv)
            print(code, _md5(out), _md5(err), shown)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
