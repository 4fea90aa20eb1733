"""Run the self-test's derivative suite over many benchmark-style seeds.

Usage, from the root of a source checkout::

    python3 tools/selftest_sweep.py                 # 5000 seeds of sweep seed 0
    python3 tools/selftest_sweep.py --count 200 --seed 3

Run ``i`` of sweep seed ``s`` uses the seed
``int(np.random.default_rng([s, i]).integers(0, 2**31))``, the seed that
``bench/workloads.py`` gives operation ``i`` of a ``selftest`` workload
run at seed ``s``.  Each run calls ``selftest.derivative_suite`` once.  The
script prints one line per run with a failed check (its seed and the names
of its failed checks), then a summary: the number of runs and of failed
runs, and the worst ratio |sym - fd| / |sym| of the comparison check over
all runs, against its tolerance.  It exits 1 when any run failed.

Run it on two checkouts to see what a change to the suite's draws does to
its verdicts and to its margin below the tolerance.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from diracinv import selftest  # noqa: E402

COMPARISON = "symbolic matches central differences"


def run_seeds(sweep_seed: int, count: int) -> list[int]:
    """The seeds of runs 0..count-1, as the benchmark draws them."""
    return [int(np.random.default_rng([sweep_seed, i]).integers(0, 2 ** 31))
            for i in range(count)]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    parser.add_argument("--count", type=int, default=5000, help="runs (default 5000)")
    args = parser.parse_args(argv)

    failed_runs, worst = 0, 0.0
    for seed in run_seeds(args.seed, args.count):
        checks = selftest.derivative_suite(seed).checks
        worst = max([worst] + [c["value"] for c in checks if c["name"] == COMPARISON])
        failed = [c["name"] for c in checks if not c["passed"]]
        if failed:
            failed_runs += 1
            print(f"seed {seed}: failed {'; '.join(failed)}")
    print(f"runs {args.count}  failed {failed_runs}  worst ratio {worst:.3e}"
          f"  (tolerance {selftest._FD_REL_TOL:.0e})")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
