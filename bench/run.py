"""diracinv benchmark: one workload, one seed, one fresh single-threaded process.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload family_sweep --seed 1 --seconds 25 --trace 0

The program is imported from ``src`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics (see README.md).
Every end-to-end time is a wall time rescaled to a fixed host pace with the
reference unit of pace.py; the wall times themselves are printed as notes.
Every metric is printed by name with its unit; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Full results, with the machine and versions, and the spans of a
traced run are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import pace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
TAIL_BEYOND = 10
# Every run must end within this many seconds.
DEADLINE_S = 175.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import diracinv.cli; "
                 "print(repr(time.perf_counter() - t))")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict, root: Path, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds to import diracinv.cli in fresh interpreters, start-up excluded.

    Returns the wall times and the reference-unit times around them: block k
    ran before import k and block k + 1 after it.
    """
    pace.block_s()
    samples, units = [], [pace.block_s()]
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root,
                              capture_output=True, text=True, check=True,
                              timeout=max(1.0, deadline - monotonic()))
        samples.append(float(done.stdout.strip()))
        units.append(pace.block_s())
    return samples, units


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND operations above it.

    Returns (value, percentile); with too few operations, the maximum (p100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count()}


def source_identity(root: Path) -> dict:
    """Commit if the checkout is a git work tree, and a digest of src/."""
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(child: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    walls = child["latencies_s"]
    latencies = [pace.rescale(wall - inside, unit) for wall, inside, unit
                 in zip(walls, child["sampled_s"], child["units_s"])]
    imports, around = setup
    imports = [pace.rescale(wall, (around[k] + around[k + 1]) / 2)
               for k, wall in enumerate(imports)]
    tail_value, percentile = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(imports), "s"),
        "latency_s.p50": (statistics.median(latencies), "s"),
        "latency_s.tail": (tail_value, "s"),
        "throughput_ops_per_s": (len(latencies) / math.fsum(latencies), "1/s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }
    units = child["units_s"] + around
    notes = [f"times are rescaled to the pace where a reference unit takes "
             f"{pace.REFERENCE_S} s, with exponent {pace.SENSITIVITY}; here it took "
             f"{statistics.median(units):.6f} s "
             f"(median over {len(units)} operations and blocks, range "
             f"{min(units):.6f}-{max(units):.6f}); "
             f"{statistics.median(child['samples'])} samples per operation",
             f"latency_s.tail is p{percentile:.1f} of {len(latencies)} timed operations",
             f"wall: setup {statistics.median(setup[0]):.4f} s, p50 "
             f"{statistics.median(walls):.4f} s, tail {tail(walls)[0]:.4f} s, "
             f"{len(walls) / child['loop_s']:.4f} ops/s over the loop",
             f"setup_s samples: {', '.join(f'{s:.4f}' for s in imports)}"]
    return metrics, notes


def per_layer(child: dict) -> tuple[dict, list[str]]:
    units = layers.metric_units()
    metrics = {name: (child["metrics"][name], unit) for name, unit in units.items()}
    notes = [f"{child['traced_ops']} traced operations, {child['spans']} spans "
             f"in .bench_out/{child['spans_file']}",
             f"p50 untraced {child['plain_p50_s']:.4f} s, traced "
             f"{child['traced_p50_s']:.4f} s"]
    if child["absent_layers"]:
        notes.append("absent from the program: " + ", ".join(child["absent_layers"]))
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "diracinv" / "cli.py").is_file():
        print(f"error: no program source at {src / 'diracinv'}; run from the root "
              f"of a diracinv checkout", file=sys.stderr)
        return 2

    out_dir = root / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_dir / "work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env(src)
    result_path = work / "child.json"
    try:
        setup = ([], []) if args.trace else measure_setup(env, root, deadline)
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", str(work), "--result", str(result_path),
             "--spans", str(out_dir / f"spans-{args.workload}.npz")],
            env=env, cwd=root, check=True, timeout=max(1.0, deadline - monotonic()))
        child = json.loads(result_path.read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    expected_program = (src / "diracinv").resolve()
    if Path(child["program"]) != expected_program:
        print(f"error: imported {child['program']}, not {expected_program}",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics, notes = per_layer(child)
    else:
        metrics, notes = end_to_end(child, setup)
    problems = list(child["failures"])
    if args.trace and child["unused_layers"]:
        problems.append("layers with zero calls on a workload that uses them: "
                        + ", ".join(child["unused_layers"]))
    problems += [f"metric {name} is not finite"
                 for name, (value, _) in metrics.items() if not math.isfinite(value)]
    correct = child["failed"] == 0 and not problems
    result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine(), **child["versions"],
            **source_identity(root)}
    fail_frac = child["failed"] / child["attempted"]
    full = {**info, "correct": correct, "attempted": child["attempted"],
            "failed": child["failed"], "fail_frac": fail_frac, "problems": problems,
            "notes": notes, "metrics": result_metrics,
            "setup": {"walls_s": setup[0], "units_s": setup[1]},
            "child": {k: v for k, v in child.items() if k != "metrics"}}
    (out_dir / f"result-{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_frac {fail_frac!r} ratio ({child['failed']} of {child['attempted']} "
          f"operations)")
    for line in notes + problems:
        print(f"# {line}")
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
