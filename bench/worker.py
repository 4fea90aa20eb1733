"""One workload run in a process of its own: a closed loop of CLI operations.

Started by run.py with the program's ``src`` on PYTHONPATH.  One client
issues one operation at a time; an operation is one call of
``diracinv.cli.main([..., "--out", path])``, timed from the call to its
return.  Each report is then read back and judged by the workload's
reference, outside the timed region.

Untraced run: one warm-up operation, the timed loop, then the first timed
operation again, whose report bytes must match its first run.  During every
timed operation a pace.Sampler times the reference unit of pace.py, so that
run.py can rescale each latency to a fixed host pace.

Traced run: each operation runs twice, once plain and once with the layers
wrapped, in alternating order.  The two reports must be byte-identical; the
ratio of the two median latencies gives the tracing overhead.

The result is written as JSON to the path given by --result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import layers
import pace
import workloads

# Operations generated ahead of the loop per measured second; a loop that
# runs faster than this cycles through them again.
OPS_PER_SECOND = 20
# Reference units run untimed before the timed loop, to warm them up.
PACE_WARMUP_UNITS = pace.POOL
MAX_FAILURE_NOTES = 20


class Runner:
    def __init__(self, cli, out_path: Path):
        self.cli = cli
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def call(self, op, sampler=None) -> tuple[int, bytes, float]:
        """Run one operation; returns (exit code, report bytes, seconds).

        With a pace.Sampler, the operation runs under it.
        """
        argv = [*op.argv, "--out", str(self.out_path)]
        if self.out_path.exists():
            self.out_path.unlink()
        start = perf_counter()
        try:
            if sampler is None:
                code = self.cli.main(argv)
            else:
                with sampler:
                    code = self.cli.main(argv)
        except Exception:  # an operation that raises is a failed operation
            elapsed = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return -1, b"", elapsed
        elapsed = perf_counter() - start
        report = self.out_path.read_bytes() if self.out_path.exists() else b""
        return code, report, elapsed

    def judge(self, op, code: int, report: bytes, extra=()) -> None:
        self.attempted += 1
        problems = list(extra)
        if code == -1:
            problems.append("raised an exception")
        else:
            problems.extend(op.reference.problems(code, report))
        if problems:
            self.failed += 1
            if len(self.notes) < MAX_FAILURE_NOTES:
                self.notes.append(f"op {op.index} ({' '.join(op.argv)}): "
                                  + "; ".join(problems))


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for package in ("numpy", "scipy"):
        try:
            out[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            out[package] = None
    return out


def untraced(runner: Runner, ops, seconds: float) -> dict:
    for _ in range(PACE_WARMUP_UNITS):
        pace.work()
    sampler = pace.Sampler()
    code, report, _ = runner.call(ops[0], sampler)
    runner.judge(ops[0], code, report)
    latencies, sampled, units, counts = [], [], [], []
    first = None
    index = 1
    loop_start = perf_counter()
    while perf_counter() - loop_start < seconds:
        op = ops[index % len(ops)]
        code, report, elapsed = runner.call(op, sampler)
        inside, unit = sampler.result()
        latencies.append(elapsed)
        sampled.append(inside)
        units.append(unit)
        counts.append(len(sampler.samples))
        runner.judge(op, code, report)
        if first is None:
            first = (op, report)
        index += 1
    loop_s = perf_counter() - loop_start
    op, report = first
    code, again, _ = runner.call(op)
    runner.judge(op, code, again,
                 [] if again == report else ["report bytes differ on a re-run"])
    return {"latencies_s": latencies, "sampled_s": sampled, "units_s": units,
            "samples": counts, "loop_s": loop_s}


def traced(runner: Runner, ops, seconds: float, workload: str, spans_path: Path) -> dict:
    from diracinv.errors import GuardViolated
    from tracer import Tracer

    tracer = Tracer(layers.LAYERS, GuardViolated)
    code, report, _ = runner.call(ops[0])
    runner.judge(ops[0], code, report)
    plain_s, traced_s = [], []
    index = 1
    loop_start = perf_counter()
    while perf_counter() - loop_start < seconds:
        op = ops[index % len(ops)]
        if index % 2:
            plain = runner.call(op)
            with_trace = tracer.run(op.index, lambda: runner.call(op))
        else:
            with_trace = tracer.run(op.index, lambda: runner.call(op))
            plain = runner.call(op)
        plain_s.append(plain[2])
        traced_s.append(with_trace[2])
        runner.judge(op, plain[0], plain[1])
        runner.judge(op, with_trace[0], with_trace[1],
                     [] if with_trace[1] == plain[1] else
                     ["traced report bytes differ from the untraced report"])
        index += 1
    n = len(traced_s)
    metrics = {}
    for layer in layers.LAYERS:
        stats = tracer.stats[layer.name]
        if layer.calls_metric:
            metrics[f"{layer.name}.calls"] = stats.calls / n
        metrics[f"{layer.name}.self_s"] = stats.self_s / n
        if layer.counter:
            metrics[f"{layer.name}.{layer.counter}"] = stats.count / n
    combined = tracer.stats["inversion.invert_combined"]
    metrics[layers.COMBINED_REJECT_FRAC] = (
        combined.count / combined.calls if combined.calls else 0.0)
    p50_plain = statistics.median(plain_s)
    metrics[layers.TRACE_OVERHEAD] = statistics.median(traced_s) / p50_plain - 1.0
    unused = [layer.name for layer in layers.LAYERS
              if workload in layer.used_on and layer.name not in tracer.absent
              and tracer.stats[layer.name].calls == 0]
    tracer.dump(spans_path)
    return {"metrics": metrics, "traced_ops": n, "unused_layers": unused,
            "absent_layers": tracer.absent, "plain_p50_s": p50_plain,
            "traced_p50_s": statistics.median(traced_s),
            "spans": len(tracer.ids), "spans_file": spans_path.name}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    import diracinv.cli as cli

    count = max(8, int(OPS_PER_SECOND * args.seconds))
    ops = workloads.generate(args.workload, args.seed, count, args.work / "scenarios")
    runner = Runner(cli, args.work / "report.json")
    if args.trace:
        result = traced(runner, ops, args.seconds, args.workload, args.spans)
    else:
        result = untraced(runner, ops, args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "program": str(Path(cli.__file__).resolve().parent),
    })
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
