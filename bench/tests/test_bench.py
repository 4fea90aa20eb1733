"""Tests of the benchmark's generators, reference checks and tracer.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import diracinv.cli as cli  # noqa: E402
from diracinv import exprlang, inversion, verify  # noqa: E402
from diracinv.errors import GuardViolated  # noqa: E402
from tracer import Tracer  # noqa: E402

# The quadrature layer exists only while exprlang binds scipy.
HAS_QUAD = hasattr(exprlang, "scipy")


def _inputs(ops) -> list:
    """What the program receives: scenario bytes, or the argument list."""
    return [Path(op.argv[1]).read_bytes() if op.argv[0] == "run" else op.argv
            for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs_and_references(tmp_path, workload):
    first = workloads.generate(workload, 5, 12, tmp_path / "a")
    again = workloads.generate(workload, 5, 12, tmp_path / "b")
    other = workloads.generate(workload, 6, 12, tmp_path / "c")
    assert _inputs(first) == _inputs(again)
    assert [op.reference for op in first] == [op.reference for op in again]
    assert _inputs(first) != _inputs(other)


def test_gauge_perturbs_one_operation_in_five(tmp_path):
    ops = workloads.generate("gauge_round_trip", 3, 20, tmp_path)
    assert [op.reference.expected_exit for op in ops] == [0, 0, 0, 0, 1] * 4
    declared = [op.reference.declared_kappa != op.reference.kappa for op in ops]
    assert declared == [False] * 9 + [True] + [False] * 9 + [True]


def _run(op, tmp_path) -> tuple[int, bytes]:
    out = tmp_path / "report.json"
    code = cli.main([*op.argv, "--out", str(out)])
    return code, out.read_bytes()


def _edit(report: bytes, change) -> bytes:
    data = json.loads(report)
    change(data)
    return json.dumps(data).encode()


def _shift_mass(data):
    workloads._task(data, "mass")["kappa"] += 1e-6


def _set_verdict(data):
    workloads._task(data, "classify")["verdict"] = "mixed"


def _flip_status(data):
    data["summary"]["status"] = "fail" if data["summary"]["status"] == "pass" else "pass"


def _shift_invert_row(data):
    row = next(r for r in workloads._task(data, "invert")["rows"] if r["status"] == "ok")
    row["a"][2] += 1e-6


def _drop_invert_rows(data):
    for row in workloads._task(data, "invert")["rows"]:
        row["status"] = "degenerate-locus"


def _drop_check(data):
    data["summary"]["checks"] -= 1


def _drop_section(data):
    data["sections"].pop()


def _change_seed(data):
    data["seed"] += 1


CORRUPTIONS = {
    "family_sweep": (0, [_shift_mass, _set_verdict, _flip_status]),
    # Operation 4 is perturbed and must exit 1.
    "gauge_round_trip": (4, [_shift_mass, _set_verdict, _flip_status,
                             _shift_invert_row, _drop_invert_rows]),
    "selftest": (0, [_flip_status, _drop_check, _drop_section, _change_seed]),
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_accepts_the_report_and_rejects_corruptions(tmp_path, workload):
    index, corruptions = CORRUPTIONS[workload]
    op = workloads.generate(workload, 9, index + 1, tmp_path / "ops")[index]
    code, report = _run(op, tmp_path)
    assert code == op.reference.expected_exit
    assert op.reference.problems(code, report) == []
    assert op.reference.problems(1 - code, report)
    assert op.reference.problems(code, report[: len(report) // 2])
    for corrupt in corruptions:
        assert op.reference.problems(code, _edit(report, corrupt)), corrupt.__name__


def test_gauge_reference_matches_the_unperturbed_potential(tmp_path):
    op = workloads.generate("gauge_round_trip", 9, 1, tmp_path)[0]
    sc = json.loads(Path(op.argv[1]).read_text())
    potential = inversion.FourPotential.from_strings(sc["potential"]["exprs"])
    points = [(0.1, -0.2, 0.3, 0.4), (-0.5, 0.6, -0.7, 0.8)]
    expected = op.reference.potential(points)
    for p, want in zip(points, expected):
        assert potential.values(p) == pytest.approx(want, abs=1e-12)


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    frame = verify.frame
    runner = cli._TASK_RUNNERS["invert"]
    gap = verify.tensor_gap
    quad = exprlang.scipy.integrate.quad if HAS_QUAD else None
    tracer = Tracer(layers.LAYERS, GuardViolated)
    tracer.install()
    try:
        assert inversion.frame is not frame and verify.frame is inversion.frame
        assert cli._TASK_RUNNERS["invert"] is not runner
        assert cli.tensor_gap is verify.tensor_gap is not gap
        if HAS_QUAD:
            assert exprlang.scipy.integrate.quad is not quad
            assert exprlang.scipy.integrate.IntegrationWarning is not None
    finally:
        tracer.uninstall()
    assert inversion.frame is frame is verify.frame
    assert cli._TASK_RUNNERS["invert"] is runner
    assert cli.tensor_gap is gap is verify.tensor_gap
    if HAS_QUAD:
        assert exprlang.scipy.integrate.quad is quad


def test_traced_operation_counts_layers_and_keeps_report_bytes(tmp_path):
    op = workloads.generate("gauge_round_trip", 9, 1, tmp_path / "ops")[0]
    plain = _run(op, tmp_path)
    tracer = Tracer(layers.LAYERS, GuardViolated)
    traced = tracer.run(op.index, lambda: _run(op, tmp_path))
    assert traced == plain
    stats = tracer.stats
    assert stats["fields.frame"].calls > 0
    assert stats["exprlang.quad"].calls > 0 or not HAS_QUAD
    assert stats["verify.field_tensor"].calls == 0
    assert stats["inversion.invert_combined"].calls > 0
    assert stats["report.render_report"].count == len(plain[1])
    total = sum(s.self_s for s in stats.values())
    root = [e - s for e, s, n in zip(tracer.ends, tracer.starts, tracer.name_idx) if n == 0]
    assert len(root) == 1 and 0 < total <= root[0]
    assert len(tracer.ids) == sum(s.calls for s in stats.values()) + 1


def test_tail_is_the_highest_percentile_with_ten_beyond():
    latencies = [float(v) for v in range(30, 0, -1)]
    assert run.tail(latencies) == (20.0, pytest.approx(200 / 3))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_rescaled_times_follow_the_program_not_the_host():
    ref = pace.REFERENCE_S
    assert pace.rescale(1.5, ref) == pytest.approx(1.5)
    # A host state that doubles the unit's time slows the program by
    # 2 ** SENSITIVITY.
    slowed = 1.5 * 2 ** pace.SENSITIVITY
    assert pace.rescale(slowed, 2 * ref) == pytest.approx(1.5)
    # Rescaling is linear in the wall time, so a program change shows in full.
    assert pace.rescale(0.75, 2 * ref) == pytest.approx(pace.rescale(1.5, 2 * ref) / 2)


def test_sampler_times_units_during_the_block_and_then_stops():
    previous = signal.getsignal(signal.SIGALRM)
    with pace.Sampler() as sampler:
        end = perf_counter() + 12 * pace.PERIOD_S
        while perf_counter() < end:
            pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(sampler.samples) >= 5
    inside, unit = sampler.result()
    assert inside == pytest.approx(sum(sampler.samples))
    assert 0 < unit < pace.PERIOD_S
    # A block too short for a sample is topped up with units timed after it.
    with pace.Sampler() as short:
        pass
    inside, unit = short.result()
    assert short.samples == [] and inside == 0.0 and unit > 0


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == layers.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
