"""Scenario runner, demo and selftest commands, exit codes, determinism."""

import json
import re

import pytest

from diracinv import cli, clifford, scenario, selftest
from diracinv.errors import ScenarioError
from diracinv.fields import SampleDomain
from diracinv.report import render_report


def _write(tmp_path, payload) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _run(capsys, argv) -> tuple[int, str]:
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


GOOD_SCENARIO = {
    "kappa": 1.3,
    "spinor": {"exprs": ["exp(-i*(kappa*x0 + 0.3*x1))", "0", "0", "0"],
               "params": {"kappa": 1.3}},
    "potential": {"exprs": ["0", "0-0.3", "0", "0"]},
    "domain": {"count": 40, "seed": 11},
    "tasks": ["classify", "mass", "invert", "verify"],
}


class TestRun:
    def test_round_trip_scenario_passes(self, tmp_path, capsys):
        code, out = _run(capsys, ["run", _write(tmp_path, GOOD_SCENARIO)])
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["status"] == "pass"
        tasks = {t["task"]: t for t in report["tasks"]}
        assert tasks["classify"]["verdict"] == "non-degenerate"
        assert tasks["mass"]["kappa"] == pytest.approx(1.3, abs=1e-9)
        assert tasks["invert"]["recovered_points"] == 40
        assert tasks["invert"]["rows"][0]["a"][1] == pytest.approx(-0.3, abs=1e-10)

    def test_catalog_family_scenario_end_to_end(self, tmp_path, capsys):
        scenario = {
            "kappa": 1.0,
            "spinor": {"catalog": "degenerate_example",
                       "params": {"alpha": 0.3, "phi1": 0.2, "phi2": -0.1}},
            "potential": {"catalog_family": {"f": "x0"}},  # alpha/phi inherited
            "f": "cos(x2)",
            "domain": {"count": 50, "seed": 5},
            "tasks": ["classify", "mass", "family", "verify"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 0
        report = json.loads(out)
        tasks = {t["task"]: t for t in report["tasks"]}
        assert tasks["classify"]["verdict"] == "degenerate"
        # Mass is extracted against the family member's temporal component,
        # which engages the quadrature cross-check route.
        assert tasks["mass"]["kappa"] == pytest.approx(1.0, abs=1e-9)
        assert tasks["mass"]["gauge_fixed_crosscheck_gap"] < 1e-8
        assert tasks["verify"]["residual_max"] < 1e-9

    def test_inconsistent_mass_scenario_fails(self, tmp_path, capsys):
        scenario = {
            "kappa": 1.0,
            "spinor": {"exprs": ["x1", "0", "0", "0"]},
            "domain": {"count": 40, "seed": 3},
            "tasks": ["mass"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 1
        assert json.loads(out)["summary"]["status"] == "fail"

    def test_malformed_expression_exits_2(self, tmp_path, capsys):
        scenario = {
            "kappa": 1.0,
            "spinor": {"exprs": ["sin(", "0", "0", "0"]},
            "tasks": ["classify"],
        }
        code = cli.main(["run", _write(tmp_path, scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "offset 4" in captured.err

    def test_non_finite_literal_exits_2_at_load(self, tmp_path, capsys, monkeypatch):
        def no_sampling(self):
            raise AssertionError("a scenario with a non-finite literal reached sampling")

        monkeypatch.setattr(SampleDomain, "points", no_sampling)
        payload = {**GOOD_SCENARIO,
                   "potential": {"exprs": ["0", "0-0.3", "1e999*x1", "0"]}}
        code = cli.main(["run", _write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not finite at offset 0" in captured.err

    def test_schema_violations_exit_2(self, tmp_path, capsys):
        bad_payloads = [
            {},  # missing everything
            {"kappa": 1.0, "tasks": ["classify"]},  # no spinor
            {"kappa": 1.0, "spinor": {"exprs": ["0"] * 4}, "tasks": []},
            {"kappa": 1.0, "spinor": {"exprs": ["0"] * 4}, "tasks": ["optimize"]},
            {"kappa": 1.0, "spinor": {"catalog": "nope"}, "tasks": ["classify"]},
            {"kappa": 1.0, "spinor": {"exprs": ["0"] * 4}, "tasks": ["classify"],
             "tolerances": {"bogus": 1.0}},
            {"kappa": 1.0, "spinor": {"exprs": ["0"] * 4}, "tasks": ["classify"],
             "unknown_field": 1},
        ]
        for payload in bad_payloads:
            code = cli.main(["run", _write(tmp_path, payload)])
            capsys.readouterr()
            assert code == 2, payload

    def test_unreadable_file_exits_2(self, capsys):
        assert cli.main(["run", "/nonexistent/scenario.json"]) == 2
        capsys.readouterr()

    def test_evaluation_failure_during_tasks_exits_2(self, tmp_path, capsys):
        scenario = {
            "kappa": 1.0,
            "spinor": {"exprs": ["1/(x1-x1)", "0", "0", "0"]},
            "domain": {"count": 20, "seed": 1},
            "tasks": ["classify"],
        }
        code = cli.main(["run", _write(tmp_path, scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert "division" in captured.err

    @pytest.mark.parametrize("spinor, potential, message", [
        # Both the combined route and the known potential are non-real at
        # every point: the route comes first.
        (["1", "0", "0.5*i", "0"], ["i*x1", "0", "0", "0"],
         "recovered potential has relative imaginary residue"),
        # The route recovers a real potential; the known one is non-real.
        (["exp(-i*kappa*x0)", "0", "0", "0"], ["0", "0", "0", "i*x1"],
         "potential has imaginary residue"),
    ])
    def test_invert_fails_at_the_first_point_in_route_order(self, tmp_path, capsys,
                                                           spinor, potential, message):
        domain = {"count": 20, "seed": 4}
        payload = {"kappa": 1.3, "spinor": {"exprs": spinor, "params": {"kappa": 1.3}},
                   "potential": {"exprs": potential}, "domain": domain,
                   "tasks": ["classify", "invert"]}
        code, out = _run(capsys, ["run", _write(tmp_path, payload)])
        assert code == 1
        invert = [t for t in json.loads(out)["tasks"] if t["task"] == "invert"][0]
        assert invert["error"] == "NonRealPotential"
        detail = invert["checks"]["checks"][0]["detail"]
        first = tuple(SampleDomain(**domain).points()[0].tolist())
        assert detail.startswith(message) and f"at {first}" in detail

    def test_out_flag_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli.main(["--out", str(out_path), "run", _write(tmp_path, GOOD_SCENARIO)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert json.loads(out_path.read_text())["summary"]["status"] == "pass"

    def test_reports_are_byte_identical(self, tmp_path, capsys):
        path = _write(tmp_path, GOOD_SCENARIO)
        _, first = _run(capsys, ["run", path])
        _, second = _run(capsys, ["run", path])
        assert first == second

    def test_seed_override_changes_points_not_verdicts(self, tmp_path, capsys):
        path = _write(tmp_path, GOOD_SCENARIO)
        code1, out1 = _run(capsys, ["run", path])
        code2, out2 = _run(capsys, ["--seed", "99", "run", path])
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        assert out1 != out2
        assert r1["summary"]["status"] == r2["summary"]["status"] == "pass"
        t1 = {t["task"]: t for t in r1["tasks"]}
        t2 = {t["task"]: t for t in r2["tasks"]}
        assert t1["classify"]["verdict"] == t2["classify"]["verdict"]
        assert t1["invert"]["rows"][0]["point"] != t2["invert"]["rows"][0]["point"]


class TestDemo:
    def test_degenerate_demo_composition(self, capsys):
        code, out = _run(capsys, ["demo", "degenerate_example"])
        assert code == 0
        report = json.loads(out)
        tasks = {t["task"]: t for t in report["tasks"]}
        assert tasks["classify"]["verdict"] == "degenerate"
        assert tasks["mass"]["kappa"] == pytest.approx(1.0, abs=1e-9)
        members = {m["f"]: m for m in tasks["family"]["members"]}
        assert members["sin(x0+x1)"]["residual_max"] < 1e-9
        assert tasks["family"]["tensor_gap_f_x0"] > 0.1
        assert tasks["family"]["tensor_gap_f_1"] < 1e-12
        assert report["summary"]["status"] == "pass"

    def test_rest_demo(self, capsys):
        code, out = _run(capsys, ["demo", "rest_plane_wave"])
        assert code == 0
        assert json.loads(out)["summary"]["status"] == "pass"

    def test_lset_demo_reports_partial_cover(self, capsys):
        code, out = _run(capsys, ["demo", "lset"])
        assert code == 0
        classify = json.loads(out)["tasks"][0]
        assert classify["verdict"] == "degenerate"
        assert classify["gamma2_cover_fraction"] == 0.0

    def test_family_task_on_empty_region_fails_honestly(self, tmp_path, capsys):
        # Indicator-null zero-mass solution whose transpose bilinear vanishes
        # identically: there is no region to define the family on.
        scenario = {
            "kappa": 0.0,
            "spinor": {"exprs": ["1", "0", "-1", "0"]},
            "domain": {"count": 30, "seed": 2},
            "tasks": ["classify", "family"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 1
        family = [t for t in json.loads(out)["tasks"] if t["task"] == "family"][0]
        assert family["region_points"] == 0
        assert family["checks"]["failed"] == 1

    def test_unknown_demo_exits_2(self, capsys):
        assert cli.main(["demo", "hydrogen"]) == 2
        capsys.readouterr()


class TestSelftest:
    def test_fresh_build_passes(self, capsys):
        code, out = _run(capsys, ["--samples", "60", "selftest"])
        assert code == 0
        report = json.loads(out)
        assert report["summary"]["failed"] == 0
        names = [s["name"] for s in report["sections"]]
        assert names == ["gamma-structure", "expression-derivatives",
                         "algebraic-identities", "catalog"]

    def test_byte_identical_for_fixed_seed(self, capsys):
        _, first = _run(capsys, ["--seed", "42", "selftest"])
        _, second = _run(capsys, ["--seed", "42", "selftest"])
        assert first == second

    def test_seed_changes_values_not_verdicts(self, capsys):
        code1, out1 = _run(capsys, ["--seed", "42", "selftest"])
        code2, out2 = _run(capsys, ["--seed", "43", "selftest"])
        assert code1 == code2 == 0
        assert out1 != out2

    def test_flags_accepted_after_subcommand(self, capsys):
        code1, out1 = _run(capsys, ["selftest", "--seed", "42", "--samples", "40"])
        code2, out2 = _run(capsys, ["--seed", "42", "--samples", "40", "selftest"])
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("samples", ["0", "-3", str(scenario.MAX_SAMPLES + 1)])
    def test_sample_count_out_of_range_exits_2(self, capsys, samples):
        code = cli.main(["selftest", "--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--samples" in captured.err

    @pytest.mark.parametrize("seed", [109300515, 1161092498, 1510276717, 369])
    def test_derivative_suite_passes_on_seeds_that_once_failed(self, seed):
        # The step-halving gate used to be absolute below |fd| ~ 1 and blind to
        # round-off from a large |value|, so these seeds let through a pair
        # whose difference quotient was worse than the relative check allows.
        suite = selftest.derivative_suite(seed)
        assert [c.passed for c in suite.checks] == [True, True, True]

    def test_corrupted_gamma_constant_fails_structure_suite(self, capsys, monkeypatch):
        # Flip one entry of the second matrix: the anticommutation table and
        # hermiticity checks must catch it and the exit code must flip to 1.
        corrupted = clifford._G2.copy()
        corrupted[0, 3] = 1.0
        monkeypatch.setitem(clifford._GAMMA, 2, corrupted)
        code, out = _run(capsys, ["selftest"])
        assert code == 1
        report = json.loads(out)
        structure = report["sections"][0]
        assert structure["failed"] > 0
        failed_names = [c["name"] for c in structure["checks"] if not c["passed"]]
        assert any("anticommutator" in n for n in failed_names)


def test_shipped_scenarios_pass(capsys):
    import pathlib
    here = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(here.glob("*.json")):
        code = cli.main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0, path
        assert json.loads(out)["summary"]["status"] == "pass"


def test_gauge_scenario_samples_once_and_builds_two_frames(tmp_path, monkeypatch):
    # One support sample and one support frame serve every task; the only
    # other frame is the gauge-fixed spinor's in the mass cross-check.
    import pathlib
    import sys
    from diracinv import fields
    calls = {"sample_support": 0, "frame": 0}
    for name in calls:
        original = getattr(fields, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("diracinv") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios/gauge_round_trip.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert calls == {"sample_support": 1, "frame": 2}


def test_cli_import_does_not_load_scipy():
    import subprocess
    import sys
    probe = "import sys, diracinv.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


def test_reports_reject_non_finite_numbers():
    with pytest.raises(ValueError):
        render_report({"value": float("nan")})
    with pytest.raises(ValueError):
        render_report({"nested": [{"x": float("inf")}]})


_NAN = float("nan")
_INF = float("inf")


@pytest.mark.parametrize("change, extra, message", [
    ({"kappa": _NAN}, [], "kappa"),
    ({"kappa": _INF}, [], "kappa"),
    ({"spinor": {"exprs": ["exp(-i*k*x0)", "0", "0", "0"], "params": {"k": _NAN}}},
     [], "spinor.params.k"),
    ({"spinor": {"catalog": "degenerate_example", "params": {"alpha": _NAN}}},
     [], "alpha must be finite"),
    ({"potential": {"exprs": ["a", "0", "0", "0"], "params": {"a": [0.0, _INF]}}},
     [], "potential.params.a"),
    ({"tolerances": {"residual": -1e-9}}, [], "tolerances.residual"),
    ({"tolerances": {"guard": 0.0}}, [], "tolerances.guard"),
    ({"tolerances": {"real": _INF}}, [], "tolerances.real"),
    ({"tolerances": {"mass": _NAN}}, [], "tolerances.mass"),
    ({}, ["--tol", "nan"], "--tol"),
    ({}, ["--tol", "0"], "--tol"),
    ({"domain": {"count": scenario.MAX_SAMPLES + 1}}, [], "domain.count"),
    ({"domain": {"count": _INF}}, [], "domain"),
    ({}, ["--samples", str(scenario.MAX_SAMPLES + 1)], "domain.count"),
    ({}, ["--samples", "0"], "domain"),
])
def test_bad_numbers_rejected_before_any_computation(tmp_path, capsys, monkeypatch,
                                                     change, extra, message):
    # Sampling is the first step of every task and of every catalog self-test;
    # the rejection must come before it, so the probe allocates nothing.
    def no_sampling(self):
        raise AssertionError("a scenario with bad numbers reached sampling")

    monkeypatch.setattr(SampleDomain, "points", no_sampling)
    payload = {**GOOD_SCENARIO, "tasks": list(scenario.TASKS), **change}
    path = _write(tmp_path, payload)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario.load_scenario(path, **_overrides(extra))
    code = cli.main(["run", path, *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


_DEGENERATE = {"catalog": "degenerate_example"}
_LSET = {"catalog": "lset", "params": {"psi1": "1", "psi2": "x1"}}


@pytest.mark.parametrize("change, field", [
    ({"spinor": {**_DEGENERATE, "params": {"alpha": [1, 2]}}}, "spinor.params.alpha"),
    ({"spinor": {**_DEGENERATE, "params": {"alpha": {}}}}, "spinor.params.alpha"),
    ({"spinor": {**_DEGENERATE, "params": {"alpha": None}}}, "spinor.params.alpha"),
    ({"spinor": {**_DEGENERATE, "params": {"alpha": True}}}, "spinor.params.alpha"),
    ({"spinor": {**_DEGENERATE, "params": [1]}}, "spinor.params"),
    ({"spinor": _DEGENERATE,
      "potential": {"catalog_family": {"f": "x0", "alpha": [1]}}},
     "potential.catalog_family.alpha"),
    ({"spinor": {**_LSET, "params": {**_LSET["params"], "member": [0]}}},
     "spinor.params.member"),
    ({"spinor": {**_LSET, "params": {**_LSET["params"], "member": 0.7}}},
     "spinor.params.member"),
    ({"domain": {"count": 10.7}}, "domain.count"),
    ({"domain": {"count": True}}, "domain.count"),
    ({"domain": {"seed": 1.5}}, "domain.seed"),
    ({"domain": {"box": [[-1, True]] + [[-1, 1]] * 3}}, "domain.box"),
    # Integer literals too large for a float.
    ({"kappa": 10 ** 400}, "kappa"),
    ({"spinor": {**_DEGENERATE, "params": {"alpha": 10 ** 400}}}, "spinor.params.alpha"),
    ({"tolerances": {"guard": 10 ** 400}}, "tolerances.guard"),
])
def test_parameters_of_the_wrong_type_exit_2(tmp_path, capsys, change, field):
    payload = {**GOOD_SCENARIO, "kappa": 1.0, "potential": None, "tasks": ["classify"],
               **change}
    code = cli.main(["run", _write(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {field}: " in captured.err


def _overrides(extra: list[str]) -> dict:
    flags = {"--tol": ("tol", float), "--samples": ("samples", int)}
    return {flags[flag][0]: flags[flag][1](value)
            for flag, value in zip(extra[::2], extra[1::2])}
