"""Scenario runner, demo and selftest commands, exit codes, determinism."""

import json
import pathlib
import platform
import re

import numpy as np
import pytest

from diracinv import cli, clifford, scenario, selftest
from diracinv.errors import GuardViolated, ScenarioError
from diracinv.fields import SampleDomain
from diracinv.report import CheckSet, render_report


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
        # Mass is extracted against the family member's temporal component.
        assert tasks["mass"]["kappa"] == pytest.approx(1.0, abs=1e-9)
        assert tasks["verify"]["residual_max"] < 1e-9

    def test_a0_pole_inside_the_box_at_no_sampled_point_passes(self, tmp_path, capsys):
        # psi solves the equation with a0 = 1/(x0 - 0.5)^2, whose pole lies in
        # the default box but at none of the sampled points.
        scenario = {
            "kappa": 1.0,
            "spinor": {"exprs": ["exp(-i*(kappa*x0 - 1/(x0 - 0.5)))", "0", "0", "0"],
                       "params": {"kappa": 1.0}},
            "potential": {"exprs": ["1/(x0 - 0.5)^2", "0", "0", "0"]},
            "domain": {"count": 80, "seed": 11},
            "tasks": ["classify", "mass", "invert", "verify"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 0
        mass = [t for t in json.loads(out)["tasks"] if t["task"] == "mass"][0]
        assert mass["kappa"] == pytest.approx(1.0, abs=1e-9)

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

    @pytest.mark.parametrize("change, message", [
        ({"spinor": {"catalog": "degenerate_example", "params": {"alhpa": 0.5}}},
         "spinor.params.alhpa: not a parameter of degenerate_example"),
        ({"spinor": {"catalog": "rest_plane_wave", "params": {"kapa": 2.0}}},
         "spinor.params.kapa: not a parameter of rest_plane_wave"),
        ({"spinor": {"catalog": "lset", "params": {"member": 0, "psi3": "1"}}},
         "spinor.params.psi3: not a parameter of lset"),
        ({"spinor": {"exprs": ["1", "0", "0", "0"], "param": {"k": 1.0}}},
         "spinor: unknown key 'param'"),
        ({"spinor": {"exprs": ["1", "0", "0", "0"], "catalog": "lset"}},
         "spinor: needs exactly one of 'exprs' or 'catalog'"),
        ({"spinor": {"catalog": "degenerate_example"},
          "potential": {"catalog_family": {"f": "x0", "fi1": 0.2}}},
         "potential.catalog_family: unknown key 'fi1'"),
        ({"spinor": {"catalog": "degenerate_example"},
          "potential": {"catalog_family": {"f": "x0"}, "params": {"k": 1.0}}},
         "potential: unknown key 'params'"),
        ({"potential": {"exprs": ["0"] * 4, "parmas": {}}}, "potential: unknown key 'parmas'"),
        ({"potential": {"params": {}}},
         "potential: needs exactly one of 'exprs' or 'catalog_family'"),
        ({"domain": {"count": 40, "sede": 3}}, "domain: unknown key 'sede'"),
        ({"unknown_field": 1}, "scenario: unknown key 'unknown_field'"),
    ])
    def test_keys_the_schema_does_not_define_exit_2(self, tmp_path, capsys, change,
                                                    message):
        code = cli.main(["run", _write(tmp_path, {**GOOD_SCENARIO, **change})])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

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

    @pytest.mark.parametrize("domain", [
        {"count": 1, "seed": 11},
        {"box": [[-1, 1], [0.5, 0.5], [-1, 1], [-1, 1]], "count": 40, "seed": 11},
        {"box": [[0.25, 0.25]] * 4, "count": 40, "seed": 11},
    ])
    def test_a_single_point_or_a_flat_box_is_a_valid_domain(self, tmp_path, capsys, domain):
        code, out = _run(capsys, ["run", _write(tmp_path, {**GOOD_SCENARIO, "domain": domain})])
        assert code == 0
        rows = {t["task"]: t for t in json.loads(out)["tasks"]}["invert"]["rows"]
        assert len(rows) == domain["count"]
        for axis, (lo, hi) in enumerate(domain.get("box", [[-1, 1]] * 4)):
            assert all(lo <= row["point"][axis] <= hi for row in rows)

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

    @pytest.mark.parametrize("member", range(6))
    def test_zero_mass_null_shape_carries_a_checked_family(self, tmp_path, capsys,
                                                           monkeypatch, member):
        # Each constant lset shape solves the force-free system at kappa = 0.
        # Its transpose g2 bilinear vanishes identically, but theta from the
        # current is defined at every support point, and so is the family.
        from diracinv import verify
        checked = _count_calls(monkeypatch, verify, "residual_norm_at",
                               lambda fr, *args: len(fr.points))
        scenario = {
            "kappa": 0.0,
            "spinor": {"catalog": "lset",
                       "params": {"member": member, "psi1": "1", "psi2": "1"}},
            "domain": {"count": 200, "seed": 7},
            "tasks": ["classify", "family", "verify"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 0
        tasks = {t["task"]: t for t in json.loads(out)["tasks"]}
        assert tasks["classify"]["verdict"] == "degenerate"
        assert tasks["classify"]["support_points"] == 200
        members = tasks["family"]["members"]
        assert [m["f"] for m in members] == ["1", "x0"]
        assert all(m["residual_max"] < 1e-9 for m in members)
        assert checked == [200, 200, 200]  # the two members, then the verify task

    def test_zero_mass_shape_with_a_non_constant_theta_passes(self, tmp_path, capsys):
        # theta varies with the point here, so the f = 1 member moves the
        # field tensor by d theta; the family still solves the system.
        scenario = {
            "kappa": 0.0,
            "spinor": {"catalog": "lset",
                       "params": {"member": 3, "psi1": "1", "psi2": "exp(i*(x0+x3))"}},
            "domain": {"count": 200, "seed": 7},
            "tasks": ["classify", "family", "verify"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 0
        family = {t["task"]: t for t in json.loads(out)["tasks"]}["family"]
        assert all(m["residual_max"] < 1e-9 for m in family["members"])
        assert family["tensor_gap_f_1"] > 0.5

    def test_family_on_a_non_constant_theta_non_solution(self, tmp_path, capsys):
        # Degenerate (u, v, w) form with real, point-dependent theta that solves
        # no Dirac system with the zero base: every member fails the residual
        # oracle.  The constant member's field tensor differs from the base by
        # d theta, which is reported and not checked.
        scenario = {
            "kappa": 1.0,
            "spinor": {"exprs": ["(1+0.5*x1)*(0.3+0.2*x2)+exp(i*x0)",
                                 "1+0.5*x1-exp(i*x0)*(0.3+0.2*x2)",
                                 "(1+0.5*x1)*(0.3+0.2*x2)-exp(i*x0)",
                                 "1+0.5*x1+exp(i*x0)*(0.3+0.2*x2)"]},
            "f": "x1",
            "domain": {"count": 100, "seed": 3},
            "tasks": ["classify", "family"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 1
        tasks = {t["task"]: t for t in json.loads(out)["tasks"]}
        assert tasks["classify"]["verdict"] == "degenerate"
        family = tasks["family"]
        verdicts = {c["name"]: c["passed"] for c in family["checks"]["checks"]}
        assert verdicts == {
            "family member f=1 passes the residual oracle": False,
            "family member f=1 is light-like separated from base": True,
            "family member f=x0 passes the residual oracle": False,
            "family member f=x0 is light-like separated from base": True,
            "family member f=x1 passes the residual oracle": False,
            "family member f=x1 is light-like separated from base": True,
            "a gauge-inequivalent member exists (f=x0)": True,
        }
        assert family["tensor_gap_f_1"] == pytest.approx(0.388, abs=1e-3)

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

    def test_seed_zero_is_accepted(self, capsys):
        code, out = _run(capsys, ["selftest", "--seed", "0"])
        assert code == 0
        assert json.loads(out)["seed"] == 0

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

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-3"),
        ("--samples", str(scenario.MAX_SAMPLES + 1)), ("--seed", "-1")])
    def test_flag_out_of_range_exits_2(self, capsys, flag, value):
        code = cli.main(["selftest", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"error: {flag}: " in captured.err

    @pytest.mark.parametrize("value", ["1e-3", "-5", "0", "nan", "inf"])
    def test_tol_is_rejected_before_any_suite_runs(self, capsys, monkeypatch, value):
        # --tol sets the classification tolerance of run and demo; selftest
        # has none to set, so any value is an input error, not a no-op.
        def no_suites(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(selftest, "run_selftest", no_suites)
        for argv in (["selftest", "--tol", value], ["--tol", value, "selftest"]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: --tol: ")

    def test_selftest_is_not_a_scenario_task(self, tmp_path, capsys):
        payload = {"kappa": 1.0, "spinor": {"catalog": "rest_plane_wave"},
                   "domain": {"count": 60, "seed": 5}, "tasks": ["selftest", "classify"]}
        code = cli.main(["run", _write(tmp_path, payload)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: unknown task 'selftest'; available: ")

    def test_tasks_run_in_the_order_of_the_task_list(self, tmp_path, capsys):
        # The catalog spinor gives classify one check, its expected verdict.
        payload = {"kappa": 1.0, "spinor": {"catalog": "rest_plane_wave"},
                   "domain": {"count": 60, "seed": 5}, "tasks": ["verify", "classify"]}
        code, out = _run(capsys, ["run", _write(tmp_path, payload)])
        assert code == 0
        report = json.loads(out)
        assert [t["task"] for t in report["tasks"]] == ["classify", "verify"]
        assert report["summary"]["checks"] == 2

    @pytest.mark.parametrize("seed", [109300515, 1161092498, 1510276717, 369])
    def test_derivative_suite_passes_on_seeds_that_once_failed(self, seed):
        # The step-halving gate used to be absolute below |fd| ~ 1 and blind to
        # round-off from a large |value|, so these seeds let through a pair
        # whose difference quotient was worse than the relative check allows.
        suite = selftest.derivative_suite(seed)
        assert [c["passed"] for c in suite.checks] == [True, True, True]

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


def test_gauge_scenario_samples_once_and_builds_one_frame(tmp_path, monkeypatch):
    # One support sample and one support frame serve every task; the mass
    # cross-check gauge-fixes that frame rather than building another.
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
    assert calls == {"sample_support": 1, "frame": 1}


def _count_calls(monkeypatch, module, name, record=lambda *args: None):
    """Wrap module.name at every diracinv binding; returns the list of recorded calls."""
    import sys
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    for module_name, mod in list(sys.modules.items()):
        if module_name.startswith("diracinv") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


_SHIPPED = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _tasks(capsys, scenario_name) -> tuple[dict, dict]:
    code, out = _run(capsys, ["run", str(_SHIPPED / f"{scenario_name}.json")])
    assert code == 0
    report = json.loads(out)
    return report, {task["task"]: task for task in report["tasks"]}


@pytest.mark.parametrize("scenario_name, on_locus", [
    ("gauge_round_trip", False), ("degenerate_family", True)])
def test_invert_counts_the_rows_on_the_degenerate_locus(capsys, scenario_name, on_locus):
    invert = _tasks(capsys, scenario_name)[1]["invert"]
    rows = invert["rows"]
    locus = sum(row["status"] == "degenerate-locus" for row in rows)
    assert invert["degenerate_locus_points"] == len(rows) - invert["recovered_points"] == locus
    assert locus == (len(rows) if on_locus else 0)


def test_the_mass_check_reports_the_gap_to_the_scenario_kappa(capsys):
    report, tasks = _tasks(capsys, "gauge_round_trip")
    mass = tasks["mass"]
    (check,) = [c for c in mass["checks"]["checks"]
                if c["name"] == "recovered mass matches scenario kappa"]
    assert check["value"] == abs(mass["kappa"] - report["scenario"]["kappa"])


@pytest.mark.parametrize("scenario_name, kernel_calls", [
    # classify 2; the mass 5; the one route table 2, which the three routes
    # share.  The parent made 133 single-matrix calls.
    ("gauge_round_trip", 9),
    # The catalog's construction check 2; classify 2; the mass 5; the route
    # table's values 1, whose combined guard no row passes, so its partial
    # call is never made; theta's direction 2, once for the three family
    # members.  The parent made 149.
    ("degenerate_family", 12),
])
def test_bilinear_kernel_calls_per_run(tmp_path, monkeypatch, scenario_name, kernel_calls):
    from diracinv import fields
    calls = _count_calls(monkeypatch, fields, "bilinear")
    path = _SHIPPED / f"{scenario_name}.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == kernel_calls


@pytest.mark.parametrize("scenario_name", ["gauge_round_trip", "degenerate_family"])
def test_every_route_runs_once_on_the_invert_row_frame(tmp_path, monkeypatch, scenario_name):
    # On a degenerate spinor the combined route passes its guard at no row,
    # so it stops at the guard and the other two do not run.
    from diracinv import inversion
    frames = {name: _count_calls(monkeypatch, inversion, name, lambda fr, *args: fr)
              for name in ("invert_combined", "invert_gamma4", "invert_gamma5gamma4")}
    relations = _count_calls(monkeypatch, inversion, "_relation")
    out = tmp_path / "report.json"
    assert cli.main(["run", str(_SHIPPED / f"{scenario_name}.json"), "--out", str(out)]) == 0
    invert = [t for t in json.loads(out.read_text())["tasks"] if t["task"] == "invert"][0]
    [fr], others = frames["invert_combined"], frames["invert_gamma4"] + frames["invert_gamma5gamma4"]
    assert len(fr.points) == len(invert["rows"])
    if scenario_name == "gauge_round_trip":
        assert [other is fr for other in others] == [True, True]
        assert invert["recovered_points"] == len(invert["rows"])
    else:
        assert others == [] and relations == []
        assert invert["recovered_points"] == 0


@pytest.mark.parametrize("scenario_name", ["gauge_round_trip", "superposition"])
def test_each_relation_is_evaluated_once_per_invert_task(tmp_path, monkeypatch, scenario_name):
    # The combined route sums the g and g5 g relations; the other two routes
    # read the same two from the table their frame holds.
    from diracinv import inversion
    massive = _count_calls(monkeypatch, inversion, "_relation", lambda t, kappa, A, B, m: m)
    path = _SHIPPED / f"{scenario_name}.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert sorted(massive) == [False, True]


def test_theta_direction_is_built_once_per_family_task_and_catalog_suite(tmp_path,
                                                                      monkeypatch):
    from diracinv import degeneracy
    calls = _count_calls(monkeypatch, degeneracy, "_direction")
    path = _SHIPPED / "degenerate_family.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == 1
    suite = selftest.catalog_suite(42)
    assert suite.n_failed == 0
    assert len(calls) == 2


def test_run_evaluates_the_potential_once_at_every_support_point(tmp_path, monkeypatch):
    # The potential's a3 is the literal zero that the spinor's components
    # share, so a call reads the potential when it evaluates a0, a1 or a2.
    from diracinv import exprlang, fields
    calls = _count_calls(monkeypatch, exprlang, "evaluate", lambda e, points, *args: (e, points))
    path = _SHIPPED / "gauge_round_trip.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    sc = scenario.load_scenario(path)
    support = fields.sample_support(sc.spinor, sc.domain, sc.tolerances["support"]).support
    components = sc.potential.components
    reads = [(e, points) for e, points in calls
             if any(c in (e if isinstance(e, (list, tuple)) else [e]) for c in components[:3])]
    [(trees, points)] = reads
    assert tuple(trees) == components and np.array_equal(points, support)


def test_mass_reads_the_held_a0_at_every_support_row(monkeypatch):
    from diracinv import exprlang, fields, inversion
    seen = _count_calls(monkeypatch, inversion, "extract_mass_at",
                        lambda fr, a0, *args: (fr.points, a0))
    sc = scenario.load_scenario(str(_SHIPPED / "gauge_round_trip.json"))
    state: dict = {}
    mass = cli._TASK_RUNNERS["mass"](sc, state, CheckSet("mass"))
    support = fields.sample_support(sc.spinor, sc.domain, sc.tolerances["support"]).support
    [(points, a0)] = seen
    assert len(points) == mass["points"] > 3 and np.array_equal(points, support)
    held = state["potential"]
    assert held.shape == (len(support), 4)
    assert a0.tobytes() == held[:, 0].tobytes()
    alone = exprlang.evaluate(sc.potential.components[0], support, sc.potential.params)
    assert a0.tobytes() == alone.tobytes()


def _with_a_pole(component: int, at: float, tasks: list[str]) -> dict:
    """The shipped gauge scenario at 300 samples and `tasks`, with z/(x1 - at), z = 0,
    added to one potential component: ±0 where x1 != at, and 0/0 where x1 == at."""
    payload = json.loads((_SHIPPED / "gauge_round_trip.json").read_text())
    payload["domain"]["count"] = 300
    payload["tasks"] = tasks
    exprs = payload["potential"]["exprs"]
    exprs[component] = f"{exprs[component]} + z/(x1 - {at!r})"
    payload["potential"]["params"] = {"z": 0}
    return payload


@pytest.mark.parametrize("row, component, tasks", [
    # Outside the 200 rows of invert's table.
    (250, 0, ["classify", "invert"]),
    # In a spatial component, which the mass does not read.
    (5, 2, ["mass"]),
])
def test_a_potential_non_finite_at_one_support_point_exits_2(tmp_path, capsys, row, component,
                                                             tasks):
    # The potential is evaluated at every support point, whichever tasks run.
    from diracinv import exprlang, fields
    sc = scenario.load_scenario(str(_SHIPPED / "gauge_round_trip.json"), samples=300)
    support = fields.sample_support(sc.spinor, sc.domain, sc.tolerances["support"]).support
    assert len(support) == 300
    away = _with_a_pole(component, 5.0, tasks)  # outside the box
    assert _run(capsys, ["run", _write(tmp_path, away)])[0] == 0
    payload = _with_a_pole(component, float(support[row, 1]), tasks)
    pole = exprlang.to_text(exprlang.parse(payload["potential"]["exprs"][component]).rhs)
    assert cli.main(["run", _write(tmp_path, payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: division produced a non-finite value in {pole!r}\n"


@pytest.mark.parametrize("command", [
    ["run", str(_SHIPPED / "gauge_round_trip.json")],
    ["demo", "rest_plane_wave"],
    ["selftest"],
])
@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_exits_2(tmp_path, capsys, command, target):
    assert cli.main([*command, "--out", str(tmp_path / target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("scenario_name", ["gauge_round_trip", "degenerate_family"])
def test_nothing_is_held_on_the_run_support_frame(scenario_name):
    # Route tables and theta's direction are held by the row frames the tasks
    # take, and go with them; the support frame, which lives for the whole
    # run, holds nothing.
    sc = scenario.load_scenario(str(_SHIPPED / f"{scenario_name}.json"))
    state: dict = {}
    for name in sc.tasks:
        cli._TASK_RUNNERS[name](sc, state, CheckSet(name))
    assert state["sample"].frame._held == {}


def test_a_later_route_is_read_only_where_the_combined_route_recovers(tmp_path, capsys,
                                                                     monkeypatch):
    # The gamma4 route is non-real at the first two points, and the combined
    # route misses the first: the failure is reported at the second point.
    from diracinv import inversion
    combined, gamma4 = inversion.invert_combined, inversion.invert_gamma4

    def drop_first(fr, *args, **kwargs):
        out = combined(fr, *args, **kwargs)
        out.ok[0] = False
        return out

    def non_real_first_two(fr, *args, **kwargs):
        out = gamma4(fr, *args, **kwargs)
        out.imag_residue[:2] = 1.0
        return out

    monkeypatch.setattr(inversion, "invert_combined", drop_first)
    monkeypatch.setattr(inversion, "invert_gamma4", non_real_first_two)
    domain = {"count": 20, "seed": 4}
    code, out = _run(capsys, ["run", _write(tmp_path, dict(GOOD_SCENARIO, domain=domain))])
    assert code == 1
    invert = [t for t in json.loads(out)["tasks"] if t["task"] == "invert"][0]
    detail = invert["checks"]["checks"][0]["detail"]
    second = tuple(SampleDomain(**domain).points()[1].tolist())
    assert detail.startswith("recovered potential has relative imaginary residue")
    assert f"at {second}" in detail


def test_cli_import_does_not_load_scipy():
    import subprocess
    import sys
    probe = ("import sys, diracinv.cli; "
             "print('scipy' in sys.modules, 'numpy.polynomial' in sys.modules, "
             "'diracinv.selftest' in sys.modules, "
             "diracinv.cli._keep_freed_memory.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    scipy_loaded, polynomial_loaded, selftest_loaded, allocator_set = out.split()
    assert scipy_loaded == "False"
    assert polynomial_loaded == "False"
    assert selftest_loaded == "False"
    # Only main sets the allocator; importing the package leaves it alone.
    assert allocator_set == "0"


def test_cli_reaches_the_kernels_only_through_the_tasks_module():
    # cli parses arguments, dispatches to `tasks` and emits the report.  Its
    # one kernel binding, verify.tensor_gap, is there for the benchmark's
    # tracer test alone.
    import ast
    allowed = {("", "__version__"), ("", "tasks"), ("exprlang", "EvaluationError"),
               ("verify", "tensor_gap")}
    whole = {"errors", "report", "scenario"}
    imported = set()
    for node in ast.parse(pathlib.Path(cli.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "diracinv"
                                                 or node.module.startswith("diracinv.")):
            module = (node.module or "").removeprefix("diracinv").lstrip(".")
            imported |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("diracinv") for alias in node.names)
    assert ("", "tasks") in imported
    assert {(m, n) for m, n in imported if m not in whole} <= allowed
    assert {name: runner.__module__ for name, runner in cli._TASK_RUNNERS.items()} == {
        name: "diracinv.tasks" for name in scenario.TASKS}


@pytest.mark.parametrize("f", ["x0", "2-1"])
def test_a_scenario_f_that_prints_as_a_fixed_member_adds_no_member(tmp_path, capsys, f):
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "degenerate_family.json"
    payload = {**json.loads(path.read_text()), "f": f}
    code, out = _run(capsys, ["run", _write(tmp_path, payload)])
    assert code == 0
    family = {t["task"]: t for t in json.loads(out)["tasks"]}["family"]
    assert [m["f"] for m in family["members"]] == ["1", "x0"]
    assert family["checks"]["total"] == 5


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt")
def test_repeated_runs_take_no_fresh_heap_pages(capsys):
    import resource
    # The shipped degenerate_example scenario, all five tasks: a 1 000-sample
    # run frees 256 KB frames, and they stay mapped for the next run.
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "degenerate_family.json"
    argv = ["run", str(path), "--samples", "1000"]
    assert _run(capsys, argv)[0] == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(2):
        assert _run(capsys, argv)[0] == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 2 * 20


def test_reports_reject_non_finite_numbers():
    with pytest.raises(ValueError):
        render_report({"value": float("nan")})
    with pytest.raises(ValueError):
        render_report({"nested": [{"x": float("inf")}]})
    with pytest.raises(ValueError):
        render_report({"x": np.float64("-inf")})
    with pytest.raises(TypeError):
        render_report({"x": np.int64(1)})


def test_a_non_finite_report_value_exits_2_with_nothing_on_stdout(tmp_path, capsys,
                                                                  monkeypatch):
    verify_task = cli._TASK_RUNNERS["verify"]

    def nan_residual(sc, state, checks):
        return {**verify_task(sc, state, checks), "residual_max": float("nan")}

    monkeypatch.setitem(cli._TASK_RUNNERS, "verify", nan_residual)
    code = cli.main(["run", _write(tmp_path, GOOD_SCENARIO)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"


@pytest.mark.parametrize("kappa, message", [
    # |kappa psi|^2 overflows inside the residual norm: the residual is inf.
    (1.3407807929942597e+154, "inf"),
    # kappa psi overflows in the inversion routes, and inf - inf is NaN.
    (1.7e308, "nan"),
])
def test_a_kappa_that_overflows_exits_2_without_a_numpy_warning(tmp_path, capsys, kappa,
                                                                  message):
    # Warnings are errors under the test configuration, so a numpy overflow
    # warning would surface here as an exception, not as exit 2.
    payload = json.loads((pathlib.Path(__file__).resolve().parents[1] / "scenarios"
                          / "superposition.json").read_text())
    code = cli.main(["run", _write(tmp_path, {**payload, "kappa": kappa})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: Out of range float values are not JSON compliant: {message}\n"


def _nested(depth: int) -> str:
    return "sin(" * depth + "x1" + ")" * depth


def _first_component(tmp_path, expr: str) -> str:
    return _write(tmp_path, {"kappa": 1.0, "spinor": {"exprs": [expr, "0", "0", "0"]},
                             "domain": {"count": 20, "seed": 1},
                             "tasks": ["classify", "mass", "invert", "verify"]})


@pytest.mark.parametrize("expr", [_nested(300), "+".join(["x1"] * 1500)])
def test_an_expression_nested_too_deeply_exits_2(tmp_path, capsys, expr):
    code = cli.main(["run", _first_component(tmp_path, expr)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: an expression is nested too deeply to parse or evaluate\n"


@pytest.mark.parametrize("expr", [_nested(150), "+".join(["x1"] * 900),
                                  "*".join(["x1"] * 450)])
def test_a_deep_expression_within_the_limit_gives_a_report(tmp_path, capsys, expr):
    # The evaluator's memo adds no recursion, so these depths stay within
    # Python's default recursion limit.
    code, out = _run(capsys, ["run", _first_component(tmp_path, expr)])
    assert code in (0, 1)
    assert json.loads(out)["tasks"]


def test_the_parser_is_built_once_and_carries_no_option_between_calls(tmp_path, capsys):
    scenario_path = _write(tmp_path, GOOD_SCENARIO)
    calls = [["--seed", "5", "run", scenario_path, "--samples", "30"],
             ["demo", "rest_plane_wave"],
             ["selftest"],
             ["run", scenario_path, "--no-such-flag"],
             ["run", scenario_path]]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first_calls = []
    for argv in calls:
        cli._parser.cache_clear()
        first_calls.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == first_calls
    assert cli._parser.cache_info().misses == 1
    assert first_calls[3][0] == ("exit", 2)
    assert first_calls[0][1] != first_calls[4][1]  # the overrides took effect


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
    ({"domain": {"seed": -1}}, [], "domain.seed"),
    ({"spinor": {"catalog": "degenerate_example", "params": {"kappa": 2.0}}}, [],
     "spinor.params.kappa"),
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
    # kappa is real: a pair would lose its imaginary part.
    ({"kappa": [1.3, 5.0]}, "kappa"),
    ({"kappa": [1.0, 0.0]}, "kappa"),
    # Coordinates and built-in constants are resolved before parameters.
    ({"spinor": {"exprs": ["exp(-i*x0)", "0", "0", "0"], "params": {"i": 2}}},
     "spinor.params.i"),
    ({"potential": {"exprs": ["x1", "0", "0", "0"], "params": {"x1": 0.5}}},
     "potential.params.x1"),
    ({"spinor": _DEGENERATE,
      "potential": {"catalog_family": {"f": "pi*x0", "params": {"pi": 3.0}}}},
     "potential.catalog_family.params.pi"),
])
def test_parameters_of_the_wrong_type_exit_2(tmp_path, capsys, change, field):
    payload = {**GOOD_SCENARIO, "kappa": 1.0, "potential": None, "tasks": ["classify"],
               **change}
    code = cli.main(["run", _write(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: {field}: " in captured.err


@pytest.mark.parametrize("spinor, kappa, tasks", [
    ({"catalog": "rest_plane_wave"}, 1.0, ["classify", "mass", "verify"]),
    (_DEGENERATE, 1.0, ["classify", "mass", "verify"]),
    (_LSET, 0.0, ["classify"]),
])
def test_a_catalog_kappa_other_than_the_scenarios_exits_2(tmp_path, capsys, spinor, kappa,
                                                          tasks):
    # The tasks keep the top-level kappa, so a catalog spinor built with
    # another one would fail its certified checks with exit 1.
    params = spinor.get("params", {})
    payload = {"kappa": kappa, "spinor": {**spinor, "params": {**params, "kappa": kappa + 1}},
               "tasks": tasks}
    code = cli.main(["run", _write(tmp_path, payload)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: spinor.params.kappa: " in captured.err
    payload["spinor"]["params"]["kappa"] = int(kappa)
    assert cli.main(["run", _write(tmp_path, payload)]) == 0


def _overrides(extra: list[str]) -> dict:
    flags = {"--tol": ("tol", float), "--samples": ("samples", int)}
    return {flags[flag][0]: flags[flag][1](value)
            for flag, value in zip(extra[::2], extra[1::2])}


def _failed_task(tmp_path, capsys, spinor, tasks, **extra) -> dict:
    """Run a scenario that must exit 1; returns its task reports by name."""
    payload = {"kappa": 1.0, "spinor": {"exprs": spinor}, "tasks": tasks, **extra}
    code, out = _run(capsys, ["run", _write(tmp_path, payload)])
    assert code == 1
    report = json.loads(out)
    assert report["summary"]["status"] == "fail"
    return {t["task"]: t for t in report["tasks"]}


def _check_names(task: dict) -> list[tuple[str, bool]]:
    return [(c["name"], c["passed"]) for c in task["checks"]["checks"]]


class TestTaskFailureReports:
    def test_a_varying_pointwise_mass_fails_the_mass_task(self, tmp_path, capsys):
        mass = _failed_task(tmp_path, capsys, ["exp(-i*x0*x1)", "0", "0", "0"], ["mass"])["mass"]
        assert set(mass) == {"task", "error", "checks"}
        assert mass["error"] == "MassInconsistent"
        assert _check_names(mass) == [("pointwise mass is consistent", False)]
        detail = mass["checks"]["checks"][0]["detail"]
        assert re.fullmatch(r"pointwise mass varies by \S+ around \S+ over 100 support "
                            r"points; input is not a Dirac solution", detail)

    def test_a_non_degenerate_spinor_fails_the_family_task(self, tmp_path, capsys):
        self._assert_family_fails(tmp_path, capsys, ["exp(-i*x0)", "0.5", "x1", "exp(-i*x0)"],
                                  "non-degenerate")

    def test_a_mixed_verdict_fails_the_family_task(self, tmp_path, capsys):
        # A deliberately loose tolerance lets part of the support look null.
        self._assert_family_fails(tmp_path, capsys, ["1", "0", "0", "exp(x1)"], "mixed",
                                  tolerances={"classify": 0.5})

    @staticmethod
    def _assert_family_fails(tmp_path, capsys, spinor, verdict, **extra):
        tasks = _failed_task(tmp_path, capsys, spinor, ["classify", "family"], **extra)
        assert tasks["classify"]["verdict"] == verdict
        family = tasks["family"]
        assert set(family) == {"task", "members", "checks"}
        assert family["members"] == []
        assert _check_names(family) == [("spinor is degenerate", False)]
        assert family["checks"]["checks"][0]["detail"] == (
            f"potential family requires a degenerate spinor, verdict is {verdict!r}")

    @pytest.mark.parametrize("name", ["classify", "mass", "invert", "family"])
    def test_a_zero_spinor_fails_the_other_tasks_alike(self, tmp_path, capsys, name):
        self._assert_no_support(tmp_path, capsys, name)

    def test_a_zero_spinor_fails_the_verify_task(self, tmp_path, capsys):
        self._assert_no_support(tmp_path, capsys, "verify")

    @staticmethod
    def _assert_no_support(tmp_path, capsys, name):
        # An empty support carries no claim: the task reports only that it could not run.
        task = _failed_task(tmp_path, capsys, ["0", "0", "0", "0"], [name])[name]
        assert task == {"task": name, "error": "NoSupportPoints",
                        "checks": {"name": name, "total": 1, "failed": 1, "checks": [
                            {"name": f"{name} completed", "passed": False,
                             "detail": "no sampled point carries a nonzero spinor value"}]}}

    def test_a_non_real_a0_fails_mass_and_verify_alike(self, tmp_path, capsys):
        tasks = _failed_task(tmp_path, capsys, ["exp(-i*x0)", "0", "0", "0"], ["mass", "verify"],
                             potential={"exprs": ["0.5*i", "0", "0", "0"]})
        details = set()
        for name in ("mass", "verify"):
            assert tasks[name]["error"] == "NonRealPotential"
            assert _check_names(tasks[name]) == [(f"{name} completed", False)]
            details.add(tasks[name]["checks"]["checks"][0]["detail"])
        (detail,) = details
        assert detail.startswith("potential has imaginary residue 5.000e-01 at (")

    @pytest.mark.parametrize("spinor, potential, tasks, residue", [
        ({"exprs": ["exp(-i*x0)", "0", "0", "0"]}, ["0", "0", "0", "1e-7*i"],
         ["invert", "verify"], "1.000e-07"),
        ({"catalog": "degenerate_example"}, ["0", "0", "0", "1e-7*i"],
         ["family", "verify"], "1.000e-07"),
        # Field tensor entry (1,2) is -1e-7*i everywhere; at 1e-8 the values fail first.
        ({"catalog": "degenerate_example"}, ["0", "1e-7*i*x2", "0", "0"],
         ["family"], "7.117e-08"),
    ])
    def test_the_scenarios_real_tolerance_reaches_every_task(self, tmp_path, capsys, spinor,
                                                             potential, tasks, residue):
        # An imaginary part of 1e-7 passes the default real tolerance, 1e-6,
        # and fails the scenario's 1e-8 in every task that reads the potential.
        payload = {"kappa": 1.0, "spinor": spinor, "potential": {"exprs": potential},
                   "domain": {"count": 20, "seed": 1}, "tasks": tasks}
        assert cli.main(["run", _write(tmp_path, payload)]) == 0
        capsys.readouterr()
        code, out = _run(capsys, ["run", _write(tmp_path, {**payload,
                                                           "tolerances": {"real": 1e-8}})])
        assert code == 1
        reports = json.loads(out)["tasks"]
        assert [t["task"] for t in reports] == tasks
        for task in reports:
            assert task["error"] == "NonRealPotential"
            assert _check_names(task) == [(f"{task['task']} completed", False)]
            assert task["checks"]["checks"][0]["detail"].startswith(
                f"potential has imaginary residue {residue} at (")

    def test_a_library_error_in_a_task_exits_2(self, tmp_path, capsys, monkeypatch):
        def raise_guard(sc, state, checks):
            raise GuardViolated("denominator below guard")

        monkeypatch.setitem(cli._TASK_RUNNERS, "verify", raise_guard)
        code = cli.main(["run", _write(tmp_path, GOOD_SCENARIO)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: GuardViolated: denominator below guard\n"
