"""Scenario runner, demo and selftest commands, exit codes, determinism."""

import json
import pathlib
import re

import numpy as np
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

    def test_mass_crosscheck_integrates_inside_a_box_that_excludes_x0_zero(self, tmp_path,
                                                                           capsys):
        # a0 is smooth on the box but singular at x0 = 3, between 0 and the box:
        # integrated from x0 = 0, the gauge-fixed route cannot converge.
        scenario = {
            "kappa": 1.3,
            "spinor": {"exprs": ["exp(-i*(kappa*x0 + 0.5*(x0-3)^(-1)))", "0", "0", "0"],
                       "params": {"kappa": 1.3}},
            "potential": {"exprs": ["-0.5*(x0-3)^(-2)", "0", "0", "0"]},
            "domain": {"box": [[4, 5], [-1, 1], [-1, 1], [-1, 1]], "count": 80, "seed": 11},
            "tasks": ["classify", "mass", "invert", "verify"],
        }
        code, out = _run(capsys, ["run", _write(tmp_path, scenario)])
        assert code == 0
        mass = [t for t in json.loads(out)["tasks"] if t["task"] == "mass"][0]
        assert mass["kappa"] == pytest.approx(1.3, abs=1e-9)
        assert mass["gauge_fixed_crosscheck_gap"] < 1e-12

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

    def test_family_on_a_non_constant_theta_non_solution(self, tmp_path, capsys):
        # Degenerate (u, v, w) form with real, point-dependent theta that solves
        # no Dirac system with the zero base: every member fails the residual
        # oracle, and the constant member's field tensor differs from the base
        # by f times d theta.
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
        assert family["region_points"] == 100
        verdicts = {c["name"]: c["passed"] for c in family["checks"]["checks"]}
        assert verdicts == {
            "family region is nonempty on the sample": True,
            "family member f=1 passes the residual oracle": False,
            "family member f=1 is light-like separated from base": True,
            "family member f=x0 passes the residual oracle": False,
            "family member f=x0 is light-like separated from base": True,
            "family member f=x1 passes the residual oracle": False,
            "family member f=x1 is light-like separated from base": True,
            "constant member shares the base field tensor": False,
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

    def test_selftest_task_matches_the_selftest_command(self, tmp_path, capsys):
        # The catalog spinor gives classify one check, its expected verdict.
        payload = {"kappa": 1.0, "spinor": {"catalog": "rest_plane_wave"},
                   "domain": {"count": 60, "seed": 5}, "tasks": ["selftest", "classify"]}
        code, out = _run(capsys, ["run", _write(tmp_path, payload)])
        assert code == 0
        report = json.loads(out)
        assert [t["task"] for t in report["tasks"]] == ["classify", "selftest"]
        task = report["tasks"][1]
        _, direct = _run(capsys, ["selftest", "--seed", "5", "--samples", "60"])
        assert task["sections"] == json.loads(direct)["sections"]
        assert (task["checks"]["total"], task["checks"]["failed"]) == (71, 0)
        assert report["summary"]["checks"] == 72

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


@pytest.mark.parametrize("scenario_name, kernel_calls", [
    # classify 3; the mass 5 and its gauge-fixed cross-check 5; two route
    # tables of 2, the combined route's and, on the rows it recovers, the one
    # the other two routes share.  The parent made 133 single-matrix calls.
    ("gauge_round_trip", 17),
    # The catalog's construction check 2; classify 3; the mass 5; the
    # combined route's table 2, whose guard passes nowhere, so the other
    # routes do not run; theta's direction 2, once for the three family
    # members.  The parent made 149.
    ("degenerate_family", 14),
])
def test_bilinear_kernel_calls_per_run(tmp_path, monkeypatch, scenario_name, kernel_calls):
    from diracinv import fields
    calls = _count_calls(monkeypatch, fields, "bilinear")
    path = _SHIPPED / f"{scenario_name}.json"
    assert cli.main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == kernel_calls


@pytest.mark.parametrize("scenario_name", ["gauge_round_trip", "degenerate_family"])
def test_other_routes_see_only_the_rows_the_combined_route_recovers(tmp_path, monkeypatch,
                                                                   scenario_name):
    # On a degenerate spinor the combined route recovers no row, and the
    # other two routes do not run at all.
    from diracinv import inversion
    rows = {name: _count_calls(monkeypatch, inversion, name, lambda fr, *args: len(fr.points))
            for name in ("invert_combined", "invert_gamma4", "invert_gamma5gamma4")}
    out = tmp_path / "report.json"
    assert cli.main(["run", str(_SHIPPED / f"{scenario_name}.json"), "--out", str(out)]) == 0
    invert = [t for t in json.loads(out.read_text())["tasks"] if t["task"] == "invert"][0]
    recovered = invert["recovered_points"]
    expected = [recovered] if recovered else []
    assert rows == {"invert_combined": [len(invert["rows"])], "invert_gamma4": expected,
                    "invert_gamma5gamma4": expected}
    assert recovered == (len(invert["rows"]) if scenario_name == "gauge_round_trip" else 0)


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


def test_gauge_fixed_mass_crosscheck_sees_every_support_row(tmp_path, monkeypatch):
    from diracinv import inversion
    seen = _count_calls(monkeypatch, inversion, "extract_mass_at",
                        lambda fr, a0, *args: (fr.points, a0 is None))
    out = tmp_path / "report.json"
    assert cli.main(["run", str(_SHIPPED / "gauge_round_trip.json"), "--out", str(out)]) == 0
    mass = [t for t in json.loads(out.read_text())["tasks"] if t["task"] == "mass"][0]
    assert mass["gauge_fixed_crosscheck_gap"] < 1e-8
    (direct, direct_a0_none), (fixed, fixed_a0_none) = seen
    assert not direct_a0_none and fixed_a0_none
    assert len(fixed) == mass["points"] > 3 and np.array_equal(fixed, direct)


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
        cli._TASK_RUNNERS[name](sc, state)
    assert state["sample"].frame._held == {}


def test_a_later_route_fails_at_its_own_row_of_the_recovered_ones(tmp_path, capsys,
                                                               monkeypatch):
    # The combined route misses the first point, so the other routes run on
    # the rows from the second point on; a non-real result in their first
    # row is reported at the second point.
    from diracinv import inversion
    combined, gamma4 = inversion.invert_combined, inversion.invert_gamma4

    def drop_first(fr, *args, **kwargs):
        out = combined(fr, *args, **kwargs)
        out.ok[0] = False
        return out

    def non_real_first(fr, *args, **kwargs):
        out = gamma4(fr, *args, **kwargs)
        out.imag_residue[0] = 1.0
        return out

    monkeypatch.setattr(inversion, "invert_combined", drop_first)
    monkeypatch.setattr(inversion, "invert_gamma4", non_real_first)
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
    probe = "import sys, diracinv.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"


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

    def nan_residual(sc, state):
        return {**verify_task(sc, state), "residual_max": float("nan")}

    monkeypatch.setitem(cli._TASK_RUNNERS, "verify", nan_residual)
    code = cli.main(["run", _write(tmp_path, GOOD_SCENARIO)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: Out of range float values are not JSON compliant: nan\n"


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
