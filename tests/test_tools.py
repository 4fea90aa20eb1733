"""The in-process A/B script runs a checkout against itself and against a changed copy."""

import importlib.util
import json
import pathlib

from diracinv import __version__

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    path = ROOT / "tools" / "inprocess_ab.py"
    spec = importlib.util.spec_from_file_location("inprocess_ab", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_inprocess_ab_of_the_checkout_against_itself_is_identical(capsys):
    src = str(ROOT / "src")
    code = _tool().main([src, src, "--workload", "family_sweep", "--ops", "2", "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "of 2 pairs" in out
    assert out.splitlines()[-1] == "reports: every pair identical"


def test_inprocess_ab_of_all_workloads_prints_one_verdict_line_each(capsys):
    tool = _tool()
    src = str(ROOT / "src")
    code = tool.main([src, src, "--workload", "all", "--ops", "1", "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if "median ratio" in line]
    assert code == 0
    assert [line.split()[0] for line in verdicts] == list(tool.WORKLOADS)
    assert all(line.endswith(" of 1 pairs; reports identical") for line in verdicts)
    assert lines[-1] == "reports: every pair identical"


def test_inprocess_ab_exits_1_when_a_workload_pair_differs(capsys, monkeypatch):
    tool = _tool()
    differ = tool.WORKLOADS[1]

    def compare(parent_src, change_src, workload, ops, rounds, seed=1):
        return {"times": {"parent": [1.0], "change": [0.5]}, "wins": 1, "pairs": 1,
                "ratio": 0.5, "identical": workload != differ}

    monkeypatch.setattr(tool, "compare", compare)
    assert tool.main(["p", "c", "--workload", "all", "--ops", "1", "--rounds", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines if line.endswith("reports DIFFER")] == [differ]
    assert lines[-1] == "reports: PAIRS DIFFER"


def test_inprocess_ab_names_the_first_json_path_where_a_pair_differs(tmp_path, capsys):
    import shutil
    tool = _tool()
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "diracinv", changed / "diracinv",
                    ignore=shutil.ignore_patterns("__pycache__"))
    init = changed / "diracinv" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9.'))
    code = tool.main([str(ROOT / "src"), str(changed), "--workload", "selftest", "--ops", "1",
                      "--rounds", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    version = __version__
    assert (f'selftest  first difference, operation 0: tool.version: "{version}" != "9.{version}"'
            in lines)
    assert lines[-1] == "reports: PAIRS DIFFER"


def test_first_difference_walks_keys_items_and_values():
    first = _tool().first_difference
    report = {"tasks": [{"task": "family", "checks": {"checks": [{"value": 1.5}]}}]}
    moved = {"tasks": [{"task": "family", "checks": {"checks": [{"value": 2.0}]}}]}
    encode = lambda obj: json.dumps(obj).encode()  # noqa: E731
    assert first(encode(report), encode(report)) is None
    assert first(encode(report), encode(moved)) == "tasks[0].checks.checks[0].value: 1.5 != 2.0"
    longer = {"tasks": [*report["tasks"], {"task": "verify"}]}
    assert first(encode(report), encode(longer)) == "tasks: 1 != 2 items"
    assert first(encode({"a": 1}), encode({"a": 1, "b": [2]})) == "b: (missing) != [2]"
    assert first(b"", encode(report)).startswith("report bytes: 0 != ")
    assert first(b'{"a": 1}', b'{"a":1}') == "same values, different bytes"
