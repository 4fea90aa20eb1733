"""The in-process A/B script runs a checkout against itself."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_inprocess_ab_of_the_checkout_against_itself_is_identical(capsys):
    path = ROOT / "tools" / "inprocess_ab.py"
    spec = importlib.util.spec_from_file_location("inprocess_ab", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    src = str(ROOT / "src")
    code = tool.main([src, src, "--workload", "family_sweep", "--ops", "2", "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "of 2 pairs" in out
    assert out.splitlines()[-1] == "reports: every pair identical"
