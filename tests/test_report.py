"""render_report writes exactly the bytes json.dumps(indent=2, allow_nan=False) gives."""

import contextlib
import enum
import hashlib
import io
import json
import pathlib
import shlex

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracinv import cli, report
from diracinv.report import render_report

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
# Lines of `python3 tools/reference_reports.py`, in its format: its first 7, then
# `selftest` at seeds 0-9 and 31337, which pin the self-test's draw stream (README).
DIGESTS = (pathlib.Path(__file__).parent / "report_digests.txt").read_text().splitlines()


def _json(value) -> str:
    return json.dumps(value, indent=2, allow_nan=False) + "\n"


class _Label(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _finite, _finite.map(np.float64),
    st.text(), st.text().map(_Label), st.sampled_from(_Level))
_keys = st.one_of(st.text(), st.integers(), _finite, st.booleans(), st.none())
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(_finite, max_size=5),
        st.dictionaries(_keys, children, max_size=5)),
    max_leaves=20)


@settings(max_examples=60, deadline=None)
@given(_trees)
@example({"\x00\t\n\"\\": ["é", "\u2028", "\U0001f600", "\x7f"], "": {}, 2.5: ()})
def test_random_trees_render_as_json_does(tree):
    assert render_report(tree) == _json(tree)


# Row tables: rows share one key order, and each column draws its cells from
# one kind, so most tables take the row-template path and the rest fall back.
_edge_floats = st.one_of(_finite, st.sampled_from([0.0, -0.0, 1e-05, 1e16, 5e-324, 1e-310]))
_table_keys = st.one_of(
    st.text(), st.sampled_from(["%", "%r", "%s%%", "%(x)s", '"', "\\", "é", "\u2028", "\U0001f600"]))
_cell_kinds = {
    "float": lambda draw: _edge_floats,
    "str": lambda draw: st.text(),
    "list": lambda draw: st.lists(_edge_floats, min_size=(n := draw(st.integers(0, 4))),
                                  max_size=n),
    "ragged": lambda draw: st.lists(_edge_floats, max_size=4),
    "mixed": lambda draw: st.one_of(
        _edge_floats, _edge_floats.map(np.float64), st.text(), st.text().map(_Label),
        st.booleans(), st.integers(), st.none(), st.lists(_edge_floats, max_size=3)),
}


@st.composite
def _row_tables(draw):
    keys = draw(st.lists(_table_keys, min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 6))
    columns = [draw(st.lists(_cell_kinds[draw(st.sampled_from(sorted(_cell_kinds)))](draw),
                             min_size=n, max_size=n))
               for _ in keys]
    return [dict(zip(keys, cells)) for cells in zip(*columns)] if n else []


@settings(max_examples=80, deadline=None)
@given(_row_tables())
@example([{"%": 1.5, "k": "a"}, {"%": -0.0, "k": "b"}])
@example([{"p": [1e16, 5e-324], "s": "x"}, {"p": [1e-05, -0.0], "s": "y"}])
@example([{"p": [1.0, 2.0]}, {"p": [3.0]}])
@example([{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}])
def test_row_tables_render_as_json_does(table):
    assert render_report(table) == _json(table)
    assert render_report({"rows": table}) == _json({"rows": table})


def test_a_row_table_is_written_with_calls_that_do_not_grow_with_its_rows(monkeypatch):
    reports = []
    monkeypatch.setattr(cli, "render_report", lambda value: reports.append(value) or "")
    assert cli.main(["run", str(SCENARIOS / "gauge_round_trip.json"), "--samples", "1000"]) == 0
    (full,) = reports
    (invert,) = [task for task in full["tasks"] if task["task"] == "invert"]
    assert len(invert["rows"]) == 200
    calls = []
    write = report._write
    monkeypatch.setattr(report, "_write",
                        lambda value, newline: calls.append(value) or write(value, newline))

    def count(value) -> int:
        calls.clear()
        assert render_report(value) == _json(value)
        return len(calls)

    two_rows = {**full, "tasks": [{**task, "rows": task["rows"][:2]} if task is invert else task
                                  for task in full["tasks"]]}
    assert count(full) == count(two_rows)


_NAN = float("nan")


@pytest.mark.parametrize("value", [
    {"x": _NAN},
    {"x": [1.0, float("inf")]},
    {"x": [1, -float("inf")]},
    [{"nested": (2.0, np.float64("nan"))}],
    {"x": np.float64("-inf")},
    {_NAN: 1},
    {"first": [_NAN], "then": {1, 2}},
    [{"x": 1.0, "p": [0.5, 1.0]}, {"x": 2.0, "p": [0.5, _NAN]}],
    [{"x": 1.0, "s": "a"}, {"x": np.float64("inf"), "s": "b"}],
])
def test_non_finite_numbers_raise_the_value_error_json_raises(value):
    with pytest.raises(ValueError) as expected:
        _json(value)
    with pytest.raises(ValueError) as got:
        render_report(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("value", [
    {"x": np.int64(1)},
    {"x": [np.bool_(True)]},
    {"x": {1, 2}},
    {(1, 2): "tuple key"},
    {"first": {1}, "then": _NAN},
    # A row table: the set in row 2 comes before the NaN of an earlier column in row 5.
    [{"x": _NAN if i == 5 else float(i), "y": {1} if i == 2 else "y"} for i in range(7)],
])
def test_types_json_cannot_hold_raise_the_type_error_json_raises(value):
    with pytest.raises(TypeError) as expected:
        _json(value)
    with pytest.raises(TypeError) as got:
        render_report(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("argv", [
    ["demo", "degenerate_example"],
    ["run", str(SCENARIOS / "gauge_round_trip.json")],
])
def test_command_reports_render_as_json_does(argv, monkeypatch, capsys):
    reports = []
    monkeypatch.setattr(cli, "render_report",
                        lambda report: reports.append(report) or render_report(report))
    assert cli.main(argv) == 0
    (report,) = reports
    assert capsys.readouterr().out == _json(report)


def _md5(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


@pytest.mark.parametrize("line", DIGESTS, ids=[line.split(" ", 3)[3] for line in DIGESTS])
def test_reports_of_the_shipped_scenarios_demos_and_selftest_keep_their_bytes(line):
    # A change that moves report bytes on purpose regenerates the file (README).
    command = line.split(" ", 3)[3]
    argv = [str(ROOT / arg) if arg.startswith("scenarios/") else arg
            for arg in shlex.split(command)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert f"{code} {_md5(out.getvalue())} {_md5(err.getvalue())} {command}" == line
