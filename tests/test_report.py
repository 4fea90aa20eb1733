"""render_report writes exactly the bytes json.dumps(indent=2, allow_nan=False) gives."""

import enum
import json
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracinv import cli
from diracinv.report import render_report

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


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


_NAN = float("nan")


@pytest.mark.parametrize("value", [
    {"x": _NAN},
    {"x": [1.0, float("inf")]},
    {"x": [1, -float("inf")]},
    [{"nested": (2.0, np.float64("nan"))}],
    {"x": np.float64("-inf")},
    {_NAN: 1},
    {"first": [_NAN], "then": {1, 2}},
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
