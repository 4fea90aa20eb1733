"""Random one-field mutations of a shipped scenario exit 0, 1 or 2, never with a traceback."""

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from diracinv import cli

SCENARIO = json.loads((pathlib.Path(__file__).resolve().parents[1] / "scenarios"
                       / "gauge_round_trip.json").read_text())
DELETE = object()


def _fields(node, path=()):
    """The path of every field below `node`: object keys and array indices, nested."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


def _mutated(path, value):
    scenario = json.loads(json.dumps(SCENARIO))
    *parents, last = path
    node = scenario
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return scenario


# Counts stay small or out of range, so that no example samples for long;
# NaN and infinities reach the loader as the JSON literals Python writes.
_LEAVES = (st.none() | st.booleans()
           | st.integers(-3, 300) | st.sampled_from([10**6, 2**63, -2**63])
           | st.floats() | st.text(max_size=12)
           | st.sampled_from(["x0", "0-0.3", "1/x1", "exp(800*x0)", "i*x1", "kappa",
                              "classify", "verify", "selftest", "degenerate_example", "lset"]))
_VALUES = st.recursive(_LEAVES, lambda children: st.lists(children, max_size=4)
                       | st.dictionaries(st.text(max_size=6) | st.sampled_from(
                           ["exprs", "params", "catalog", "box", "count", "seed"]),
                           children, max_size=3), max_leaves=8)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(list(_fields(SCENARIO))), st.just(DELETE) | _VALUES)
def test_a_mutated_scenario_exits_0_1_or_2_without_a_traceback(scenario_path, path, value):
    scenario_path.write_text(json.dumps(_mutated(path, value)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(scenario_path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (out.getvalue() == "") == (code == 2)
