"""README.md states the scenario schema constants and messages the code uses."""

import json
import pathlib
import re

import pytest

from diracinv import cli, scenario

README_PATH = pathlib.Path(__file__).resolve().parents[1] / "README.md"
README = README_PATH.read_text()


def test_tolerance_keys_and_defaults_match_the_code():
    sentence = re.search(r"Tolerance keys and defaults: (.*?)\.\n\n", README, re.DOTALL)
    assert sentence, "README has no 'Tolerance keys and defaults:' sentence"
    stated = [(key, float(value))
              for key, value in re.findall(r"`(\w+)`\s+([0-9.e+-]+)", sentence.group(1))]
    assert stated == list(scenario.DEFAULT_TOLERANCES.items())


def test_task_order_matches_the_code():
    order = re.search(r"execute in the order `([^`]*)`", README)
    assert order, "README has no task-order sentence"
    assert tuple(task.strip() for task in order.group(1).split("→")) == scenario.TASKS


def test_the_non_finite_report_message_is_what_the_cli_writes(capsys, monkeypatch):
    quoted = re.search(r"the one gate: the message is\n`(error: [^`]*)`", README)
    assert quoted, "README has no quoted non-finite report message"
    verify_task = cli._TASK_RUNNERS["verify"]
    monkeypatch.setitem(cli._TASK_RUNNERS, "verify", lambda sc, state, checks: {
        **verify_task(sc, state, checks), "residual_max": float("nan")})
    scenario_path = README_PATH.parent / "scenarios" / "gauge_round_trip.json"
    assert cli.main(["run", str(scenario_path), "--samples", "20"]) == 2
    assert capsys.readouterr().err == quoted.group(1) + "\n"


def _named_task_fields() -> dict[str, set[str]]:
    """Field names README's "Report format" list gives each task, and every task ("*")."""
    section = README.split("### Report format", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^  - (.*?)(?=^  - |^- )", section, re.MULTILINE | re.DOTALL)
    named = {}
    for bullet in bullets:
        task = re.match(r"`(\w+)`:", bullet)
        key = task.group(1) if task else "*" if bullet.startswith("every task") else None
        if key is not None:
            named[key] = {m.group() for token in re.findall(r"`([^`]*)`", bullet)
                          if (m := re.match(r"\w+", token))}
    return named


@pytest.mark.parametrize("argv", [
    ["demo", "degenerate_example"],
    ["demo", "rest_plane_wave"],
    ["run", str(README_PATH.parent / "scenarios" / "gauge_round_trip.json")],
])
def test_every_task_field_is_named_in_the_report_format(capsys, argv):
    named = _named_task_fields()
    assert set(named) == set(scenario.TASKS) | {"*"}
    assert cli.main(argv) == 0
    for task in json.loads(capsys.readouterr().out)["tasks"]:
        unnamed = set(task) - named[task["task"]] - named["*"]
        assert not unnamed, f"{task['task']} emits {sorted(unnamed)}, not named in README"
