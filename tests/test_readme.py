"""README.md states the scenario schema constants the code uses."""

import pathlib
import re

from diracinv import scenario

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


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
