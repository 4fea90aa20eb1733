"""The machine's pace, and wall times rescaled to a fixed pace.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x, for stretches from milliseconds to minutes, as other tenants load it.
A wall time alone then measures the host as much as the program.  So the
benchmark keeps timing a fixed reference unit, which lives here and never
changes with the program, while it measures:

- during each operation, a ``Sampler`` runs one unit every ``PERIOD_S``
  seconds from a timer signal, between two bytecodes of the program;
- around spans it cannot enter, such as an import in another interpreter,
  ``block_s`` times ``BLOCK_UNITS`` units before and after.

A span's time is then rescaled to the pace at which one unit takes
``REFERENCE_S`` seconds:

    rescaled = (wall - time spent in units) * (REFERENCE_S / mean unit time) ** SENSITIVITY

A program change that makes a span k times faster makes its rescaled time k
times smaller, while a host slowdown leaves it unchanged as long as it slows
the program's operations by the SENSITIVITY-th power of what it slows the
unit by.

The unit resembles the program's work: a recursive tree walk over a fixed
102-node expression, evaluated at 25 scalar points with ``math`` (like
``exprlang.evaluate``) and once over 1000-element numpy arrays (like
``exprlang.evaluate_many``).  Each unit walks the next of ``POOL`` copies of
the tree, so that, like the program, it works through more memory than the
fastest caches hold.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds one unit takes on the 2-vCPU KVM guest of README.md at its usual
# pace.  A fixed constant, so rescaled times read in seconds on that host.
REFERENCE_S = 0.0007
# A host state that makes the unit s times slower makes the program's
# operations about s ** SENSITIVITY times slower: the program suffers more
# from the other tenants than the small unit does.  Fitted on the same host
# (README.md); exponents from 1.2 to 1.5 all did about equally well.
SENSITIVITY = 1.4

PERIOD_S = 0.02
BLOCK_UNITS = 48
# An operation with fewer samples than this is topped up right after it.
MIN_SAMPLES = 8

SCALAR_POINTS = 25
POOL = 1024


class _Node:
    __slots__ = ("op", "args", "value")

    def __init__(self, op, args=(), value=None):
        self.op, self.args, self.value = op, args, value


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node("var", value=k % 4) if k % 3 else _Node("num", value=0.1 * (k % 7) + 0.3)
    k2 = k * 7 + 3
    if k % 4 == 0:
        return _Node(("sin", "cos", "exp")[k % 3], (_tree(depth - 1, k2),))
    return _Node("+*-"[k % 3], (_tree(depth - 1, k2), _tree(depth - 1, k2 + 1)))


_TREES = [_tree(6, 5) for _ in range(POOL)]
_next = 0
_SCALAR = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_VECTOR = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_ARRAYS = [np.linspace(-1.0, 1.0, 1000) + 0.1 * i for i in range(4)]


def _evaluate(node: _Node, env, funcs):
    op = node.op
    if op == "num":
        return node.value
    if op == "var":
        return env[node.value]
    if op in funcs:
        return funcs[op](0.1 * _evaluate(node.args[0], env, funcs))
    a = _evaluate(node.args[0], env, funcs)
    b = _evaluate(node.args[1], env, funcs)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    return a * b


def work() -> float:
    """One reference unit; the value only keeps the work from being skipped."""
    global _next
    _next = (_next + 1) % POOL
    tree = _TREES[_next]
    total = 0.0
    for i in range(SCALAR_POINTS):
        total += _evaluate(tree, (0.04 * i, 0.5, -0.25, 0.75), _SCALAR)
    return total + float(_evaluate(tree, _ARRAYS, _VECTOR).sum())


def unit_s() -> float:
    """Wall seconds of one reference unit, timed now."""
    start = perf_counter()
    work()
    return perf_counter() - start


def block_s() -> float:
    """Mean seconds per unit over BLOCK_UNITS units run back to back now.

    The block's trees are walked once untimed first: a block follows a
    span in another process, which has evicted them from the caches.
    """
    global _next
    first = _next
    for _ in range(BLOCK_UNITS):
        work()
    _next = first
    start = perf_counter()
    for _ in range(BLOCK_UNITS):
        work()
    return (perf_counter() - start) / BLOCK_UNITS


def rescale(wall_s: float, unit: float) -> float:
    """``wall_s`` at the pace where one unit takes REFERENCE_S seconds."""
    return wall_s * (REFERENCE_S / unit) ** SENSITIVITY


class Sampler:
    """Times one unit every PERIOD_S seconds while the block it guards runs.

    The units run in the SIGALRM handler, so they interrupt the guarded code
    only between two bytecodes; the code's results are untouched.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(unit_s())

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def result(self) -> tuple[float, float]:
        """(seconds spent in units inside the block, mean seconds per unit).

        With fewer than MIN_SAMPLES samples, units timed right after the
        block fill the mean up.
        """
        inside = math.fsum(self.samples)
        samples = self.samples + [unit_s() for _ in range(MIN_SAMPLES - len(self.samples))]
        return inside, statistics.fmean(samples)
