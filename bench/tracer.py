"""Outside-in tracer: wraps layer functions at every binding, records spans.

The program is not changed.  For each layer the tracer finds the original
function object and replaces it wherever a ``diracinv`` module binds it: as
a module attribute (``from .fields import frame`` binds ``frame`` in
``inversion`` and ``verify`` too) or as a value of a module-level dict
(``cli._TASK_RUNNERS``).  A dotted attribute path such as
``scipy.integrate.quad`` is wrapped through proxies of the module objects
that one ``diracinv`` module holds, so only that module's calls count.

Spans (id, layer, start, end, parent, operation) are kept in memory and
written when the run ends.  Self time is a span's duration minus the time
its child spans cover, accumulated while the call stack unwinds.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

from layers import Layer

ROOT = "op"


class _Proxy:
    """Stands in for a module object, replacing one attribute."""

    def __init__(self, target, name: str, value):
        self._target = target
        self._name = name
        self._value = value

    def __getattr__(self, attr):
        if attr == self._name:
            return self._value
        return getattr(self._target, attr)


class LayerStats:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


class Tracer:
    def __init__(self, layers: tuple[Layer, ...], guard_error: type):
        self.names = [ROOT] + [layer.name for layer in layers]
        self.stats = {layer.name: LayerStats() for layer in layers}
        self.absent: list[str] = []
        self._guard_error = guard_error
        self._patches: list[tuple[object, str, object, object]] = []
        self._stack: list[list] = []      # [span id, child time, start]
        self._next_id = 0
        self._op = -1
        self.ids = array("q")
        self.parents = array("q")
        self.name_idx = array("i")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        for index, layer in enumerate(layers, start=1):
            self._bind(layer, index)

    # -- binding --------------------------------------------------------

    def _bind(self, layer: Layer, index: int) -> None:
        module = importlib.import_module(layer.module)
        head, _, rest = layer.attr.partition(".")
        if not hasattr(module, head):
            if layer.optional:
                self.absent.append(layer.name)
                return
            raise LookupError(f"{layer.module} has no attribute {head!r}")
        if rest:
            self._bind_path(layer, index, module, head, rest)
            return
        original = getattr(module, head)
        if layer.key is not None:
            original = original[layer.key]
        wrapper = self._wrap(layer, index, original)
        sites = 0
        for name, mod in list(sys.modules.items()):
            if not (name == "diracinv" or name.startswith("diracinv.")) or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))
                    sites += 1
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if entry is original:
                            self._patches.append((value, key, original, wrapper))
                            sites += 1
        if sites == 0:
            raise LookupError(f"no binding of {layer.name} found")

    def _bind_path(self, layer, index, module, head, rest) -> None:
        parts = rest.split(".")
        chain = [getattr(module, head)]
        for part in parts:
            chain.append(getattr(chain[-1], part))
        value = self._wrap(layer, index, chain[-1])
        for target, part in zip(reversed(chain[:-1]), reversed(parts)):
            value = _Proxy(target, part, value)
        self._patches.append((module, head, chain[0], value))

    def _wrap(self, layer: Layer, index: int, fn):
        stats = self.stats[layer.name]
        counter = layer.counter
        guard_error = self._guard_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except guard_error:
                if counter == "rejects":
                    stats.count += 1
                raise
            finally:
                stats.calls += 1
                stats.self_s += self._exit(frame, index)
            if counter == "points":
                points = args[1] if len(args) > 1 else kwargs["points"]
                stats.count += len(points)
            elif counter == "bytes":
                stats.count += len(result.encode())
            return result

        return wrapper

    # -- spans ----------------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, index: int) -> float:
        end = perf_counter()
        self._stack.pop()
        span_id, child_s, start = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.ids.append(span_id)
        self.parents.append(parent[0] if parent is not None else -1)
        self.name_idx.append(index)
        self.ops.append(self._op)
        self.starts.append(start)
        self.ends.append(end)
        return duration - child_s

    def install(self) -> None:
        for holder, key, _, wrapper in self._patches:
            _set(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in reversed(self._patches):
            _set(holder, key, original)

    def run(self, op_id: int, fn):
        """Call fn with the layers wrapped, under a root span for the operation."""
        self._op = op_id
        self.install()
        frame = self._enter()
        try:
            return fn()
        finally:
            self._exit(frame, 0)
            self.uninstall()

    def dump(self, path) -> None:
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 id=np.frombuffer(self.ids, dtype=np.int64),
                 parent=np.frombuffer(self.parents, dtype=np.int64),
                 name=np.frombuffer(self.name_idx, dtype=np.int32),
                 op=np.frombuffer(self.ops, dtype=np.int64),
                 start=np.frombuffer(self.starts, dtype=np.float64),
                 end=np.frombuffer(self.ends, dtype=np.float64))


def _set(holder, key, value) -> None:
    if isinstance(holder, dict):
        holder[key] = value
    else:
        setattr(holder, key, value)
