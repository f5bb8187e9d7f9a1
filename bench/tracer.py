"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function defined in the given modules
and rebinds each attribute of the package's modules that holds one of them.
The package's modules import each other's functions by name (``evaluation``
binds ``train`` and ``sequence_features``, ``aggregate`` binds ``lstm_step``),
so wrapping only the defining module would miss those calls.

Each call becomes one span: its function name, start, end and the index of
the span that was open when it began. Spans stay in memory until ``write``.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager


def self_times(starts, ends, parents):
    """Per span: duration minus the union of its children's intervals,
    each child clipped to the parent's interval."""
    children = [[] for _ in starts]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        for child in sorted(children[idx], key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []    # span -> "<module>.<function>"
        self.starts = []
        self.ends = []
        self.parents = []  # span -> index of the enclosing span, -1 at the root
        self.counters = {}
        self._stack = []
        self._hooks = {}

    def on_call(self, name, hook):
        """Run ``hook(tracer, arguments, result)`` after each call of ``name``;
        ``arguments`` maps every parameter name to its value. Hooks run
        after the span has closed, so their time falls in the caller's span."""
        self._hooks[name] = hook

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock, stack = self.clock, self._stack
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def install(self, package, modules):
        """Trace the public functions defined in ``modules`` for the duration
        of the block; every rebound attribute is restored on exit."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        rebound = []
        try:
            for modname, mod in list(sys.modules.items()):
                if mod is None or not (modname == package or modname.startswith(package + ".")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, attr, wrappers[obj])
                        rebound.append((mod, attr, obj))
            yield rebound
        finally:
            for mod, attr, obj in reversed(rebound):
                setattr(mod, attr, obj)

    def summary(self):
        """{name: {"calls", "self_s", "total_s"}} over all spans."""
        out = {}
        selfs = self_times(self.starts, self.ends, self.parents)
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += end - start
        return out

    def write(self, path):
        """Spans as {"names": [...], "spans": [[name_index, start, end, parent], ...]}."""
        index = {}
        spans = []
        for name, start, end, parent in zip(self.names, self.starts, self.ends, self.parents):
            spans.append([index.setdefault(name, len(index)), start, end, parent])
        with open(path, "w") as fh:
            json.dump({"names": list(index), "spans": spans, "counters": self.counters}, fh)
