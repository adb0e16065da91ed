"""Spans around grossone's layers, recorded from the benchmark's side.

A wrapper opens a span when it is called while tracing is on, unless the
innermost open span belongs to the same layer: a call from inside a layer is
part of that call (``__sub__`` calling ``__add__``, ``member`` recursing).
Spans are aggregated as they close into calls, self time (duration minus the
spans opened inside it) and total time per layer, plus the number of spans
of each layer opened directly inside each other layer.  Time spent in the
wrappers' own bookkeeping is charged to no layer.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.on = False
        self.stack: list = []
        self.layers: dict = {}
        self.children: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._patched: list = []

    def stats(self, layer: str) -> list:
        """``[calls, self_ns, total_ns]`` of a layer."""
        return self.layers.setdefault(layer, [0, 0, 0])

    def wrap(self, layer: str, fn, prepare=None, observe=None, on_error=None):
        """A traced stand-in for ``fn``.  ``prepare`` may rewrite the argument
        tuple; ``observe`` sees the result and ``on_error`` the exception."""
        stats = self.stats(layer)
        stack = self.stack
        children = self.children
        tracer = self

        def close(frame, t0, t1):
            stack.pop()
            stats[0] += 1
            stats[1] += (t1 - t0) - frame[1]
            stats[2] += t1 - t0
            if stack:
                children[(stack[-1][0], layer)] += 1

        def traced(*args, **kwargs):
            if not tracer.on or (stack and stack[-1][0] == layer):
                return fn(*args, **kwargs)
            tp = perf_counter_ns()
            if prepare is not None:
                args = prepare(args)
            frame = [layer, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(frame, t0, perf_counter_ns())
                if on_error is not None:
                    on_error(exc)
                if stack:
                    stack[-1][1] += perf_counter_ns() - tp
                raise
            close(frame, t0, perf_counter_ns())
            if observe is not None:
                observe(result)
            if stack:
                stack[-1][1] += perf_counter_ns() - tp
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layer: str, originals, **hooks) -> int:
        """Replace every binding of each original, in every grossone module
        and every class those modules define; return how many."""
        wrappers = {id(fn): self.wrap(layer, fn, **hooks) for fn in originals}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "grossone" or name.startswith("grossone."))]
        owners = []
        for mod in modules:
            owners.append(mod)
            owners.extend(v for v in vars(mod).values()
                          if inspect.isclass(v) and v.__module__ == mod.__name__)
        hits = 0
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(owner, attr, wrapper)
                    self._patched.append((owner, attr, value))
                    hits += 1
        return hits

    def restore(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()


def public_functions(module) -> list:
    """Functions a module defines itself and does not mark private."""
    return [v for k, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__ and not k.startswith("_")]
