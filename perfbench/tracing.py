"""Spans around kcut's public functions, installed from outside the program.

Each public function defined in a `kcut.*` module is wrapped once and the
wrapper replaces the name at every import site (`from .graph import
cut_value` copies the binding into `solver` and `treecut`), so a span is
labelled by the defining module whoever calls it.  A span's self time is
its duration minus the time covered by its child spans.  Private helpers
are not wrapped; their time counts as self time of the public caller.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class Tracer:
    """Per-label call counts and self time, plus the KT shrink ratio."""

    package = "kcut"

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.kt_n = [0, 0]  # summed input n and contracted n over kt_sparsify calls
        self._stack: List[float] = []  # child time covered so far, one entry per open span
        self._undo: List[Tuple[object, str, Callable]] = []

    def _modules(self):
        pkg = self.package
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == pkg or name.startswith(pkg + "."))]

    def _wrap(self, label: str, fn: Callable) -> Callable:
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter
        kt = self.kt_n if label == "sparsify.kt_sparsify" else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                calls[label] += 1
                self_s[label] += took - child
                if stack:
                    stack[-1] += took
            if kt is not None:
                kt[0] += args[0].n
                kt[1] += result.contracted.n
            return result

        return span

    def exclude(self, seconds: float) -> None:
        """Count `seconds` spent inside the innermost open span as nobody's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        wrappers = {}
        for mod in modules:
            prefix = mod.__name__[len(self.package) + 1:]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap("%s.%s" % (prefix, name), obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def remove(self) -> None:
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
