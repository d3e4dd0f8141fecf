"""Per-layer spans recorded from outside the program.

Each module of the knnmlc package is one layer. While installed, the tracer
wraps every public function of every layer: the names in the module's
``__all__`` plus the other public functions the module defines (found at run
time, so functions added later are traced too), and the public methods of
the classes among them. For ``cli`` only the ``cmd_*`` functions are traced.
Each wrapper replaces the original in every knnmlc module that holds it, so
calls across modules and within one module both pass through it. Nothing in
the package's source changes.

A span records its name, start, end and the index of its parent span. A
layer's self time is its spans' durations minus the time their child spans
cover, so the self times of all spans add up to the time spent inside the
outermost spans.
"""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict


def _public_names(module) -> list[str]:
    layer = module.__name__.rsplit(".", 1)[-1]
    if layer == "cli":
        return sorted(n for n in vars(module) if n.startswith("cmd_"))
    names = set(getattr(module, "__all__", ()))
    names.update(
        n
        for n, v in vars(module).items()
        if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == module.__name__
    )
    return sorted(names)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            importlib.import_module(f"{self.package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(self.package.__path__)
        ]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name in _public_names(module):
                obj = getattr(module, name)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(f"{layer}.{name}.{attr}", member))
        for module in [self.package, *modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()

    def summary(self) -> dict:
        """Per-layer and per-function call counts and self times, plus the
        time covered by outermost spans (the sum of all self times)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        outermost = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            own = end - start - child[i]
            layer = name.split(".", 1)[0]
            for key in (layer, name):
                calls[key] += 1
                self_s[key] += own
            if parent < 0:
                outermost += end - start
        return {"calls": dict(calls), "self_s": dict(self_s), "outermost_s": outermost, "spans": len(spans)}
