"""Outside-in span tracer.

Wraps named public functions of a package from outside it: each function is
replaced in every module namespace of the package that binds it, so a call
made through an import (`classify.build_feature_set`, `report.simulate_voltage`)
is recorded as well as a call inside the defining module. Spans stay in memory
as (name, start, end, parent) until the caller reads them. A name that no
longer exists is reported in `absent` instead of failing, so the package can
be refactored without breaking the untraced benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 at the top
    counts: dict = field(default_factory=dict)


# A hook turns a call's bound arguments and its result into counts for the
# span: numbers are summed per name, the value under "key" is collected into
# a set of distinct keys.
Hook = Callable[[dict, object], dict]


class Tracer:
    def __init__(
        self,
        package: str,
        targets: dict[str, Iterable[str]],
        hooks: dict[str, Hook] | None = None,
    ):
        self.package = package
        self.targets = {module: tuple(names) for module, names in targets.items()}
        self.hooks = dict(hooks or {})
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for module_name, names in self.targets.items():
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
            except ModuleNotFoundError:
                self.absent += [f"{module_name}.{name}" for name in names]
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for namespace in self._namespaces():
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, attr, wrapper)
                            self._patches.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Drop the recorded spans; call only between top-level calls."""
        self.spans.clear()

    def _namespaces(self) -> list:
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items()) if name == self.package or name.startswith(prefix)]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                try:
                    span.counts = hook(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, OSError, TypeError) as exc:
                    self.hook_errors.setdefault(name, repr(exc))
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted((spans[c] for c in children[index]), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self time, summed counts, and the number
    of distinct keys."""
    out: dict[str, dict] = {}
    keys: dict[str, set] = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for count, value in span.counts.items():
            if count == "key":
                keys.setdefault(span.name, set()).add(value)
            else:
                entry[count] = entry.get(count, 0) + value
    for name, distinct in keys.items():
        out[name]["distinct"] = len(distinct)
    return out
