"""Spans and call counts recorded from outside the program.

The tracer replaces public functions and methods of the nilbound modules
with wrappers, records spans in memory (name, start, end, parent span, op
id) and restores every replaced attribute when it is uninstalled.  A module
that imported a function by name holds its own reference, so every module
namespace holding the original object is patched, not only the defining
one.
"""

from __future__ import annotations

import functools
import inspect
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    op: str | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover.  Children of one span run one after another on one
    thread, but the union is taken so overlapping input stays correct."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: the number of calls and the total self time."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return out


class Tracer:
    """Installs wrappers, keeps spans and counters, and undoes its patches."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: str | None = None
        # while paused, wrappers only call through: no span, count or hook
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def active(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    def spanned(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, namespaces, original, replacement) -> None:
        """Replace every module-level reference to original."""
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def public_callables(module):
    """(owner, attr, function, short name) for the public functions of a
    module and the public methods of its classes, plus __contains__.
    Properties and generator functions are left out: a wrapper around a
    generator function would time only the creation of the generator."""
    found = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            if not inspect.isgeneratorfunction(value):
                found.append((module, attr, value, attr))
        elif isinstance(value, type):
            for name, member in vars(value).items():
                if name.startswith("_") and name != "__contains__":
                    continue
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if isinstance(fn, types.FunctionType) and not inspect.isgeneratorfunction(fn):
                    found.append((value, name, member, name.strip("_")))
    return found


def install_spans(tracer: Tracer, modules: dict[str, object], namespaces, keep, hooks) -> None:
    """Wrap the public callables of modules (short name -> module) for which
    keep(owner, span name) holds in a span named ``<short>.<function>``.
    hooks maps a span name to a callback run on each result."""
    for short, module in modules.items():
        for owner, attr, member, name in public_callables(module):
            span_name = f"{short}.{name}"
            if not keep(owner, span_name):
                continue
            hook = hooks.get(span_name)
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(tracer.spanned(span_name, member.__func__, hook))
                tracer.patch(owner, attr, wrapped)
            elif isinstance(owner, type):
                tracer.patch(owner, attr, tracer.spanned(span_name, member, hook))
            else:
                tracer.patch_everywhere(namespaces, member, tracer.spanned(span_name, member, hook))
