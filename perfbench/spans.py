"""In-memory span tracing by wrapping public functions from outside.

A :class:`Tracer` replaces ``module.attr`` with a wrapper that records a
span (name, start, end, parent) around each call and, optionally, counts
taken from the call's arguments and result.  The wrappers sit at the names
where the program binds the functions, so the spans nest the way the
program calls them.  Leaving the ``with`` block restores every original.

Spans opened in a thread with no open span of its own take the tracer's
root span as parent, so work handed to a thread pool still counts against
the call that started it.  A call that re-enters the name it is already
inside (a recursive function) records no nested span.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, dict, Any], dict[str, int]]


@dataclass(frozen=True)
class Probe:
    module: ModuleType
    attr: str
    name: str
    count: Counter | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class MissingName(Exception):
    """A probe names a function the program no longer binds there."""


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._saved: list[tuple[ModuleType, str, Any]] = []

    # -- installation --------------------------------------------------------------

    def __enter__(self) -> Tracer:
        for probe in self.probes:
            if not callable(getattr(probe.module, probe.attr, None)):
                self._restore()
                raise MissingName(f"{probe.module.__name__}.{probe.attr} is not a function")
            original = getattr(probe.module, probe.attr)
            self._saved.append((probe.module, probe.attr, original))
            setattr(probe.module, probe.attr, self._wrap(probe, original))
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, probe: Probe, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            if stack and self.spans[stack[-1]].name == probe.name:
                return fn(*args, **kwargs)
            with self.span(probe.name):
                result = fn(*args, **kwargs)
            if probe.count is not None:
                self.add(probe.count(args, kwargs, result))
            return result

        return wrapper

    # -- recording -------------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def add(self, counts: dict[str, int]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            if self._root is None and not stack:
                self._root = index
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()
        if index == self._root:
            self._root = None

    # -- reading -----------------------------------------------------------------------

    def names(self) -> set[str]:
        return {s.name for s in self.spans}

    def busy(self, *names: str) -> float:
        """Wall time during which at least one span of ``names`` was open."""
        return _union([(s.start, s.end) for s in self.spans if s.name in names])

    def busy_within(self, name: str, parent: str) -> float:
        """Busy time of the ``name`` spans whose parent span is ``parent``."""
        return _union([
            (s.start, s.end) for s in self.spans
            if s.name == name and s.parent is not None and self.spans[s.parent].name == parent
        ])

    def self_time(self, *names: str) -> float:
        """Busy time of ``names`` minus the part of it their child spans cover."""
        own = {i for i, s in enumerate(self.spans) if s.name in names}
        total = _union([(self.spans[i].start, self.spans[i].end) for i in own])
        children = [(s.start, s.end) for s in self.spans if s.parent in own and s.name not in names]
        return total - _union(children)


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
