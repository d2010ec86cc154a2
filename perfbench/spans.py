"""Span tracing installed from outside the program.

``install`` replaces each traced function by a wrapper in every
``scholarparse`` module namespace that holds it, which is where its callers
look it up: ``scholarparse.pipeline.extract_title``,
``scholarparse.metadata.viterbi_decode``, ``scholarparse.crf.forward_backward``
(called from ``log_likelihood_and_gradient`` in the same module), and the
task table ``scholarparse.training._BUILDERS``.  A function that no longer
exists is recorded as absent and the run goes on.  Spans are kept in memory
in start order, so a span's parent always precedes it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str  # "<module>.<function>", or "bench.<what>" for the benchmark's own
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a root
    doc: str = ""
    error: str = ""  # class name of the exception the call raised
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to trace; ``measure(args, kwargs, result)`` adds attrs."""

    module: str
    function: str
    measure: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.doc = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               doc=self.doc))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def finish(self, index: int, error: str = "") -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.error = error
        self._open.pop()
        return span

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.finish(index, type(exc).__name__)
                raise
            span = tracer.finish(index)
            if measure is not None:
                span.attrs = measure(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer, package: str, targets) -> Callable[[], None]:
    """Trace ``targets`` in the loaded modules of ``package``.

    Returns a function that puts every original function back.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    undo = []
    for target in targets:
        module = sys.modules.get(f"{package}.{target.module}")
        fn = getattr(module, target.function, None)
        if not callable(fn):
            tracer.absent.append(target.name)
            continue
        traced = tracer.wrap(target.name, fn, target.measure)
        for mod in modules:
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    namespace[key] = traced
                    undo.append((namespace, key, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, tuple) and any(x is fn for x in v):
                            value[k] = tuple(traced if x is fn else x for x in v)
                            undo.append((value, k, v))

    def uninstall():
        for mapping, key, original in reversed(undo):
            mapping[key] = original

    return uninstall


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(span)
    return [span.duration - covered_length(
                (max(c.start, span.start), min(c.end, span.end))
                for c in children[i])
            for i, span in enumerate(spans)]


def ancestors_named(spans: list[Span], name: str) -> list[int]:
    """Per span, the index of its nearest enclosing span called ``name``
    (itself included), or -1."""
    out = []
    for i, span in enumerate(spans):
        if span.name == name:
            out.append(i)
        else:
            out.append(out[span.parent] if span.parent >= 0 else -1)
    return out
