"""Span tracer for the ladderxx benchmark.

The library modules import each other by name (``from .core import
diagonalize``), so a call made inside ``ensemble_gap_ratio`` looks up
``ladderxx.levelstats.diagonalize``, not ``ladderxx.core.diagonalize``.
`Tracer` therefore rebinds every module global that refers to a traced
function, in every module it is given, and puts all bindings back when it
exits, also when a traced call raised.

A span records name, start, end, the index of its parent span, the name of
the exception that ended it (if any) and optional counts taken from the
call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable

Counter = Callable[[dict, object], dict]


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans around the public functions of `modules`.

    Every name in a module's ``__all__`` that is a function defined in that
    module is traced as ``<module short name>.<function>``; each entry of
    `constructors` (``(module, class name)``) is traced through the class's
    ``__init__`` as ``<module short name>.<class name>``. `counters` maps a
    span name to ``f(bound_arguments, result) -> dict`` whose counts are
    stored on the span.
    """

    def __init__(self, modules, constructors=(), counters: dict[str, Counter] | None = None):
        self.modules = list(modules)
        self.constructors = list(constructors)
        self.counters = counters or {}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; also used for the benchmark's own root spans."""
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = self.counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    span.counts = counter(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, IndexError) as exc:
                    # a changed result shape loses the counts, not the call
                    span.counts = {"counter_error": repr(exc)}
            return result

        return traced

    def _bind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for module in self.modules:
                short = module.__name__.rsplit(".", 1)[-1]
                for fname in module.__all__:
                    fn = getattr(module, fname)
                    if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                        continue
                    wrapper = self._wrap(f"{short}.{fname}", fn)
                    for caller in self.modules:
                        for attr, value in list(vars(caller).items()):
                            if value is fn:
                                self._bind(caller, attr, wrapper)
            for module, cname in self.constructors:
                cls = getattr(module, cname)
                short = module.__name__.rsplit(".", 1)[-1]
                self._bind(cls, "__init__", self._wrap(f"{short}.{cname}", cls.__init__))
        except BaseException:
            self._unbind()
            raise
        return self

    def _unbind(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc_info) -> None:
        self._unbind()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def busy_s(spans: list[Span], name: str) -> float:
    """Total time inside `name`, counting a call nested in another call of `name` once."""
    total = 0.0
    for s in spans:
        if s.name == name and not _inside(spans, s, name):
            total += s.duration
    return total


def self_s(spans: list[Span], name: str) -> float:
    """Time inside `name` not covered by its child spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    return sum(s.duration - child_time[i] for i, s in enumerate(spans) if s.name == name)


def calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def failed(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name and s.error is not None)


def max_call_s(spans: list[Span], name: str) -> float:
    return max((s.duration for s in spans if s.name == name), default=0.0)


def count_sum(spans: list[Span], name: str, key: str) -> float:
    return sum(s.counts.get(key, 0) for s in spans if s.name == name)


def count_max(spans: list[Span], name: str, key: str) -> float:
    return max((s.counts.get(key, 0.0) for s in spans if s.name == name), default=0.0)


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False
