"""Lightweight span profiling for the simulation hot paths.

A :class:`Profiler` aggregates count / total / max wall seconds per span
name — no per-call records, no sampling, just three floats per span, so
instrumenting the kernel's per-event dispatch stays cheap.  Spans can be
opened three ways:

* explicitly: ``profiler.add("name", seconds)`` with caller-side timing
  (what the kernel and selector do — one ``perf_counter`` pair, no
  context-manager overhead on the hottest path);
* as a context manager: ``with profiler.span("name"): ...``;
* as a decorator: ``@profiled("name")`` on a method of an object that
  carries a ``profiler`` attribute — a no-op (zero timing calls) when
  the attribute is absent or ``None``.

Worker merge: a parallel campaign measures each cell's run wall inside
its worker process and merges it back with :meth:`Profiler.add`, so one
parent profiler sees the whole fan-out.

Profilers hold only plain dicts and floats: they pickle inside
durability snapshots, and a resumed run keeps accumulating into the
restored stats.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = ["SpanStats", "Profiler", "profiled"]


@dataclass(slots=True)
class SpanStats:
    """Aggregate of one span name."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def to_dict(self) -> dict:
        return {"count": self.count, "total": self.total, "max": self.max}


class Profiler:
    """Aggregates span timings; see the module docstring."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}

    def add(self, name: str, seconds: float) -> None:
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.add(seconds)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        begin = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - begin)

    def snapshot(self) -> dict[str, dict]:
        """JSON-safe copy of all span stats."""
        return {name: s.to_dict() for name, s in sorted(self.spans.items())}

    def top(self, n: int = 5) -> list[tuple[str, SpanStats]]:
        """The *n* spans with the largest total time, descending."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1].total)
        return ranked[:n]


def profiled(name: str | None = None) -> Callable:
    """Decorator form of the span hook.

    Instruments a *method* whose instance carries a ``profiler``
    attribute; when the attribute is missing or ``None`` the call runs
    untimed (two attribute lookups of overhead, no clock reads).
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            profiler = getattr(args[0], "profiler", None) if args else None
            if profiler is None:
                return fn(*args, **kwargs)
            begin = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.add(label, time.perf_counter() - begin)

        return wrapper

    return decorate
