"""Event queue and simulation loop.

The kernel is deliberately minimal: a binary-heap :class:`EventQueue` with
lazy cancellation, and a :class:`Simulator` that pops events in timestamp
order and dispatches them to registered handlers.  Handlers may schedule
further events; time never flows backwards.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Iterator

from repro.sim.events import Event, EventKind

__all__ = ["EventQueue", "Simulator"]

Handler = Callable[["Simulator", Event], None]


class EventQueue:
    """A time-ordered priority queue of :class:`Event` objects.

    Heap entries are ``(time, priority, seq, event)`` tuples: the order
    key of :meth:`Event.sort_key`, taken once at push, leads, so sifting
    compares floats and ints in C.  ``seq`` is unique, so a comparison
    never reaches the event itself.

    Cancellation is lazy: :meth:`Event.cancel` marks the event, and the
    queue silently discards cancelled entries when they surface.  A live
    counter (maintained on push/pop/cancel/clear via the event's back
    reference) keeps ``len()`` and truthiness O(1) even with millions of
    lazily cancelled entries in the heap.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events. O(1)."""
        return self._live

    def __bool__(self) -> bool:
        """True if any live event remains."""
        return self._live > 0

    def _note_cancelled(self) -> None:
        """Callback from :meth:`Event.cancel` on an event this queue holds."""
        self._live -= 1

    def push(self, event: Event) -> Event:
        """Insert *event* and return it (for later cancellation)."""
        if event.cancelled:
            raise ValueError("cannot push a cancelled event")
        if event.owner is not None and event.owner is not self:
            raise ValueError("event already belongs to another queue")
        event.owner = self
        heapq.heappush(self._heap, (*event.sort_key(), event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest live event.

        Raises
        ------
        IndexError
            If the queue holds no live events.
        """
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            event.owner = None
            if not event.cancelled:
                self._live -= 1
                return event
        raise IndexError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Timestamp of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)[3].owner = None
        return self._heap[0][0] if self._heap else None

    def cancel(self, event: Event) -> None:
        """Cancel *event*; equivalent to ``event.cancel()`` (kept for API
        symmetry — cancellation is lazy either way)."""
        event.cancel()

    def clear(self) -> None:
        for _, _, _, event in self._heap:
            event.owner = None
        self._heap.clear()
        self._live = 0

    def drain(self) -> Iterator[Event]:
        """Pop every live event in order (useful in tests)."""
        while self:
            yield self.pop()


class Simulator:
    """The discrete-event simulation loop.

    Handlers are registered per :class:`EventKind`; unhandled kinds raise,
    which turns silently dropped events (a classic DES bug) into loud
    failures.

    Examples
    --------
    >>> sim = Simulator()
    >>> seen = []
    >>> sim.on(EventKind.GENERIC, lambda s, e: seen.append((s.now, e.payload)))
    >>> _ = sim.schedule(Event(5.0, payload="hi"))
    >>> sim.run()
    >>> seen
    [(5.0, 'hi')]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.now = float(start_time)
        self.queue = EventQueue()
        self._handlers: dict[EventKind, Handler] = {}
        self.events_processed = 0
        #: Optional pre-dispatch observation hook: called with
        #: ``(simulator, event)`` for every popped event *before* the
        #: clock advances and the handler runs, so the observer sees the
        #: previous timestamp in ``now`` and can audit delivery order.
        #: The audit layer installs its invariant monitor here; ``None``
        #: (the default) costs one attribute check per event.
        self.tracer: Handler | None = None
        #: Optional :class:`~repro.obs.profiler.Profiler`: when set,
        #: :meth:`step` times each handler dispatch into a per-event-kind
        #: span (``kernel.dispatch.<KIND>``).  ``None`` (the default)
        #: costs one attribute check per event and never reads a clock.
        self.profiler: Any | None = None

    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register *handler* for events of *kind* (one handler per kind)."""
        self._handlers[kind] = handler

    def schedule(self, event: Event) -> Event:
        """Schedule *event*; it must not lie in the simulated past."""
        if event.time < self.now:
            raise ValueError(
                f"cannot schedule event at {event.time} before current time {self.now}"
            )
        return self.queue.push(event)

    def schedule_at(
        self,
        time: float,
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
    ) -> Event:
        """Convenience wrapper building and scheduling an :class:`Event`."""
        return self.schedule(Event(time, kind, payload))

    def schedule_after(
        self,
        delay: float,
        kind: EventKind = EventKind.GENERIC,
        payload: Any = None,
    ) -> Event:
        """Schedule an event *delay* seconds from the current time."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, kind, payload)

    def step(self) -> Event | None:
        """Process a single event; return it, or ``None`` if the queue is empty."""
        if not self.queue:
            return None
        event = self.queue.pop()
        if self.tracer is not None:
            self.tracer(self, event)
        self.now = event.time
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise RuntimeError(f"no handler registered for event kind {event.kind!r}")
        if self.profiler is None:
            handler(self, event)
        else:
            begin = time.perf_counter()
            handler(self, event)
            self.profiler.add(
                f"kernel.dispatch.{event.kind.name}",
                time.perf_counter() - begin,
            )
        self.events_processed += 1
        return event

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *max_events*.

        ``until`` is inclusive: events stamped exactly ``until`` still run.
        When the run stops because of ``until``, the clock is advanced to
        ``until`` so post-run measurements see a consistent end time.
        """
        processed = 0
        if until is None:
            # Unbounded run: no deadline to compare against, so skip the
            # per-event peek (pop performs the same lazy-cancel cleanup).
            while self.queue:
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
            return
        while self.queue:
            next_time = self.queue.peek_time()
            if next_time is not None and next_time > until:
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        if self.now < until:
            self.now = until
