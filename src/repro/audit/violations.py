"""Violation records and the strict-mode exception."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Violation", "InvariantViolation"]


@dataclass(slots=True, frozen=True)
class Violation:
    """One detected invariant breach.

    ``kind`` is a stable machine-readable tag (the invariant catalogue in
    ``docs/ARCHITECTURE.md`` lists them all); ``time`` is the simulation
    clock when the breach was observed.
    """

    kind: str
    time: float
    message: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time, "message": self.message}


@dataclass(eq=False)
class InvariantViolation(Exception):
    """Raised at audit level ``strict`` on the first detected breach.

    Carries the violation and a bounded ring buffer of the most recently
    dispatched events (oldest first) so the failure is debuggable without
    re-running: the breach is almost always caused by one of them.

    Neither frozen nor slotted: ``contextlib`` assigns ``__traceback__``
    to an exception leaving a ``@contextmanager`` block, and pickling (a
    campaign worker's exception reaching the parent) restores fields
    from the instance ``__dict__``.
    """

    violation: Violation
    recent_events: tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        lines = [
            f"invariant violated [{self.violation.kind}] at "
            f"t={self.violation.time:.3f}: {self.violation.message}"
        ]
        if self.recent_events:
            lines.append(f"last {len(self.recent_events)} events dispatched:")
            lines.extend(f"  {entry}" for entry in self.recent_events)
        return "\n".join(lines)
