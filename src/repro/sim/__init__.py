"""Discrete-event simulation kernel.

This subpackage is the substrate the paper's DGSim-based evaluation relies
on.  It provides a minimal, fast, dependency-free event engine:

* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventKind` —
  timestamped, totally ordered simulation events.
* :class:`~repro.sim.kernel.EventQueue` — a binary-heap priority queue with
  stable tie-breaking and lazy cancellation.
* :class:`~repro.sim.kernel.Simulator` — the event loop (schedule /
  run-until / step).
* :mod:`~repro.sim.rng` — seeded, stream-splittable random number helpers.
"""

from repro.sim.events import Event, EventKind
from repro.sim.kernel import EventQueue, Simulator
from repro.sim.rng import RngFactory, make_rng

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "RngFactory",
    "Simulator",
    "make_rng",
]
