"""Trace record schema.

Every record a :class:`~repro.obs.tracer.RunTracer` emits is one JSON
object per line with three envelope fields:

* ``v`` — the schema version (:data:`TRACE_SCHEMA`),
* ``seq`` — a per-run monotone record counter (resume-safe: a resumed
  run's tracer continues from the snapshotted counter, so sequence
  numbers never repeat within one trace file),
* ``kind`` — the record type (see below),
* ``t`` — the simulation time the record describes.

Record kinds
------------
``run_start``
    One per run segment: schema version, workload size, engine knobs,
    scheduler description, and whether this segment is a resume.
``round``
    One per scheduling round (engine tick with a non-empty queue):
    ``round`` (the tick index), queue/fleet gauges, and the applied
    policy.  When Algorithm 1 ran this round, a nested ``selection``
    object carries the budget Δ, the Δ seconds spent, every
    simulated policy's score and charged cost (quarantined evaluations
    flagged), how many of those scores a shared kernel run answered
    (``n_shared``), and the rebuilt Smart/Stale/Poor membership.
``vm``
    VM lifecycle: ``event`` is ``lease`` / ``ready`` / ``fail``.
``charge``
    A billing settlement booked into RV: the VM (``vm``), its charged
    seconds (``seconds``), whether it is reserved (``reserved``), and
    the settlement kind (``settlement``: ``terminate`` / ``preempt`` /
    ``straggler`` / ``reserved``).
``failover``
    The portfolio scheduler hit its quarantine cap and permanently
    switched to its safe policy.
``preempt``
    Spot preemption lifecycle (hostile-cloud extension): ``event`` is
    ``notice`` (grace window opens; carries ``kill_at``) or ``kill``
    (the provider reclaims the VM; carries its state and job).
``brownout``
    Control-plane brownout window: ``event`` is ``start`` (with
    ``until``) or ``end``.
``breaker``
    Provisioning circuit-breaker transition: ``state`` is ``open`` /
    ``half_open`` / ``closed``, with the consecutive-failure count and
    the cooldown deadline.
``profile``
    Final span statistics (present when profiling was on).
``run_end``
    Final metrics: RJ/RV/BSD/utility, unfinished jobs, end time.

Compatibility: readers must ignore unknown record kinds and unknown
fields; the schema version is bumped only when existing fields change
meaning.
"""

from __future__ import annotations

__all__ = ["TRACE_SCHEMA", "ROUND", "RUN_START", "RUN_END", "VM", "CHARGE",
           "FAILOVER", "PROFILE", "PREEMPT", "BROWNOUT", "BREAKER",
           "RECORD_KINDS"]

#: Bump only when the meaning of existing fields changes; adding fields
#: or kinds is backward compatible by construction.
TRACE_SCHEMA = 1

RUN_START = "run_start"
ROUND = "round"
VM = "vm"
CHARGE = "charge"
FAILOVER = "failover"
PROFILE = "profile"
RUN_END = "run_end"
PREEMPT = "preempt"
BROWNOUT = "brownout"
BREAKER = "breaker"

RECORD_KINDS = (RUN_START, ROUND, VM, CHARGE, FAILOVER, PROFILE, RUN_END,
                PREEMPT, BROWNOUT, BREAKER)
