"""Chaos soak: scripted kill → corrupt → resume cycles under strict audit.

The soak harness answers the question the unit tests cannot: does the
*whole* platform — engine, durability, recovery ladder, auditing,
export — survive repeated environment violence and still produce the
same answer?  One soak:

1. runs the experiment once, unfaulted, and keeps its JSON export as the
   reference;
2. then runs the same experiment durably, and for ``cycles`` rounds:
   lets it write two snapshots, interrupts it (the snapshot-and-exit
   path), **corrupts the newest snapshot payload** (one seeded byte
   flip), and resumes — forcing the recovery ladder to fall back to the
   older generation every round;
3. lets the final round run to completion and diffs its export against
   the reference, ignoring only the ``recovery`` key (the one field
   whose presence is the point).

Runtime invariant auditing is forced to ``strict`` for both runs, so a
single inconsistency introduced by recovery aborts the soak loudly.
An optional :class:`~repro.chaos.plan.FaultPlan` is installed around the
faulted runs for extra write-path noise (tracer/cell-cache faults
degrade; snapshot-write faults will abort the run — a soak plan should
target the degradable sites).

Everything is seeded: the same :class:`SoakSpec` replays the same soak,
byte for byte.
"""

from __future__ import annotations

import signal
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.audit import AuditConfig
from repro.chaos.plan import FaultPlan
from repro.cloud.provider import ProviderConfig
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.durability import DurableRunner, RunInterrupted, SnapshotConfig
from repro.durability.snapshot import SnapshotStore
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.policies.combined import policy_by_name
from repro.predict.simple import OraclePredictor
from repro.workload.synthetic import TRACES, generate_trace

__all__ = ["SoakSpec", "SoakReport", "build_engine", "run_soak"]

_TRACES_BY_NAME = {spec.name: spec for spec in TRACES}


@dataclass(slots=True, frozen=True)
class SoakSpec:
    """One reproducible soak configuration.

    ``policy`` is ``"portfolio"`` (Algorithm 1, whose fixed per-score
    charge lets resumes replay bit-identically) or a fixed portfolio
    member name.  ``plan`` optionally rides along as extra
    write-path fault noise during the faulted runs.
    """

    model: str = "KTH-SP2"
    hours: float = 6.0
    seed: int = 42
    policy: str = "portfolio"
    cycles: int = 3
    every_events: int = 500
    chaos_seed: int = 0
    max_vms: int = 64
    plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.model not in _TRACES_BY_NAME:
            raise ValueError(
                f"unknown trace {self.model!r}; pick from "
                f"{sorted(_TRACES_BY_NAME)}"
            )
        if self.hours <= 0:
            raise ValueError(f"hours must be positive, got {self.hours}")
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.every_events < 1:
            raise ValueError(
                f"every_events must be >= 1, got {self.every_events}"
            )


@dataclass(slots=True)
class SoakReport:
    """What a soak did and whether the platform held up."""

    cycles: int  # interrupt/resume rounds actually performed
    corruptions: int  # newest-payload byte flips applied
    fallbacks: int  # resumes that had to fall back a generation
    injected: list = field(default_factory=list)  # plan faults delivered
    identical: bool = False  # final export == reference (minus recovery)
    recovery: dict | None = None  # last fallback's RecoveryReport
    reference: dict = field(default_factory=dict)
    final: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Survived: at least one interrupt/resume cycle actually ran,
        exports match, and every corruption forced (and was survived by)
        a generation fallback.  ``cycles == 0`` means the run finished
        before the first interruption — the soak proved nothing, which
        is a configuration problem (``every_events`` too large for the
        trace), not a pass."""
        return (
            self.cycles > 0
            and self.identical
            and self.fallbacks == self.corruptions
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cycles": self.cycles,
            "corruptions": self.corruptions,
            "fallbacks": self.fallbacks,
            "identical": self.identical,
            "injected": [list(entry) for entry in self.injected],
            "recovery": self.recovery,
            "reference": self.reference,
            "final": self.final,
        }


def build_engine(spec: SoakSpec) -> ClusterEngine:
    """A fresh, deterministic, strictly audited engine for *spec*."""
    trace_spec = _TRACES_BY_NAME[spec.model]
    jobs = generate_trace(trace_spec, spec.hours * 3_600.0, spec.seed)
    if not jobs:
        raise ValueError(
            f"soak trace {spec.model} is empty at {spec.hours:g}h/seed "
            f"{spec.seed}"
        )
    config = EngineConfig(
        provider=ProviderConfig(max_vms=spec.max_vms),
        audit=AuditConfig(level="strict"),
    )
    if spec.policy == "portfolio":
        scheduler = PortfolioScheduler(seed=7)
    else:
        scheduler = FixedScheduler(policy_by_name(spec.policy))
    return ClusterEngine(jobs, scheduler, OraclePredictor(), config)


def _corrupt_newest(store: SnapshotStore, rng: np.random.Generator) -> bool:
    """Flip one seeded byte of the payload the manifest points at.

    Skipped (returns False) unless an older generation is retained —
    corrupting the *only* generation would turn the soak into an
    unrecoverable-loss test, which is a different test.
    """
    generations = store.generations()
    if len(generations) < 2:
        return False
    newest = generations[0]
    path = store.directory / newest.payload
    try:
        data = bytearray(path.read_bytes())
    except OSError:
        return False
    if not data:
        return False
    index = int(rng.integers(0, len(data)))
    data[index] ^= 0xFF
    path.write_bytes(bytes(data))
    return True


def run_soak(
    spec: SoakSpec, directory: "str | Path | None" = None
) -> SoakReport:
    """Execute one soak (see module docstring); returns its report.

    *directory* holds the snapshots (a temporary directory by default).
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
            return run_soak(spec, tmp)

    reference = result_to_dict(build_engine(spec).run())

    snap_cfg = SnapshotConfig(
        directory,
        interval_seconds=None,
        every_events=spec.every_events,
        keep=2,
    )
    rng = np.random.default_rng(
        np.random.SeedSequence([spec.chaos_seed, 0x50AC])
    )
    injector = spec.plan.injector() if spec.plan is not None else None
    report = SoakReport(cycles=0, corruptions=0, fallbacks=0)

    runner = DurableRunner(build_engine(spec), snap_cfg)
    result = None
    while True:
        if report.cycles < spec.cycles:
            _stop_after(runner, snapshots=2)
        try:
            if injector is not None:
                with injector:
                    result = runner.run()
            else:
                result = runner.run()
        except RunInterrupted:
            pass
        else:
            break
        report.cycles += 1
        if _corrupt_newest(runner.store, rng):
            report.corruptions += 1
        runner = DurableRunner.resume(snap_cfg)
        if runner.recovery is not None and runner.recovery.fallback:
            report.fallbacks += 1
            report.recovery = runner.recovery.to_dict()

    if injector is not None:
        report.injected = list(injector.injected)
    final = result_to_dict(result)
    report.final = dict(final)
    final.pop("recovery", None)
    report.identical = final == reference
    report.reference = reference
    return report


def _stop_after(runner: DurableRunner, snapshots: int) -> None:
    """Arm *runner* to snapshot-and-exit after *snapshots* more snapshots
    (two generations must exist before the soak corrupts the newest, or
    the corruption would be unrecoverable)."""
    remaining = snapshots

    def on_snapshot(_info) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining <= 0:
            runner.request_stop(signal.SIGTERM)

    runner.on_snapshot = on_snapshot
