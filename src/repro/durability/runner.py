"""Crash-safe execution of a cluster-engine run.

:class:`DurableRunner` drives a :class:`~repro.experiments.engine.ClusterEngine`
through its ``start → advance → finalize`` phases in bounded event
batches, snapshotting the full run state (:mod:`repro.durability.state`)
whenever a wall-clock or event-count trigger fires, and snapshot-then-exit
on SIGINT/SIGTERM.  A SIGKILLed run loses at most the work since its last
snapshot; :meth:`DurableRunner.resume` verifies and restores the latest
snapshot and continues to a final result that is bit-identical to an
uninterrupted run: Algorithm 1 charges a fixed cost per scored policy,
so no scheduling decision depends on the host's clock.

On success the store's manifest is marked ``completed`` and carries the
final :class:`~repro.experiments.engine.ExperimentResult`, so resuming an
already-finished run re-reports the stored result instead of failing.
"""

from __future__ import annotations

import dataclasses
import signal
import time
from typing import TYPE_CHECKING, Callable

from repro.durability.snapshot import (
    RecoveryReport,
    SnapshotConfig,
    SnapshotInfo,
    SnapshotStore,
)
from repro.durability.state import CompletedRun, RunState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.engine import ClusterEngine, ExperimentResult

__all__ = ["DurableRunner", "RunInterrupted"]

#: Signals that trigger a snapshot-and-clean-exit.
_STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class RunInterrupted(RuntimeError):
    """The run was stopped by a signal after snapshotting cleanly."""

    def __init__(self, signum: int, info: SnapshotInfo) -> None:
        name = signal.Signals(signum).name
        super().__init__(
            f"run interrupted by {name}; state snapshotted "
            f"(sequence {info.sequence}, t={info.sim_time:.0f}s, "
            f"{info.events_processed} events)"
        )
        self.signum = signum
        self.info = info


class DurableRunner:
    """Runs an engine with periodic snapshots and graceful interruption."""

    #: Events processed between signal/trigger checks; small enough that a
    #: SIGTERM turns into a snapshot within milliseconds, large enough to
    #: keep trigger-check overhead invisible.
    CHECK_EVERY = 128

    def __init__(
        self,
        engine: "ClusterEngine",
        config: SnapshotConfig,
        on_snapshot: Callable[[SnapshotInfo], None] | None = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.store = SnapshotStore(config)
        # Startup sweep: a crash mid-``atomic_write`` leaves ``.tmp``
        # debris behind; clear it before this run adds its own files.
        self.store.sweep_debris()
        self.on_snapshot = on_snapshot
        self.snapshots_written = 0
        self.resumed_from: SnapshotInfo | None = None
        #: How :meth:`resume` found its snapshot (``None`` for fresh runs);
        #: folded into the result export when recovery had to fall back
        #: past a corrupted generation.
        self.recovery: RecoveryReport | None = None
        self._completed_result: "ExperimentResult | None" = None
        self._sequence = 1
        self._stop_signum: int | None = None
        self._old_handlers: dict[int, object] = {}
        self._last_snap_wall = time.monotonic()
        self._last_snap_events = engine.sim.events_processed

    # -- resume -------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        config: SnapshotConfig,
        on_snapshot: Callable[[SnapshotInfo], None] | None = None,
    ) -> "DurableRunner":
        """Restore the latest verified snapshot from ``config.directory``."""
        store = SnapshotStore(config)
        state, info = store.load_latest()
        if isinstance(state, CompletedRun):
            # The interrupted process actually finished; nothing to re-run.
            runner = cls.__new__(cls)
            runner.engine = None  # type: ignore[assignment]
            runner.config = config
            runner.store = store
            runner.on_snapshot = on_snapshot
            runner.snapshots_written = 0
            runner.resumed_from = info
            runner.recovery = store.last_recovery
            runner._completed_result = state.result
            runner._sequence = info.sequence + 1
            runner._stop_signum = None
            runner._old_handlers = {}
            runner._last_snap_wall = time.monotonic()
            runner._last_snap_events = 0
            return runner
        if not isinstance(state, RunState):
            raise TypeError(
                f"snapshot holds {type(state).__name__}, not a RunState"
            )
        engine = state.restore()
        runner = cls(engine, config, on_snapshot)
        runner.resumed_from = info
        runner.recovery = store.last_recovery
        runner._sequence = info.sequence + 1
        runner._last_snap_events = engine.sim.events_processed
        return runner

    # -- running ------------------------------------------------------------

    def run(self) -> "ExperimentResult":
        """Run (or continue) the engine to completion, snapshotting as
        configured.

        Raises
        ------
        RunInterrupted
            On SIGINT/SIGTERM, after writing a clean resumable snapshot.
        """
        if self._completed_result is not None:
            return self._attach_recovery(self._completed_result)
        engine = self.engine
        if not engine._started:
            engine.start()
        self._install_signal_handlers()
        try:
            while True:
                more = engine.advance(max_events=self._next_batch())
                if self._stop_signum is not None:
                    info = self._snapshot()
                    raise RunInterrupted(self._stop_signum, info)
                if more and self._snapshot_due():
                    self._snapshot()
                if not more:
                    break
            result = engine.finalize()
        finally:
            self._restore_signal_handlers()
        self.store.write(
            CompletedRun(result=result),
            sequence=self._sequence,
            sim_time=engine.sim.now,
            events_processed=engine.sim.events_processed,
            completed=True,
        )
        self._completed_result = result
        return self._attach_recovery(result)

    def request_stop(self, signum: int = signal.SIGINT) -> None:
        """Ask the run loop to snapshot and stop (what the signal handler
        does; public for tests and embedding)."""
        self._stop_signum = int(signum)

    def _attach_recovery(self, result: "ExperimentResult") -> "ExperimentResult":
        """Fold a *fallback* recovery into the result (and its export).

        A clean resume attaches nothing, keeping resumed exports
        bit-identical to uninterrupted ones; only a resume that had to
        skip corrupted generations is recorded.
        """
        if self.recovery is None or not self.recovery.fallback:
            return result
        if getattr(result, "recovery", None) is not None:
            return result  # already carries an (older) recovery report
        return dataclasses.replace(result, recovery=self.recovery.to_dict())

    # -- internals ----------------------------------------------------------

    def _next_batch(self) -> int:
        batch = self.CHECK_EVERY
        if self.config.every_events is not None:
            processed = self.engine.sim.events_processed
            until_due = (
                self._last_snap_events + self.config.every_events - processed
            )
            batch = min(batch, max(1, until_due))
        return batch

    def _snapshot_due(self) -> bool:
        if self.config.every_events is not None:
            due_events = self._last_snap_events + self.config.every_events
            if self.engine.sim.events_processed >= due_events:
                return True
        if self.config.interval_seconds is not None:
            if time.monotonic() - self._last_snap_wall >= self.config.interval_seconds:
                return True
        return False

    def _snapshot(self) -> SnapshotInfo:
        engine = self.engine
        state = RunState.capture(engine)
        info = self.store.write(
            state,
            sequence=self._sequence,
            sim_time=engine.sim.now,
            events_processed=engine.sim.events_processed,
        )
        self._sequence += 1
        self.snapshots_written += 1
        self._last_snap_wall = time.monotonic()
        self._last_snap_events = engine.sim.events_processed
        if self.on_snapshot is not None:
            self.on_snapshot(info)
        return info

    def _install_signal_handlers(self) -> None:
        def handler(signum: int, frame: object) -> None:
            self._stop_signum = signum

        for sig in _STOP_SIGNALS:
            try:
                self._old_handlers[int(sig)] = signal.signal(sig, handler)
            except ValueError:  # pragma: no cover - non-main thread
                pass

    def _restore_signal_handlers(self) -> None:
        for signum, old in self._old_handlers.items():
            try:
                signal.signal(signum, old)  # type: ignore[arg-type]
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._old_handlers.clear()
