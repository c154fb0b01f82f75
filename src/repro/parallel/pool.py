"""The worker pool: one persistent, spawn-safe process pool.

Campaign fan-out (:mod:`repro.parallel.campaign`) draws its workers
from the process-global pool managed here, unless it asks for a
dedicated one (``Campaign(fresh_pool=True)``).

Design points:

* **Spawn context.**  Workers are started with the ``spawn`` method even
  on platforms whose default is ``fork``: the simulator holds live numpy
  RNGs, open benchmark fixtures, and (in tests) pytest state that must
  not be inherited mid-flight.  A spawned worker imports :mod:`repro`
  fresh and receives every task argument by pickle, which is exactly the
  determinism contract the rest of this repository already relies on.
* **Persistence.**  The pool is created lazily on first use, survives
  across campaigns (amortising the interpreter start-up cost), and is
  torn down from an ``atexit`` hook.
* **Crash containment.**  A worker death poisons the underlying
  :class:`~concurrent.futures.ProcessPoolExecutor`
  (:class:`~concurrent.futures.process.BrokenProcessPool`); callers
  invoke :func:`reset_pool` to discard the broken executor and respawn.
  Completed futures keep their results, so only unfinished work is
  re-submitted by the caller.
* **Hang containment.**  A *stopped* worker (``SIGSTOP``, hardware
  stall, livelock) is worse than a dead one: it never poisons the
  executor, its futures never resolve, and a plain
  ``shutdown(wait=True)`` — including the interpreter's own atexit
  joins — blocks forever.  :meth:`WorkerPool.shutdown` therefore bounds
  its wait and escalates to ``SIGKILL`` (which terminates even stopped
  processes); :meth:`WorkerPool.kill_workers` gives watchdogs the same
  hammer directly.
* **Ctrl-C.**  Workers ignore ``SIGINT``; the main process owns
  interrupt handling and cancels or abandons outstanding futures.

Chaos: every :meth:`WorkerPool.submit` consults the
``pool.task`` fault point (:mod:`repro.chaos.hooks`); a scheduled
``kill``/``stop`` action makes the worker SIGKILL/SIGSTOP *itself* on
task entry, which is how the test suite manufactures dead and hung
workers deterministically.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

from repro.chaos.hooks import task_action

__all__ = ["WorkerPool", "get_pool", "reset_pool", "shutdown_pool"]


def _init_worker() -> None:  # pragma: no cover - runs in the child process
    """Worker initialiser: leave SIGINT to the parent.

    On Ctrl-C the terminal delivers SIGINT to the whole foreground
    process group; ignoring it in workers lets the main process decide
    (cancel, snapshot, re-raise) without workers dying mid-cell and
    masquerading as crashes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _chaos_task(action: str, fn, args: tuple, kwargs: dict):
    """Worker-side wrapper applying a scheduled chaos action, then the task.

    ``kill`` never returns; ``stop`` parks the worker until someone sends
    ``SIGCONT`` (or, in practice, until a watchdog SIGKILLs it)."""
    if action == "kill":  # pragma: no cover - dies before coverage flushes
        os.kill(os.getpid(), signal.SIGKILL)
    elif action == "stop":  # pragma: no cover - stopped before flushes
        os.kill(os.getpid(), signal.SIGSTOP)
    return fn(*args, **kwargs)


class WorkerPool:
    """A lazily created, respawnable spawn-context process pool."""

    #: Grace a bounded shutdown grants workers before the SIGKILL sweep.
    SHUTDOWN_GRACE = 5.0

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self._executor: ProcessPoolExecutor | None = None
        # Guards the executor handoff in reset()/shutdown(): the atexit
        # hook, an explicit teardown, and a watchdog can all race to tear
        # the pool down, and exactly one of them may own (and join) the
        # executor — the rest must see None and return, never double-join.
        self._teardown_lock = threading.Lock()

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            with self._teardown_lock:
                if self._executor is None:
                    self._executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("spawn"),
                        initializer=_init_worker,
                    )
        return self._executor

    def submit(self, fn, /, *args, **kwargs) -> Future:
        # The chaos decision is made here, in the parent (where the
        # injector lives); only the resulting action ships to the worker.
        action = task_action("pool.task")
        if action is not None:
            return self.executor.submit(_chaos_task, action, fn, args, kwargs)
        return self.executor.submit(fn, *args, **kwargs)

    def processes(self) -> list:
        """Live handles of the executor's worker processes (may be empty)."""
        executor = self._executor
        if executor is None:
            return []
        # Private, but the only handle the stdlib offers; guarded so a
        # future stdlib rename degrades to "no processes found" rather
        # than an AttributeError inside a watchdog.
        procs = getattr(executor, "_processes", None) or {}
        return list(procs.values())

    def kill_workers(self) -> int:
        """SIGKILL every worker process and discard the executor.

        SIGKILL terminates even SIGSTOPped processes, so this is the one
        reliable way to reap a *hung* (as opposed to dead) worker.  The
        next :meth:`submit` respawns a fresh pool.  Returns the number of
        processes signalled."""
        procs = self.processes()
        signalled = 0
        for proc in procs:
            try:
                if proc.is_alive():
                    os.kill(proc.pid, signal.SIGKILL)
                    signalled += 1
            except (ProcessLookupError, ValueError, OSError):
                pass  # already reaped, or closed handle
        self.reset()
        for proc in procs:
            proc.join(timeout=self.SHUTDOWN_GRACE)
        return signalled

    def reset(self) -> None:
        """Discard the (typically broken) executor; the next submit respawns.

        Idempotent and safe under concurrent callers: only the caller
        that wins the executor handoff shuts it down."""
        with self._teardown_lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            # A broken executor's shutdown is instant; a healthy one is
            # drained without waiting so reset never blocks on stuck work.
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self, timeout: float | None = SHUTDOWN_GRACE) -> None:
        """Tear the pool down, waiting at most *timeout* seconds.

        ``shutdown(wait=True)`` on an executor with a stopped worker
        blocks forever, which used to deadlock atexit teardown and any
        test calling :func:`shutdown_pool`.  Instead: cancel queued work,
        give workers *timeout* seconds to drain, then SIGKILL stragglers.
        ``timeout=None`` restores the unbounded wait.

        Idempotent: a second (or concurrent) caller — the atexit hook
        racing an explicit teardown, say — finds ``_executor`` already
        handed off and returns without joining anything twice."""
        with self._teardown_lock:
            executor = self._executor
            self._executor = None
        if executor is None:
            return
        if timeout is None:
            executor.shutdown(wait=True, cancel_futures=True)
            return
        procs = list((getattr(executor, "_processes", None) or {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        stragglers = [p for p in procs if p.is_alive()]
        for proc in stragglers:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, ValueError, OSError):
                pass
        for proc in stragglers:
            proc.join(timeout=self.SHUTDOWN_GRACE)


_pool: WorkerPool | None = None
_pool_lock = threading.Lock()


def get_pool(workers: int) -> WorkerPool:
    """The process-global pool, grown (never shrunk) to *workers*.

    Growing requires a respawn; campaigns tolerate that because they
    only hold a pool reference for the duration of one batch and
    re-fetch it afterwards."""
    global _pool
    outgrown = None
    with _pool_lock:
        if _pool is None:
            _pool = WorkerPool(workers)
        elif _pool.workers < workers:
            outgrown = _pool
            _pool = WorkerPool(workers)
        pool = _pool
    # Joining the outgrown pool happens outside the lock so a slow drain
    # cannot block other callers from reaching the fresh pool.
    if outgrown is not None:
        outgrown.shutdown()
    return pool


def reset_pool() -> None:
    """Respawn the global pool after a worker death poisoned it.

    Idempotent: WorkerPool.reset() hands the executor off under a lock,
    so concurrent resets (or a reset racing the atexit shutdown) cannot
    double-join workers."""
    with _pool_lock:
        pool = _pool
    if pool is not None:
        pool.reset()


def shutdown_pool() -> None:
    """Tear the global pool down (atexit, and tests that want isolation).

    Safe to call twice — the atexit hook and an explicit teardown both
    land here, and only the first finds a pool to join."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown()


atexit.register(shutdown_pool)
