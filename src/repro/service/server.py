"""The asyncio service: unix-socket API, group commit, drain, recovery.

One process, one event loop, one journal writer.  Requests are
newline-delimited JSON objects; every request gets exactly one JSON
response line.  The single-threaded loop is what makes the WAL
discipline trivial to honour: ``append → apply → group-flush → ack``
happens in program order with no locking, so journal order *is* apply
order and an acked submission is always on disk.

Operations::

    {"op": "ping"}
    {"op": "open", "tenant": "...", "budget": {...}?}
    {"op": "submit", "tenant": "...", "job": {"job_id", "runtime", "procs"}}
    {"op": "round"}                      # run one engine round now
    {"op": "stats"}                      # canonical state + journal view
    {"op": "metrics"}                    # Prometheus text
    {"op": "close", "tenant": "..."}
    {"op": "drain"}                      # graceful shutdown (acked first)

Lifecycle:

* **Startup** — sweep journal ``.tmp`` debris, truncate a torn journal
  tail, then climb the recovery ladder: restore the newest verified
  snapshot (if a snapshot dir is configured) and replay only the
  journal suffix past it, else replay the whole journal.
* **SIGTERM / SIGINT / ``drain``** — stop admissions, finish the round
  in flight, journal a ``drain`` record, flush, snapshot, exit with
  :data:`~repro.exit_codes.EX_DRAINED` (or
  :data:`~repro.exit_codes.EX_KILL_SWITCH` when the kill switch was
  engaged at drain time, so the operator knows capacity is still
  halted).
* **Kill switch** — the file at ``kill_switch_path`` is polled at every
  round; a toggle is *journaled* before it takes effect, which keeps
  replay bit-identical even across engage/clear cycles.
* **Journal failure** — appends are guarded by a circuit breaker
  (:class:`~repro.cloud.spot.CircuitBreaker`, its own RNG salt).  The
  two failure modes are deliberately distinct:

  - **Append failed** (I/O error or open breaker): nothing was written
    and nothing was applied, so the request is *shed* with the
    ``journal_unavailable`` reason — the service never acks a write it
    did not make.
  - **Flush failed** (the record is appended *and* applied, only the
    covering fsync is owed): the server retries the fsync a few times
    and, if it keeps failing, acks **accepted-pending**
    (``{"ok": true, "durable": false}``).  The record is real — replay
    resurrects it and budgets were charged — so answering "shed" would
    contradict both the journal and the state; the next successful
    group commit (or the drain flush) makes it durable.

  The auto-round loop likewise *skips* rounds while the journal is
  unavailable (counted in ``rounds_skipped``) rather than dying; the
  service degrades, it never crashes.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from pathlib import Path

from repro.cloud.spot import CircuitBreaker
from repro.durability.snapshot import SnapshotConfig, SnapshotError, SnapshotStore
from repro.exit_codes import EX_DRAINED, EX_KILL_SWITCH
from repro.service.config import ServiceConfig, TenantBudget
from repro.service.journal import JournalError, ServiceJournal, read_journal
from repro.service.metrics import service_prometheus_text
from repro.service.state import SHED_JOURNAL, ServiceState

__all__ = ["ServiceServer", "run_service"]

#: Journal-breaker tuning: 3 consecutive append/flush failures open it;
#: probes resume after ~2 s (decorrelated jitter, wall clock — breaker
#: state is availability machinery, never journaled state).
_BREAKER_THRESHOLD = 3
_BREAKER_COOLDOWN = 2.0

#: Bounded fsync retries for a record that is already appended and
#: applied (the accepted-pending window): a transient flush fault heals
#: inside one request; a persistent one degrades to ``durable: false``.
_FLUSH_ATTEMPTS = 3
_FLUSH_RETRY_DELAY = 0.05


class ServiceServer:
    """One service instance (construct, then ``asyncio.run(server.serve())``)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.journal = ServiceJournal(config.journal_dir)
        self.store: SnapshotStore | None = None
        if config.snapshot_dir is not None:
            self.store = SnapshotStore(
                SnapshotConfig(directory=config.snapshot_dir, interval_seconds=None)
            )
        self.recovered_records = 0
        self.recovered_from_snapshot = False
        self.state = self._recover()
        self.breaker = CircuitBreaker(
            threshold=_BREAKER_THRESHOLD,
            cooldown_seconds=_BREAKER_COOLDOWN,
            seed=config.seed,
            salt="service-journal",
        )
        self.exit_code = EX_DRAINED
        #: Auto-rounds skipped because the journal was unavailable
        #: (availability machinery, not journaled state — like the breaker).
        self.rounds_skipped = 0
        self._round_lock = asyncio.Lock()
        self._drain_event = asyncio.Event()
        self._flush_waiters: list[asyncio.Future] = []
        self._flush_scheduled = False
        self._snapshot_sequence = 0
        self._client_tasks: set[asyncio.Task] = set()

    # -- recovery ladder -----------------------------------------------------

    def _recover(self) -> ServiceState:
        records, _ = read_journal(self.journal.path)
        base: ServiceState | None = None
        after_seq = 0
        if self.store is not None and (self.store.directory / "MANIFEST.json").exists():
            try:
                payload, info = self.store.load_latest()
                base, after_seq = payload, info.events_processed
                self.recovered_from_snapshot = True
            except SnapshotError:
                # Every retained generation failed verification: fall back
                # to level 2 of the ladder, a full journal replay.
                base, after_seq = None, 0
        self.recovered_records = sum(1 for r in records if r["seq"] > after_seq)
        return ServiceState.replay(
            records, self.config, base=base, after_seq=after_seq
        )

    # -- journal plumbing ----------------------------------------------------

    def _journal_apply(self, kind: str, **payload) -> int:
        """Append one record and apply it (the WAL step, pre-flush)."""
        if not self.breaker.allow(time.monotonic()):
            raise JournalError("journal breaker open")
        record = {"kind": kind, "t": self.state.virtual_now, **payload}
        try:
            seq = self.journal.append(record)
        except JournalError:
            self.breaker.record_failure(time.monotonic())
            raise
        record["seq"] = seq
        self.state.apply(record)
        return seq

    async def _commit(self) -> None:
        """Group commit: await the fsync covering everything appended."""
        if self.journal.lag == 0:
            return
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._flush_waiters.append(waiter)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            # call_soon, not inline: every handler that appended during
            # this loop iteration enqueues its waiter first, then one
            # fsync settles them all.
            loop.call_soon(self._do_flush)
        await waiter

    def _do_flush(self) -> None:
        self._flush_scheduled = False
        waiters, self._flush_waiters = self._flush_waiters, []
        try:
            self.journal.flush()
        except JournalError as exc:
            self.breaker.record_failure(time.monotonic())
            for waiter in waiters:
                if not waiter.done():
                    waiter.set_exception(exc)
            return
        self.breaker.record_success()
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def _commit_retrying(self) -> bool:
        """Group commit with bounded retries.

        Returns ``True`` when the fsync covered everything appended so
        far.  ``False`` means the caller's record is *accepted-pending*:
        appended and applied, fsync still owed — the next successful
        group commit (or the drain flush) closes the window.  Never
        raises: by the time this runs the record is already part of the
        state and the journal file, so there is nothing left to refuse.
        """
        for attempt in range(_FLUSH_ATTEMPTS):
            try:
                await self._commit()
                return True
            except JournalError:
                if attempt + 1 < _FLUSH_ATTEMPTS:
                    await asyncio.sleep(_FLUSH_RETRY_DELAY)
        return False

    # -- rounds --------------------------------------------------------------

    def _kill_switch_engaged(self) -> bool:
        path = self.config.kill_switch_path
        return path is not None and Path(path).exists()

    async def _run_round(self) -> tuple[int, bool]:
        """Run one engine round; returns ``(rounds, durable)``.

        Raises :class:`JournalError` only when the round *record could
        not be appended* (nothing ran, nothing changed); a failed fsync
        after the append leaves the round applied and returns
        ``durable=False``.
        """
        async with self._round_lock:
            engaged = self._kill_switch_engaged()
            if engaged != self.state.kill_switch:
                self._journal_apply("kill_switch", engaged=engaged)
            self._journal_apply("round")
            durable = await self._commit_retrying()
            if durable:
                # Only snapshot off a flushed journal: the snapshot's
                # cursor (events_processed) must never claim records the
                # disk might not hold.
                self._maybe_snapshot()
            return self.state.rounds, durable

    def _maybe_snapshot(self, force: bool = False) -> None:
        every = self.config.snapshot_every_rounds
        if self.store is None:
            return
        if not force and (every is None or self.state.rounds % every != 0):
            return
        # The flush above made every applied record durable, so the
        # snapshot's journal cursor (events_processed) is consistent.
        self._snapshot_sequence += 1
        try:
            self.store.write(
                self.state,
                sequence=self._snapshot_sequence,
                sim_time=self.state.virtual_now,
                events_processed=self.journal.appended_seq,
            )
        except (SnapshotError, OSError):
            # Snapshots are an accelerator, not the source of truth; a
            # failed write degrades restart speed, never correctness.
            pass

    async def _auto_rounds(self) -> None:
        interval = self.config.round_interval
        while not self._drain_event.is_set():
            await asyncio.sleep(interval)
            if self._drain_event.is_set():
                return
            try:
                await self._run_round()
            except JournalError:
                # The round record could not be appended (journal fault
                # or open breaker): skip this round and keep the loop
                # alive — virtual time pauses while the journal is down,
                # it must not stop forever.
                self.rounds_skipped += 1

    # -- request handling ----------------------------------------------------

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "rounds": self.state.rounds}
        if op == "open":
            return await self._op_open(request)
        if op == "submit":
            return await self._op_submit(request)
        if op == "round":
            try:
                rounds, durable = await self._run_round()
            except JournalError:
                # Typed refusal, like the submit/open paths — never an
                # unhandled exception that drops the connection.
                return {"ok": False, "reason": SHED_JOURNAL}
            response = {"ok": True, "round": rounds}
            if not durable:
                response["durable"] = False
            return response
        if op == "stats":
            return {
                "ok": True,
                "state": self.state.to_dict(),
                "rounds_skipped": self.rounds_skipped,
                "journal": {
                    "appended_seq": self.journal.appended_seq,
                    "flushed_seq": self.journal.flushed_seq,
                    "lag": self.journal.lag,
                    "swept_tmp": self.journal.swept_tmp,
                    "breaker": self.breaker.state_name,
                },
                "recovered": {
                    "records": self.recovered_records,
                    "from_snapshot": self.recovered_from_snapshot,
                },
            }
        if op == "metrics":
            return {
                "ok": True,
                "text": service_prometheus_text(self.state, self.journal, self.breaker),
            }
        if op == "close":
            name = request.get("tenant")
            if isinstance(name, str) and name in self.state.tenants:
                try:
                    self._journal_apply("tenant_close", tenant=name)
                except JournalError:
                    return {"ok": False, "reason": SHED_JOURNAL}
                if not await self._commit_retrying():
                    return {"ok": True, "durable": False}
            return {"ok": True}
        if op == "drain":
            self._request_drain()
            return {"ok": True, "draining": True}
        return {"ok": False, "reason": "bad_request"}

    async def _op_open(self, request: dict) -> dict:
        name = request.get("tenant")
        if not isinstance(name, str) or not name or len(name) > 64:
            return {"ok": False, "reason": "bad_request"}
        decision = self.state.open_check(name)
        if not decision.accepted:
            await self._shed(name, decision.reason)
            return {"ok": False, "reason": decision.reason}
        if name in self.state.tenants:
            return {"ok": True}  # idempotent re-open
        budget = request.get("budget")
        if budget is not None and not isinstance(budget, dict):
            return {"ok": False, "reason": "bad_request"}
        try:
            budget_dict = (
                TenantBudget.from_dict(budget).to_dict()
                if budget
                else self.config.default_budget.to_dict()
            )
        except (TypeError, ValueError):
            return {"ok": False, "reason": "bad_request"}
        try:
            self._journal_apply("tenant_open", tenant=name, budget=budget_dict)
        except JournalError:
            # Append failed: the tenant was never created — a true shed.
            return {"ok": False, "reason": SHED_JOURNAL}
        if not await self._commit_retrying():
            # Appended + applied, fsync owed: the open is real (a retry
            # would hit the idempotent re-open path), so ack it as
            # accepted-pending rather than claiming it never happened.
            return {"ok": True, "durable": False}
        return {"ok": True}

    async def _op_submit(self, request: dict) -> dict:
        name = request.get("tenant")
        job = request.get("job")
        if (
            not isinstance(name, str)
            or not isinstance(job, dict)
            or not isinstance(job.get("job_id"), int)
            or not isinstance(job.get("procs"), int)
            or job["procs"] < 1
            or not isinstance(job.get("runtime"), (int, float))
            or job["runtime"] < 0
        ):
            return {"ok": False, "reason": "bad_request"}
        decision = self.state.admit(name, float(job["runtime"]), job["procs"])
        if not decision.accepted:
            await self._shed(name, decision.reason)
            return {"ok": False, "reason": decision.reason}
        try:
            seq = self._journal_apply(
                "submit",
                tenant=name,
                job_id=job["job_id"],
                runtime=float(job["runtime"]),
                procs=job["procs"],
            )
        except JournalError:
            # Not journaled ⇒ not applied ⇒ must not be acked as accepted.
            self.state.shed_in_memory(name, SHED_JOURNAL)
            return {"ok": False, "reason": SHED_JOURNAL}
        if not await self._commit_retrying():
            # Appended + applied, only the fsync is owed: the job is
            # queued, the token spent, the VM-hours charged, and replay
            # resurrects it — answering "shed" here would bill the
            # tenant for a rejection and invite a duplicating retry.
            # Accepted-pending is the truthful answer.
            return {"ok": True, "seq": seq, "durable": False}
        return {"ok": True, "seq": seq}

    async def _shed(self, name: str | None, reason: str | None) -> None:
        """Journal a shed so replayed states carry the same counters; a
        failing journal degrades to an in-memory count."""
        reason = reason or "unknown"
        try:
            self._journal_apply("shed", tenant=name, reason=reason)
        except JournalError:
            # Append failed: the record was never applied, so count the
            # shed in memory instead.
            self.state.shed_in_memory(name, reason)
            return
        # A failed fsync here must NOT fall back to shed_in_memory: the
        # shed record is already applied (counting it again would double
        # it) and sits in the file awaiting the next successful flush.
        await self._commit_retrying()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
            task.add_done_callback(self._client_tasks.discard)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("not an object")
                except ValueError:
                    response = {"ok": False, "reason": "bad_request"}
                else:
                    response = await self._dispatch(request)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):  # drain teardown cancels lingering handlers mid-close
                pass

    # -- lifecycle -----------------------------------------------------------

    def _request_drain(self) -> None:
        self._drain_event.set()

    async def serve(self) -> int:
        """Run until drained; returns the process exit code."""
        socket_path = Path(self.config.socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        socket_path.unlink(missing_ok=True)
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(socket_path)
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        round_task = (
            asyncio.create_task(self._auto_rounds())
            if self.config.round_interval > 0
            else None
        )
        try:
            await self._drain_event.wait()
        finally:
            # Graceful drain: stop admissions (no new connections; the
            # drain record rejects in-flight submissions), finish the
            # round in progress, make everything durable, then exit.
            server.close()
            await server.wait_closed()
            if self._client_tasks:
                # Give in-flight handlers a moment to finish their last
                # response, then cancel stragglers so drain never hangs
                # on a client that keeps its connection open.
                done, pending = await asyncio.wait(
                    tuple(self._client_tasks), timeout=2.0
                )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
            if round_task is not None:
                round_task.cancel()
                # gather(return_exceptions=True) swallows both the
                # cancellation and any exception a dead round task
                # stored — teardown must always reach the drain record,
                # the final flush, and the exit code.
                await asyncio.gather(round_task, return_exceptions=True)
            async with self._round_lock:
                try:
                    self._journal_apply("drain")
                except JournalError:  # pragma: no cover - drain on dead disk
                    pass
                # Final flush, retried: this is the last chance to close
                # any accepted-pending window before the process exits.
                for attempt in range(_FLUSH_ATTEMPTS):
                    try:
                        self.journal.flush()
                        break
                    except JournalError:
                        if attempt + 1 < _FLUSH_ATTEMPTS:
                            await asyncio.sleep(_FLUSH_RETRY_DELAY)
                self._maybe_snapshot(force=True)
                try:
                    self.journal.close()
                except JournalError:  # pragma: no cover - dead disk
                    pass
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            socket_path.unlink(missing_ok=True)
        self.exit_code = (
            EX_KILL_SWITCH if self.state.kill_switch else EX_DRAINED
        )
        return self.exit_code


def run_service(config: ServiceConfig) -> int:
    """Blocking entry point: serve until drained, return the exit code."""
    return asyncio.run(ServiceServer(config).serve())
