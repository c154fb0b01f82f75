"""Tests for the scheduler-as-a-service front end (repro.service).

Covers the four pillars of the service PR: typed admission control,
the journaled WAL + crash-consistent replay, graceful drain / kill
switch, and the health surface — plus the doctor, the subprocess
SIGKILL / SIGTERM behaviour the CI smoke also exercises, and the
largest-remainder splitter behind weighted tenant fair share.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos.hooks import install, uninstall
from repro.chaos.plan import FaultPlan, FaultRule
from repro.core.online_sim import OnlineSimulator
from repro.doctor import doctor_main, run_checks
from repro.exit_codes import EX_DOCTOR, EX_DRAINED, EX_KILL_SWITCH, EX_OK
from repro.service.config import ServiceConfig, TenantBudget
from repro.service.journal import (
    JOURNAL_NAME,
    JournalError,
    ServiceJournal,
    read_journal,
)
from repro.service.loadgen import ServiceClient, run_loadgen, synthetic_jobs
from repro.service.metrics import service_prometheus_text
from repro.service.server import ServiceServer
from repro.service.split import largest_remainder
from repro.service.state import (
    SHED_DRAINING,
    SHED_JOURNAL,
    SHED_QUEUE_FULL,
    SHED_RATE_LIMITED,
    SHED_TENANT_LIMIT,
    SHED_UNKNOWN_TENANT,
    SHED_VM_HOURS,
    ServiceState,
)


def make_config(tmp_path: Path, **overrides) -> ServiceConfig:
    defaults = dict(
        socket_path=str(tmp_path / "svc.sock"),
        journal_dir=str(tmp_path / "journal"),
        round_interval=0.0,
        max_total_vms=8,
        seed=7,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def open_record(name: str, budget: TenantBudget | None = None) -> dict:
    budget = budget or TenantBudget()
    return {"kind": "tenant_open", "tenant": name, "budget": budget.to_dict(), "t": 0.0}


def submit_record(name: str, job_id: int, runtime: float, procs: int = 1) -> dict:
    return {
        "kind": "submit",
        "tenant": name,
        "job_id": job_id,
        "runtime": runtime,
        "procs": procs,
        "t": 0.0,
    }


class TestAdmission:
    """admit()/open_check() return the typed shed reasons the issue names."""

    def test_accepts_within_budget(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        state.apply(open_record("a"))
        assert state.admit("a", runtime=60.0, procs=1).accepted

    def test_unknown_tenant(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        decision = state.admit("ghost", runtime=60.0, procs=1)
        assert (decision.accepted, decision.reason) == (False, SHED_UNKNOWN_TENANT)

    def test_queue_full(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        budget = TenantBudget(max_queued_jobs=1)
        state.apply(open_record("a", budget))
        state.apply(submit_record("a", 1, 60.0))
        decision = state.admit("a", runtime=60.0, procs=1)
        assert (decision.accepted, decision.reason) == (False, SHED_QUEUE_FULL)

    def test_rate_limited(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        budget = TenantBudget(rate_per_round=1.0, burst=1.0)
        state.apply(open_record("a", budget))
        state.apply(submit_record("a", 1, 60.0))  # spends the whole bucket
        decision = state.admit("a", runtime=60.0, procs=1)
        assert (decision.accepted, decision.reason) == (False, SHED_RATE_LIMITED)
        # A round refills the bucket and admission recovers.
        state.apply({"kind": "round", "t": 0.0})
        assert state.admit("a", runtime=60.0, procs=1).accepted

    def test_vm_hours_exhausted(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        budget = TenantBudget(max_vm_hours=1.0)
        state.apply(open_record("a", budget))
        decision = state.admit("a", runtime=3600.0, procs=2)  # 2 VM-hours
        assert (decision.accepted, decision.reason) == (False, SHED_VM_HOURS)

    def test_tenant_limit(self, tmp_path):
        state = ServiceState(make_config(tmp_path, max_tenants=1))
        state.apply(open_record("a"))
        decision = state.open_check("b")
        assert (decision.accepted, decision.reason) == (False, SHED_TENANT_LIMIT)
        # Re-opening an existing tenant stays idempotent, not a limit hit.
        assert state.open_check("a").accepted

    def test_draining_refuses_everything(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        state.apply(open_record("a"))
        state.apply({"kind": "drain", "t": 0.0})
        assert state.admit("a", 60.0, 1).reason == SHED_DRAINING
        assert state.open_check("b").reason == SHED_DRAINING

    def test_charges_vm_hours_at_admission(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        state.apply(open_record("a"))
        state.apply(submit_record("a", 1, runtime=1800.0, procs=2))
        assert state.tenants["a"].vm_hours_used == pytest.approx(1.0)


class TestJournal:
    def test_append_flush_read_roundtrip(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "tenant_open", "tenant": "a", "t": 0.0})
        journal.append({"kind": "round", "t": 0.0})
        assert journal.lag == 2
        journal.flush()
        assert journal.lag == 0
        journal.close()
        records, _ = read_journal(tmp_path / JOURNAL_NAME)
        assert [r["seq"] for r in records] == [1, 2]
        assert [r["kind"] for r in records] == ["tenant_open", "round"]

    def test_reader_stops_at_torn_tail(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "round", "t": 0.0})
        journal.flush()
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "round", "seq": 2, tor')  # torn mid-write
        records, valid = read_journal(path)
        assert len(records) == 1
        assert valid < path.stat().st_size

    def test_startup_truncates_torn_tail_and_continues_seq(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "round", "t": 0.0})
        journal.flush()
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with open(path, "ab") as fh:
            fh.write(b"garbage without newline")
        reopened = ServiceJournal(tmp_path)
        assert reopened.appended_seq == 1
        seq = reopened.append({"kind": "round", "t": 20.0})
        assert seq == 2
        reopened.close()
        records, valid = read_journal(path)
        assert [r["seq"] for r in records] == [1, 2]
        assert valid == path.stat().st_size  # clean file again

    def test_reader_stops_at_seq_discontinuity(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        lines = [
            json.dumps({"v": 1, "seq": 1, "kind": "round", "t": 0.0}),
            json.dumps({"v": 1, "seq": 3, "kind": "round", "t": 0.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        records, _ = read_journal(path)
        assert [r["seq"] for r in records] == [1]

    def test_sweeps_tmp_debris_on_startup(self, tmp_path):
        (tmp_path / "snapshot-000001.pkl.tmp").write_bytes(b"debris")
        (tmp_path / "other.tmp").write_bytes(b"debris")
        journal = ServiceJournal(tmp_path)
        assert journal.swept_tmp == 2
        assert not list(tmp_path.glob("*.tmp"))
        journal.close()

    def test_short_write_is_completed_by_the_write_loop(self, tmp_path, monkeypatch):
        """A short ``write(2)`` (no exception) must not tear the line."""
        journal = ServiceJournal(tmp_path)
        real_write = os.write
        calls = {"n": 0}

        def short_then_fine(fd, data):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_write(fd, data[:5])  # kernel lands 5 bytes only
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", short_then_fine)
        seq = journal.append({"kind": "round", "t": 0.0})
        assert seq == 1 and calls["n"] >= 2
        journal.flush()
        journal.close()
        records, valid = read_journal(tmp_path / JOURNAL_NAME)
        assert [r["seq"] for r in records] == [1]
        assert valid == (tmp_path / JOURNAL_NAME).stat().st_size

    def test_failure_mid_record_truncates_back_to_boundary(
        self, tmp_path, monkeypatch
    ):
        """ENOSPC after a partial write must not leave torn bytes that a
        later append would bury (recovery would drop every record after
        them, including acked ones)."""
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "round", "t": 0.0})
        journal.flush()
        real_write = os.write
        calls = {"n": 0}

        def short_then_enospc(fd, data):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_write(fd, data[:5])  # partial...
            raise OSError(28, "No space left on device")  # ...then fails

        monkeypatch.setattr(os, "write", short_then_enospc)
        with pytest.raises(JournalError):
            journal.append({"kind": "round", "t": 20.0})
        monkeypatch.setattr(os, "write", real_write)
        assert journal.appended_seq == 1  # no sequence consumed
        # The tail was repaired: the retry lands on a clean boundary.
        assert journal.append({"kind": "round", "t": 20.0}) == 2
        journal.flush()
        journal.close()
        records, valid = read_journal(tmp_path / JOURNAL_NAME)
        assert [r["seq"] for r in records] == [1, 2]
        assert valid == (tmp_path / JOURNAL_NAME).stat().st_size

    def test_unrepairable_tear_poisons_the_journal(self, tmp_path, monkeypatch):
        """If even the truncate repair fails, further appends must be
        refused — they would land after the torn bytes, unreadable to
        replay — while the acked prefix stays intact."""
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "round", "t": 0.0})
        journal.flush()
        real_write = os.write
        calls = {"n": 0}

        def short_then_enospc(fd, data):
            calls["n"] += 1
            if calls["n"] == 1:
                return real_write(fd, data[:5])
            raise OSError(28, "No space left on device")

        def broken_ftruncate(fd, length):
            raise OSError(5, "I/O error")

        monkeypatch.setattr(os, "write", short_then_enospc)
        monkeypatch.setattr(os, "ftruncate", broken_ftruncate)
        with pytest.raises(JournalError):
            journal.append({"kind": "round", "t": 20.0})
        monkeypatch.undo()
        with pytest.raises(JournalError, match="torn"):
            journal.append({"kind": "round", "t": 40.0})
        records, valid = read_journal(tmp_path / JOURNAL_NAME)
        assert [r["seq"] for r in records] == [1]  # acked prefix survives
        assert valid < (tmp_path / JOURNAL_NAME).stat().st_size
        journal.close()

    def test_chaos_fault_raises_without_consuming_seq(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append({"kind": "round", "t": 0.0})
        plan = FaultPlan(
            rules=(FaultRule(site="service.journal.append", action="eio"),)
        )
        install(plan.injector())
        try:
            with pytest.raises(JournalError):
                journal.append({"kind": "round", "t": 20.0})
        finally:
            uninstall()
        assert journal.appended_seq == 1
        seq = journal.append({"kind": "round", "t": 20.0})  # dense again
        assert seq == 2
        journal.close()


class TestReplay:
    def test_replay_reconstructs_state_bit_identically(self, tmp_path):
        config = make_config(tmp_path)
        journal = ServiceJournal(config.journal_dir)
        live = ServiceState(config)

        def journal_apply(record: dict) -> None:
            record = dict(record)
            record["t"] = live.virtual_now
            seq = journal.append(record)
            record["seq"] = seq
            live.apply(record)

        journal_apply(open_record("alice"))
        journal_apply(open_record("bob", TenantBudget(max_queued_jobs=2)))
        job_id = 0
        for k in range(6):
            for name in ("alice", "bob"):
                job_id += 1
                decision = live.admit(name, runtime=30.0 + 10 * k, procs=1)
                if decision.accepted:
                    journal_apply(
                        submit_record(name, job_id, 30.0 + 10 * k)
                    )
                else:
                    journal_apply(
                        {"kind": "shed", "tenant": name, "reason": decision.reason}
                    )
            journal_apply({"kind": "round"})
        journal.flush()
        journal.close()

        records, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        replayed = ServiceState.replay(records, config)
        assert replayed.to_dict() == live.to_dict()
        # Strict JSON all the way down (no Infinity/NaN leaks).
        json.loads(json.dumps(live.to_dict(), allow_nan=False))

    def test_rounds_schedule_jobs_onto_vms(self, tmp_path):
        config = make_config(tmp_path)
        state = ServiceState(config)
        state.apply(open_record("a"))
        for job_id in (1, 2, 3):
            state.apply(submit_record("a", job_id, runtime=25.0))
        state.apply({"kind": "round"})
        assert state.tenants["a"].started > 0
        assert state.total_rented() > 0
        assert state.total_rented() <= config.max_total_vms
        # 25 s jobs finish within two 20 s ticks of starting.
        state.apply({"kind": "round"})
        state.apply({"kind": "round"})
        assert state.tenants["a"].completed > 0

    def test_kill_switch_halts_provisioning(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        state.apply(open_record("a"))
        state.apply({"kind": "kill_switch", "engaged": True})
        state.apply(submit_record("a", 1, runtime=60.0))
        state.apply({"kind": "round"})
        assert state.total_rented() == 0  # admitted but never provisioned
        assert len(state.tenants["a"].queue) == 1
        # Clearing the switch lets the next round provision again.
        state.apply({"kind": "kill_switch", "engaged": False})
        state.apply({"kind": "round"})
        assert state.total_rented() > 0

    def test_tenant_profiles_carry_the_round_step(self, tmp_path, monkeypatch):
        """Each tenant's Algorithm 1 simulates with the service's round
        step as its tick, under the eager rule the capture states."""
        profiles = []
        prepare = OnlineSimulator.prepare

        def spy(self, queue, waits, runtimes, profile):
            profiles.append(profile)
            return prepare(self, queue, waits, runtimes, profile)

        monkeypatch.setattr(OnlineSimulator, "prepare", spy)
        state = ServiceState(make_config(tmp_path, round_virtual_step=10.0))
        job_id = 0
        for name in ("a", "b"):
            state.apply(open_record(name))
            for runtime in (25.0, 60.0, 300.0):
                job_id += 1
                state.apply(submit_record(name, job_id, runtime, procs=2))
        for _ in range(3):
            state.apply({"kind": "round"})
        assert len(profiles) >= 2
        assert {(p.tick, p.release_rule) for p in profiles} == {(10.0, "eager")}


def run_server_session(config: ServiceConfig, script):
    """Run an in-process server, drive it with *script(rpc, server)*,
    return ``(script result, exit code)``.  *script* must end in a drain.
    """

    async def body():
        server = ServiceServer(config)
        serve_task = asyncio.create_task(server.serve())
        for _ in range(200):
            if os.path.exists(config.socket_path):
                break
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_unix_connection(config.socket_path)

        async def rpc(payload: dict) -> dict:
            writer.write((json.dumps(payload) + "\n").encode("utf-8"))
            await writer.drain()
            line = await reader.readline()
            assert line, "service closed the connection mid-request"
            return json.loads(line)

        try:
            result = await script(rpc, server)
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        exit_code = await asyncio.wait_for(serve_task, timeout=10.0)
        return result, exit_code

    return asyncio.run(body())


class TestServer:
    def test_end_to_end_session_and_replay(self, tmp_path):
        config = make_config(tmp_path)

        async def script(rpc, server):
            assert (await rpc({"op": "ping"}))["ok"]
            assert (await rpc({"op": "open", "tenant": "alice"}))["ok"]
            assert (
                await rpc(
                    {
                        "op": "open",
                        "tenant": "bob",
                        "budget": {"max_queued_jobs": 1},
                    }
                )
            )["ok"]
            acked = []
            for job_id in range(1, 5):
                response = await rpc(
                    {
                        "op": "submit",
                        "tenant": "alice",
                        "job": {"job_id": job_id, "runtime": 30.0, "procs": 1},
                    }
                )
                assert response["ok"]
                acked.append(response["seq"])
            # bob's 1-deep queue sheds the second submission.
            for job_id in (101, 102):
                response = await rpc(
                    {
                        "op": "submit",
                        "tenant": "bob",
                        "job": {"job_id": job_id, "runtime": 30.0, "procs": 1},
                    }
                )
            assert response == {"ok": False, "reason": SHED_QUEUE_FULL}
            assert (await rpc({"op": "round"}))["round"] == 1
            stats = await rpc({"op": "stats"})
            metrics = await rpc({"op": "metrics"})
            assert (await rpc({"op": "drain"}))["draining"]
            return acked, stats, metrics

        (acked, stats, metrics), exit_code = run_server_session(config, script)
        assert exit_code == EX_DRAINED
        assert acked == sorted(acked)
        state = stats["state"]
        assert state["tenants"]["alice"]["accepted"] == 4
        assert state["tenants"]["bob"]["shed"] == {SHED_QUEUE_FULL: 1}
        assert stats["journal"]["lag"] == 0  # acks imply the fsync happened
        assert "repro_service_queue_depth" in metrics["text"]
        assert "repro_service_shed_total" in metrics["text"]

        # The journal replays to exactly the drained server's final state.
        records, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        assert records[-1]["kind"] == "drain"
        replayed = ServiceState.replay(records, config)
        expected = dict(state)
        expected["draining"] = True  # the drain record lands post-stats
        assert replayed.to_dict() == expected

    def test_journal_fault_sheds_instead_of_acking(self, tmp_path):
        config = make_config(tmp_path)

        async def body():
            server = ServiceServer(config)
            assert (await server._op_open({"op": "open", "tenant": "a"}))["ok"]
            plan = FaultPlan(
                rules=(FaultRule(site="service.journal.append", action="eio"),)
            )
            install(plan.injector())
            try:
                response = await server._op_submit(
                    {
                        "op": "submit",
                        "tenant": "a",
                        "job": {"job_id": 1, "runtime": 60.0, "procs": 1},
                    }
                )
            finally:
                uninstall()
            return server, response

        server, response = asyncio.run(body())
        assert response == {"ok": False, "reason": SHED_JOURNAL}
        tenant = server.state.tenants["a"]
        assert tenant.accepted == 0 and tenant.queue == []
        assert server.state.unattributed_shed == {SHED_JOURNAL: 1}
        # The un-journaled shed is visible on the health surface anyway.
        text = service_prometheus_text(server.state, server.journal, server.breaker)
        assert "repro_service_journal_sheds_total 1" in text
        server.journal.close()

    def test_flush_fault_acks_accepted_pending(self, tmp_path):
        """Append ok + fsync failing: the submission is applied and in
        the file, so the ack must say accepted (pending), never "shed"
        — a shed answer would bill the tenant for a rejection, invite a
        duplicating retry, and contradict replay."""
        config = make_config(tmp_path)

        async def body():
            server = ServiceServer(config)
            assert (await server._op_open({"op": "open", "tenant": "a"}))["ok"]
            plan = FaultPlan(
                rules=(
                    FaultRule(
                        site="service.journal.flush",
                        action="eio",
                        every=1,
                        limit=None,
                    ),
                )
            )
            install(plan.injector())
            try:
                response = await server._op_submit(
                    {
                        "op": "submit",
                        "tenant": "a",
                        "job": {"job_id": 1, "runtime": 60.0, "procs": 1},
                    }
                )
            finally:
                uninstall()
            return server, response

        server, response = asyncio.run(body())
        assert response == {"ok": True, "seq": 2, "durable": False}
        tenant = server.state.tenants["a"]
        assert tenant.accepted == 1 and len(tenant.queue) == 1
        assert server.state.unattributed_shed == {}  # no phantom shed
        assert server.journal.lag == 1  # the fsync is still owed
        # The record is really in the file; once the disk heals, replay
        # reconstructs exactly the state the ack described.
        server.journal.flush()
        server.journal.close()
        records, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        replayed = ServiceState.replay(records, config)
        assert replayed.to_dict() == server.state.to_dict()

    def test_shed_flush_fault_counts_once(self, tmp_path):
        """A fsync failure while journaling a shed must not double-count
        it (the record is already applied)."""
        config = make_config(tmp_path)

        async def body():
            server = ServiceServer(config)
            plan = FaultPlan(
                rules=(
                    FaultRule(
                        site="service.journal.flush",
                        action="eio",
                        every=1,
                        limit=None,
                    ),
                )
            )
            install(plan.injector())
            try:
                response = await server._op_submit(
                    {
                        "op": "submit",
                        "tenant": "ghost",
                        "job": {"job_id": 1, "runtime": 60.0, "procs": 1},
                    }
                )
            finally:
                uninstall()
            server.journal.close()
            return server, response

        server, response = asyncio.run(body())
        assert response == {"ok": False, "reason": SHED_UNKNOWN_TENANT}
        assert server.state.unattributed_shed == {SHED_UNKNOWN_TENANT: 1}

    def test_round_op_journal_fault_gets_typed_response(self, tmp_path):
        """An explicit round that hits a journal fault must answer with
        a typed error, not drop the connection on an unhandled
        exception."""
        config = make_config(tmp_path)

        async def body():
            server = ServiceServer(config)
            plan = FaultPlan(
                rules=(
                    FaultRule(
                        site="service.journal.append",
                        action="eio",
                        every=1,
                        limit=None,
                    ),
                )
            )
            install(plan.injector())
            try:
                response = await server._dispatch({"op": "round"})
            finally:
                uninstall()
            server.journal.close()
            return server, response

        server, response = asyncio.run(body())
        assert response == {"ok": False, "reason": SHED_JOURNAL}
        assert server.state.rounds == 0  # nothing applied

    def test_auto_rounds_survive_journal_faults(self, tmp_path):
        """Journal faults during automatic rounds skip the round and
        keep the loop alive — virtual time pauses, it never freezes
        forever (the round task must not crash)."""
        config = make_config(tmp_path, round_interval=0.01)

        async def body():
            server = ServiceServer(config)
            task = asyncio.create_task(server._auto_rounds())
            plan = FaultPlan(
                rules=(
                    FaultRule(
                        site="service.journal.append",
                        action="eio",
                        every=1,
                        limit=None,
                    ),
                )
            )
            install(plan.injector())
            try:
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    if server.rounds_skipped >= 3:
                        break
            finally:
                uninstall()
            assert server.rounds_skipped >= 3
            assert not task.done()  # the loop survived every fault
            server._drain_event.set()
            await asyncio.wait_for(task, timeout=5.0)
            server.journal.close()

        asyncio.run(body())

    def test_drain_survives_dead_round_task(self, tmp_path):
        """Even if the round task died on an unexpected exception,
        SIGTERM/drain teardown must still complete and exit cleanly."""
        config = make_config(tmp_path, round_interval=0.01)

        async def script(rpc, server):
            died = asyncio.Event()

            async def boom():
                died.set()
                raise RuntimeError("round task died")

            server._run_round = boom  # simulate an unforeseen crash
            await asyncio.wait_for(died.wait(), timeout=5.0)
            await asyncio.sleep(0.02)  # let the exception kill the task
            return await rpc({"op": "drain"})

        result, exit_code = run_server_session(config, script)
        assert result["draining"] is True
        assert exit_code == EX_DRAINED
        records, valid = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        path = Path(config.journal_dir) / JOURNAL_NAME
        assert valid == path.stat().st_size  # intact journal
        assert records[-1]["kind"] == "drain"  # teardown reached the record

    @staticmethod
    def crash_after_snapshot(tmp_path):
        """Serve two submits, snapshot at a round, submit once more and
        crash (no drain, no forced snapshot); return config and state."""
        config = make_config(
            tmp_path,
            snapshot_dir=str(tmp_path / "snaps"),
            snapshot_every_rounds=1,
        )

        async def body():
            server = ServiceServer(config)
            assert (await server._op_open({"op": "open", "tenant": "a"}))["ok"]
            for job_id in (1, 2):
                await server._op_submit(
                    {
                        "op": "submit",
                        "tenant": "a",
                        "job": {"job_id": job_id, "runtime": 30.0, "procs": 1},
                    }
                )
            await server._run_round()  # snapshot lands here
            # Post-snapshot activity only the journal suffix holds:
            await server._op_submit(
                {
                    "op": "submit",
                    "tenant": "a",
                    "job": {"job_id": 3, "runtime": 30.0, "procs": 1},
                }
            )
            # Simulate SIGKILL: no drain record, no forced snapshot.
            server.journal.close()
            return server.state.to_dict()

        return config, asyncio.run(body())

    def test_recovery_prefers_snapshot_then_replays_suffix(self, tmp_path):
        config, crashed_state = self.crash_after_snapshot(tmp_path)
        reopened = ServiceServer(config)
        assert reopened.recovered_from_snapshot
        # Only the post-snapshot suffix (the third submit) replays.
        full_journal, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        assert 0 < reopened.recovered_records < len(full_journal)
        assert reopened.state.to_dict() == crashed_state
        reopened.journal.close()

    def test_stale_snapshot_format_falls_back_to_journal_replay(self, tmp_path):
        config, crashed_state = self.crash_after_snapshot(tmp_path)
        # Rewrite every manifest as an older build's (format 5) would be.
        snaps = Path(config.snapshot_dir)
        for path in [snaps / "MANIFEST.json", *snaps.glob("snap-*.meta.json")]:
            raw = json.loads(path.read_text())
            raw["format"] = 5
            path.write_text(json.dumps(raw))
        reopened = ServiceServer(config)
        assert not reopened.recovered_from_snapshot
        full_journal, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        assert reopened.recovered_records == len(full_journal)
        assert reopened.state.to_dict() == crashed_state
        reopened.journal.close()


def spawn_service(tmp_path: Path, *extra: str) -> tuple[subprocess.Popen, str]:
    socket_path = str(tmp_path / "svc.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "service",
            "run",
            "--socket",
            socket_path,
            "--journal-dir",
            str(tmp_path / "journal"),
            "--round-interval",
            "0",
            "--seed",
            "3",
            *extra,
        ],
        env=env,
    )
    return child, socket_path


class TestServiceProcess:
    """The real thing: a child process, real signals, real sockets."""

    def test_sigkill_then_replay_matches_acked_history(self, tmp_path):
        child, socket_path = spawn_service(tmp_path)
        client = ServiceClient(socket_path)
        acked: list[tuple[str, int]] = []
        try:
            client.connect()
            assert client.open("alice")["ok"]
            assert client.open("bob")["ok"]
            for job_id in range(1, 9):
                tenant = "alice" if job_id % 2 else "bob"
                response = client.submit(tenant, job_id, runtime=30.0, procs=1)
                assert response["ok"]
                acked.append((tenant, job_id))
                if job_id == 4:
                    client.round()
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30.0)
            client.close()
        assert child.returncode == -signal.SIGKILL

        # Replay the survivor journal: every acked submission is there.
        config = make_config(tmp_path, seed=3)
        records, _ = read_journal(Path(config.journal_dir) / JOURNAL_NAME)
        replayed = ServiceState.replay(records, config)
        replayed_jobs = {
            (name, job_id)
            for name, tenant in replayed.tenants.items()
            for job_id in (
                [job.job_id for job in tenant.queue]
                + [vm.job_id for vm in tenant.vms if vm.job_id is not None]
            )
        }
        for name, job_id in acked:
            tenant = replayed.tenants[name]
            assert (name, job_id) in replayed_jobs or tenant.completed > 0
        assert replayed.rounds == 1

        # A restarted server recovers to the identical state.
        reopened = ServiceServer(config)
        assert reopened.state.to_dict() == replayed.to_dict()
        reopened.journal.close()

    def test_sigterm_drains_with_clean_exit_code(self, tmp_path):
        child, socket_path = spawn_service(tmp_path)
        client = ServiceClient(socket_path)
        try:
            client.connect()
            assert client.open("alice")["ok"]
            for job_id in (1, 2, 3):
                assert client.submit("alice", job_id, runtime=30.0, procs=1)["ok"]
        finally:
            client.close()
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30.0) == EX_DRAINED

        records, valid = read_journal(tmp_path / "journal" / JOURNAL_NAME)
        path = tmp_path / "journal" / JOURNAL_NAME
        assert valid == path.stat().st_size  # intact, no torn tail
        assert records[-1]["kind"] == "drain"
        replayed = ServiceState.replay(records, make_config(tmp_path, seed=3))
        assert replayed.tenants["alice"].accepted == 3  # zero lost jobs

    def test_kill_switch_exit_code_and_halted_provisioning(self, tmp_path):
        switch = tmp_path / "halt"
        switch.touch()
        child, socket_path = spawn_service(
            tmp_path, "--kill-switch", str(switch)
        )
        client = ServiceClient(socket_path)
        try:
            client.connect()
            assert client.open("alice")["ok"]
            assert client.submit("alice", 1, runtime=60.0, procs=1)["ok"]
            client.round()
            stats = client.stats()
            client.drain()
        finally:
            client.close()
        assert child.wait(timeout=30.0) == EX_KILL_SWITCH
        assert stats["state"]["kill_switch"] is True
        assert stats["state"]["vms_in_use"] == 0
        assert len(stats["state"]["tenants"]["alice"]["queue"]) == 1


class TestLoadgen:
    def test_stream_is_deterministic_and_hot_tenants_oversubmit(self):
        stream_a = list(synthetic_jobs(seed=5, tenants=3, jobs_per_tenant=2, hot=1))
        stream_b = list(synthetic_jobs(seed=5, tenants=3, jobs_per_tenant=2, hot=1))
        assert stream_a == stream_b
        per_tenant: dict[str, int] = {}
        for tenant, _, _, _ in stream_a:
            per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
        assert per_tenant == {"t0000": 8, "t0001": 2, "t0002": 2}

    def test_overload_sheds_and_reports(self, tmp_path):
        child, socket_path = spawn_service(tmp_path)
        try:
            report = run_loadgen(
                socket_path,
                tenants=4,
                jobs_per_tenant=6,
                seed=1,
                rounds_every=0,  # no refills: the bucket is the limit
                hot=1,
                budget={"max_queued_jobs": 8, "rate_per_round": 4.0, "burst": 8.0},
            )
        finally:
            ServiceClient(socket_path).drain()
            child.wait(timeout=30.0)
        assert report["submitted"] == 6 * 3 + 24
        assert report["accepted"] + report["shed"] == report["submitted"]
        assert report["shed"] > 0  # the hot tenant blew its budget
        assert set(report["shed_by_reason"]) <= {
            SHED_QUEUE_FULL,
            SHED_RATE_LIMITED,
        }
        assert report["submissions_per_sec"] > 0


class TestDoctor:
    def test_all_checks_pass_in_tmp(self, tmp_path, capsys):
        results = run_checks(tmp_path, pool=False)
        assert all(result.ok for result in results)
        assert doctor_main(str(tmp_path), pool=False) == EX_OK
        out = capsys.readouterr().out
        assert "doctor ok   dir-writable" in out
        assert "all 4 checks passed" in out

    def test_unwritable_target_fails_with_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        target = blocker / "nested"  # mkdir under a file must fail
        assert doctor_main(str(target), pool=False) == EX_DOCTOR
        assert "doctor FAIL dir-writable" in capsys.readouterr().out


class TestMetricsText:
    def test_prometheus_families_and_labels(self, tmp_path):
        state = ServiceState(make_config(tmp_path))
        state.apply(open_record("a"))
        state.apply(submit_record("a", 1, runtime=30.0))
        state.apply({"kind": "shed", "tenant": "a", "reason": SHED_RATE_LIMITED})
        state.apply({"kind": "round"})
        text = service_prometheus_text(state)
        assert 'repro_service_queue_depth{tenant="a"}' in text
        assert (
            'repro_service_shed_total{reason="rate_limited",tenant="a"} 1' in text
        )
        assert "repro_service_rounds_total 1" in text
        assert "# TYPE repro_service_vms_in_use gauge" in text


class TestLargestRemainder:
    def test_sum_preserved(self):
        for total in (0, 1, 7, 64, 101):
            for weights in ([1.0], [1, 1, 1], [0.5, 0.3, 0.2], [5, 0, 2]):
                assert sum(largest_remainder(total, weights)) == total

    def test_deterministic(self):
        a = largest_remainder(10, [1, 1, 1], seed=3)
        b = largest_remainder(10, [1, 1, 1], seed=3)
        assert a == b

    def test_seed_breaks_ties(self):
        splits = {tuple(largest_remainder(10, [1, 1, 1], seed=s)) for s in range(8)}
        for split in splits:
            assert sum(split) == 10
            assert sorted(split) == [3, 3, 4]
        assert len(splits) > 1  # the tie lands on different positions

    def test_monotone_in_weights(self):
        shares = largest_remainder(10, [0.5, 0.3, 0.2])
        assert shares[0] >= shares[1] >= shares[2]

    def test_exact_quotas(self):
        assert largest_remainder(10, [0.5, 0.3, 0.2]) == [5, 3, 2]

    def test_zero_weight_gets_zero(self):
        assert largest_remainder(6, [1.0, 0.0, 1.0])[1] == 0

    def test_all_zero_falls_back_to_equal(self):
        shares = largest_remainder(6, [0.0, 0.0, 0.0])
        assert sum(shares) == 6
        assert max(shares) - min(shares) <= 1

    def test_empty_weights(self):
        assert largest_remainder(0, []) == []
        with pytest.raises(ValueError, match="no weights"):
            largest_remainder(3, [])

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError, match="total must be >= 0"):
            largest_remainder(-1, [1.0])
        with pytest.raises(ValueError, match="weights must be >= 0"):
            largest_remainder(3, [1.0, -0.5])


class TestServiceWeightedShare:
    """Per-tenant VM shares follow ``TenantBudget.weight`` through the
    largest-remainder splitter."""

    def open_record(self, name, weight):
        budget = TenantBudget(weight=weight)
        return {"kind": "tenant_open", "tenant": name,
                "budget": budget.to_dict(), "t": 0.0}

    def submit(self, name, job_id):
        return {"kind": "submit", "tenant": name, "job_id": job_id,
                "runtime": 10_000.0, "procs": 1, "t": 0.0}

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="weight must be > 0"):
            TenantBudget(weight=0.0)

    def test_weight_round_trips(self):
        budget = TenantBudget(weight=3.0)
        assert TenantBudget.from_dict(budget.to_dict()).weight == 3.0
        assert TenantBudget.from_dict({}).weight == 1.0  # old journals

    def test_weighted_tenant_gets_more_vms(self, tmp_path):
        from repro.service.config import ServiceConfig

        config = ServiceConfig(
            socket_path=str(tmp_path / "svc.sock"),
            journal_dir=str(tmp_path / "journal"),
            round_interval=0.0,
            max_total_vms=8,
            seed=7,
        )
        state = ServiceState(config)
        state.apply(self.open_record("heavy", 3.0))
        state.apply(self.open_record("light", 1.0))
        for i in range(1, 9):
            state.apply(self.submit("heavy", i))
            state.apply(self.submit("light", 100 + i))
        state.apply({"kind": "round"})
        heavy = state.tenants["heavy"].started
        light = state.tenants["light"].started
        assert heavy > light > 0
        assert state.total_rented() <= config.max_total_vms
