"""Tests for environment-fault hardening (repro.chaos + recovery paths).

The contract under test is *survival with identity*: the platform may
lose snapshots, trace appends, cache entries, and whole worker
processes, yet either recovers to the exact same exported answer or
fails with a clean, attributable error.  Faults are injected through the
seeded, schedule-driven :mod:`repro.chaos` plans, so every scenario here
replays bit-identically.
"""

import errno
import json
import time
import warnings

import pytest

from repro.chaos import (
    ACTIONS,
    ChaosFault,
    FaultPlan,
    FaultRule,
    TornRename,
    active,
    chaos_active,
    fault_point,
    task_action,
)
from repro.durability import MANIFEST_NAME, SnapshotConfig, SnapshotError
from repro.durability.snapshot import SnapshotStore
from repro.obs.exporter import trace_to_dict
from repro.obs.tracer import RunTracer, TraceConfig
from repro.parallel import CellCache


# Spawned pool workers unpickle tasks by qualified name, so everything a
# worker runs must live at module scope.
def _answer(x):
    return x * 2


class TestFaultRule:
    def test_nth_only_fires_once(self):
        rule = FaultRule(site="s", action="eio", nth=3)
        assert [rule.due(c) for c in range(1, 7)] == [
            False, False, True, False, False, False,
        ]

    def test_every_repeats_after_nth(self):
        rule = FaultRule(site="s", action="eio", nth=2, every=3, limit=None)
        assert [c for c in range(1, 12) if rule.due(c)] == [2, 5, 8, 11]

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRule(site="s", action="set-on-fire")
        with pytest.raises(ValueError):
            FaultRule(site="s", action="eio", nth=0)
        with pytest.raises(ValueError):
            FaultRule(site="s", action="eio", every=0)
        with pytest.raises(ValueError):
            FaultRule(site="s", action="eio", limit=0)
        with pytest.raises(ValueError):
            FaultRule(site="s", action="eio", p=1.5)

    def test_actions_registry_is_closed(self):
        assert set(ACTIONS) == {"enospc", "eio", "torn", "corrupt",
                                "kill", "stop"}


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="tracer.flush", action="eio", nth=2,
                          every=5, limit=None, p=0.5),
                FaultRule(site="snapshot.*", action="torn"),
            ),
            seed=99,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_defaults_survive_sparse_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"rules": [{"site": "tracer.flush", "action": "eio"}]}
        ))
        plan = FaultPlan.load(path)
        assert plan.rules == (FaultRule(site="tracer.flush", action="eio"),)
        assert plan.rules[0].limit == 1  # absent limit keeps the default

    def test_explicit_null_limit_is_unlimited(self):
        plan = FaultPlan.from_dict(
            {"rules": [{"site": "s", "action": "eio", "limit": None}]}
        )
        assert plan.rules[0].limit is None

    def test_malformed_plan_raises_valueerror(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            FaultPlan.from_dict({"rules": [{"site": "s"}]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            FaultPlan.load(bad)


class TestChaosInjector:
    def test_uninstalled_fault_points_are_noops(self):
        assert not active()
        fault_point("anything.at.all", None)
        assert task_action("pool.task") is None

    def test_scheduled_fault_fires_at_nth_and_respects_limit(self):
        plan = FaultPlan(rules=(
            FaultRule(site="tracer.flush", action="enospc", nth=2),
        ))
        with chaos_active(plan) as injector:
            fault_point("tracer.flush", None)  # 1st: scheduled for 2nd
            with pytest.raises(ChaosFault) as err:
                fault_point("tracer.flush", None)
            assert err.value.errno == errno.ENOSPC
            assert err.value.site == "tracer.flush"
            fault_point("tracer.flush", None)  # limit=1: spent
            assert injector.injected == [("tracer.flush", "enospc", 2)]
        assert not active()

    def test_glob_matches_site_families(self):
        plan = FaultPlan(rules=(
            FaultRule(site="snapshot.*.rename", action="torn"),
        ))
        with chaos_active(plan):
            fault_point("snapshot.payload.write", None)  # no match
            with pytest.raises(TornRename):
                fault_point("snapshot.payload.rename", None)

    def test_schedule_is_independent_of_seed(self):
        # The seed drives fault *content* only; two plans differing only
        # by seed must fire on exactly the same operations.
        logs = []
        for seed in (0, 12345):
            plan = FaultPlan(rules=(
                FaultRule(site="s", action="eio", nth=2, every=2,
                          limit=None),
            ), seed=seed)
            with chaos_active(plan) as injector:
                for _ in range(8):
                    try:
                        fault_point("s", None)
                    except ChaosFault:
                        pass
                logs.append(list(injector.injected))
        assert logs[0] == logs[1]

    def test_corrupt_flips_one_seeded_byte(self, tmp_path):
        target = tmp_path / "victim.bin"
        flipped = []
        for _ in range(2):
            target.write_bytes(bytes(range(64)))
            plan = FaultPlan(rules=(
                FaultRule(site="cellcache.written", action="corrupt"),
            ), seed=7)
            with chaos_active(plan) as injector:
                fault_point("cellcache.written", target)
            assert injector.injected == [("cellcache.written", "corrupt", 1)]
            data = target.read_bytes()
            diff = [i for i, b in enumerate(data) if b != i]
            assert len(diff) == 1
            flipped.append(diff[0])
        assert flipped[0] == flipped[1]  # same seed, same byte


class TestRecoveryLadder:
    def config(self, tmp_path, **kw):
        return SnapshotConfig(directory=tmp_path, **kw)

    def write_generations(self, store, n):
        for seq in range(1, n + 1):
            store.write({"seq": seq}, sequence=seq, sim_time=float(seq),
                        events_processed=seq)

    @staticmethod
    def corrupt(path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_clean_load_reports_no_fallback(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path, keep=2))
        self.write_generations(store, 2)
        state, info = store.load_latest()
        assert state == {"seq": 2}
        report = store.last_recovery
        assert report is not None and not report.fallback
        assert report.recovered == info.payload

    def test_corrupt_manifest_falls_back_to_sidecar(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path, keep=2))
        self.write_generations(store, 2)
        (tmp_path / MANIFEST_NAME).write_text("{torn json")
        state, info = store.load_latest()
        assert state == {"seq": 2} and info.sequence == 2
        report = store.last_recovery
        assert report.fallback and report.requested is None
        assert any("unreadable" in e for e in report.errors)

    def test_corrupt_newest_payload_falls_back_a_generation(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path, keep=2))
        self.write_generations(store, 3)  # keeps seq 2 and 3
        self.corrupt(tmp_path / "snap-00000003.pkl")
        state, info = store.load_latest()
        assert state == {"seq": 2} and info.sequence == 2
        report = store.last_recovery
        assert report.fallback
        assert report.requested == "snap-00000003.pkl"
        assert report.recovered == "snap-00000002.pkl"
        assert report.recovered_sequence == 2
        assert list(report.tried) == ["snap-00000003.pkl",
                                      "snap-00000002.pkl"]
        assert any("checksum" in e for e in report.errors)
        # The report is JSON-safe for the export path.
        json.dumps(report.to_dict())

    def test_every_generation_corrupt_raises_cleanly(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path, keep=2))
        self.write_generations(store, 2)
        self.corrupt(tmp_path / "snap-00000001.pkl")
        self.corrupt(tmp_path / "snap-00000002.pkl")
        with pytest.raises(SnapshotError) as err:
            store.load_latest()
        message = str(err.value)
        assert "snap-00000002.pkl" in message
        assert "snap-00000001.pkl" in message

    def test_torn_rename_leaves_sweepable_debris(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        plan = FaultPlan(rules=(
            FaultRule(site="snapshot.payload.rename", action="torn"),
        ))
        with chaos_active(plan):
            with pytest.raises(OSError):
                store.write({"a": 1}, sequence=1, sim_time=0.0,
                            events_processed=0)
        debris = list(tmp_path.glob("*.tmp"))
        assert len(debris) == 1  # the torn temp file survived the crash
        assert store.sweep_debris() == 1
        assert list(tmp_path.glob("*.tmp")) == []
        # The store still works after the fault clears (limit=1 spent).
        store.write({"a": 1}, sequence=1, sim_time=0.0, events_processed=0)
        assert store.load_latest()[0] == {"a": 1}

    def test_load_latest_sweeps_debris(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        self.write_generations(store, 1)
        (tmp_path / "snap-00000009.pkl.abc123.tmp").write_bytes(b"torn")
        state, _ = store.load_latest()
        assert state == {"seq": 1}
        assert store.last_recovery.swept_tmp == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_sequence_restart_prunes_stale_future_generations(self, tmp_path):
        # A fresh run reusing the directory restarts numbering at 1: the
        # old high-numbered generations are stale state and must never
        # win a newest-first recovery scan.
        old = SnapshotStore(self.config(tmp_path, keep=2))
        for seq in (5, 6):
            old.write({"stale": seq}, sequence=seq, sim_time=0.0,
                      events_processed=0)
        fresh = SnapshotStore(self.config(tmp_path, keep=2))
        fresh.write({"fresh": 1}, sequence=1, sim_time=0.0,
                    events_processed=0)
        names = sorted(p.name for p in tmp_path.glob("snap-*"))
        assert names == ["snap-00000001.meta.json", "snap-00000001.pkl"]
        state, info = fresh.load_latest()
        assert state == {"fresh": 1} and info.sequence == 1


class TestTracerDegrade:
    def persistent_flush_fault(self):
        return FaultPlan(rules=(
            FaultRule(site="tracer.flush", action="enospc", nth=1,
                      every=1, limit=None),
        ))

    def test_flush_failure_degrades_once_and_keeps_ring(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path), flush_every=1,
                                       io_retries=0))
        with chaos_active(self.persistent_flush_fault()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for i in range(5):
                    tracer.emit("tick", float(i))
        degrade_warnings = [w for w in caught
                            if issubclass(w.category, RuntimeWarning)]
        assert len(degrade_warnings) == 1  # one-shot, not per flush
        assert "degraded" in str(degrade_warnings[0].message)
        assert tracer.degraded
        assert not path.exists()  # nothing ever reached the sick disk
        assert len(tracer.ring) == 5  # in-memory observability survives
        assert tracer.records_emitted == 5
        assert trace_to_dict(tracer)["degraded"] is True

    def test_transient_fault_recovered_by_retry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path), flush_every=1,
                                       io_retries=2))
        plan = FaultPlan(rules=(
            FaultRule(site="tracer.flush", action="eio", nth=1),  # once
        ))
        with chaos_active(plan) as injector:
            tracer.emit("tick", 0.0)
        assert injector.injected  # the fault really fired...
        assert not tracer.degraded  # ...and the retry absorbed it
        assert len(path.read_text().splitlines()) == 1
        assert "degraded" not in trace_to_dict(tracer)

    def test_strict_io_preserves_the_raise(self, tmp_path):
        tracer = RunTracer(TraceConfig(path=str(tmp_path / "t.jsonl"),
                                       flush_every=1, strict_io=True))
        with chaos_active(self.persistent_flush_fault()):
            with pytest.raises(OSError):
                tracer.emit("tick", 0.0)
        assert not tracer.degraded

    def test_degraded_state_survives_pickling(self, tmp_path):
        import pickle

        tracer = RunTracer(TraceConfig(path=str(tmp_path / "t.jsonl"),
                                       flush_every=1, io_retries=0))
        with chaos_active(self.persistent_flush_fault()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tracer.emit("tick", 0.0)
        assert tracer.degraded
        clone = pickle.loads(pickle.dumps(tracer))
        assert clone.degraded

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(io_retries=-1)


class TestCellCacheDegrade:
    def test_put_degrades_to_noop_with_one_warning(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        plan = FaultPlan(rules=(
            FaultRule(site="cellcache.write", action="enospc", nth=1,
                      every=1, limit=None),
        ))
        key = CellCache.key_of("k")
        with chaos_active(plan):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cache.put(key, {"v": 1}) is False
                assert cache.put(key, {"v": 2}) is False  # silent no-op now
        assert cache.degraded
        assert len([w for w in caught
                    if issubclass(w.category, RuntimeWarning)]) == 1
        assert cache.get(key) is None  # reads still work (a miss)
        assert len(cache) == 0

    def test_healthy_cache_unaffected(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = CellCache.key_of("k")
        assert cache.put(key, {"v": 1}) is True
        assert not cache.degraded
        assert cache.get(key) == {"v": 1}


class TestWorkerWatchdog:
    """SIGSTOPped workers hang silently — no BrokenProcessPool, ever.
    Every layer must reap them by deadline instead of waiting forever."""

    def test_pool_shutdown_is_bounded_with_stopped_worker(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        plan = FaultPlan(rules=(FaultRule(site="pool.task", action="stop"),))
        with chaos_active(plan):
            future = pool.submit(_answer, 21)
        time.sleep(0.5)  # let the worker pick the task up and freeze
        assert not future.done()
        start = time.monotonic()
        pool.shutdown(timeout=1.0)
        assert time.monotonic() - start < 10.0

    def test_kill_workers_reaps_stopped_worker_and_pool_recovers(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        try:
            assert pool.submit(_answer, 1).result(timeout=60) == 2
            plan = FaultPlan(rules=(
                FaultRule(site="pool.task", action="stop"),
            ))
            with chaos_active(plan):
                hung = pool.submit(_answer, 2)
            time.sleep(0.5)
            assert pool.kill_workers() >= 1
            assert hung.done() or hung.cancelled() or True  # future is dead
            # The reset pool computes again.
            assert pool.submit(_answer, 3).result(timeout=60) == 6
        finally:
            pool.shutdown(timeout=1.0)

    def test_campaign_validation(self):
        from repro.parallel import Campaign
        from tests.test_parallel import tiny_cells

        with pytest.raises(ValueError):
            Campaign(tiny_cells(1), cell_deadline=0.0)


class TestCampaignWatchdog:
    def test_cell_deadline_kills_hung_worker_and_output_identical(self):
        from repro.parallel import Campaign
        from tests.test_parallel import outcome_dicts, tiny_cells

        cells = tiny_cells(n_fixed=1)[:1]
        serial = Campaign(cells).run()
        plan = FaultPlan(rules=(FaultRule(site="pool.task", action="stop"),))
        with chaos_active(plan) as injector:
            survived = Campaign(cells, workers=2, fresh_pool=True,
                                cell_deadline=2.0).run()
        assert injector.injected == [("pool.task", "stop", 1)]
        assert outcome_dicts(survived) == outcome_dicts(serial)

    def test_exhausted_hang_budget_degrades_to_serial(self):
        from repro.parallel import Campaign
        from tests.test_parallel import outcome_dicts, tiny_cells

        cells = tiny_cells(n_fixed=1)[:1]
        serial = Campaign(cells).run()
        plan = FaultPlan(rules=(
            FaultRule(site="pool.task", action="stop", nth=1, every=1,
                      limit=None),
        ))
        with chaos_active(plan):
            survived = Campaign(cells, workers=2, fresh_pool=True,
                                cell_deadline=2.0, retries=0).run()
        assert outcome_dicts(survived) == outcome_dicts(serial)


class TestSoak:
    def test_seeded_soak_survives_kill_corrupt_resume(self):
        from repro.chaos.soak import SoakSpec, run_soak

        spec = SoakSpec(model="DAS2-fs0", hours=12.0, seed=29, cycles=2,
                        every_events=100)
        report = run_soak(spec)
        assert report.ok
        assert report.cycles == 2
        assert report.corruptions == report.fallbacks == 2
        assert report.identical
        assert report.recovery is not None and report.recovery["fallback"]
        json.dumps(report.to_dict())  # the report is export-safe

    def test_soak_with_degradable_write_noise(self):
        # Extra tracer/cache noise must not change the answer: those
        # sites degrade, they never corrupt results.
        from repro.chaos.soak import SoakSpec, run_soak

        plan = FaultPlan(rules=(
            FaultRule(site="cellcache.*", action="eio", nth=1),
        ), seed=3)
        spec = SoakSpec(model="DAS2-fs0", hours=12.0, seed=29, cycles=1,
                        every_events=100, plan=plan)
        report = run_soak(spec)
        assert report.ok and report.cycles >= 1

    def test_incomplete_soak_is_not_ok(self):
        from repro.chaos.soak import SoakReport

        report = SoakReport(cycles=0, corruptions=0, fallbacks=0,
                            identical=True)
        assert not report.ok  # the run finished before any interruption

    def test_spec_validation(self):
        from repro.chaos.soak import SoakSpec

        with pytest.raises(ValueError):
            SoakSpec(model="no-such-trace")
        with pytest.raises(ValueError):
            SoakSpec(hours=0.0)
        with pytest.raises(ValueError):
            SoakSpec(cycles=0)
        with pytest.raises(ValueError):
            SoakSpec(every_events=0)
