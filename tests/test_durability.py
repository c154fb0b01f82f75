"""Tests for crash-safe checkpoint/resume (repro.durability).

The acceptance bar is bit-identical resume: kill a run at a snapshot
boundary, resume it, and the final exported result must equal the
uninterrupted run's byte for byte.  Everything here uses the
deterministic virtual cost clock — wall-clock selection budgets are
inherently host-dependent and out of scope for identity tests.
"""

import json
import pickle
import random
import signal

import numpy as np
import pytest

from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.durability import (
    MANIFEST_NAME,
    CompletedRun,
    DurableRunner,
    RunInterrupted,
    RunState,
    SnapshotConfig,
    SnapshotError,
    SnapshotStore,
)
from repro.experiments.engine import ClusterEngine
from repro.experiments.export import result_to_dict
from repro.policies.combined import policy_by_name
from repro.sim.clock import VirtualCostClock
from repro.sim.events import Event, restore_seq, snapshot_seq
from repro.sim.kernel import EventQueue
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0


def make_engine(hours=24.0, seed=29, portfolio=True):
    jobs = generate_trace(DAS2_FS0, duration=hours * HOUR, seed=seed)
    if portfolio:
        scheduler = PortfolioScheduler(cost_clock=VirtualCostClock(0.010), seed=7)
    else:
        scheduler = FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))
    return ClusterEngine(jobs, scheduler)


class TestSnapshotStore:
    def config(self, tmp_path, **kw):
        return SnapshotConfig(directory=tmp_path, **kw)

    def test_write_load_round_trip(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        state = {"clock": 123.5, "values": list(range(50))}
        info = store.write(state, sequence=3, sim_time=123.5, events_processed=40)
        assert info.sequence == 3
        assert (tmp_path / info.payload).is_file()
        assert (tmp_path / MANIFEST_NAME).is_file()
        loaded, loaded_info = store.load_latest()
        assert loaded == state
        assert loaded_info == info

    def test_manifest_carries_metadata(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        store.write("x", sequence=7, sim_time=9.0, events_processed=11,
                    completed=True)
        info = store.manifest()
        assert (info.sequence, info.sim_time, info.events_processed,
                info.completed) == (7, 9.0, 11, True)

    def test_old_payloads_pruned(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path, keep=2))
        for seq in range(1, 5):
            store.write({"seq": seq}, sequence=seq, sim_time=0.0,
                        events_processed=0)
        names = sorted(p.name for p in tmp_path.glob("snap-*.pkl"))
        assert names == ["snap-00000003.pkl", "snap-00000004.pkl"]

    def test_no_manifest_raises(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot manifest"):
            SnapshotStore(self.config(tmp_path)).load_latest()

    def test_corrupt_payload_refused(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        info = store.write({"a": 1}, sequence=1, sim_time=0.0, events_processed=0)
        payload = tmp_path / info.payload
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum"):
            store.load_latest()

    def test_missing_payload_refused(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        info = store.write({"a": 1}, sequence=1, sim_time=0.0, events_processed=0)
        (tmp_path / info.payload).unlink()
        with pytest.raises(SnapshotError, match="missing"):
            store.load_latest()

    def test_unsupported_format_refused(self, tmp_path):
        # Both the top-level manifest AND the generation sidecar must be
        # tampered: the recovery ladder would otherwise (correctly) fall
        # back to the intact sidecar and load anyway.  Format 3 predates
        # the removal of EngineConfig.alloc and format 4 the tuple-keyed
        # event heap; both must be refused too.
        for stale in (3, 4, 999):
            directory = tmp_path / str(stale)
            store = SnapshotStore(self.config(directory))
            store.write({"a": 1}, sequence=1, sim_time=0.0, events_processed=0)
            for name in (MANIFEST_NAME, "snap-00000001.meta.json"):
                path = directory / name
                raw = json.loads(path.read_text())
                raw["format"] = stale
                path.write_text(json.dumps(raw))
            with pytest.raises(SnapshotError, match="format"):
                store.load_latest()

    def test_no_tmp_litter_after_write(self, tmp_path):
        store = SnapshotStore(self.config(tmp_path))
        store.write({"a": 1}, sequence=1, sim_time=0.0, events_processed=0)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotConfig(directory=tmp_path, interval_seconds=0.0)
        with pytest.raises(ValueError):
            SnapshotConfig(directory=tmp_path, every_events=0)
        with pytest.raises(ValueError):
            SnapshotConfig(directory=tmp_path, keep=0)


class TestHeapRoundTrip:
    def test_pop_order_preserved_across_pickle(self):
        rng = random.Random(7)
        q = EventQueue()
        pushed = []
        for _ in range(200):
            e = q.push(Event(time=rng.uniform(0, 100),
                             priority=rng.randrange(6)))
            pushed.append(e)
        for e in rng.sample(pushed, 40):
            e.cancel()
        clone = pickle.loads(pickle.dumps(q))
        original = [e.sort_key() for e in q.drain()]
        restored = [e.sort_key() for e in clone.drain()]
        assert original == restored

    def test_live_counter_survives_pickle(self):
        q = EventQueue()
        a = q.push(Event(1.0))
        q.push(Event(2.0))
        a.cancel()
        clone = pickle.loads(pickle.dumps(q))
        assert len(clone) == len(q) == 1

    def test_owner_backref_survives_pickle(self):
        q = EventQueue()
        e = q.push(Event(1.0))
        clone = pickle.loads(pickle.dumps(q))
        _, _, _, clone_event = clone._heap[0]
        assert clone_event.owner is clone
        clone_event.cancel()
        assert len(clone) == 0
        assert len(q) == 1  # originals untouched

    def test_seq_counter_snapshot_restore(self):
        base = snapshot_seq()
        Event(1.0)
        assert snapshot_seq() == base + 1
        restore_seq(base + 100)
        assert snapshot_seq() == base + 100
        restore_seq(base)  # backwards restore is a no-op (monotonic)
        assert snapshot_seq() == base + 100


class TestRngRoundTrip:
    def test_generator_stream_continues_bit_exactly(self):
        rng = np.random.default_rng(3)
        rng.random(17)  # advance into the stream
        clone = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(rng.random(100), clone.random(100))
        assert np.array_equal(rng.integers(0, 1000, 50),
                              clone.integers(0, 1000, 50))

    def test_rng_factory_streams_continue_bit_exactly(self):
        from repro.sim.rng import RngFactory

        rngs = RngFactory(11)
        rngs("arrivals").random(9)
        rngs("runtimes").integers(0, 100, 5)
        clone = pickle.loads(pickle.dumps(rngs))
        for stream in ("arrivals", "runtimes", "never-drawn-before"):
            assert np.array_equal(rngs(stream).random(64),
                                  clone(stream).random(64)), stream


class TestEngineRoundTrip:
    def test_vm_billing_anchors_preserved(self):
        engine = make_engine(hours=24.0, portfolio=False)
        engine.start()
        # advance until we catch the engine with VMs actually leased
        # (eager release drains the fleet between arrival bursts)
        for _ in range(200):
            if not engine.advance(max_events=25):
                break
            if engine.provider._fleet:
                break
        fleet = list(engine.provider._fleet.values())
        assert fleet, "expected live VMs mid-run"
        clone = pickle.loads(pickle.dumps(engine))
        clone_fleet = list(clone.provider._fleet.values())
        anchors = [(vm.vm_id, vm.lease_time, vm.ready_time, vm.state,
                    vm.job_id, vm.busy_until) for vm in fleet]
        clone_anchors = [(vm.vm_id, vm.lease_time, vm.ready_time, vm.state,
                          vm.job_id, vm.busy_until) for vm in clone_fleet]
        assert anchors == clone_anchors
        assert clone.provider.charged_seconds_total == \
            engine.provider.charged_seconds_total
        assert clone.provider._next_id == engine.provider._next_id

    def test_mid_run_pickle_finishes_identically(self):
        engine = make_engine(hours=24.0)
        engine.start()
        engine.advance(max_events=500)
        clone = pickle.loads(pickle.dumps(engine))
        engine.advance()
        clone.advance()
        ra = result_to_dict(engine.finalize(), include_records=True)
        rb = result_to_dict(clone.finalize(), include_records=True)
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


class TestDurableRunner:
    def config(self, tmp_path, **kw):
        defaults = dict(directory=tmp_path, interval_seconds=None,
                        every_events=200)
        defaults.update(kw)
        return SnapshotConfig(**defaults)

    def test_uninterrupted_durable_run_matches_plain_run(self, tmp_path):
        plain = result_to_dict(make_engine().run(), include_records=True)
        runner = DurableRunner(make_engine(), self.config(tmp_path))
        durable = result_to_dict(runner.run(), include_records=True)
        assert json.dumps(plain, sort_keys=True) == \
            json.dumps(durable, sort_keys=True)
        assert runner.snapshots_written > 0

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        reference = result_to_dict(make_engine().run(), include_records=True)

        runner = DurableRunner(make_engine(), self.config(tmp_path))
        runner.on_snapshot = lambda info: (
            runner.request_stop(signal.SIGTERM) if info.sequence >= 2 else None
        )
        with pytest.raises(RunInterrupted) as exc_info:
            runner.run()
        assert exc_info.value.signum == signal.SIGTERM
        assert exc_info.value.info.sequence >= 2

        resumed_runner = DurableRunner.resume(self.config(tmp_path))
        assert resumed_runner.resumed_from is not None
        resumed = result_to_dict(resumed_runner.run(), include_records=True)
        assert json.dumps(reference, sort_keys=True) == \
            json.dumps(resumed, sort_keys=True)

    def test_resume_of_completed_run_re_reports(self, tmp_path):
        runner = DurableRunner(make_engine(), self.config(tmp_path))
        result = runner.run()
        again = DurableRunner.resume(self.config(tmp_path))
        assert again.resumed_from is not None
        assert again.resumed_from.completed
        assert result_to_dict(again.run(), include_records=True) == \
            result_to_dict(result, include_records=True)

    def test_resume_with_empty_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotError):
            DurableRunner.resume(self.config(tmp_path))

    def test_snapshot_cadence_follows_event_trigger(self, tmp_path):
        infos = []
        runner = DurableRunner(make_engine(), self.config(tmp_path),
                               on_snapshot=infos.append)
        runner.run()
        assert len(infos) >= 2
        gaps = [b.events_processed - a.events_processed
                for a, b in zip(infos, infos[1:])]
        assert all(g >= 200 for g in gaps)
        # trigger fires as soon as the batch crosses the boundary
        assert all(g <= 200 + DurableRunner.CHECK_EVERY for g in gaps)

    def test_run_state_capture_restore(self, tmp_path):
        engine = make_engine(portfolio=False)
        engine.start()
        engine.advance(max_events=300)
        state = RunState.capture(engine)
        restored = pickle.loads(pickle.dumps(state)).restore()
        assert restored.sim.now == engine.sim.now
        assert restored.sim.events_processed == engine.sim.events_processed
        assert snapshot_seq() >= state.seq

    def test_completed_run_pickles(self):
        result = make_engine(hours=6.0, portfolio=False).run()
        clone = pickle.loads(pickle.dumps(CompletedRun(result=result)))
        assert result_to_dict(clone.result) == result_to_dict(result)
