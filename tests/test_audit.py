"""Tests for the self-verification layer (repro.audit).

Three tiers:

* unit tests feeding the monitor hand-crafted breaches (each invariant
  must actually fire);
* mutation tests corrupting the engine's accounting mid-run and proving
  the differential oracle / cross-checks flag it (a verifier that never
  rejects verifies nothing);
* seeded randomized soak runs — synthetic and SWF-slice workloads,
  faults on and off, kill/resume mid-run — under ``strict``, asserting
  zero violations.
"""

import json
import pickle
import signal

import pytest

from repro.audit import (
    AuditConfig,
    AuditLevel,
    DifferentialOracle,
    InvariantMonitor,
    InvariantViolation,
    RunLedger,
    Violation,
    default_audit_config,
    set_default_audit,
)
from repro.audit.ledger import ChargeEntry, CompletionEntry
from repro.cloud.billing import HourlyBilling
from repro.cloud.provider import ProviderConfig
from repro.cloud.spot import SpotConfig
from repro.cloud.vm import VM, VMState
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.durability import DurableRunner, RunInterrupted, SnapshotConfig
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.metrics.collector import JobRecord
from repro.obs.profiler import Profiler
from repro.policies.combined import policy_by_name
from repro.resilience import CheckpointPolicy, FaultModel, RetryPolicy
from repro.sim.events import Event, EventKind
from repro.sim.kernel import Simulator
from repro.workload.cleaning import clean_jobs
from repro.workload.job import Job, JobState
from repro.workload.swf import parse_swf_file, write_swf
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0

STRICT = AuditConfig(level=AuditLevel.STRICT)
RECORD = AuditConfig(level=AuditLevel.RECORD)


def jobs_from(specs) -> list[Job]:
    """specs: (id, submit, runtime, procs)"""
    return [
        Job(job_id=i, submit_time=s, runtime=r, procs=p) for i, s, r, p in specs
    ]


def make_engine(jobs=None, *, audit=STRICT, hours=6.0, seed=11, policy=None,
                **config_kwargs):
    if jobs is None:
        jobs = generate_trace(DAS2_FS0, duration=hours * HOUR, seed=seed)
    scheduler = FixedScheduler(policy_by_name(policy or "ODA-FCFS-FirstFit"))
    return ClusterEngine(
        jobs, scheduler, config=EngineConfig(audit=audit, **config_kwargs)
    )


class TestConfig:
    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            AuditConfig(level="loud")

    def test_string_levels_coerce(self):
        assert AuditConfig(level="strict").level is AuditLevel.STRICT
        assert not AuditConfig(level="off").enabled

    def test_monitor_refuses_disabled_config(self):
        with pytest.raises(ValueError):
            InvariantMonitor(AuditConfig(level=AuditLevel.OFF))

    def test_default_round_trips(self):
        previous = set_default_audit(RECORD)
        try:
            assert default_audit_config() is RECORD
        finally:
            set_default_audit(previous)
        assert default_audit_config() is previous


class TestViolationException:
    """A strict-audit violation surfaces as itself wherever it travels."""

    def violation(self):
        return Violation("event-time-regression", 40.0, "clock went back")

    def test_raises_through_a_contextmanager_block(self):
        # contextlib sets ``__traceback__`` on the way out of the block.
        profiler = Profiler()
        with pytest.raises(InvariantViolation) as exc_info:
            with profiler.span("round"):
                raise InvariantViolation(self.violation(), ("e1",))
        assert exc_info.value.violation == self.violation()
        assert profiler.spans["round"].count == 1

    @pytest.mark.parametrize("keyword", [False, True])
    def test_pickle_round_trip_keeps_fields(self, keyword):
        # Campaign workers send exceptions to the parent by pickling them.
        events = ("t=1.000 GENERIC", "t=2.000 GENERIC")
        exc = (InvariantViolation(self.violation(), recent_events=events)
               if keyword else InvariantViolation(self.violation(), events))
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is InvariantViolation
        assert clone.violation == exc.violation
        assert clone.recent_events == events
        assert str(clone) == str(exc)


class TestMonitorUnits:
    """Each invariant must actually fire when its precondition breaks."""

    def monitor(self, level=AuditLevel.STRICT, **kw):
        return InvariantMonitor(AuditConfig(level=level, **kw))

    def test_cancelled_event_delivery_flagged(self):
        monitor = self.monitor()
        sim = Simulator()
        event = Event(5.0, EventKind.GENERIC)
        event.cancelled = True  # bypass the queue's lazy-skip machinery
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_event(sim, event)
        assert exc_info.value.violation.kind == "cancelled-event-delivered"

    def test_event_time_regression_flagged(self):
        monitor = self.monitor()
        sim = Simulator(start_time=100.0)
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_event(sim, Event(40.0, EventKind.GENERIC))
        assert exc_info.value.violation.kind == "event-time-regression"

    def test_exception_carries_ring_context(self):
        monitor = self.monitor(ring_size=3)
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            monitor.on_event(sim, Event(t, EventKind.GENERIC))
            sim.now = t
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_event(sim, Event(0.5, EventKind.GENERIC))
        recent = exc_info.value.recent_events
        assert len(recent) == 3  # bounded by ring_size
        assert "t=0.500" in recent[-1]  # the offending event is included
        assert "GENERIC" in recent[-1]

    def test_negative_charge_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0)
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_vm_charge(vm, -10.0, 100.0, "terminate")
        assert exc_info.value.violation.kind == "negative-charge"

    def test_billing_after_terminate_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=1, lease_time=0.0, ready_time=120.0)
        monitor.on_vm_charge(vm, HOUR, 600.0, "terminate")
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_vm_charge(vm, HOUR, 700.0, "straggler")
        assert exc_info.value.violation.kind == "billing-after-terminate"

    def test_undercharge_flagged(self):
        monitor = self.monitor()
        vm = VM(vm_id=2, lease_time=0.0, ready_time=120.0)
        with pytest.raises(InvariantViolation) as exc_info:
            # 2 h of wall lease time billed as 1 h
            monitor.on_vm_charge(vm, HOUR, 2 * HOUR + 5.0, "terminate")
        assert exc_info.value.violation.kind == "undercharge"

    def test_non_period_multiple_charge_flagged(self):
        monitor = self.monitor()
        monitor.attach_billing(HourlyBilling())
        vm = VM(vm_id=3, lease_time=0.0, ready_time=120.0)
        with pytest.raises(InvariantViolation) as exc_info:
            monitor.on_vm_charge(vm, 1_800.0, 600.0, "terminate")
        assert exc_info.value.violation.kind == "charge-not-period-multiple"

    def test_reserved_charges_skip_period_checks(self):
        monitor = self.monitor()
        monitor.attach_billing(HourlyBilling())
        vm = VM(vm_id=4, lease_time=0.0, ready_time=120.0, reserved=True)
        monitor.on_vm_charge(vm, 1_234.5, 10_000.0, "reserved")  # no raise
        assert monitor.violations_total == 0

    def test_double_completion_flagged(self):
        monitor = self.monitor()
        job = Job(job_id=9, submit_time=0.0, runtime=100.0, procs=1)
        job.state = JobState.RUNNING
        job.start_time = 10.0
        monitor._log_completion(110.0, job)
        with pytest.raises(InvariantViolation) as exc_info:
            monitor._log_completion(110.0, job)
        assert exc_info.value.violation.kind == "job-double-completion"

    def test_overconsumption_flagged(self):
        monitor = self.monitor()
        job = Job(job_id=10, submit_time=0.0, runtime=100.0, procs=2)
        job.state = JobState.RUNNING
        job.start_time = 10.0
        with pytest.raises(InvariantViolation) as exc_info:
            monitor._log_completion(500.0, job)  # ran 490 s of a 100 s job
        assert exc_info.value.violation.kind == "job-overconsumption"

    def test_record_level_accumulates_without_raising(self):
        monitor = self.monitor(level=AuditLevel.RECORD, max_violations=2)
        vm = VM(vm_id=5, lease_time=0.0, ready_time=120.0)
        for _ in range(3):
            monitor.on_vm_charge(vm, -1.0, 50.0, "straggler")
        # Each call trips both negative-charge and undercharge.
        assert monitor.violations_total == 6
        assert len(monitor.violations) == 2  # storage capped, count exact

    def test_warn_level_prints_to_stderr(self, capsys):
        monitor = self.monitor(level=AuditLevel.WARN, max_warnings=1)
        vm = VM(vm_id=6, lease_time=0.0, ready_time=120.0)
        monitor.on_vm_charge(vm, -1.0, 50.0, "straggler")
        monitor.on_vm_charge(vm, -1.0, 60.0, "straggler")
        err = capsys.readouterr().err
        assert err.count("[audit]") == 1  # capped
        assert "negative-charge" in err


class TestOracle:
    def ledger_with(self, completions=(), charges=()):
        ledger = RunLedger()
        for entry in completions:
            ledger.job_completed(CompletionEntry(*entry))
        for entry in charges:
            ledger.vm_charged(ChargeEntry(*entry))
        return ledger

    def test_recomputation_matches_hand_arithmetic(self):
        ledger = self.ledger_with(
            completions=[(1, 0.0, 120.0, 720.0, 600.0, 2)],
            charges=[(0, 0.0, 720.0, HOUR, False, "terminate"),
                     (1, 0.0, 720.0, HOUR, False, "terminate")],
        )
        oracle = DifferentialOracle()
        assert oracle.recompute_rj(ledger) == pytest.approx(1_200.0)
        assert oracle.recompute_rv(ledger) == pytest.approx(2 * HOUR)
        assert oracle.recompute_bsd(ledger) == pytest.approx(720.0 / 600.0)

    def test_empty_run_conventions(self):
        ledger = self.ledger_with()
        oracle = DifferentialOracle()
        assert oracle.recompute_bsd(ledger) == 1.0
        assert oracle.recompute_utility(0.0, 0.0, 1.0) == 100.0  # RV=0 ⇒ util 1


class TestEngineIntegration:
    def test_clean_run_audits_ok(self):
        result = make_engine(hours=8.0).run()
        report = result.audit
        assert report is not None
        assert report.ok
        assert report.violations_total == 0
        assert report.oracle_ok
        assert report.completions_logged == result.metrics.jobs
        assert report.events_audited == result.sim_events

    def test_explicit_off_beats_process_default(self):
        # conftest turns strict on suite-wide; an explicit off must win.
        result = make_engine(
            jobs_from([(1, 0.0, 600.0, 1)]), audit=AuditConfig(level="off")
        ).run()
        assert result.audit is None

    def test_portfolio_run_audits_ok(self):
        jobs = generate_trace(DAS2_FS0, duration=6 * HOUR, seed=5)
        engine = ClusterEngine(
            jobs,
            PortfolioScheduler(seed=7),
            config=EngineConfig(audit=STRICT),
        )
        report = engine.run().audit
        assert report is not None and report.ok

    def test_audit_in_export(self):
        result = make_engine(hours=4.0).run()
        payload = result_to_dict(result)
        assert payload["audit"]["ok"] is True
        assert payload["audit"]["level"] == "strict"
        assert payload["audit"]["oracle"]["ok"] is True
        json.dumps(payload)  # JSON-safe


class TestMutations:
    """The oracle/cross-checks must reject deliberately corrupted books."""

    def test_oracle_flags_corrupted_rv_accumulator(self):
        engine = make_engine(hours=6.0, audit=RECORD)
        engine.start()
        engine.advance()
        # The silent-bug archetype: RV inflated without any VM charge.
        engine.provider.charged_seconds_total += 7 * HOUR
        report = engine.finalize().audit
        assert report is not None
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "rv-ledger-divergence" in kinds
        assert "oracle-divergence" in kinds
        diverged = {c.metric for c in report.oracle_checks if not c.ok}
        assert "rv_seconds" in diverged
        assert "utility" in diverged

    def test_strict_raises_on_corrupted_rv(self):
        engine = make_engine(hours=6.0, audit=STRICT)
        engine.start()
        engine.advance()
        engine.provider.charged_seconds_total += 7 * HOUR
        with pytest.raises(InvariantViolation) as exc_info:
            engine.finalize()
        assert exc_info.value.violation.kind == "rv-ledger-divergence"

    def test_duplicated_metrics_record_flagged(self):
        engine = make_engine(hours=6.0, audit=RECORD)
        engine.start()
        engine.advance()
        # A double-counted job: the collector holds one record too many.
        engine.metrics.records.append(engine.metrics.records[0])
        report = engine.finalize().audit
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert "metrics-record-mismatch" in kinds
        diverged = {c.metric for c in report.oracle_checks if not c.ok}
        assert "jobs" in diverged or "rj_seconds" in diverged

    def test_forged_completion_record_diverges_rj(self):
        engine = make_engine(hours=6.0, audit=RECORD)
        engine.start()
        engine.advance()
        engine.metrics.records[0] = JobRecord(
            job_id=engine.metrics.records[0].job_id,
            submit_time=engine.metrics.records[0].submit_time,
            start_time=engine.metrics.records[0].start_time,
            finish_time=engine.metrics.records[0].finish_time,
            runtime=engine.metrics.records[0].runtime + 10_000.0,
            procs=engine.metrics.records[0].procs,
        )
        report = engine.finalize().audit
        assert not report.ok
        diverged = {c.metric for c in report.oracle_checks if not c.ok}
        assert "rj_seconds" in diverged


def steady_engine(**config_kwargs) -> ClusterEngine:
    """A strict-audited engine parked where every round changes nothing.

    Job 1 runs on VM 0 for 10 h.  Job 2 needs both VMs the cap of 2
    allows, so it waits behind job 1 while VM 1 idles.  Job 3 arrives at
    8 h.  Until then each 20 s round only moves the clock, so a
    corruption made between ``advance()`` calls is still in place when
    the next round's census runs.
    """
    jobs = jobs_from(
        [(1, 0.0, 10 * HOUR, 1), (2, 0.0, 600.0, 2), (3, 8 * HOUR, 600.0, 1)]
    )
    engine = make_engine(jobs, provider=ProviderConfig(max_vms=2), **config_kwargs)
    engine.start()
    while engine.sim.now < 600.0:
        engine.advance(max_events=1)
    vm0, vm1 = engine.provider.vms()
    assert (vm0.state, vm0.job_id) == (VMState.BUSY, 1)
    assert (vm1.state, vm1.job_id) == (VMState.IDLE, None)
    assert [job.job_id for job in engine.queue] == [2]
    assert engine._jobs_by_id[3].state is JobState.PENDING
    return engine


def _set_state(job_id, state):
    def mutate(engine):
        engine._jobs_by_id[job_id].state = state
    return mutate


def _bump(owner, attr, by=1):
    def mutate(engine):
        target = engine if owner is None else getattr(engine, owner)
        setattr(target, attr, getattr(target, attr) + by)
    return mutate


def _bind(job_id, vms):
    def mutate(engine):
        engine._vms_of_job[job_id] = vms(engine)
    return mutate


def _vm1(state=None, job_id=None):
    def mutate(engine):
        vm = engine.provider._fleet[1]
        if state is not None:
            vm.state = state
        vm.job_id = job_id
    return mutate


def _double_queue(engine):
    engine.queue.append(engine.queue[0])


def _hold_running_job(engine):
    engine._held.add(1)


def _rebind_to_queued_job(engine):
    engine._vms_of_job[2] = engine._vms_of_job.pop(1)


def _lease_past_cap(engine):
    now = engine.sim.now
    engine.provider._fleet[99] = VM(vm_id=99, lease_time=now, ready_time=now + 120.0)


def _resurrect_vm1(engine):
    vm = engine.provider._fleet[1]
    engine.provider.terminate(vm, engine.sim.now)
    vm.state = VMState.IDLE
    engine.provider._fleet[vm.vm_id] = vm


def _reclaim_without_notice(engine):
    engine.spot_stats.preemptions += 1
    engine.audit._preempt_charges += 1


def _dead_vm(engine):
    return [VM(vm_id=99, lease_time=0.0, ready_time=0.0, state=VMState.TERMINATED)]


# Spot on, but never used: no spot share, no reclaims.
IDLE_SPOT = dict(spot=SpotConfig(spot_fraction=0.0, preempt_rate_per_hour=0.0))

#: (mutation, engine config, violation kind, message fragment): one row
#: per comparison ``check_round`` makes.
ROUND_MUTATIONS = [
    pytest.param(_set_state(3, JobState.QUEUED), {}, "job-conservation",
                 "jobs are QUEUED but the queue holds", id="queued-count"),
    pytest.param(_bump(None, "_finished"), {}, "job-conservation",
                 "jobs are FINISHED but the engine counted", id="finished-count"),
    pytest.param(_bump(None, "jobs_failed"), {}, "job-conservation",
                 "jobs are FAILED but the engine counted", id="failed-count"),
    pytest.param(_set_state(3, JobState.RUNNING), {}, "job-conservation",
                 "jobs are RUNNING but 1 hold VM bindings", id="running-count"),
    pytest.param(_double_queue, {}, "job-double-queued",
                 "appears twice in the queue", id="double-queued"),
    pytest.param(_set_state(2, JobState.PENDING), {}, "queued-job-bad-state",
                 "sits in the queue in state PENDING", id="queued-bad-state"),
    pytest.param(_hold_running_job, {}, "held-job-bad-state",
                 "is in state RUNNING", id="held-bad-state"),
    pytest.param(_rebind_to_queued_job, {}, "binding-without-running-job",
                 "job 2 in state QUEUED", id="binding-without-running-job"),
    pytest.param(_bind(1, lambda engine: []), {}, "job-vm-count-mismatch",
                 "needs 1 VMs but is bound to 0", id="vm-count"),
    pytest.param(_bind(1, _dead_vm), {}, "job-on-released-vm",
                 "bound to terminated vm 99", id="released-vm"),
    pytest.param(_bind(1, lambda engine: [engine.provider._fleet[1]]), {},
                 "vm-binding-mismatch", "in state IDLE serving job None",
                 id="binding-mismatch"),
    pytest.param(_lease_past_cap, {}, "fleet-over-cap",
                 "3 VMs leased, above the cap 2", id="over-cap"),
    pytest.param(_vm1(VMState.TERMINATED), {}, "terminated-vm-in-fleet",
                 "vm 1 is TERMINATED", id="terminated-in-fleet"),
    pytest.param(_resurrect_vm1, {}, "vm-resurrected",
                 "vm 1 was billed for termination", id="resurrected"),
    pytest.param(_vm1(VMState.BUSY, job_id=2), {}, "busy-vm-unbound",
                 "busy vm 1 serves job 2", id="busy-unbound"),
    pytest.param(_vm1(job_id=2), {}, "non-busy-vm-with-job",
                 "vm 1 in state IDLE still holds job 2", id="idle-with-job"),
    pytest.param(_vm1(VMState.BUSY, job_id=1), {}, "busy-count-mismatch",
                 "2 VMs are BUSY but jobs hold 1", id="busy-count"),
    pytest.param(_bump("provider", "charged_seconds_total", -HOUR), {},
                 "rv-accrual-regression", "charged total fell",
                 id="rv-regression"),
    pytest.param(_bump("spot_stats", "preemptions"), IDLE_SPOT,
                 "preemption-conservation", "the billing hook saw 0",
                 id="preempt-vs-settlements"),
    pytest.param(_reclaim_without_notice, IDLE_SPOT, "preemption-conservation",
                 "only 0 preemption notices", id="preempt-vs-notices"),
    pytest.param(_vm1(VMState.BOOTING), {}, "fleet-index-mismatch",
                 "BOOTING partition holds VMs [] but the fleet walk finds [1]",
                 id="fleet-index"),
]


class TestRoundCheckMutations:
    """Every comparison of the per-round census must fire, in strict
    mode, on the round right after the books are corrupted."""

    @pytest.mark.parametrize("mutate, config, kind, fragment", ROUND_MUTATIONS)
    def test_corruption_raises_on_next_round(self, mutate, config, kind, fragment):
        engine = steady_engine(**config)
        rounds = engine.audit.rounds_audited
        mutate(engine)
        with pytest.raises(InvariantViolation) as exc_info:
            engine.advance()
        violation = exc_info.value.violation
        assert violation.kind == kind
        assert fragment in violation.message
        assert engine.audit.rounds_audited == rounds + 1

    def test_untouched_engine_stays_clean(self):
        engine = steady_engine(**IDLE_SPOT)
        engine.advance()
        assert engine.finalize().audit.ok


FAULT_KWARGS = dict(
    faults=FaultModel(
        seed=3,
        lease_fault_rate=0.15,
        partial_grant_rate=0.1,
        boot_fail_rate=0.05,
        boot_jitter_scale=20.0,
        outage_mtbo_seconds=86_400.0 / 8,
        outage_duration_seconds=600.0,
        outage_kill_fraction=0.5,
    ),
    lease_retry=RetryPolicy(),
    checkpoint=CheckpointPolicy(600.0),
    max_job_retries=4,
)


class TestAuditSoak:
    """Seeded randomized soak: strict audit must stay silent across
    synthetic and SWF workloads, faults on and off, and kill/resume."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_synthetic_soak(self, seed, with_faults):
        kwargs = dict(FAULT_KWARGS) if with_faults else {}
        result = make_engine(
            hours=6.0, seed=seed, policy="ODA-UNICEF-FirstFit", **kwargs
        ).run()
        assert result.audit is not None
        assert result.audit.ok, [v.message for v in result.audit.violations]

    def test_swf_slice_soak(self, tmp_path):
        jobs = generate_trace(DAS2_FS0, duration=6 * HOUR, seed=13)
        swf = tmp_path / "slice.swf"
        with open(swf, "w", encoding="utf-8") as fh:
            write_swf(jobs, fh, header="audit soak slice")
        parsed, _report = clean_jobs(parse_swf_file(swf), system_procs=128)
        assert parsed
        result = make_engine(parsed, **FAULT_KWARGS).run()
        assert result.audit is not None and result.audit.ok

    def test_kill_resume_soak_keeps_auditing(self, tmp_path):
        config = SnapshotConfig(
            tmp_path, interval_seconds=None, every_events=150
        )
        reference = result_to_dict(
            make_engine(seed=17, **FAULT_KWARGS).run(), include_records=True
        )
        assert reference["audit"]["ok"]

        runner = DurableRunner(make_engine(seed=17, **FAULT_KWARGS), config)
        runner.on_snapshot = lambda info: (
            runner.request_stop(signal.SIGTERM) if info.sequence >= 2 else None
        )
        with pytest.raises(RunInterrupted):
            runner.run()

        resumed_runner = DurableRunner.resume(config)
        resumed_engine = resumed_runner.engine
        # Audit state survived the round trip and keeps checking.
        assert resumed_engine.audit is not None
        assert resumed_engine.sim.tracer is not None
        assert resumed_engine.provider.on_charge is not None
        resumed = result_to_dict(resumed_runner.run(), include_records=True)
        assert resumed["audit"]["ok"]
        assert json.dumps(reference, sort_keys=True) == \
            json.dumps(resumed, sort_keys=True)
