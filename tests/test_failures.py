"""Tests for VM failure injection."""

import pytest

from repro.cloud.failures import FailureModel
from repro.cloud.vm import VMState
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.policies.combined import policy_by_name
from repro.sim.clock import VirtualCostClock
from repro.sim.events import EventKind
from repro.workload.job import Job, JobState
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0


def _start_engine(engine: ClusterEngine) -> None:
    """Schedule the trace arrivals without draining the simulation (for
    tests that drive the event loop by hand)."""
    for job in engine.jobs:
        engine.sim.schedule_at(job.submit_time, EventKind.JOB_ARRIVAL, job)


class TestModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FailureModel(mtbf_seconds=0.0)

    def test_sampler_exponential_mean(self):
        sampler = FailureModel(mtbf_seconds=1_000.0, seed=1).sampler()
        draws = [sampler.time_to_failure() for _ in range(5_000)]
        assert sum(draws) / len(draws) == pytest.approx(1_000.0, rel=0.1)
        assert sampler.failures_drawn == 5_000

    def test_deterministic_per_seed(self):
        a = FailureModel(mtbf_seconds=100.0, seed=3).sampler()
        b = FailureModel(mtbf_seconds=100.0, seed=3).sampler()
        assert [a.time_to_failure() for _ in range(5)] == [
            b.time_to_failure() for _ in range(5)
        ]

    def test_distinct_seeds_diverge(self):
        a = FailureModel(mtbf_seconds=100.0, seed=3).sampler()
        b = FailureModel(mtbf_seconds=100.0, seed=4).sampler()
        assert [a.time_to_failure() for _ in range(5)] != [
            b.time_to_failure() for _ in range(5)
        ]

    def test_draws_are_positive_and_finite(self):
        sampler = FailureModel(mtbf_seconds=50.0, seed=9).sampler()
        for _ in range(1_000):
            ttf = sampler.time_to_failure()
            assert 0.0 < ttf < float("inf")


class TestEngineWithFailures:
    def test_no_failures_with_huge_mtbf(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=300.0, procs=2)]
        config = EngineConfig(failures=FailureModel(mtbf_seconds=1e12, seed=1))
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")), config=config
        ).run()
        assert result.failures == 0
        assert result.unfinished_jobs == 0

    def test_aggressive_failures_still_complete_workload(self):
        """With a 30-minute MTBF and survivable (short) jobs, the engine
        re-queues and finishes everything, booking the wasted work.

        (A job whose runtime rivals the MTBF can *never* finish in this
        rigid no-checkpoint model — emergent and intended; here every job
        is capped well below the MTBF.)
        """
        jobs = [
            Job(job_id=j.job_id, submit_time=j.submit_time,
                runtime=min(j.runtime, 600.0), procs=j.procs, user=j.user)
            for j in generate_trace(DAS2_FS0, duration=4 * 3_600.0, seed=29)
        ]
        config = EngineConfig(failures=FailureModel(mtbf_seconds=1_800.0, seed=2))
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")), config=config
        ).run()
        assert result.unfinished_jobs == 0
        assert result.failures > 0
        assert result.metrics.jobs == len(jobs)

    def test_failures_increase_slowdown_and_cost(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * 3_600.0, seed=29)
        reliable = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
        ).run()
        flaky = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
            config=EngineConfig(failures=FailureModel(mtbf_seconds=1_800.0, seed=2)),
        ).run()
        assert flaky.failures > 0
        assert (
            flaky.metrics.avg_bounded_slowdown
            >= reliable.metrics.avg_bounded_slowdown
        )
        assert flaky.wasted_cpu_seconds > 0

    def test_killed_job_reruns_from_scratch(self):
        """One VM, one long job, MTBF far below the runtime: the job dies
        at least once and its final record shows a restart (wait > 0)."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=2_000.0, procs=1)]
        config = EngineConfig(failures=FailureModel(mtbf_seconds=900.0, seed=5))
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")), config=config
        ).run()
        assert result.unfinished_jobs == 0
        if result.failures:  # the seed above does fail at least once
            rec = result.records[0]
            assert rec.finish_time - rec.submit_time > 2_000.0
            assert result.wasted_cpu_seconds > 0

    def test_portfolio_scheduler_tolerates_failures(self):
        jobs = generate_trace(DAS2_FS0, duration=2 * 3_600.0, seed=31)
        scheduler = PortfolioScheduler(cost_clock=VirtualCostClock(0.01), seed=3)
        config = EngineConfig(failures=FailureModel(mtbf_seconds=3_600.0, seed=4))
        result = ClusterEngine(jobs, scheduler, config=config).run()
        assert result.unfinished_jobs == 0

    def test_reserved_vms_exempt(self):
        """Failures apply to the on-demand fleet only (documented)."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=500.0, procs=1)]
        config = EngineConfig(
            reserved_vms=1,
            failures=FailureModel(mtbf_seconds=1.0, seed=6),  # instant death
        )
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODB-FCFS-FirstFit")), config=config
        ).run()
        # ODB sees the reserved VM as supply, leases nothing on-demand,
        # and the reserved VM never fails
        assert result.failures == 0
        assert result.unfinished_jobs == 0

    def test_failure_events_armed_for_on_demand_only(self):
        """A mixed fleet arms exponential lifetimes for on-demand VMs and
        never for reserved ones."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=400.0, procs=2)]
        config = EngineConfig(
            reserved_vms=1,
            failures=FailureModel(mtbf_seconds=1e12, seed=7),
        )
        engine = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")), config=config
        )
        if engine.config.reserved_vms:
            for vm in engine.provider.lease(1, now=0.0, reserved=True):
                engine.sim.schedule_at(vm.ready_time, EventKind.VM_READY, vm)
        _start_engine(engine)
        # run until the on-demand VM for the job's second proc is leased
        while not any(not vm.reserved for vm in engine.provider.vms()):
            engine.sim.step()
        armed = set(engine._failure_events)
        on_demand = {vm.vm_id for vm in engine.provider.vms() if not vm.reserved}
        reserved = {vm.vm_id for vm in engine.provider.vms() if vm.reserved}
        assert armed == on_demand
        assert not (armed & reserved)

    def test_multi_vm_job_failure_releases_peers_and_requeues(self):
        """When one VM of a 3-wide job dies, the two surviving peers are
        released (still paid for) and the whole job requeues."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=1_000.0, procs=3)]
        engine = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))
        )
        _start_engine(engine)
        while engine.jobs[0].state is not JobState.RUNNING:
            engine.sim.step()
        vms = list(engine._vms_of_job[1])
        assert len(vms) == 3
        # let the job run for a while so the kill wastes real work
        target = engine.sim.now + 200.0
        engine.sim.on(EventKind.GENERIC, lambda s, e: None)
        engine.sim.schedule_at(target, EventKind.GENERIC, None)
        while engine.sim.now < target:
            engine.sim.step()
        victim = vms[0]
        engine._fail_vm(engine.sim, victim)
        assert not victim.alive
        assert all(peer.state is VMState.IDLE for peer in vms[1:])
        assert engine.jobs[0].state is JobState.QUEUED
        assert engine.jobs[0] in engine.queue
        assert 1 not in engine._vms_of_job
        assert 1 not in engine._finish_events
        # the run still drains to completion after the kill
        engine.sim.run()
        assert engine._finished == 1
        assert engine.wasted_cpu_seconds > 0

    def test_failure_during_boot(self):
        """A VM that dies while BOOTING counts as a boot failure, is still
        charged, and its VM_READY event is a harmless no-op."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=300.0, procs=1)]
        engine = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))
        )
        _start_engine(engine)
        while not engine.provider.vms():
            engine.sim.step()
        vm = engine.provider.vms()[0]
        assert vm.state is VMState.BOOTING
        engine._fail_vm(engine.sim, vm)
        assert engine.boot_failures == 1
        assert not vm.alive
        assert engine.provider.charged_seconds_total > 0
        # the engine leases a replacement and finishes the job
        engine.sim.run()
        assert engine._finished == 1

    def test_bit_identical_for_fixed_seed(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29)
        config = EngineConfig(failures=FailureModel(mtbf_seconds=1_800.0, seed=2))

        def run():
            return ClusterEngine(
                [j.fresh_copy() for j in jobs],
                FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
                config=config,
            ).run()

        a, b = run(), run()
        assert a.records == b.records
        assert a.metrics.rv_seconds == b.metrics.rv_seconds
        assert a.failures == b.failures
        assert a.wasted_cpu_seconds == b.wasted_cpu_seconds


class TestStaleFailureEvents:
    def test_terminating_a_vm_cancels_its_armed_failure(self):
        """Regression: armed VM_FAIL events must die with their VM, or the
        heap grows by one far-future event per released VM."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=300.0, procs=1)]
        config = EngineConfig(failures=FailureModel(mtbf_seconds=1e12, seed=1))
        engine = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")), config=config
        )
        result = engine.run()
        assert result.unfinished_jobs == 0
        live_fails = [
            e for *_, e in engine.sim.queue._heap
            if e.kind is EventKind.VM_FAIL and not e.cancelled
        ]
        assert live_fails == []
        assert engine._failure_events == {}

    def test_heap_stays_bounded_across_many_leases(self):
        """With a huge MTBF every armed failure outlives its VM; before the
        fix the heap retained one live VM_FAIL per lease ever made."""
        jobs = generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29)
        config = EngineConfig(failures=FailureModel(mtbf_seconds=1e9, seed=3))
        engine = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
            config=config,
        )
        result = engine.run()
        assert result.unfinished_jobs == 0
        assert engine.provider.leases_total > 5  # the scenario exercises churn
        live_fails = sum(
            1 for *_, e in engine.sim.queue._heap
            if e.kind is EventKind.VM_FAIL and not e.cancelled
        )
        assert live_fails == 0
