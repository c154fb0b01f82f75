"""Tests for the EASY backfilling extension."""

import pytest

from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.cloud.provider import ProviderConfig
from repro.policies.backfilling import BackfillingPolicy, build_backfilling_portfolio
from repro.policies.base import IdleVM, SchedContext
from repro.policies.combined import policy_by_name
from repro.predict.knn import KnnPredictor
from repro.sim.clock import VirtualCostClock
from repro.workload.job import Job
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0


def backfilling(name: str) -> BackfillingPolicy:
    p = policy_by_name(name)
    return BackfillingPolicy(p.provisioning, p.job_selection, p.vm_selection)


def make_ctx(jobs, waits, runtimes, busy_free_times=None, available=0, busy=0):
    return SchedContext(
        now=1_000.0,
        queue=jobs,
        waits=waits,
        runtimes=runtimes,
        rented=available + busy,
        available=available,
        busy=busy,
        max_vms=256,
        busy_free_times=busy_free_times,
    )


def job(jid, procs, runtime=100.0):
    return Job(job_id=jid, submit_time=0.0, runtime=runtime, procs=procs)


class TestAllocateUnit:
    def test_name_prefix(self):
        assert backfilling("ODA-FCFS-FirstFit").name == "EASY:ODA-FCFS-FirstFit"

    def test_no_blocking_behaves_like_plain(self):
        policy = backfilling("ODA-FCFS-FirstFit")
        jobs = [job(1, 1), job(2, 2)]
        ctx = make_ctx(jobs, [20.0, 10.0], [100.0, 100.0])
        idle = [IdleVM(i, HOUR) for i in range(3)]
        allocs = policy.allocate(ctx, idle)
        assert {a.queue_index for a in allocs} == {0, 1}

    def test_short_job_backfills_past_blocked_head(self):
        """Head needs 4 VMs (2 idle); a 30 s job backfills because it ends
        before the head's reservation (busy VMs free in 500 s)."""
        policy = backfilling("ODB-FCFS-FirstFit")
        jobs = [job(1, 4, runtime=600.0), job(2, 1, runtime=30.0)]
        ctx = make_ctx(
            jobs, [100.0, 50.0], [600.0, 30.0],
            busy_free_times=[1_500.0, 1_500.0], available=2, busy=2,
        )
        idle = [IdleVM(i, HOUR) for i in range(2)]
        allocs = policy.allocate(ctx, idle)
        assert [a.queue_index for a in allocs] == [1]

    def test_long_job_does_not_delay_reservation(self):
        """A job longer than the reservation horizon must NOT backfill
        (it would hold a VM the head needs at its reservation)."""
        policy = backfilling("ODB-FCFS-FirstFit")
        jobs = [job(1, 4, runtime=600.0), job(2, 1, runtime=10_000.0)]
        ctx = make_ctx(
            jobs, [100.0, 50.0], [600.0, 10_000.0],
            busy_free_times=[1_500.0, 1_500.0], available=2, busy=2,
        )
        idle = [IdleVM(i, HOUR) for i in range(2)]
        assert policy.allocate(ctx, idle) == []

    def test_long_job_backfills_into_spare_capacity(self):
        """With more VMs freeing than the head needs, a long job may take
        the spare."""
        policy = backfilling("ODB-FCFS-FirstFit")
        # head needs 3; at the 1400 s reservation 4 VMs are free (2 idle +
        # 2 freeing together): spare = 1 -> the long 1-proc job backfills
        jobs = [job(1, 3, runtime=600.0), job(2, 1, runtime=10_000.0)]
        ctx = make_ctx(
            jobs, [100.0, 50.0], [600.0, 10_000.0],
            busy_free_times=[1_400.0, 1_400.0], available=2, busy=2,
        )
        idle = [IdleVM(i, HOUR) for i in range(2)]
        allocs = policy.allocate(ctx, idle)
        assert [a.queue_index for a in allocs] == [1]

    def test_no_spare_long_job_rejected(self):
        """Staggered frees: only exactly `need` VMs are available at the
        reservation, so a long backfill would delay the head."""
        policy = backfilling("ODB-FCFS-FirstFit")
        jobs = [job(1, 3, runtime=600.0), job(2, 1, runtime=10_000.0)]
        ctx = make_ctx(
            jobs, [100.0, 50.0], [600.0, 10_000.0],
            busy_free_times=[1_400.0, 1_600.0], available=2, busy=2,
        )
        idle = [IdleVM(i, HOUR) for i in range(2)]
        assert policy.allocate(ctx, idle) == []

    def test_without_free_times_is_conservative(self):
        policy = backfilling("ODB-FCFS-FirstFit")
        jobs = [job(1, 4, runtime=600.0), job(2, 1, runtime=30.0)]
        ctx = make_ctx(jobs, [100.0, 50.0], [600.0, 30.0], available=2)
        idle = [IdleVM(i, HOUR) for i in range(2)]
        # reservation degenerates to "now": no spare, nothing ends "before"
        assert policy.allocate(ctx, idle) == []


class TestPortfolioBuilder:
    def test_sixty_members_named(self):
        port = build_backfilling_portfolio()
        assert len(port) == 60
        assert all(p.name.startswith("EASY:") for p in port)


class TestEndToEnd:
    def test_backfilling_reduces_small_job_wait(self):
        """Classic EASY scenario in the full engine: a wide head job blocks
        the 4-VM cluster; backfilling lets the tiny job run meanwhile."""
        cfg = EngineConfig(provider=ProviderConfig(max_vms=4))
        # A occupies 2 of the 4 allowed VMs for ~3000 s; B (3 procs) cannot
        # fit in the remaining 2 and blocks the queue; C (1 proc, 30 s)
        # finishes long before B's reservation and should backfill.
        jobs = [
            Job(job_id=1, submit_time=0.0, runtime=3_000.0, procs=2),
            Job(job_id=2, submit_time=200.0, runtime=600.0, procs=3),
            Job(job_id=3, submit_time=210.0, runtime=30.0, procs=1),
        ]
        plain = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")),
            config=cfg,
        ).run()
        easy = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            FixedScheduler(backfilling("ODA-FCFS-FirstFit")),
            config=cfg,
        ).run()
        wait_plain = next(r for r in plain.records if r.job_id == 3).wait
        wait_easy = next(r for r in easy.records if r.job_id == 3).wait
        assert wait_easy < wait_plain

    def test_engine_gives_busy_free_times_to_backfilling(self):
        """Backfilling plans ahead, so every context it allocates with
        holds each busy VM's estimated free time, in VM-id order: its
        job's start plus the predicted runtime."""
        recorded = []
        engine = None

        class Spy(BackfillingPolicy):
            def allocate(self, ctx, idle, period=3_600.0):
                jobs = {job.job_id: job for job in engine.jobs}
                expected = [
                    jobs[vm.job_id].start_time
                    + max(engine.predictor.predict(jobs[vm.job_id]), 1.0)
                    for vm in engine.provider.busy_vms()
                ]
                recorded.append((ctx.busy_free_times, expected))
                return super().allocate(ctx, idle, period)

        p = policy_by_name("ODA-FCFS-FirstFit")
        engine = ClusterEngine(
            generate_trace(DAS2_FS0, duration=4 * HOUR, seed=13),
            FixedScheduler(Spy(p.provisioning, p.job_selection, p.vm_selection)),
            KnnPredictor(),
        )
        assert engine.run().unfinished_jobs == 0
        assert recorded
        for frees, expected in recorded:
            assert frees == expected
        assert any(frees for frees, _ in recorded)

    def test_backfilling_portfolio_runs(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * 3_600.0, seed=13)
        scheduler = PortfolioScheduler(
            portfolio=build_backfilling_portfolio(),
            cost_clock=VirtualCostClock(0.01),
            seed=2,
        )
        result = ClusterEngine(jobs, scheduler).run()
        assert result.unfinished_jobs == 0
