"""Integration tests for the cluster engine."""

import pytest

from repro.cloud.provider import ProviderConfig
from repro.core.online_sim import OnlineSimulator
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.policies.combined import build_portfolio, policy_by_name
from repro.predict.knn import KnnPredictor
from repro.sim.clock import VirtualCostClock
from repro.workload.job import Job, JobState
from repro.workload.synthetic import DAS2_FS0, KTH_SP2, generate_trace

HOUR = 3_600.0


def jobs_from(specs) -> list[Job]:
    """specs: (id, submit, runtime, procs)"""
    return [
        Job(job_id=i, submit_time=s, runtime=r, procs=p) for i, s, r, p in specs
    ]


def run(jobs, policy_name="ODA-FCFS-FirstFit", config=None, predictor=None):
    engine = ClusterEngine(
        jobs, FixedScheduler(policy_by_name(policy_name)), predictor, config
    )
    return engine.run()


class TestSingleJob:
    def test_lifecycle_and_accounting(self):
        result = run(jobs_from([(1, 0.0, 600.0, 2)]))
        assert result.unfinished_jobs == 0
        rec = result.records[0]
        # arrival at 0 wakes the tick chain immediately; VMs boot 120 s
        assert rec.start_time == pytest.approx(120.0)
        assert rec.finish_time == pytest.approx(720.0)
        # 2 VMs × 1 charged hour
        assert result.metrics.rv_seconds == 2 * HOUR
        assert result.metrics.rj_seconds == 1_200.0

    def test_bsd_includes_boot_wait(self):
        result = run(jobs_from([(1, 0.0, 600.0, 1)]))
        assert result.metrics.avg_bounded_slowdown == pytest.approx(720.0 / 600.0)


class TestReuseAndRelease:
    def test_eager_release_prevents_reuse_across_gaps(self):
        """Second job arrives after the queue emptied: with eager release
        the first job's VM is gone and a fresh one must boot (2 charged
        hours total)."""
        jobs = jobs_from([(1, 0.0, 300.0, 1), (2, 1_000.0, 300.0, 1)])
        result = run(jobs)
        assert result.metrics.rv_seconds == 2 * HOUR

    def test_boundary_release_allows_reuse_within_hour(self):
        """Same workload under the boundary rule: the idle VM survives to
        its hour boundary and serves the second job (1 charged hour)."""
        jobs = jobs_from([(1, 0.0, 300.0, 1), (2, 1_000.0, 300.0, 1)])
        result = run(jobs, config=EngineConfig(release_rule="boundary"))
        assert result.metrics.rv_seconds == HOUR
        # and the second job starts without boot delay
        assert result.records[1].wait == pytest.approx(0.0, abs=21.0)

    def test_back_to_back_jobs_share_vm_even_eagerly(self):
        """A job arriving while another runs reuses its VM under ODB
        (rented covers demand), even with eager release."""
        jobs = jobs_from([(1, 0.0, 300.0, 1), (2, 200.0, 300.0, 1)])
        result = run(jobs, policy_name="ODB-FCFS-FirstFit")
        # ODB never leases a second VM: job 2 waits for job 1's VM
        assert result.metrics.rv_seconds == HOUR
        rec1, rec2 = sorted(result.records, key=lambda r: r.job_id)
        assert rec2.start_time >= rec1.finish_time

    def test_oda_leases_for_both_jobs(self):
        jobs = jobs_from([(1, 0.0, 300.0, 1), (2, 10.0, 300.0, 1)])
        result = run(jobs, policy_name="ODA-FCFS-FirstFit")
        assert result.metrics.rv_seconds == 2 * HOUR


class TestCapAndQueueing:
    def test_vm_cap_serialises_execution(self):
        cfg = EngineConfig(provider=ProviderConfig(max_vms=2))
        jobs = jobs_from([(i, 0.0, 600.0, 2) for i in range(3)])
        result = run(jobs, config=cfg)
        assert result.unfinished_jobs == 0
        finishes = sorted(r.finish_time for r in result.records)
        # strictly serialised: each wave needs both VMs
        assert finishes[1] >= finishes[0] + 600.0
        assert finishes[2] >= finishes[1] + 600.0
        assert result.metrics.rv_seconds <= 2 * 2 * HOUR

    def test_oversized_job_rejected_up_front(self):
        cfg = EngineConfig(provider=ProviderConfig(max_vms=4))
        with pytest.raises(ValueError, match="could never run"):
            ClusterEngine(
                jobs_from([(1, 0.0, 10.0, 8)]),
                FixedScheduler(build_portfolio()[0]),
                config=cfg,
            )

    def test_zero_proc_job_rejected_up_front(self):
        # Job itself admits procs == 0 (SWF parsing quarantines such
        # jobs later); the engine must not simulate one.
        for scheduler in (FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
                          PortfolioScheduler(cost_clock=VirtualCostClock(0.01))):
            with pytest.raises(ValueError, match="job 2 needs 0 VMs"):
                ClusterEngine(
                    jobs_from([(1, 0.0, 60.0, 1), (2, 10.0, 60.0, 0)]),
                    scheduler,
                )

    def test_no_backfilling_holds_in_engine(self):
        """FCFS head job needing more VMs than the cap leaves later small
        jobs waiting behind it until it completes."""
        cfg = EngineConfig(provider=ProviderConfig(max_vms=4))
        jobs = jobs_from([(1, 0.0, 600.0, 4), (2, 10.0, 60.0, 1)])
        result = run(jobs, config=cfg)
        rec2 = next(r for r in result.records if r.job_id == 2)
        rec1 = next(r for r in result.records if r.job_id == 1)
        assert rec2.start_time >= rec1.finish_time


class TestSchedulers:
    def test_portfolio_run_completes(self):
        jobs = generate_trace(DAS2_FS0, duration=6 * 3_600.0, seed=9)
        scheduler = PortfolioScheduler(
            cost_clock=VirtualCostClock(0.01), seed=1
        )
        result = ClusterEngine(jobs, scheduler).run()
        assert result.unfinished_jobs == 0
        assert result.portfolio_invocations > 0
        assert scheduler.reflection.records

    def test_simulator_replays_the_engine_tick_and_release_rule(
        self, monkeypatch
    ):
        """Algorithm 1 simulates with the engine's own tick and release
        rule: every profile it prepares from carries them."""
        profiles = []
        prepare = OnlineSimulator.prepare

        def spy(self, queue, waits, runtimes, profile):
            profiles.append(profile)
            return prepare(self, queue, waits, runtimes, profile)

        monkeypatch.setattr(OnlineSimulator, "prepare", spy)
        jobs = generate_trace(DAS2_FS0, duration=2 * 3_600.0, seed=29)
        scheduler = PortfolioScheduler(
            portfolio=build_portfolio()[:6],
            cost_clock=VirtualCostClock(0.01), seed=1,
        )
        result = ClusterEngine(
            jobs, scheduler,
            config=EngineConfig(tick=10.0, release_rule="boundary"),
        ).run()
        assert result.unfinished_jobs == 0
        assert len(profiles) == scheduler.invocations > 0
        assert {(p.tick, p.release_rule) for p in profiles} == {
            (10.0, "boundary")
        }

    def test_knn_predictor_learns_during_run(self):
        jobs = [
            Job(job_id=i, submit_time=i * 400.0, runtime=100.0, procs=1,
                user=1, user_estimate=7_200.0)
            for i in range(5)
        ]
        predictor = KnnPredictor()
        result = run(jobs, predictor=predictor)
        assert result.unfinished_jobs == 0
        # after the run the predictor knows user 1's recent runtimes
        probe = Job(job_id=99, submit_time=0.0, runtime=1.0, procs=1, user=1)
        assert predictor.predict(probe) == pytest.approx(100.0)

    def test_non_planning_policy_predicts_only_queued_jobs(self):
        """A policy that does not plan ahead gets no busy-VM free times,
        so each context costs one prediction per queued job and none
        for the jobs running on busy VMs."""

        class CountingPredictor(KnnPredictor):
            def __init__(self) -> None:
                super().__init__()
                self.asked: list[JobState] = []

            def predict(self, job: Job) -> float:
                self.asked.append(job.state)
                return super().predict(job)

        predictor = CountingPredictor()
        engine = ClusterEngine(
            generate_trace(DAS2_FS0, duration=6 * HOUR, seed=9),
            FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")),
            predictor,
        )
        queued: list[int] = []
        build_context = engine._build_context

        def counting_build_context(now: float):
            queued.append(len(engine.queue))
            return build_context(now)

        engine._build_context = counting_build_context
        result = engine.run()
        assert result.unfinished_jobs == 0
        assert sum(queued) > 0
        assert len(predictor.asked) == sum(queued)
        assert set(predictor.asked) == {JobState.QUEUED}


class TestDeterminismAndConservation:
    def test_fixed_run_deterministic(self):
        jobs = generate_trace(KTH_SP2, duration=12 * 3_600.0, seed=2)
        a = run(jobs, "ODX-LXF-BestFit")
        b = run(jobs, "ODX-LXF-BestFit")
        assert a.metrics == b.metrics
        assert a.records == b.records

    def test_portfolio_run_deterministic(self):
        jobs = generate_trace(DAS2_FS0, duration=6 * 3_600.0, seed=3)

        def go():
            scheduler = PortfolioScheduler(cost_clock=VirtualCostClock(0.01), seed=5)
            return ClusterEngine(jobs, scheduler).run()

        assert go().metrics == go().metrics

    def test_every_job_finishes_once(self):
        jobs = generate_trace(DAS2_FS0, duration=12 * 3_600.0, seed=4)
        result = run(jobs, "ODM-UNICEF-FirstFit")
        assert result.unfinished_jobs == 0
        ids = [r.job_id for r in result.records]
        assert len(ids) == len(set(ids)) == len(jobs)

    def test_input_jobs_not_mutated(self):
        jobs = jobs_from([(1, 0.0, 100.0, 1)])
        run(jobs)
        assert jobs[0].start_time == -1.0

    def test_rv_conservation_vs_provider_invariants(self):
        """RV is a positive multiple of the billing hour and at least the
        serial lower bound of the work."""
        jobs = generate_trace(DAS2_FS0, duration=12 * 3_600.0, seed=4)
        result = run(jobs, "ODE-FCFS-BestFit")
        rv = result.metrics.rv_seconds
        assert rv > 0
        assert rv % HOUR == pytest.approx(0.0, abs=1e-6)
        assert rv >= result.metrics.rj_seconds * 0.999 or rv >= HOUR


class TestStalledRunBilling:
    """Regression: a run cut off by the horizon must still bill the live
    fleet.  ``terminate_all`` skips BUSY VMs, so before the straggler
    settlement a stalled run reported RV == 0 — under-billing exactly the
    runs the horizon exists to penalise."""

    def test_stalled_run_bills_busy_vms(self):
        jobs = jobs_from([(1, 0.0, 10 * HOUR, 1)])
        config = EngineConfig(max_sim_time=HOUR)
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")),
            config=config,
        ).run()
        assert result.unfinished_jobs == 1
        # one VM busy for the whole (truncated) hour => at least 1 VM-hour
        assert result.metrics.rv_seconds >= HOUR

    def test_settlement_is_noop_on_drained_runs(self):
        jobs = jobs_from([(1, 0.0, 100.0, 1)])
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))
        ).run()
        assert result.unfinished_jobs == 0
        assert result.metrics.rv_seconds == HOUR  # one rounded billing hour
