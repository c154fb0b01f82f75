"""Tests for the cloud-unreliability & resilience subsystem."""

import numpy as np
import pytest

from repro.cloud.failures import FailureModel
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.policies.combined import policy_by_name
from repro.resilience import (
    CheckpointPolicy,
    FaultModel,
    ResilienceStats,
    RetryPolicy,
    RetryState,
)
from repro.sim.rng import make_rng
from repro.workload.job import Job, JobState
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0


def _fixed(name="ODA-UNICEF-FirstFit"):
    return FixedScheduler(policy_by_name(name))


def _short_trace(seed=29, hours=4.0, cap=600.0):
    """DAS2-fs0 jobs with runtimes capped so short MTBFs stay survivable."""
    return [
        Job(job_id=j.job_id, submit_time=j.submit_time,
            runtime=min(j.runtime, cap), procs=j.procs, user=j.user)
        for j in generate_trace(DAS2_FS0, duration=hours * HOUR, seed=seed)
    ]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=10.0, max_delay=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_delays_bounded_and_growing(self):
        policy = RetryPolicy(base_delay=10.0, max_delay=120.0, multiplier=3.0)
        rng = make_rng(1, "t")
        prev = 0.0
        for _ in range(50):
            prev = policy.next_delay(prev, rng)
            assert 10.0 <= prev <= 120.0
        # decorrelated jitter caps out: after many failures the delay can
        # reach the cap but never exceed it
        assert prev <= 120.0

    def test_deterministic(self):
        policy = RetryPolicy()
        a = [policy.next_delay(0.0, make_rng(3, "t"))]
        b = [policy.next_delay(0.0, make_rng(3, "t"))]
        assert a == b


class TestRetryState:
    def test_lifecycle(self):
        policy = RetryPolicy(base_delay=5.0, max_delay=50.0, max_attempts=3)
        rng = make_rng(0, "retry")
        state = RetryState()
        assert not state.blocked(0.0)
        delay = state.record_failure(0.0, policy, rng)
        assert delay >= 5.0
        assert state.blocked(0.0)
        assert not state.blocked(delay + 1e-9)
        state.record_success()
        assert state.attempts == 0 and not state.blocked(1e9)

    def test_attempt_chain_resets_after_max(self):
        policy = RetryPolicy(base_delay=5.0, max_delay=50.0, max_attempts=2)
        rng = make_rng(0, "retry")
        state = RetryState()
        state.record_failure(0.0, policy, rng)
        assert state.attempts == 1
        state.record_failure(100.0, policy, rng)
        assert state.attempts == 0  # chain exhausted; next demand is fresh

    def test_unblocks_exactly_at_the_deadline(self):
        """blocked() is strictly `now < blocked_until`: at the deadline the
        operation may go again (the breaker's half-open probe relies on
        this boundary being admit-at-deadline)."""
        policy = RetryPolicy(base_delay=5.0, max_delay=50.0)
        state = RetryState()
        state.record_failure(10.0, policy, make_rng(0, "retry"))
        deadline = state.blocked_until
        assert state.blocked(deadline - 1e-9)
        assert not state.blocked(deadline)
        assert not state.blocked(deadline + 1e-9)

    def test_success_after_failures_resets_the_backoff_base(self):
        policy = RetryPolicy(base_delay=5.0, max_delay=50.0, max_attempts=10)
        rng = make_rng(0, "retry")
        state = RetryState()
        for t in (0.0, 100.0, 200.0):
            state.record_failure(t, policy, rng)
        assert state.prev_delay > 0.0
        state.record_success()
        assert state.attempts == 0
        assert state.prev_delay == 0.0
        assert state.blocked_until == -1.0
        # the next failure chain re-anchors at the base delay, not at
        # the escalated pre-success backoff
        delay = state.record_failure(300.0, policy, rng)
        assert delay == policy.base_delay


class TestCheckpointPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_seconds=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_seconds=100.0, overhead_seconds=100.0)

    def test_saved_progress(self):
        ckpt = CheckpointPolicy(interval_seconds=100.0)
        assert ckpt.saved_progress(-5.0) == 0.0
        assert ckpt.saved_progress(99.0) == 0.0
        assert ckpt.saved_progress(100.0) == 100.0
        assert ckpt.saved_progress(350.0) == 300.0

    def test_overhead_reduces_saved_work(self):
        ckpt = CheckpointPolicy(interval_seconds=100.0, overhead_seconds=10.0)
        assert ckpt.saved_progress(350.0) == 3 * 90.0


class TestFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(lease_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(boot_jitter_scale=-1.0)
        with pytest.raises(ValueError):
            FaultModel(outage_mtbo_seconds=0.0)
        with pytest.raises(ValueError):
            FaultModel(outage_duration_seconds=-1.0)

    def test_injector_deterministic_per_seed(self):
        model = FaultModel(seed=7, lease_fault_rate=0.5, boot_fail_rate=0.5,
                           boot_jitter_scale=10.0, outage_mtbo_seconds=100.0)
        a, b = model.injector(), model.injector()
        assert [a.lease_fails() for _ in range(20)] == [
            b.lease_fails() for _ in range(20)
        ]
        assert [a.boot_delay_extra() for _ in range(5)] == [
            b.boot_delay_extra() for _ in range(5)
        ]
        assert a.next_outage_in() == b.next_outage_in()

    def test_streams_independent(self):
        """Draining one fault stream never perturbs another."""
        model = FaultModel(seed=7, lease_fault_rate=0.5, boot_fail_rate=0.5)
        a, b = model.injector(), model.injector()
        for _ in range(100):
            a.lease_fails()  # drain the lease stream on one injector only
        assert [a.boot_fails() for _ in range(20)] == [
            b.boot_fails() for _ in range(20)
        ]

    def test_zero_rate_knobs_draw_nothing(self):
        inj = FaultModel(seed=1).injector()
        assert not inj.lease_fails()
        assert inj.grant(5) == 5
        assert inj.boot_delay_extra() == 0.0
        assert not inj.boot_fails()
        # the streams are untouched: fresh injector draws match
        assert inj._lease_rng.random() == FaultModel(seed=1).injector()._lease_rng.random()


class TestLeaseFaults:
    def test_transient_rejections_are_retried_and_survive(self):
        jobs = _short_trace()
        config = EngineConfig(
            faults=FaultModel(seed=11, lease_fault_rate=0.5),
            lease_retry=RetryPolicy(base_delay=20.0, max_delay=300.0),
        )
        result = ClusterEngine(jobs, _fixed(), config=config).run()
        assert result.unfinished_jobs == 0
        r9 = result.resilience
        assert r9.lease_rejections > 0
        assert r9.lease_retries > 0
        assert r9.vm_failures == 0  # lease faults kill nothing

    def test_partial_grants_deny_vms_but_complete(self):
        jobs = _short_trace()
        config = EngineConfig(
            faults=FaultModel(seed=12, partial_grant_rate=0.6),
        )
        result = ClusterEngine(jobs, _fixed(), config=config).run()
        assert result.unfinished_jobs == 0
        assert result.resilience.vms_denied > 0

    def test_rejections_slow_the_queue(self):
        jobs = _short_trace()
        clean = ClusterEngine([j.fresh_copy() for j in jobs], _fixed()).run()
        faulty = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            _fixed(),
            config=EngineConfig(
                faults=FaultModel(seed=11, lease_fault_rate=0.7),
                lease_retry=RetryPolicy(),
            ),
        ).run()
        assert faulty.metrics.avg_wait >= clean.metrics.avg_wait


class TestBootFaults:
    def test_boot_failures_counted_and_charged(self):
        jobs = _short_trace()
        config = EngineConfig(faults=FaultModel(seed=13, boot_fail_rate=0.3))
        engine = ClusterEngine(jobs, _fixed(), config=config)
        result = engine.run()
        assert result.unfinished_jobs == 0
        r9 = result.resilience
        assert r9.boot_failures > 0
        assert r9.vm_failures >= r9.boot_failures
        # a VM that never became ready is still charged (EC2 semantics:
        # billing starts at lease)
        assert result.metrics.rv_seconds > 0

    def test_boot_jitter_longtails_the_waits(self):
        jobs = _short_trace()
        clean = ClusterEngine([j.fresh_copy() for j in jobs], _fixed()).run()
        jittered = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            _fixed(),
            config=EngineConfig(
                faults=FaultModel(seed=14, boot_jitter_scale=120.0,
                                  boot_jitter_sigma=1.5),
            ),
        ).run()
        assert jittered.unfinished_jobs == 0
        assert jittered.metrics.avg_wait > clean.metrics.avg_wait


class TestOutages:
    def test_outage_windows_kill_and_block_leases(self):
        """A long-running job guarantees a live fleet when the AZ event
        hits; checkpoints let it make progress through the chaos."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=3_000.0, procs=2)]
        config = EngineConfig(
            faults=FaultModel(seed=15, outage_mtbo_seconds=600.0,
                              outage_duration_seconds=120.0,
                              outage_kill_fraction=1.0),
            lease_retry=RetryPolicy(),
            checkpoint=CheckpointPolicy(300.0),
        )
        result = ClusterEngine(jobs, _fixed(), config=config).run()
        assert result.unfinished_jobs == 0
        r9 = result.resilience
        assert r9.outages >= 1
        assert r9.outage_downtime_seconds > 0
        assert r9.vm_failures > 0  # correlated kills hit the live fleet
        assert r9.job_kills > 0
        assert r9.checkpoint_saved_cpu_seconds > 0

    def test_outage_chain_stops_after_drain(self):
        """The self-rescheduling outage chain dies once the workload is
        done, instead of spinning events to the safety horizon."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=300.0, procs=1)]
        config = EngineConfig(
            faults=FaultModel(seed=16, outage_mtbo_seconds=200.0,
                              outage_duration_seconds=50.0,
                              outage_kill_fraction=0.0),
        )
        engine = ClusterEngine(jobs, _fixed("ODA-FCFS-FirstFit"), config=config)
        result = engine.run()
        assert result.unfinished_jobs == 0
        # at most one outage event fires after the last completion
        assert result.sim_events < 200


class TestCheckpointing:
    def test_checkpoint_recovers_killed_work(self):
        """A job much longer than the MTBF never finishes from scratch but
        completes with periodic checkpoints."""
        jobs = [Job(job_id=1, submit_time=0.0, runtime=4_000.0, procs=1)]
        failures = FailureModel(mtbf_seconds=900.0, seed=21)
        restart = ClusterEngine(
            [j.fresh_copy() for j in jobs], _fixed("ODA-FCFS-FirstFit"),
            config=EngineConfig(failures=failures, max_job_retries=25),
        ).run()
        ckpt = ClusterEngine(
            [j.fresh_copy() for j in jobs], _fixed("ODA-FCFS-FirstFit"),
            config=EngineConfig(failures=failures, max_job_retries=25,
                                checkpoint=CheckpointPolicy(300.0)),
        ).run()
        assert restart.resilience.jobs_failed == 1  # budget exhausted
        assert ckpt.unfinished_jobs == 0
        assert ckpt.resilience.jobs_failed == 0
        assert ckpt.metrics.jobs == 1
        assert ckpt.resilience.checkpoint_saved_cpu_seconds > 0

    def test_checkpoint_reduces_waste(self):
        jobs = _short_trace(cap=1_200.0)
        failures = FailureModel(mtbf_seconds=1_800.0, seed=22)
        restart = ClusterEngine(
            [j.fresh_copy() for j in jobs], _fixed(),
            config=EngineConfig(failures=failures),
        ).run()
        ckpt = ClusterEngine(
            [j.fresh_copy() for j in jobs], _fixed(),
            config=EngineConfig(failures=failures,
                                checkpoint=CheckpointPolicy(300.0)),
        ).run()
        assert restart.resilience.wasted_cpu_seconds > 0
        saved = ckpt.resilience.checkpoint_saved_cpu_seconds
        if ckpt.resilience.job_kills:  # this seed does kill running jobs
            assert saved > 0

    def test_overhead_validated_via_engine_config(self):
        with pytest.raises(ValueError):
            EngineConfig(checkpoint=CheckpointPolicy(60.0, overhead_seconds=60.0))


class TestRetryBudget:
    def test_job_fails_terminally_and_run_ends_naturally(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=2_000.0, procs=1)]
        config = EngineConfig(
            failures=FailureModel(mtbf_seconds=300.0, seed=23),
            max_job_retries=2,
        )
        result = ClusterEngine(jobs, _fixed("ODA-FCFS-FirstFit"), config=config).run()
        r9 = result.resilience
        assert r9.jobs_failed == 1
        assert r9.job_kills == 3  # budget of 2 retries = 3 kills
        assert result.unfinished_jobs == 0  # FAILED is terminal, not stuck
        assert result.metrics.jobs == 0
        # the run ended at the terminal failure, not the safety horizon
        assert result.end_time < 2_000.0 + 30 * 86_400.0

    def test_budget_zero_fails_on_first_kill(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=2_000.0, procs=1)]
        config = EngineConfig(
            failures=FailureModel(mtbf_seconds=300.0, seed=23),
            max_job_retries=0,
        )
        result = ClusterEngine(jobs, _fixed("ODA-FCFS-FirstFit"), config=config).run()
        assert result.resilience.job_kills == 1
        assert result.resilience.jobs_failed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_job_retries=-1)


class TestDeterminismAndLayering:
    CHAOS = dict(
        failures=FailureModel(mtbf_seconds=HOUR, seed=2),
        faults=FaultModel(seed=3, lease_fault_rate=0.3, partial_grant_rate=0.3,
                          boot_jitter_scale=30.0, boot_fail_rate=0.05,
                          outage_mtbo_seconds=2 * HOUR,
                          outage_duration_seconds=600.0,
                          outage_kill_fraction=0.7),
        lease_retry=RetryPolicy(),
        checkpoint=CheckpointPolicy(300.0),
        max_job_retries=5,
    )

    def test_full_chaos_run_is_bit_identical_per_seed(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29)
        config = EngineConfig(**self.CHAOS)
        a = ClusterEngine([j.fresh_copy() for j in jobs], _fixed(), config=config).run()
        b = ClusterEngine([j.fresh_copy() for j in jobs], _fixed(), config=config).run()
        assert a.records == b.records
        assert a.metrics.rv_seconds == b.metrics.rv_seconds
        assert a.resilience == b.resilience
        assert a.resilience.any_activity

    def test_portfolio_chaos_run_completes_deterministically(self):
        """Acceptance: portfolio + short MTBF + outages + lease faults."""
        jobs = _short_trace(seed=31, hours=2.0)

        def run():
            scheduler = PortfolioScheduler(seed=3)
            config = EngineConfig(
                failures=FailureModel(mtbf_seconds=2 * HOUR, seed=4),
                faults=FaultModel(seed=5, lease_fault_rate=0.2,
                                  outage_mtbo_seconds=HOUR,
                                  outage_duration_seconds=300.0,
                                  outage_kill_fraction=0.5),
                lease_retry=RetryPolicy(),
                checkpoint=CheckpointPolicy(300.0),
                max_job_retries=10,
            )
            return ClusterEngine(
                [j.fresh_copy() for j in jobs], scheduler, config=config
            ).run()

        a, b = run(), run()
        assert a.unfinished_jobs == 0
        assert a.records == b.records
        assert a.resilience == b.resilience

    def test_all_knobs_off_bit_identical_to_seed_behaviour(self):
        """An inert resilience layer (zero-rate faults, retry, checkpoint,
        budget) must not perturb the reliable-VM reproduction at all."""
        jobs = generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29)
        plain = ClusterEngine([j.fresh_copy() for j in jobs], _fixed()).run()
        inert = ClusterEngine(
            [j.fresh_copy() for j in jobs], _fixed(),
            config=EngineConfig(
                faults=FaultModel(seed=9),
                lease_retry=RetryPolicy(),
                checkpoint=CheckpointPolicy(600.0),
                max_job_retries=3,
            ),
        ).run()
        assert inert.records == plain.records
        assert inert.metrics.rv_seconds == plain.metrics.rv_seconds
        assert inert.metrics.avg_bounded_slowdown == plain.metrics.avg_bounded_slowdown
        assert not inert.resilience.any_activity

    def test_reliable_run_reports_zero_stats(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=300.0, procs=1)]
        result = ClusterEngine(jobs, _fixed("ODA-FCFS-FirstFit")).run()
        assert result.resilience == ResilienceStats()
        assert result.metrics.resilience == ResilienceStats()


class TestExport:
    def test_result_dict_carries_resilience_counters(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=2_000.0, procs=1)]
        config = EngineConfig(
            failures=FailureModel(mtbf_seconds=300.0, seed=23),
            max_job_retries=2,
        )
        result = ClusterEngine(jobs, _fixed("ODA-FCFS-FirstFit"), config=config).run()
        d = result_to_dict(result)
        assert d["resilience"]["jobs_failed"] == 1
        assert d["resilience"]["job_kills"] == 3
        assert d["resilience"]["wasted_cpu_seconds"] > 0
