"""Property-based tests of the cluster engine's global invariants.

Hypothesis generates small random workloads and drives them through
random portfolio policies (and the portfolio scheduler); the engine must
uphold conservation laws regardless of input.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.cloud.provider import ProviderConfig
from repro.policies.combined import build_portfolio
from repro.workload.job import Job

HOUR = 3_600.0

job_strategy = st.builds(
    Job,
    job_id=st.integers(min_value=0, max_value=10**6),
    submit_time=st.floats(min_value=0.0, max_value=7_200.0),
    runtime=st.floats(min_value=1.0, max_value=7_200.0),
    procs=st.integers(min_value=1, max_value=16),
    user=st.integers(min_value=0, max_value=5),
)


def unique_ids(jobs: list[Job]) -> list[Job]:
    out = []
    seen = set()
    for i, job in enumerate(jobs):
        if job.job_id in seen:
            job = Job(
                job_id=max(seen) + i + 1,
                submit_time=job.submit_time,
                runtime=job.runtime,
                procs=job.procs,
                user=job.user,
            )
        seen.add(job.job_id)
        out.append(job)
    return out


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    jobs=st.lists(job_strategy, min_size=1, max_size=15).map(unique_ids),
    policy_idx=st.integers(min_value=0, max_value=59),
    release=st.sampled_from(["eager", "boundary"]),
)
def test_fixed_policy_engine_invariants(jobs, policy_idx, release):
    policy = build_portfolio()[policy_idx]
    config = EngineConfig(release_rule=release)
    result = ClusterEngine(jobs, FixedScheduler(policy), config=config).run()

    # every job finishes exactly once
    assert result.unfinished_jobs == 0
    assert sorted(r.job_id for r in result.records) == sorted(j.job_id for j in jobs)

    total_area = sum(j.procs * j.runtime for j in jobs)
    m = result.metrics
    # work conservation: RJ equals the trace's total area
    assert abs(m.rj_seconds - total_area) < 1e-6 * max(total_area, 1.0)
    # billing sanity: RV covers the work actually placed on VMs and is a
    # whole number of billing periods
    assert m.rv_seconds >= total_area - 1e-6
    assert m.rv_seconds % HOUR < 1e-6 or HOUR - (m.rv_seconds % HOUR) < 1e-6
    # causality per job
    for rec in result.records:
        assert rec.start_time >= rec.submit_time
        assert rec.finish_time - rec.start_time >= rec.runtime - 1e-9
        assert rec.slowdown >= 1.0


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    jobs=st.lists(job_strategy, min_size=1, max_size=10).map(unique_ids),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_portfolio_engine_invariants(jobs, seed):
    scheduler = PortfolioScheduler(seed=seed)
    result = ClusterEngine(jobs, scheduler).run()
    assert result.unfinished_jobs == 0
    assert result.portfolio_invocations >= 1
    # the reflection store saw every invocation
    assert sum(scheduler.reflection.applied_counts().values()) == (
        result.portfolio_invocations
    )


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    jobs=st.lists(job_strategy, min_size=1, max_size=8).map(unique_ids),
    cap=st.integers(min_value=16, max_value=64),
)
def test_vm_cap_never_violated(jobs, cap):
    """Fleet size stays within the provider cap at every decision point."""
    from repro.metrics.timeseries import TimeseriesRecorder

    rec = TimeseriesRecorder()
    config = EngineConfig(provider=ProviderConfig(max_vms=cap))
    result = ClusterEngine(
        jobs,
        FixedScheduler(build_portfolio()[0]),
        config=config,
        observer=rec,
    ).run()
    assert result.unfinished_jobs == 0
    assert all(s.fleet <= cap for s in rec.samples)
