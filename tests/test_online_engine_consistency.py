"""Consistency between the online simulator and the real engine.

The portfolio scheduler's selection quality rests on the online
simulator predicting what the engine would actually do.  The engine
calls ``CombinedPolicy.new_vms`` / ``allocate``; the simulator's default
fast kernel re-derives those formulas over arrays, and its event loop is
an independent implementation — these tests pin engine and simulator
together on scenarios where the outcome is fully determined.
"""

import pytest

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator
from repro.core.scheduler import FixedScheduler
from repro.experiments.engine import ClusterEngine
from repro.policies.combined import build_portfolio, policy_by_name
from repro.workload.job import Job

HOUR = 3_600.0


def burst(n, procs=1, runtime=300.0, at=0.0):
    return [
        Job(job_id=i, submit_time=at, runtime=runtime, procs=procs) for i in range(n)
    ]


def empty_profile(now=0.0):
    return CloudProfile(now=now, vms=(), max_vms=256, boot_delay=120.0,
                        billing_period=HOUR)


@pytest.mark.parametrize("policy_name", [p.name for p in build_portfolio()])
def test_engine_matches_online_sim_on_a_single_burst(policy_name):
    """For a one-shot burst with no later arrivals, the engine IS the
    scenario the online simulator models, so their RV and mean slowdown
    must agree (up to the 20 s tick the engine quantises decisions to).
    Checked for every portfolio member: the default fast kernel
    re-derives each member's formulas rather than calling the policy
    methods the engine runs."""
    policy = policy_by_name(policy_name)
    jobs = burst(12, procs=2, runtime=500.0)

    engine_result = ClusterEngine(
        [j.fresh_copy() for j in jobs], FixedScheduler(policy)
    ).run()

    sim = OnlineSimulator()
    outcome = sim.evaluate(
        jobs,
        [0.0] * len(jobs),
        [j.runtime for j in jobs],
        empty_profile(),
        policy,
    )

    assert not outcome.truncated
    m = engine_result.metrics
    assert outcome.rv_seconds == pytest.approx(m.rv_seconds, rel=0.15)
    # per-job waits can shift by up to a tick each; mean BSD stays close
    assert outcome.bsd == pytest.approx(m.avg_bounded_slowdown, rel=0.15, abs=0.3)


def test_online_sim_rj_matches_engine_for_oracle_runtimes():
    policy = build_portfolio()[0]
    jobs = burst(5, procs=3, runtime=700.0)
    engine_result = ClusterEngine(
        [j.fresh_copy() for j in jobs], FixedScheduler(policy)
    ).run()
    outcome = OnlineSimulator().evaluate(
        jobs, [0.0] * 5, [700.0] * 5, empty_profile(), policy
    )
    assert outcome.rj_seconds == pytest.approx(engine_result.metrics.rj_seconds)


def test_selection_ranking_predicts_engine_ranking():
    """The policy the online simulator ranks best for a burst should be
    among the better policies when the engine actually runs that burst —
    the whole premise of portfolio scheduling."""
    jobs = burst(30, procs=1, runtime=120.0)
    sim = OnlineSimulator()
    candidates = [
        policy_by_name(n)
        for n in (
            "ODA-FCFS-FirstFit",
            "ODB-FCFS-FirstFit",
            "ODE-FCFS-BestFit",
            "ODM-FCFS-FirstFit",
            "ODX-FCFS-FirstFit",
        )
    ]
    predicted = {
        p.name: sim.evaluate(jobs, [0.0] * 30, [120.0] * 30, empty_profile(), p).score
        for p in candidates
    }
    actual = {}
    for p in candidates:
        r = ClusterEngine([j.fresh_copy() for j in jobs], FixedScheduler(p)).run()
        actual[p.name] = r.utility

    best_predicted = max(predicted, key=predicted.get)
    # the predicted winner is within 10% of the actual winner's utility
    assert actual[best_predicted] >= 0.9 * max(actual.values()), (predicted, actual)
