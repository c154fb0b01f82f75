"""Property-based tests for the online simulator.

Hypothesis drives random (queue, fleet snapshot, policy) triples through
``evaluate``; the simulator must uphold its output contract regardless.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cloud.profile import CloudProfile, VMSnapshot
from repro.core.online_sim import OnlineSimulator
from repro.policies.combined import build_portfolio
from repro.workload.job import Job

HOUR = 3_600.0

job_strategy = st.builds(
    Job,
    job_id=st.integers(min_value=0, max_value=1_000),
    submit_time=st.just(0.0),
    runtime=st.floats(min_value=1.0, max_value=20_000.0),
    procs=st.integers(min_value=1, max_value=12),
)


@st.composite
def snapshot_strategy(draw, now: float = 10_000.0):
    lease = draw(st.floats(min_value=0.0, max_value=now))
    ready = lease + draw(st.sampled_from([0.0, 120.0]))
    kind = draw(st.sampled_from(["idle", "busy", "booting"]))
    if kind == "busy":
        busy_until = now + draw(st.floats(min_value=1.0, max_value=10_000.0))
    else:
        busy_until = -1.0
    if kind == "booting":
        ready = now + draw(st.floats(min_value=1.0, max_value=120.0))
        lease = ready - 120.0
    return VMSnapshot(
        vm_id=draw(st.integers(min_value=0, max_value=10_000)),
        lease_time=min(lease, now),
        ready_time=ready,
        busy_until=busy_until,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    jobs=st.lists(job_strategy, min_size=0, max_size=10),
    vms=st.lists(snapshot_strategy(), min_size=0, max_size=8),
    policy_idx=st.integers(min_value=0, max_value=59),
    release=st.sampled_from(["eager", "boundary"]),
    data=st.data(),
)
def test_evaluate_output_contract(jobs, vms, policy_idx, release, data):
    now = 10_000.0
    # unique job ids
    seen = set()
    clean = []
    for j in jobs:
        if j.job_id not in seen:
            seen.add(j.job_id)
            clean.append(j)
    waits = [data.draw(st.floats(min_value=0.0, max_value=5_000.0)) for _ in clean]
    runtimes = [max(j.runtime, 1.0) for j in clean]
    profile = CloudProfile(
        now=now, vms=tuple(vms), max_vms=64, boot_delay=120.0, billing_period=HOUR,
        release_rule=release,
    )
    sim = OnlineSimulator()
    policy = build_portfolio()[policy_idx]
    out = sim.evaluate(clean, waits, runtimes, profile, policy)

    # output contract
    assert 0.0 <= out.score <= 100.0 + 1e-9
    assert out.bsd >= 1.0
    assert out.rv_seconds >= 0.0
    assert out.rj_seconds == sum(
        j.procs * max(r, 1.0) for j, r in zip(clean, runtimes)
    )
    assert out.steps >= 0
    assert out.end_time >= now or not clean
    if not out.truncated and clean:
        # every queued job was placed: the horizon covers the longest start
        assert out.end_time > now
    # determinism
    again = sim.evaluate(clean, waits, runtimes, profile, policy)
    assert again == out
