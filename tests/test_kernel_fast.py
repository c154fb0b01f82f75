"""Kernel fast path: differential soak and hot-loop correctness sweep.

The fast kernel in :mod:`repro.core.fast_sim` must be *bit-identical* to
the reference loop — not approximately equal.  Every assertion on
:class:`SimOutcome` here is exact ``==`` on the frozen dataclass, i.e.
float-for-float equality of score, BSD, RJ, RV, steps and end time.

Also covers the satellite fixes of the same PR:

* the ``available``-counts-booting-VMs convention, pinned against the
  engine's real ``SchedContext`` construction on a booting-heavy fleet;
* the :func:`_remaining_paid` helper at exact billing boundaries;
* the truncation penalty horizon (never-started jobs) and the invariant
  that a truncated score can never beat a draining policy's;
* rider outcomes of shared runs, and the selector's per-round memo;
* slimmed parallel wave payloads;
* quiet head-blocked stretches: skipped steps decide, count and
  truncate exactly as the reference loop's, and the skip fires.
"""

import math
import pickle

import pytest

from repro.cloud.profile import CloudProfile, VMSnapshot, profile_from_vms
from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.core import fast_sim
from repro.core.online_sim import OnlineSimulator, SimOutcome, _charged, _remaining_paid
from repro.core.selection import TimeConstrainedSelector
from repro.experiments.engine import ClusterEngine
from repro.core.scheduler import FixedScheduler
from repro.policies.combined import CombinedPolicy, build_portfolio, policy_by_name
from repro.policies.job_selection import FCFS
from repro.policies.provisioning import ODA, ODX
from repro.policies.spot_aware import spot_portfolio_members
from repro.policies.vm_selection import BestFit, FirstFit
from repro.sim.clock import VirtualCostClock
from repro.workload.job import Job
from repro.workload.swf import parse_swf, write_swf
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0
EPS = 1e-6


# ---------------------------------------------------------------------------
# scenario builders


def jobs_of(n, procs=1, runtime=300.0):
    return [
        Job(job_id=i, submit_time=0.0, runtime=runtime, procs=procs)
        for i in range(n)
    ]


def vm(i, *, lease, ready=None, busy=-1.0):
    return VMSnapshot(
        vm_id=i,
        lease_time=lease,
        ready_time=ready if ready is not None else lease,
        busy_until=busy,
    )


def synthetic_states():
    """Seeded scenario matrix: (label, queue, waits, runtimes, profile).

    Covers the shapes the step loop branches on: booting-heavy fleets,
    busy-heavy fleets, mixed fleets, empty fleets, head-blocked queues,
    single-job queues, billing-boundary leases, a spot snapshot, idle
    VMs with different paid time left (where the VM rules disagree), and
    the quiet head-blocked stretches the fast kernel skips.
    """
    now = 7_200.0
    states = []

    def add(label, jobs, profile, waits=None, runtimes=None):
        states.append(
            (
                label,
                jobs,
                waits if waits is not None else [0.0] * len(jobs),
                runtimes if runtimes is not None else [j.runtime for j in jobs],
                profile,
            )
        )

    # Mixed fleet, varied jobs (the fig7-style mid-experiment shape).
    mixed = [
        vm(i, lease=now - 30.0, ready=now + 70.0)
        if i % 4 == 0
        else vm(i, lease=now - 900.0, busy=now + 180.0 * (1 + i % 5))
        if i % 4 in (1, 2)
        else vm(i, lease=now - 1_800.0)
        for i in range(16)
    ]
    jobs = [
        Job(job_id=i, submit_time=0.0, runtime=120.0 * (1 + i % 7), procs=1 + i % 4)
        for i in range(18)
    ]
    add(
        "mixed-fleet",
        jobs,
        profile_from_vms(now, mixed, max_vms=64, boot_delay=100.0),
        waits=[30.0 * i for i in range(18)],
    )

    # Booting-heavy: most of the fleet counts as supply but cannot run yet.
    booting = [vm(i, lease=now - 10.0 * i, ready=now + 90.0 - 5.0 * i) for i in range(10)]
    booting += [vm(100 + i, lease=now - 2 * HOUR) for i in range(2)]
    add(
        "booting-heavy",
        jobs_of(8, procs=2, runtime=240.0),
        profile_from_vms(now, booting, max_vms=32, boot_delay=100.0),
    )

    # Busy-heavy: everything finishes in-sim, releases cascade.
    busy = [vm(i, lease=now - HOUR + 60.0 * i, busy=now + 120.0 * (1 + i)) for i in range(12)]
    add(
        "busy-heavy",
        jobs_of(10, procs=1, runtime=500.0),
        profile_from_vms(now, busy, max_vms=32, boot_delay=100.0),
    )

    # Empty fleet: everything must be provisioned.
    add(
        "empty-fleet",
        jobs_of(12, procs=3, runtime=700.0),
        profile_from_vms(now, [], max_vms=48, boot_delay=120.0),
    )

    # Head-blocked: the widest job heads the queue and cannot fit the
    # idle pool, forcing the tick-stepping fallback.
    idle_small = [vm(i, lease=now - 100.0) for i in range(3)]
    wide_then_small = [Job(job_id=0, submit_time=0.0, runtime=400.0, procs=8)] + jobs_of(
        5, procs=1, runtime=200.0
    )[0:5]
    wide_then_small = [
        Job(job_id=i, submit_time=0.0, runtime=j.runtime, procs=j.procs)
        for i, j in enumerate(wide_then_small)
    ]
    add(
        "head-blocked",
        wide_then_small,
        profile_from_vms(now, idle_small, max_vms=8, boot_delay=100.0),
        waits=[50.0, 40.0, 30.0, 20.0, 10.0, 0.0],
    )

    # Single job, single VM exactly at its billing boundary.
    add(
        "boundary-vm",
        jobs_of(1, procs=1, runtime=100.0),
        profile_from_vms(now, [vm(0, lease=now - HOUR)], max_vms=4, boot_delay=100.0),
    )

    # Spot snapshot: rv re-pricing branch taken.
    spot_profile = CloudProfile(
        now=now,
        vms=tuple(vm(i, lease=now - 600.0) for i in range(4)),
        max_vms=32,
        boot_delay=100.0,
        billing_period=HOUR,
        spot_price=0.35,
        spot_price_effective=0.5,
    )
    add("spot", jobs_of(9, procs=2, runtime=300.0), spot_profile)

    # Idle VMs with different paid time left: BestFit, FirstFit and
    # WorstFit pick different VMs, and a 200 s job on the VM with 100 s
    # left books a second hour.
    split = [vm(0, lease=now - 3_500.0), vm(1, lease=now - 100.0),
             vm(2, lease=now - 1_700.0)]
    add(
        "paid-time-split-one-job",
        jobs_of(1, procs=1, runtime=200.0),
        profile_from_vms(now, split[:2], max_vms=4, boot_delay=100.0),
    )
    add(
        "paid-time-split",
        [Job(job_id=i, submit_time=0.0, runtime=rt, procs=p)
         for i, (rt, p) in enumerate([(200.0, 1), (1_900.0, 1), (60.0, 2)])],
        profile_from_vms(now, split, max_vms=6, boot_delay=100.0),
        waits=[40.0, 30.0, 90.0],
    )

    # Quiet head-blocked stretches, which the fast kernel skips.  FCFS:
    # the wide head waits 98 ticks for a late busy VM at headroom 0.  The
    # VM frees at the reference's own 98th step time, ``t + tick`` added
    # up from an off-grid ``now``, which ``now + 98 * tick`` misses by an
    # ulp.
    late = 100.18
    freed = late
    for _ in range(98):
        freed += 20.0
    add(
        "fcfs-late-busy",
        jobs_with([(300.0, 4), (200.0, 1), (200.0, 1), (200.0, 1)]),
        profile_from_vms(
            late,
            [vm(i, lease=late - 100.0) for i in range(3)]
            + [vm(3, lease=0.0, busy=freed)],
            max_vms=4, boot_delay=100.0,
        ),
        waits=[500.0, 100.0, 50.0, 0.0],
    )

    # Under LXF, UNICEF and WFP3 a narrow job overtakes the blocked head a
    # few ticks into the stretch, which must end it there.
    add(
        "narrow-overtakes",
        jobs_with([(1_000.0, 4), (100.0, 1), (50.0, 2)]),
        profile_from_vms(
            now,
            [vm(i, lease=now - 300.0) for i in range(2)]
            + [vm(2 + i, lease=now - 600.0, busy=now + 3_000.0) for i in range(2)],
            max_vms=4, boot_delay=100.0,
        ),
        waits=[2_000.0, 0.0, 10.0],
    )

    # Service-shaped: no boot delay and more VMs rented than the cap, as
    # for a tenant whose fair share shrank (headroom 0).
    add(
        "service-over-grant",
        jobs_with([(600.0, 5), (90.0, 1), (250.0, 2), (40.0, 1)]),
        profile_from_vms(
            now,
            [vm(i, lease=now - 200.0 * i) for i in range(3)]
            + [vm(3, lease=now - 700.0, busy=now + 400.0),
               vm(4, lease=now - 900.0, busy=now + 900.0)],
            max_vms=2, boot_delay=0.0,
        ),
        waits=[300.0, 20.0, 60.0, 0.0],
    )

    # ODX at headroom > 0 with nothing urgent yet: the step is quiet, but
    # a threshold-3 urgency flip (no wake-up marks it) leases mid-stretch.
    add(
        "odx-headroom",
        jobs_with([(400.0, 4), (200.0, 1), (200.0, 1), (200.0, 1)]),
        profile_from_vms(
            now,
            [vm(i, lease=now - 100.0) for i in range(3)]
            + [vm(3, lease=now - 500.0, busy=now + 3_000.0)],
            max_vms=8, boot_delay=100.0,
        ),
        waits=[50.0, 30.0, 20.0, 10.0],
    )

    # Float plateaus: past 2**60 the head's wait absorbs dt < 128, so its
    # UNICEF priority stays 2**57 + 32; the narrow job, first in queue
    # order, rounds to exactly that from dt = 20 to the busy VM's finish
    # at dt = 45.  Queue order breaks the tie, so the narrow job tops the
    # order at dt = 20 and the stretch must end there.
    add(
        "plateau-tie",
        jobs_with([(1.0, 1), (8.0, 2)]),
        profile_from_vms(
            now,
            [vm(0, lease=now - 100.0), vm(1, lease=now - 100.0, busy=now + 45.0)],
            max_vms=2, boot_delay=100.0,
        ),
        waits=[2.0 ** 57, 2.0 ** 60 + 256.0],
    )

    return states


def jobs_with(shapes):
    """Jobs from ``(runtime, procs)`` pairs, in queue order."""
    return [
        Job(job_id=i, submit_time=0.0, runtime=rt, procs=p)
        for i, (rt, p) in enumerate(shapes)
    ]


def starving_state():
    """A head wider than the whole capped fleet, with no busy or booting
    VM (so no next event) and headroom 0: FCFS members starve, and every
    member ends at ``max_steps``."""
    now = 7_200.0
    jobs = jobs_with([(500.0, 4), (120.0, 1), (60.0, 2)])
    profile = profile_from_vms(
        now, [vm(i, lease=now - 100.0 * i) for i in range(3)],
        max_vms=3, boot_delay=100.0,
    )
    return jobs, [900.0, 30.0, 0.0], [j.runtime for j in jobs], profile


def odx3_members():
    """Two ODX members on a non-default threshold: their urgency flips
    fall between the kernel's (threshold-2) crossing wake-ups."""
    odx3 = ODX()
    odx3.threshold = 3.0
    return [
        CombinedPolicy(odx3, FCFS(), FirstFit()),
        CombinedPolicy(odx3, FCFS(), BestFit()),
    ]


def swf_state():
    """A workload slice that has round-tripped through the SWF format."""
    jobs = generate_trace(DAS2_FS0, duration=2 * HOUR, seed=11)[:24]
    jobs = list(parse_swf(write_swf(jobs).splitlines()))
    now = 1_000.0
    fleet = [
        vm(i, lease=now - 400.0, busy=now + 150.0 * (1 + i % 3)) if i % 2 else vm(i, lease=now - 400.0)
        for i in range(8)
    ]
    waits = [min(now, 10.0 * (len(jobs) - i)) for i in range(len(jobs))]
    runtimes = [max(j.runtime, 1.0) for j in jobs]
    return jobs, waits, runtimes, profile_from_vms(now, fleet, max_vms=40, boot_delay=120.0)


def truncation_state():
    now = 0.0
    # procs == max_vms but zero supply and a provisioning policy that
    # can never lease enough at once -> the job starves; with
    # max_steps=1 the very first step truncates before anything starts.
    queue = [Job(job_id=0, submit_time=0.0, runtime=100.0, procs=4)]
    profile = profile_from_vms(now, [], max_vms=2, boot_delay=100.0)
    return queue, [5.0], [100.0], profile


# ---------------------------------------------------------------------------
# the differential soak (satellite: test coverage)


@pytest.mark.parametrize("rv_accounting", ["total", "marginal"])
def test_differential_soak_fast_vs_reference(rv_accounting):
    """Every (state, policy) pair scores bit-identically on both kernels."""
    fast = OnlineSimulator(kernel="fast", rv_accounting=rv_accounting)
    ref = OnlineSimulator(kernel="reference", rv_accounting=rv_accounting)
    portfolio = build_portfolio() + odx3_members()
    spot_members = spot_portfolio_members()
    checked = 0
    for label, queue, waits, runtimes, profile in synthetic_states():
        members = portfolio + (spot_members if profile.spot_price is not None else [])
        prep = fast.prepare(queue, waits, runtimes, profile)
        for policy in members:
            expected = ref.evaluate(queue, waits, runtimes, profile, policy)
            got = fast.evaluate(queue, waits, runtimes, profile, policy)
            assert got == expected, (label, policy.name)
            # The warm-start prefix path must agree with the one-shot path.
            assert fast.evaluate_prepared(prep, policy) == expected, (
                label,
                policy.name,
            )
            checked += 1
    assert checked >= 7 * len(portfolio)


def test_differential_soak_swf_workload():
    queue, waits, runtimes, profile = swf_state()
    fast = OnlineSimulator(kernel="fast")
    ref = OnlineSimulator(kernel="reference")
    for policy in build_portfolio():
        assert fast.evaluate(queue, waits, runtimes, profile, policy) == ref.evaluate(
            queue, waits, runtimes, profile, policy
        ), policy.name


# ---------------------------------------------------------------------------
# satellite: truncation penalty horizon
#
# Kept ahead of the rider tests: under ``-x`` a skip that ignored
# ``max_steps`` fails here instead of spinning in a starving rider run.


def truncation_cases():
    """``(label, state, max_steps)`` whose cut lands inside a quiet
    stretch; a stretch that ends at its next event comes first."""
    late = next(s[1:] for s in synthetic_states() if s[0] == "fcfs-late-busy")
    return [
        (f"{label}/{max_steps}", state, max_steps)
        for label, state in (("fcfs-late-busy", late), ("starving", starving_state()))
        for max_steps in (1, 3, 50)
    ]


class TestTruncation:
    def test_max_steps_one_truncates_with_horizon_penalty(self):
        queue, waits, runtimes, profile = truncation_state()
        for kernel in ("fast", "reference"):
            sim = OnlineSimulator(kernel=kernel, max_steps=1)
            out = sim.evaluate(queue, waits, runtimes, profile, build_portfolio()[0])
            assert out.truncated
            assert out.score == 0.0
            # Never-started job: penalised against the simulated horizon
            # (t), not the started-jobs end time (t0 when none started).
            t0 = profile.now
            t = out.end_time if out.end_time > t0 else t0 + sim.tick
            est = max(runtimes[0], 1.0)
            denom = max(est, 10.0)
            total_wait = waits[0] + (sim.tick - 0.0) + (sim.tick - 0.0)
            expected_bsd = max(1.0, (total_wait + denom) / denom)
            assert out.bsd == pytest.approx(expected_bsd)

    def test_truncated_never_beats_a_draining_policy(self):
        """A drained non-empty queue always scores strictly positive, so
        the pinned 0.0 truncation score can never win a selection."""
        sim = OnlineSimulator()
        queue = jobs_of(3, procs=1, runtime=100.0)
        profile = profile_from_vms(0.0, [vm(0, lease=-100.0, ready=0.0)], max_vms=8)
        drained = sim.evaluate(queue, [0.0] * 3, [100.0] * 3, profile, build_portfolio()[0])
        assert not drained.truncated
        assert drained.score > 0.0

        tq, tw, tr, tp = truncation_state()
        truncated = OnlineSimulator(max_steps=1).evaluate(
            tq, tw, tr, tp, build_portfolio()[0]
        )
        assert truncated.truncated
        assert truncated.score < drained.score

    def test_truncated_outcomes_identical_across_kernels(self):
        """Also where the cut lands inside a quiet stretch: a skipped step
        counts toward ``max_steps`` and truncates on the reference's step,
        with the reference's ``t``."""
        cases = [("truncation", truncation_state(), 1)] + truncation_cases()
        for label, (queue, waits, runtimes, profile), max_steps in cases:
            fast = OnlineSimulator(kernel="fast", max_steps=max_steps)
            ref = OnlineSimulator(kernel="reference", max_steps=max_steps)
            for policy in build_portfolio() + odx3_members():
                expected = ref.evaluate(queue, waits, runtimes, profile, policy)
                assert fast.evaluate(queue, waits, runtimes, profile, policy) == (
                    expected
                ), (label, policy.name)


def test_quiet_stretches_are_skipped(monkeypatch):
    """The fast-forward fires on the quiet-stretch states: fewer
    allocation passes than counted steps."""
    walks = []
    walk = fast_sim._walk
    monkeypatch.setattr(fast_sim, "_walk", lambda *a: walks.append(1) or walk(*a))
    fast = OnlineSimulator(kernel="fast")
    states = {s[0]: s[1:] for s in synthetic_states()}
    for label, name in (
        ("fcfs-late-busy", "ODA-FCFS-FirstFit"),
        ("narrow-overtakes", "ODB-LXF-BestFit"),
        ("narrow-overtakes", "ODM-UNICEF-FirstFit"),
        ("narrow-overtakes", "ODE-WFP3-WorstFit"),
        ("service-over-grant", "ODX-FCFS-FirstFit"),
    ):
        queue, waits, runtimes, profile = states[label]
        policy = policy_by_name(name)
        walks.clear()
        out = fast.evaluate(queue, waits, runtimes, profile, policy)
        assert len(walks) < out.steps, (label, name, len(walks), out.steps)
    queue, waits, runtimes, profile = starving_state()
    walks.clear()
    out = OnlineSimulator(max_steps=100_000).evaluate(
        queue, waits, runtimes, profile, policy_by_name("ODA-FCFS-FirstFit"))
    assert out.truncated and out.steps == 100_001 and len(walks) == 1


class _Tagged(CombinedPolicy):
    """A subclass: same formulas, but the kernel may not assume so."""


def rider_members():
    """The 66-member spot portfolio plus two ODX members on a non-default
    threshold (which may ride with each other, never with the default
    ODX) and a subclass member (which never rides)."""
    return build_portfolio() + spot_portfolio_members() + odx3_members() + [
        _Tagged(ODA(), FCFS(), FirstFit()),
    ]


def rider_states():
    """Every state of the soak, each with its simulator settings."""
    states = [
        (f"{label}/{acc}", q, w, r, p, OnlineSimulator(rv_accounting=acc))
        for label, q, w, r, p in synthetic_states()
        for acc in ("total", "marginal")
    ]
    states.append(("swf", *swf_state(), OnlineSimulator()))
    states.append(("truncated", *truncation_state(), OnlineSimulator(max_steps=1)))
    states.append(("truncated-late", *truncation_state(), OnlineSimulator(max_steps=3)))
    states += [(f"truncated-quiet/{label}", *state, OnlineSimulator(max_steps=max_steps))
               for label, state, max_steps in truncation_cases()]
    return states


@pytest.mark.parametrize("state", rider_states(), ids=lambda s: s[0])
def test_rider_outcomes_equal_their_own_evaluation(state):
    """Every member leads once with all others as riders: the leader's
    outcome is unchanged, and every rider answered equals that rider's
    own evaluation field for field."""
    label, queue, waits, runtimes, profile, sim = state
    members = rider_members()
    prep = sim.prepare(queue, waits, runtimes, profile)
    own = [sim.evaluate_prepared(prep, policy) for policy in members]
    answered = 0
    for lead_at, leader in enumerate(members):
        riders = [p for p in members if p is not leader]
        shared = []
        assert sim.evaluate_prepared(prep, leader, riders, shared) == own[lead_at]
        for rider, outcome in shared:
            at = next(i for i, p in enumerate(members) if p is rider)
            assert outcome == own[at], (label, leader.name, rider.name)
            assert type(rider) is CombinedPolicy
            lead_base = getattr(leader.provisioning, "base", leader.provisioning)
            rider_base = getattr(rider.provisioning, "base", rider.provisioning)
            assert isinstance(lead_base, ODX) == isinstance(rider_base, ODX)
            if isinstance(lead_base, ODX):
                assert lead_base.threshold == rider_base.threshold
        if type(leader) is not CombinedPolicy:
            assert shared == []  # the reference loop answers no riders
        answered += len(shared)
    assert answered > 0, label


def test_riders_share_a_one_job_queue_by_kind():
    """On a 1-job queue every visit order is equal and a single idle VM
    makes every VM rule alike, so riders split only by ODX-ness."""
    now = 7_200.0
    profile = profile_from_vms(now, [vm(0, lease=now - HOUR)], max_vms=4,
                               boot_delay=100.0)
    sim = OnlineSimulator()
    prep = sim.prepare(jobs_of(1), [0.0], [100.0], profile)
    portfolio = build_portfolio()
    shared = []
    sim.evaluate_prepared(prep, portfolio[0], portfolio[1:], shared)
    assert {r.name.split("-")[0] for r, _ in shared} == {"ODA", "ODB", "ODE", "ODM"}
    assert len(shared) == 4 * 12 - 1


def test_fast_kernel_under_strict_audit_end_to_end():
    """A strictly audited portfolio run completes identically on both
    kernels (the CI kernel-smoke job diffs full exports; this is the
    in-process version on a small trace)."""
    from repro.audit import AuditConfig
    from repro.core.scheduler import PortfolioScheduler
    from repro.experiments.engine import EngineConfig

    jobs = generate_trace(DAS2_FS0, duration=1_800.0, seed=5)[:30]
    results = {}
    for kernel in ("fast", "reference"):
        scheduler = PortfolioScheduler(
            cost_clock=VirtualCostClock(0.010), seed=7, kernel=kernel
        )
        engine = ClusterEngine(
            [j.fresh_copy() for j in jobs],
            scheduler,
            config=EngineConfig(audit=AuditConfig(level="strict")),
        )
        r = engine.run()
        results[kernel] = (
            r.metrics.rj_seconds,
            r.metrics.rv_seconds,
            r.metrics.avg_bounded_slowdown,
            r.utility,
        )
    assert results["fast"] == results["reference"]


# ---------------------------------------------------------------------------
# satellite: available-counts-booting pin against the real engine


def test_available_counts_booting_vms_like_the_engine():
    """Sim-side ``available = len(active) - busy`` equals the engine's
    ``rented - len(busy_vms())`` — both deliberately count booting VMs as
    supply — while the *release* side excludes booting VMs in both."""
    now = 500.0
    jobs = jobs_of(4, procs=2, runtime=300.0)
    engine = ClusterEngine(
        jobs, FixedScheduler(build_portfolio()[0]),
        config=None,
    )
    provider = engine.provider
    # 3 ready+idle, 2 busy, 3 still booting at ``now``.
    ready = provider.lease(5, now - 400.0)
    for v in ready:
        v.boot_complete(now - 100.0)
    engine.queue = list(engine.jobs)
    for v, job in zip(ready[:2], engine.jobs[:2]):
        job.start_time = now - 50.0
        v.assign(job.job_id, until=now + 400.0)
    booting = provider.lease(3, now - 30.0)
    assert all(v.ready_time > now for v in booting)

    ctx = engine._build_context(now)
    assert ctx.rented == 8
    assert ctx.busy == 2
    # Engine convention: booting VMs ARE dispatchable supply.
    assert ctx.available == 8 - 2 == 6

    # The sim's first-step classification of the captured profile agrees.
    profile = CloudProfile.capture(provider, now)
    busy = sum(1 for s in profile.vms if s.busy_until > now)
    booting_n = sum(1 for s in profile.vms if s.ready_time > now and s.busy_until <= now)
    assert (len(profile.vms), busy) == (ctx.rented, ctx.busy)
    assert len(profile.vms) - busy == ctx.available  # booting included
    # Release-side supply (eager release) excludes booting in both:
    assert len(provider.idle_vms()) == len(profile.vms) - busy - booting_n == 3


def test_booting_heavy_disagreement_between_sizing_and_releasing():
    """Regression for the convention: on a booting-heavy fleet the sizing
    supply (with booting) and the release supply (without) genuinely
    disagree, and both kernels implement the same split."""
    now = 1_000.0
    fleet = [vm(i, lease=now - 20.0, ready=now + 80.0) for i in range(6)]
    fleet.append(vm(99, lease=now - 2 * HOUR))  # one idle VM
    profile = profile_from_vms(now, fleet, max_vms=16, boot_delay=100.0)
    queue = jobs_of(1, procs=1, runtime=50.0)
    # ODB sizes against rented (7) and ODA against available (7 - 0 busy):
    # with booting counted, neither leases anything new for one job.
    for kernel in ("fast", "reference"):
        sim = OnlineSimulator(kernel=kernel)
        out = sim.evaluate(queue, [0.0], [50.0], profile, policy_by_name("ODA-FCFS-FirstFit"))
        # One idle VM runs the job; the six booting VMs are surplus once
        # ready and are eagerly released — only possible because release
        # supply ignores booting until they finish booting.
        assert not out.truncated and out.score > 0.0
    f = OnlineSimulator(kernel="fast").evaluate(
        queue, [0.0], [50.0], profile, policy_by_name("ODA-FCFS-FirstFit")
    )
    r = OnlineSimulator(kernel="reference").evaluate(
        queue, [0.0], [50.0], profile, policy_by_name("ODA-FCFS-FirstFit")
    )
    assert f == r


# ---------------------------------------------------------------------------
# satellite: _remaining_paid boundaries + next_event comparison


class TestRemainingPaid:
    def test_fresh_lease_maps_to_full_period(self):
        # t == lease_time: a whole period was just paid.
        assert _remaining_paid(100.0, 100.0, HOUR) == HOUR

    def test_exact_multiples_map_to_full_period(self):
        for k in (1, 2, 7):
            assert _remaining_paid(100.0 + k * HOUR, 100.0, HOUR) == HOUR

    def test_just_past_boundary(self):
        r = _remaining_paid(100.0 + HOUR + 1.0, 100.0, HOUR)
        assert r == pytest.approx(HOUR - 1.0)

    def test_just_before_boundary(self):
        r = _remaining_paid(100.0 + HOUR - 1.0, 100.0, HOUR)
        assert r == pytest.approx(1.0)

    def test_epsilon_around_boundary(self):
        eps = 1e-7
        just_before = _remaining_paid(HOUR - eps, 0.0, HOUR)
        just_after = _remaining_paid(HOUR + eps, 0.0, HOUR)
        assert 0.0 < just_before <= HOUR
        assert 0.0 < just_after <= HOUR
        # Never 0: the sort key is always a positive amount of paid time.
        for t in (0.0, eps, HOUR, 2 * HOUR, 2 * HOUR + eps):
            assert _remaining_paid(t, 0.0, HOUR) > 0.0

    def test_provider_agreement_and_boundary_deviation(self):
        """Off-boundary the sim helper equals the provider's billing;
        at exact non-initial boundaries they deliberately diverge —
        provider says 0.0 (release now costs nothing), the sim says a
        full period (its ceil-based charge books the next period the
        moment use continues).  Pinned so neither side drifts silently."""
        provider = CloudProvider(ProviderConfig(boot_delay=0.0))
        (v,) = provider.lease(1, 50.0)
        for t in (50.0, 51.0, 50.0 + 0.5 * HOUR, 50.0 + 1.5 * HOUR):
            assert provider.remaining_paid(v, t) == _remaining_paid(t, 50.0, HOUR)
        for k in (1, 2, 5):
            t = 50.0 + k * HOUR
            assert provider.remaining_paid(v, t) == 0.0
            assert _remaining_paid(t, 50.0, HOUR) == HOUR

    def test_property_random_times(self):
        import random

        rng = random.Random(3)
        for _ in range(500):
            lease = rng.uniform(0, 10_000)
            t = lease + rng.uniform(0, 5) * HOUR
            r = _remaining_paid(t, lease, HOUR)
            assert 0.0 < r <= HOUR
            # Consistency with the inlined fast-path expression.
            assert r == ((HOUR - (t - lease) % HOUR) % HOUR or HOUR)


def test_charged_is_integer_multiple_of_period():
    import random

    rng = random.Random(9)
    for _ in range(200):
        lease = rng.uniform(0, 1_000)
        end = lease + rng.uniform(0, 10) * HOUR
        c = _charged(lease, end, HOUR)
        assert c >= HOUR
        assert c / HOUR == int(c / HOUR)


# ---------------------------------------------------------------------------
# selector: warm-start prefix + shared runs


def portfolio_selector(kernel="fast", n=12):
    sim = OnlineSimulator(kernel=kernel)
    return TimeConstrainedSelector(
        build_portfolio()[:n],
        simulator=sim,
        time_constraint=10.0,  # large enough to simulate everything
        cost_clock=VirtualCostClock(0.01),
    )


def paper_selector(simulator):
    """All 66 members under the paper's Δ = 0.2 s at 10 ms a policy:
    about 20 scored per round, so the sets rebuild every round."""
    return TimeConstrainedSelector(
        build_portfolio() + spot_portfolio_members(),
        simulator=simulator,
        time_constraint=0.2,
        cost_clock=VirtualCostClock(0.01),
    )


def round_inputs():
    _, queue, waits, runtimes, profile = synthetic_states()[0]
    return queue, waits, runtimes, profile


def successive_rounds(n):
    """*n* select() inputs: the soak's states in turn (spot included),
    their waits aged 20 s a round."""
    states = synthetic_states()
    for k in range(n):
        _, queue, waits, runtimes, profile = states[k % len(states)]
        yield queue, [w + 20.0 * k for w in waits], runtimes, profile


class TwoArgumentSimulator(OnlineSimulator):
    """Overrides only ``evaluate_prepared``, with its old signature."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def evaluate_prepared(self, prep, policy):
        self.calls += 1
        return super().evaluate_prepared(prep, policy)


class TestSelectorMemo:
    def test_reference_kernel_disables_memo_and_prep(self):
        sel = portfolio_selector(kernel="reference")
        queue, waits, runtimes, profile = round_inputs()
        sel.select(queue, waits, runtimes, profile)
        sel.select(queue, waits, runtimes, profile)
        assert sel.memo_hits == 0
        assert sel._memo is None

    def test_selection_identical_across_kernels(self):
        """Shared runs (fast kernel) and one run per member (reference)
        agree on every round's scores, costs, Δ spent and set sizes."""
        sels = {k: paper_selector(OnlineSimulator(kernel=k))
                for k in ("fast", "reference")}
        for queue, waits, runtimes, profile in successive_rounds(12):
            seen = {}
            for kernel, sel in sels.items():
                out = sel.select(queue, waits, runtimes, profile)
                seen[kernel] = (
                    [(ps.policy.name, ps.score, ps.cost) for ps in out.simulated],
                    out.best.name,
                    out.spent,
                    sel.set_sizes(),
                )
            assert seen["fast"] == seen["reference"]
        assert sels["fast"].memo_hits > 0
        assert sels["reference"].memo_hits == 0

    def test_repeated_round_is_simulated_afresh(self):
        """No shared outcome crosses rounds: every score a round takes
        from the memo was answered by a leader of that same round."""
        sim = OnlineSimulator()
        calls = []
        evaluate_prepared = sim.evaluate_prepared

        def spy(prep, policy, riders=(), shared=None):
            out = evaluate_prepared(prep, policy, riders, shared)
            calls.append((policy.name, [r.name for r, _ in shared or ()]))
            return out

        # An instance attribute, so the class still has no override.
        sim.evaluate_prepared = spy
        sel = paper_selector(sim)
        queue, waits, runtimes, profile = round_inputs()
        for _ in range(2):
            calls.clear()
            out = sel.select(queue, waits, runtimes, profile)
            assert sel._memo is None
            leaders = {name for name, _ in calls}
            answered = {name for _, names in calls for name in names}
            hits = {ps.policy.name for ps in out.simulated} - leaders
            assert calls and hits and hits <= answered
            assert len(hits) == out.n_shared
            assert len(calls) + out.n_shared == out.n_simulated

    def test_two_argument_evaluate_prepared_override_sees_every_member(self):
        sim = TwoArgumentSimulator()
        sel = paper_selector(sim)
        for queue, waits, runtimes, profile in successive_rounds(4):
            out = sel.select(queue, waits, runtimes, profile)
            assert out.n_shared == 0 and out.n_quarantined == 0
        assert sim.calls == sel.total_simulated > 0
        assert sel.memo_hits == 0 and sel.quarantined == 0


# ---------------------------------------------------------------------------
# kernel plumbing: ctor validation, pickle back-compat, scoring epilogue


def test_kernel_ctor_validation():
    with pytest.raises(ValueError, match="kernel"):
        OnlineSimulator(kernel="turbo")
    assert OnlineSimulator(kernel="reference").kernel == "reference"
    assert OnlineSimulator().kernel == "fast"


def test_old_pickles_without_kernel_attr_default_to_fast():
    sim = OnlineSimulator()
    # Simulate a durability snapshot taken before the attribute existed.
    del sim.__dict__["kernel"]
    assert getattr(sim, "kernel", None) == "fast"  # class-level default
    queue = jobs_of(2)
    profile = profile_from_vms(0.0, [], max_vms=8)
    out = sim.evaluate(queue, [0.0, 0.0], [300.0, 300.0], profile, build_portfolio()[0])
    assert not out.truncated

    clone = pickle.loads(pickle.dumps(sim))
    assert getattr(clone, "kernel", None) == "fast"


def test_fast_and_reference_kernels_agree_on_a_40_job_queue():
    """The two kernels score a 40-job queue through their own epilogues
    (``_score_fast`` vs ``_finalize``); the outcomes must be equal."""
    now = 50.0
    queue = jobs_of(40, procs=1, runtime=90.0)
    waits = [3.0 * i for i in range(40)]
    runtimes = [90.0 + i for i in range(40)]
    profile = profile_from_vms(now, [vm(i, lease=now - 500.0) for i in range(6)], max_vms=64)
    f = OnlineSimulator(kernel="fast").evaluate(
        queue, waits, runtimes, profile, build_portfolio()[0]
    )
    r = OnlineSimulator(kernel="reference").evaluate(
        queue, waits, runtimes, profile, build_portfolio()[0]
    )
    assert f == r


# ---------------------------------------------------------------------------
# parallel: packed wave payloads


def test_packed_chunk_matches_unpacked_chunk():
    from repro.parallel.evaluator import _evaluate_chunk, _evaluate_chunk_packed

    _, queue, waits, runtimes, profile = synthetic_states()[0]
    sim = OnlineSimulator()
    items = list(enumerate(build_portfolio()[:6]))
    payload = pickle.dumps((list(queue), list(waits), list(runtimes), profile))
    packed = _evaluate_chunk_packed(sim, items, payload)
    plain = _evaluate_chunk(sim, items, queue, waits, runtimes, profile)
    assert [(r.index, r.outcome, r.error) for r in packed] == [
        (r.index, r.outcome, r.error) for r in plain
    ]


def test_boundary_release_rule_uses_reference_loop():
    """The fast kernel only covers the eager rule; boundary-rule
    simulators must transparently fall back and still score."""
    sim = OnlineSimulator(kernel="fast", release_rule="boundary")
    queue = jobs_of(3)
    profile = profile_from_vms(0.0, [vm(0, lease=-100.0)], max_vms=8)
    out = sim.evaluate(queue, [0.0] * 3, [300.0] * 3, profile, build_portfolio()[0])
    assert not out.truncated and out.score > 0.0
