"""The online simulator (paper §3.3).

Given the queued jobs, a snapshot of the cloud (the *profile*), and one
candidate policy, the online simulator fast-forwards the system — with no
future arrivals — until every queued job finishes, and scores the policy
with the utility function.  It is the selection mapping S(·) of the
abstract model, invoked up to 60 times per scheduling decision, so it is
built for speed.  It has two kernels that share the billing helpers and
the scoring function but not the policy code:

* the fast kernel (:mod:`repro.core.fast_sim`) re-derives the 12
  built-in provisioning / job-selection / VM-selection formulas over
  arrays and never calls the policy methods;
* the reference loop (:meth:`OnlineSimulator._evaluate_reference`) calls
  the same :meth:`CombinedPolicy.allocate` / ``new_vms`` as the real
  engine.  Only members outside the fast kernel's dispatch tables
  (custom, subclassed or backfilling policies) and boundary-rule
  snapshots reach it.

The simulator has no tick or release-rule setting of its own: both
come with the snapshot (:attr:`CloudProfile.tick`,
:attr:`CloudProfile.release_rule`), filled by whoever took it — the
engine from its ``EngineConfig``, the service from its round step.

Tests hold the fast kernel to the reference loop
(``tests/test_kernel_fast.py``, exact) and the simulator to the engine
(``tests/test_online_engine_consistency.py``, every portfolio member).
Both kernels jump between *decision-relevant* times instead of stepping
every tick — VM boot completions, job finishes, idle-VM billing
boundaries, ODX urgency crossings — falling back to tick-stepping in
the head-blocked state (a job that fits the idle pool waits behind a
wider head), where queue reordering could unblock allocation.  That
state is not rare: it is 49.5% of the simulated steps of the perf
harness's ``service-steady`` workload at seed 42.  The fast kernel
skips the stretches of it that it can prove quiet; the reference loop
steps through every one.  Each reference step makes a single pass over
the live fleet (classification, next-event search and release checks
fused), with released VMs charged incrementally and dropped from the
scan.

RV is the paper's **total** hour-rounded charge of every rented VM:
each VM of the snapshot and each VM leased in-sim is charged from its
lease time to its release (or, if still held when the queue drains, to
its last use).  Runtimes are the scheduler's estimates throughout — the
online simulator cannot know actual runtimes (paper §6.3 measures the
consequences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.cloud.profile import CloudProfile
from repro.core.fast_sim import KernelPrep, fast_evaluate
from repro.core.utility import UtilityFunction
from repro.policies.base import IdleVM, SchedContext
from repro.policies.combined import CombinedPolicy
from repro.policies.provisioning import ODX
from repro.policies.spot_aware import rv_spot_factor
from repro.workload.job import BOUNDED_SLOWDOWN_BOUND, Job

__all__ = ["OnlineSimulator", "SimOutcome"]

_EPS = 1e-6
_INF = float("inf")


def _remaining_paid(t: float, lease_time: float, period: float) -> float:
    """Seconds of already-paid lease left at time *t* in the current
    billing period.

    The trailing ``or period`` is deliberate, not a fallback: exactly at
    a billing boundary (``t - lease_time`` a multiple of *period*,
    including ``t == lease_time``) the 0.0 remainder maps to a full
    *period*.  This matches the sim's own ceil-based charging
    (:func:`_charged` books the next period the moment use continues past
    a boundary), so a boundary VM has the *most* paid time ahead and
    sorts last in the ascending release order.  Known deviation:
    ``CloudProvider.remaining_paid`` reports 0.0 at exact non-initial
    boundaries (release-now-costs-nothing view); the sim has always used
    the full-period mapping and the fast kernel preserves it bit-for-bit
    (pinned in tests/test_kernel_fast.py).
    """
    return (period - (t - lease_time) % period) % period or period


def _charged(lease: float, end: float, period: float) -> float:
    """Hour-rounded charge for [lease, end] (min one period).

    Always an exact integer multiple of *period*, so accumulating these
    charges in any order yields the same float — a property the kernel
    fast path's bit-identity relies on.
    """
    used = max(0.0, end - lease)
    return max(1, math.ceil(used / period - 1e-9)) * period


@dataclass(slots=True, frozen=True)
class SimOutcome:
    """Result of one policy evaluation."""

    score: float
    bsd: float
    rj_seconds: float
    rv_seconds: float
    steps: int
    end_time: float
    truncated: bool = False


@dataclass(slots=True)
class _SimVM:
    """Mutable in-sim VM record (cheap, no provider machinery)."""

    lease_time: float
    ready_time: float
    busy_until: float  # -1.0 when idle/booting
    preexisting: bool
    last_busy_end: float  # latest time this VM was in use


class OnlineSimulator:
    """Scores (queue, profile, policy) triples.

    The head-blocked fallback step and the idle-VM release rule are the
    profile's (:attr:`CloudProfile.tick`,
    :attr:`CloudProfile.release_rule`), so one simulator serves any
    engine configuration.

    Parameters
    ----------
    utility:
        Objective to score with.
    max_steps:
        Safety valve: a simulation exceeding this many decision points is
        truncated (score 0), never looped forever.
    """

    def __init__(
        self,
        utility: UtilityFunction | None = None,
        max_steps: int = 100_000,
    ) -> None:
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.utility = utility or UtilityFunction()
        self.max_steps = max_steps

    # ------------------------------------------------------------------

    def prepare(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> KernelPrep:
        """Build the warm-start prefix for one selection round.

        Everything derivable from the (queue, profile) snapshot alone —
        per-job constants, VM base arrays, the policy-independent RJ
        total — is computed once here and shared by every subsequent
        :meth:`evaluate_prepared` call, instead of being re-derived per
        policy (up to 60× per tick).
        """
        if not (len(queue) == len(waits) == len(runtimes)):
            raise ValueError("queue, waits and runtimes must be parallel")
        return KernelPrep(queue, waits, runtimes, profile)

    def evaluate_prepared(
        self,
        prep: KernelPrep,
        policy: CombinedPolicy,
        riders: Sequence[CombinedPolicy] = (),
        shared: list | None = None,
    ) -> SimOutcome:
        """Evaluate *policy* against a prefix built by :meth:`prepare`.

        Takes the fast kernel on an eager-rule snapshot when *policy*
        has a fast plan (:attr:`CombinedPolicy.kernel_plan`: built from
        the known concrete classes); otherwise runs the reference loop
        (same results).

        *riders* are other members the caller would score on the same
        prefix.  When the fast kernel runs, each rider that decides like
        *policy* at every step shares its trajectory and is appended to
        *shared* as ``(rider, outcome)``, the outcome its own evaluation
        would return.  The reference loop answers no riders.
        """
        if prep.release_rule == "eager":
            plan = policy.kernel_plan
            if plan is not None:
                return fast_evaluate(self, prep, policy, plan, riders, shared)
        return self._evaluate_reference(prep, policy)

    def evaluate(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
        policy: CombinedPolicy,
    ) -> SimOutcome:
        """Simulate *policy* on the snapshot and return its utility score.

        ``queue``/``waits``/``runtimes`` are parallel: the queued jobs,
        their already-accrued wait at snapshot time, and the runtime
        estimates the scheduler plans with.  One-shot entry point:
        callers scoring many policies on one snapshot should
        :meth:`prepare` once and use :meth:`evaluate_prepared`.
        """
        return self.evaluate_prepared(
            self.prepare(queue, waits, runtimes, profile), policy
        )

    def _evaluate_reference(
        self, prep: KernelPrep, policy: CombinedPolicy
    ) -> SimOutcome:
        """The object-based simulation loop on *prep*'s snapshot.

        The fast kernel mirrors this loop decision-for-decision; keep the
        two in lockstep (the differential soak in tests/test_kernel_fast.py
        and the CI kernel-smoke export diffs enforce it).
        """
        queue = prep.queue
        waits = prep.waits
        runtimes = prep.runtimes
        profile = prep.profile
        t0 = profile.now
        period = profile.billing_period
        boot = profile.boot_delay
        max_vms = profile.max_vms
        tick = prep.tick
        eager = prep.release_rule == "eager"
        provisioning = policy.provisioning
        # Spot-aware wrappers delegate demand sizing to their base policy;
        # the urgency-crossing wake-ups must fire for a wrapped ODX too.
        base_provisioning = getattr(provisioning, "base", provisioning)
        is_odx = isinstance(base_provisioning, ODX)

        active: list[_SimVM] = [
            _SimVM(
                lease_time=snap.lease_time,
                ready_time=snap.ready_time,
                busy_until=snap.busy_until if snap.busy_until > t0 else -1.0,
                preexisting=True,
                last_busy_end=max(t0, snap.busy_until),
            )
            for snap in profile.vms
        ]
        rv = 0.0  # charges of VMs released in-sim
        # Charges attributable to VMs *leased in-sim* (subset of ``rv``,
        # accumulated in parallel so the summation order of ``rv`` itself
        # never changes).  With a spot snapshot these VM hours are re-priced
        # at the policy's spot mix; with no spot market it stays unused.
        rv_new = 0.0

        pending: list[int] = list(range(len(queue)))
        start_times: dict[int, float] = {}
        procs_of = prep.procs

        t = t0
        steps = 0
        truncated = False

        while pending:
            steps += 1
            if steps > self.max_steps:
                truncated = True
                break

            # --- one pass: classify fleet, collect next event time --------
            idle: list[_SimVM] = []
            busy_frees: list[float] = []
            next_event = _INF
            for vm in active:
                bu = vm.busy_until
                if bu > t:
                    busy_frees.append(bu)
                    if bu < next_event:
                        next_event = bu
                elif vm.ready_time > t:
                    if vm.ready_time < next_event:
                        next_event = vm.ready_time
                else:
                    if bu > 0:
                        vm.busy_until = -1.0
                    idle.append(vm)

            # ``available`` counts booting VMs as supply on purpose: the
            # engine's ClusterEngine._build_context computes it the same
            # way (rented - busy), so provisioning policies see identical
            # demand signals here and live.  The eager-release pass below
            # deliberately does NOT count booting VMs (again matching
            # ClusterEngine._release_surplus) — supply for *sizing*,
            # not for *releasing*.  tests/test_kernel_fast.py pins the
            # agreement on a booting-heavy profile.
            ctx = SchedContext(
                now=t,
                queue=[queue[i] for i in pending],
                waits=[waits[i] + (t - t0) for i in pending],
                runtimes=[runtimes[i] for i in pending],
                rented=len(active),
                available=len(active) - len(busy_frees),
                busy=len(busy_frees),
                # Known deviation from the engine: these are the snapshot's
                # *actual* busy-until times, while the engine publishes
                # predicted frees (start + estimate).  Only planning
                # policies (EASY backfilling — not in the portfolio) read
                # this field, so the portfolio scores are unaffected.
                busy_free_times=busy_frees,
                max_vms=max_vms,
                spot_price=profile.spot_price,
            )

            # --- boundary-rule release pass (ablation mode only) ----------
            if not eager:
                kept: list[_SimVM] = []
                released: list[_SimVM] = []
                for vm in idle:
                    into = (t - vm.lease_time) % period
                    at_boundary = into < _EPS and t > vm.lease_time + _EPS
                    if at_boundary and not provisioning.keep_idle_vm(ctx, 0.0):
                        charge = _charged(vm.lease_time, t, period)
                        rv += charge
                        if not vm.preexisting:
                            rv_new += charge
                        released.append(vm)
                        ctx.rented -= 1
                        ctx.available -= 1
                    else:
                        kept.append(vm)
                        nb = t + (period - into if into > _EPS else period)
                        if nb < next_event:
                            next_event = nb
                if released:
                    gone = set(map(id, released))
                    active = [vm for vm in active if id(vm) not in gone]
                idle = kept

            # --- provisioning ----------------------------------------------
            n_new = policy.new_vms(ctx)
            for _ in range(n_new):
                nvm = _SimVM(
                    lease_time=t,
                    ready_time=t + boot,
                    busy_until=-1.0,
                    preexisting=False,
                    last_busy_end=t,
                )
                active.append(nvm)
                if nvm.ready_time < next_event:
                    next_event = nvm.ready_time
            if n_new:
                ctx.rented += n_new
                ctx.available += n_new

            # --- allocation -------------------------------------------------
            supply_changed = n_new > 0
            if idle and pending:
                views = [
                    IdleVM(
                        vm_id=i,
                        remaining_paid=_remaining_paid(t, vm.lease_time, period),
                    )
                    for i, vm in enumerate(idle)
                ]
                allocations = policy.allocate(ctx, views, period)
                if allocations:
                    started: set[int] = set()
                    used: set[int] = set()
                    for alloc in allocations:
                        qidx = pending[alloc.queue_index]
                        finish = t + max(runtimes[qidx], 1.0)
                        for vid in alloc.vm_ids:
                            vm = idle[vid]
                            vm.busy_until = finish
                            vm.last_busy_end = finish
                            used.add(vid)
                        start_times[qidx] = t
                        started.add(qidx)
                        if finish < next_event:
                            next_event = finish
                    pending = [i for i in pending if i not in started]
                    if not pending:
                        break
                    idle = [vm for i, vm in enumerate(idle) if i not in used]
                    supply_changed = True

            # --- eager release: drop idle VMs the queue no longer needs ----
            # (idle beyond queued demand only; booting VMs are not counted
            # as supply — see ClusterEngine._release_surplus for why)
            if eager and idle:
                demand_left = sum(procs_of[i] for i in pending)
                surplus = max(0, len(idle) - demand_left)
                if surplus > 0:
                    idle.sort(
                        key=lambda vm: _remaining_paid(t, vm.lease_time, period)
                    )
                    gone_eager = set()
                    for vm in idle[:surplus]:
                        charge = _charged(vm.lease_time, t, period)
                        rv += charge
                        if not vm.preexisting:
                            rv_new += charge
                        gone_eager.add(id(vm))
                    active = [vm for vm in active if id(vm) not in gone_eager]
                    idle = idle[surplus:]
                    supply_changed = True

            # --- extra wake-ups ---------------------------------------------
            # The engine re-applies the policy every tick: after any supply
            # change (lease/allocation/release) the next tick's provisioning
            # decision can differ (e.g. ODM re-leases once its VMs turn
            # busy), so wake up one tick later rather than jumping past it.
            if supply_changed and pending:
                cand = t + tick
                if cand < next_event:
                    next_event = cand
            if is_odx:
                for i in pending:
                    denom = max(runtimes[i], BOUNDED_SLOWDOWN_BOUND)
                    crossing = t0 + (denom - waits[i]) + _EPS
                    if t < crossing < next_event:
                        next_event = crossing
            if idle and pending:
                # Head-blocked: a smaller job could fit the idle pool but the
                # priority head does not; reordering over time may unblock it,
                # so fall back to tick-stepping.
                if min(procs_of[i] for i in pending) <= len(idle):
                    cand = t + tick
                    if cand < next_event:
                        next_event = cand
            if next_event == _INF:
                next_event = t + tick
            t = next_event

        # Still-active VMs are charged through their last use: with the
        # release-at-boundary rule, terminating right after the last job
        # costs exactly the same hours, so this is the cost a non-wasteful
        # wind-down would book.
        for vm in active:
            charge = _charged(vm.lease_time, vm.last_busy_end, period)
            rv += charge
            if not vm.preexisting:
                rv_new += charge

        return self._score(
            prep, provisioning, start_times, t, rv, rv_new, steps, truncated
        )

    # ------------------------------------------------------------------

    def _score(
        self,
        prep: KernelPrep,
        provisioning,
        start_times: dict[int, float],
        t: float,
        rv: float,
        rv_new: float,
        steps: int,
        truncated: bool,
    ) -> SimOutcome:
        """Scoring epilogue of both kernels (VM charges already in
        *rv*/*rv_new*): end time, BSD aggregation, spot re-pricing,
        utility.

        The per-job constants come from *prep*: ``est`` is
        ``max(runtime, 1.0)``, ``denom10`` is ``max(runtime, 10.0)``
        (== ``max(est, 10.0)``), and ``rj`` is policy-independent.
        """
        t0 = prep.t0
        est = prep.est
        denom10 = prep.denom10
        waits0 = prep.waits0
        end_time = t0
        for qidx, start in start_times.items():
            finish = start + est[qidx]
            if finish > end_time:
                end_time = finish

        n = prep.n_jobs
        bsd_sum = 0.0
        if truncated:
            # A job can lack a start time only on truncation; ``end_time``
            # then reflects started jobs alone (t0 if none started), which
            # would under-penalise an all-blocked truncation.  Penalise
            # a never-started job with the wait accrued up to truncation
            # plus one full horizon actually simulated.  The score is
            # pinned to 0.0 regardless.
            horizon = end_time if end_time > t else t
            for qidx in range(n):
                start = start_times.get(qidx)
                if start is None:
                    total_wait = waits0[qidx] + (t - t0) + (horizon - t0)
                else:
                    total_wait = waits0[qidx] + (start - t0)
                denom = denom10[qidx]
                bsd_sum += max(1.0, (total_wait + denom) / denom)
        else:
            for qidx in range(n):
                denom = denom10[qidx]
                total_wait = waits0[qidx] + (start_times[qidx] - t0)
                bsd_sum += max(1.0, (total_wait + denom) / denom)
        bsd = bsd_sum / n if n else 1.0

        # Spot snapshot: re-price the VM hours this policy would lease at
        # its spot mix (risk-adjusted), so cheap-but-risky members compete
        # on effective cost.  With no spot market the branch is never taken
        # and ``rv`` reaches the utility untouched — bit-identical scoring.
        profile = prep.profile
        if profile.spot_price is not None:
            factor = rv_spot_factor(
                provisioning, profile.spot_price, profile.spot_price_effective
            )
            if factor != 1.0:
                rv = (rv - rv_new) + rv_new * factor

        score = self.utility(prep.rj, rv, bsd)
        if truncated:
            score = 0.0  # a policy that cannot drain the queue loses
        return SimOutcome(
            score=score,
            bsd=bsd,
            rj_seconds=prep.rj,
            rv_seconds=rv,
            steps=steps,
            end_time=end_time,
            truncated=truncated,
        )
