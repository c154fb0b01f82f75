"""The online simulator (paper §3.3).

Given the queued jobs, a snapshot of the cloud (the *profile*), and one
candidate policy, the online simulator fast-forwards the system — with no
future arrivals — until every queued job finishes, and scores the policy
with the utility function.  It is the selection mapping S(·) of the
abstract model, invoked up to 60 times per scheduling decision, so it is
built for speed.  It has two kernels that share the billing helpers and
the utility function but not the policy code:

* the default fast kernel (:mod:`repro.core.fast_sim`) re-derives the
  12 built-in provisioning / job-selection / VM-selection formulas over
  arrays and never calls the policy methods;
* the reference loop (:meth:`OnlineSimulator._evaluate_reference`) calls
  the same :meth:`CombinedPolicy.allocate` / ``new_vms`` as the real
  engine.  Only members outside the fast kernel's dispatch tables
  (custom or backfilling policies), the boundary release rule, and
  ``--kernel reference`` reach it.

Tests hold the fast kernel to the reference loop
(``tests/test_kernel_fast.py``, exact) and the simulator to the engine
(``tests/test_online_engine_consistency.py``, every portfolio member).
Both kernels jump between *decision-relevant* times instead of ticking
every 20 s — VM boot completions, job finishes, idle-VM billing
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

Cost accounting is **marginal**: pre-existing VMs are charged only for
what the simulated horizon adds beyond their already-booked hours, VMs
leased in-sim are charged in full.  That makes the score reflect the cost
*caused by this decision*, which is what selection should optimise.
Runtimes are the scheduler's estimates throughout — the online simulator
cannot know actual runtimes (paper §6.3 measures the consequences).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.cloud.profile import CloudProfile
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

    Parameters
    ----------
    utility:
        Objective to score with.
    tick:
        Fallback step for the head-blocked state (the engine's 20 s).
    max_steps:
        Safety valve: a simulation exceeding this many decision points is
        truncated (score 0), never looped forever.
    kernel:
        "fast" (default) routes eligible (policy, release-rule) pairs
        through the array-based kernel in :mod:`repro.core.fast_sim`,
        which produces bit-identical outcomes; "reference" forces the
        original object-based loop for every evaluation (escape hatch /
        differential-testing baseline).
    """

    #: Class-level default so schedulers pickled before the attribute
    #: existed (durability snapshots) resume on the current default.
    kernel = "fast"

    def __init__(
        self,
        utility: UtilityFunction | None = None,
        tick: float = 20.0,
        max_steps: int = 100_000,
        rv_accounting: str = "total",
        release_rule: str = "eager",
        kernel: str = "fast",
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        if rv_accounting not in ("total", "marginal"):
            raise ValueError(
                f"rv_accounting must be 'total' or 'marginal', got {rv_accounting!r}"
            )
        if release_rule not in ("eager", "boundary"):
            raise ValueError(
                f"release_rule must be 'eager' or 'boundary', got {release_rule!r}"
            )
        if kernel not in ("fast", "reference"):
            raise ValueError(
                f"kernel must be 'fast' or 'reference', got {kernel!r}"
            )
        self.utility = utility or UtilityFunction()
        self.tick = float(tick)
        self.max_steps = max_steps
        #: "total" charges every rented VM from its lease time (the paper's
        #: RV definition); "marginal" nets out the hours pre-existing VMs
        #: had already booked before the snapshot (decision-cost view,
        #: available for ablations).
        self.rv_accounting = rv_accounting
        #: Must match the engine's idle-VM release rule (see EngineConfig).
        self.release_rule = release_rule
        self.kernel = kernel

    # ------------------------------------------------------------------

    def prepare(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ):
        """Build the warm-start prefix for one selection round.

        Everything derivable from the (queue, profile) snapshot alone —
        per-job constants, VM base arrays, the policy-independent RJ
        total — is computed once here and shared by every subsequent
        :meth:`evaluate_prepared` call, instead of being re-derived per
        policy (up to 60× per tick).
        """
        if not (len(queue) == len(waits) == len(runtimes)):
            raise ValueError("queue, waits and runtimes must be parallel")
        from repro.core.fast_sim import KernelPrep

        return KernelPrep(queue, waits, runtimes, profile)

    def evaluate_prepared(
        self,
        prep,
        policy: CombinedPolicy,
        riders: Sequence[CombinedPolicy] = (),
        shared: list | None = None,
    ) -> SimOutcome:
        """Evaluate *policy* against a prefix built by :meth:`prepare`.

        Takes the fast path when the kernel allows it and the policy is
        built from the known concrete classes; otherwise falls back to
        the reference loop on the original snapshot (same results).

        *riders* are other members the caller would score on the same
        prefix.  When the fast path runs, each rider that decides like
        *policy* at every step shares its trajectory and is appended to
        *shared* as ``(rider, outcome)``, the outcome its own evaluation
        would return.  The reference loop answers no riders.
        """
        if getattr(self, "kernel", "fast") == "fast" and self.release_rule == "eager":
            from repro.core.fast_sim import fast_evaluate, fast_plan

            plan = fast_plan(policy)
            if plan is not None:
                return fast_evaluate(self, prep, policy, plan, riders, shared)
        return self._evaluate_reference(
            prep.queue, prep.waits, prep.runtimes, prep.profile, policy
        )

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
        estimates the scheduler plans with.  One-shot entry point: builds
        a throwaway prefix when the fast kernel applies; callers scoring
        many policies on one snapshot should :meth:`prepare` once and use
        :meth:`evaluate_prepared`.
        """
        if not (len(queue) == len(waits) == len(runtimes)):
            raise ValueError("queue, waits and runtimes must be parallel")
        if getattr(self, "kernel", "fast") == "fast" and self.release_rule == "eager":
            from repro.core.fast_sim import KernelPrep, fast_evaluate, fast_plan

            plan = fast_plan(policy)
            if plan is not None:
                prep = KernelPrep(queue, waits, runtimes, profile)
                return fast_evaluate(self, prep, policy, plan)
        return self._evaluate_reference(queue, waits, runtimes, profile, policy)

    def _evaluate_reference(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
        policy: CombinedPolicy,
    ) -> SimOutcome:
        """The original object-based simulation loop (`--kernel reference`).

        The fast kernel mirrors this loop decision-for-decision; keep the
        two in lockstep (the differential soak in tests/test_kernel_fast.py
        and the CI kernel-smoke export diff enforce it).
        """
        t0 = profile.now
        period = profile.billing_period
        boot = profile.boot_delay
        max_vms = profile.max_vms
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
        rv = 0.0  # marginal charges of VMs released in-sim
        # Charges attributable to VMs *leased in-sim* (subset of ``rv``,
        # accumulated in parallel so the summation order of ``rv`` itself
        # never changes).  With a spot snapshot these VM hours are re-priced
        # at the policy's spot mix; with no spot market it stays unused.
        rv_new = 0.0

        pending: list[int] = list(range(len(queue)))
        start_times: dict[int, float] = {}
        procs_of = [job.procs for job in queue]

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
            if self.release_rule == "boundary":
                kept: list[_SimVM] = []
                released: list[_SimVM] = []
                for vm in idle:
                    into = (t - vm.lease_time) % period
                    at_boundary = into < _EPS and t > vm.lease_time + _EPS
                    if at_boundary and not provisioning.keep_idle_vm(ctx, 0.0):
                        charge = self._vm_charge(vm, t0, t, period)
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
            if self.release_rule == "eager" and idle:
                demand_left = sum(procs_of[i] for i in pending)
                surplus = max(0, len(idle) - demand_left)
                if surplus > 0:
                    idle.sort(
                        key=lambda vm: _remaining_paid(t, vm.lease_time, period)
                    )
                    gone_eager = set()
                    for vm in idle[:surplus]:
                        charge = self._vm_charge(vm, t0, t, period)
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
                cand = t + self.tick
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
                    cand = t + self.tick
                    if cand < next_event:
                        next_event = cand
            if next_event == _INF:
                next_event = t + self.tick
            t = next_event

        # Still-active VMs are charged through their last use: with the
        # release-at-boundary rule, terminating right after the last job
        # costs exactly the same hours, so this is the cost a non-wasteful
        # wind-down would book.
        for vm in active:
            charge = self._vm_charge(vm, t0, vm.last_busy_end, period)
            rv += charge
            if not vm.preexisting:
                rv_new += charge

        return self._finalize(
            queue, waits, runtimes, procs_of, provisioning, profile,
            start_times, t, rv, rv_new, steps, truncated,
        )

    # ------------------------------------------------------------------

    def _finalize(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        procs_of: Sequence[int],
        provisioning,
        profile: CloudProfile,
        start_times: dict[int, float],
        t: float,
        rv: float,
        rv_new: float,
        steps: int,
        truncated: bool,
    ) -> SimOutcome:
        """Shared scoring epilogue of both kernels (VM charges already in
        *rv*/*rv_new*): end time, RJ/BSD aggregation, spot re-pricing,
        utility."""
        t0 = profile.now
        end_time = t0
        for qidx, start in start_times.items():
            finish = start + max(runtimes[qidx], 1.0)
            if finish > end_time:
                end_time = finish

        n = len(queue)
        # A job can lack a start time only on truncation; ``end_time``
        # then reflects started jobs alone (t0 if none started), which
        # would under-penalise an all-blocked truncation.  Penalise
        # against the horizon actually simulated instead.  Values change
        # only for truncated outcomes (whose score is pinned to 0.0
        # regardless) — drained runs are bit-identical either way.
        horizon = end_time if end_time > t else t
        rj = 0.0
        bsd_sum = 0.0
        for qidx in range(n):
            est = max(runtimes[qidx], 1.0)
            rj += procs_of[qidx] * est
            start = start_times.get(qidx)
            if start is None:
                # Truncated before this job started: penalise with the
                # wait accrued up to truncation plus one full horizon.
                total_wait = waits[qidx] + (t - t0) + (horizon - t0)
            else:
                total_wait = waits[qidx] + (start - t0)
            denom = max(est, BOUNDED_SLOWDOWN_BOUND)
            bsd_sum += max(1.0, (total_wait + denom) / denom)
        bsd = bsd_sum / n if queue else 1.0

        # Spot snapshot: re-price the VM hours this policy would lease at
        # its spot mix (risk-adjusted), so cheap-but-risky members compete
        # on effective cost.  With no spot market the branch is never taken
        # and ``rv`` reaches the utility untouched — bit-identical scoring.
        if profile.spot_price is not None:
            factor = rv_spot_factor(
                provisioning, profile.spot_price, profile.spot_price_effective
            )
            if factor != 1.0:
                rv = (rv - rv_new) + rv_new * factor

        score = self.utility(rj, rv, bsd)
        if truncated:
            score = 0.0  # a policy that cannot drain the queue loses
        return SimOutcome(
            score=score,
            bsd=bsd,
            rj_seconds=rj,
            rv_seconds=rv,
            steps=steps,
            end_time=end_time,
            truncated=truncated,
        )

    def _score_fast(
        self,
        prep,
        provisioning,
        start_times: dict[int, float],
        t: float,
        rv: float,
        rv_new: float,
        steps: int,
        truncated: bool,
    ) -> SimOutcome:
        """Scoring entry point for the fast kernel.

        Same epilogue as :meth:`_finalize`, but reusing the prefix's
        per-job constants: ``est`` is ``max(runtime, 1.0)``, ``denom10``
        is ``max(runtime, 10.0)`` (== ``max(est, 10.0)``), and ``rj`` is
        policy-independent, so all three come straight from *prep* with
        the identical float values the reference loop recomputes.
        Truncated runs (rare, cold) defer to :meth:`_finalize`.
        """
        if truncated:
            return self._finalize(
                prep.queue, prep.waits, prep.runtimes, prep.procs,
                provisioning, prep.profile, start_times, t, rv, rv_new,
                steps, truncated,
            )
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
        for qidx in range(n):
            denom = denom10[qidx]
            total_wait = waits0[qidx] + (start_times[qidx] - t0)
            bsd_sum += max(1.0, (total_wait + denom) / denom)
        bsd = bsd_sum / n if n else 1.0

        profile = prep.profile
        if profile.spot_price is not None:
            factor = rv_spot_factor(
                provisioning, profile.spot_price, profile.spot_price_effective
            )
            if factor != 1.0:
                rv = (rv - rv_new) + rv_new * factor

        return SimOutcome(
            score=self.utility(prep.rj, rv, bsd),
            bsd=bsd,
            rj_seconds=prep.rj,
            rv_seconds=rv,
            steps=steps,
            end_time=end_time,
            truncated=False,
        )

    # ------------------------------------------------------------------

    def _vm_charge(self, vm: _SimVM, t0: float, end: float, period: float) -> float:
        """Hour-rounded charge of *vm* up to *end*.

        In "total" mode (the paper's RV) the whole lease is charged; in
        "marginal" mode the hours a pre-existing VM had already booked
        before the snapshot are netted out.
        """
        full = _charged(vm.lease_time, max(end, vm.lease_time), period)
        if self.rv_accounting == "marginal" and vm.preexisting:
            booked = _charged(vm.lease_time, t0, period)
            return max(0.0, full - booked)
        return full

    #: Kept as a static method alias for existing callers/tests; the
    #: module-level :func:`_charged` is the single implementation.
    _charged = staticmethod(_charged)
