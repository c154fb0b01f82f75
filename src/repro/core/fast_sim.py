"""The warm-start kernel fast path of the online simulator.

:class:`~repro.core.online_sim.OnlineSimulator` is invoked up to 60
times per scheduling tick, so its constant factors are the whole
product's cost.  This module is a drop-in replacement for its inner
loop that produces **bit-identical** :class:`SimOutcome` values while
doing strictly less work per step:

* **Warm-start prefix** (:class:`KernelPrep`): everything that depends
  only on the (queue, profile) snapshot — per-job constants (procs,
  floored runtime estimates, priority denominators, ODX urgency
  crossings, the policy-independent RJ total) and the base VM arrays —
  is derived once per selection round and shared by all policies.  Each
  evaluation copies only the four O(fleet) mutable arrays.
* **Slot/array structs**: the per-step `_SimVM` object scan becomes a
  scan over parallel float lists indexed by slot id, and the
  `SchedContext` / `IdleVM` view objects are never materialised — the
  known policy formulae are computed inline over the same floats, in
  the same order, with the same operations.
* **Specialised policy arithmetic**: the 60-member portfolio is built
  from 5 provisioning × 4 job-selection × 3 VM-selection classes whose
  formulae are closed-form.  The fast path dispatches on the *exact*
  concrete types and evaluates those formulae directly, caching the
  pending-set aggregates (Σ procs, widest job, ODE work sum, min procs)
  that only change when a job starts.  Any policy built from other
  classes falls back to the reference kernel — same results, reference
  speed.
* **Shared trajectories**: the run of one member (the *leader*) also
  answers every *rider* that would decide alike.  Each step checks the
  surviving provisioning kinds (at most 4) and (job, VM) selection
  pairs (at most 12) against the leader's decision; a rider keeps the
  leader's outcome while both its kind and its pair survive, and is
  dropped, not forked, at its first differing decision.  Equal
  decisions give equal states and equal step times, so the outcome is
  the one the rider's own run would return.  The provisioning kinds are
  not re-checked at headroom 0, where every kind leases nothing.
* **Quiet stretches**: a head-blocked step that leased, started and
  released nothing falls back to ``t + tick``; until the next scheduled
  event ``E`` (a busy or boot heap head, or the ODX crossing) only the
  elapsed time moves, so provisioning leases nothing again (demand is
  time-free except ODX's, so an ODX leader is skipped only at headroom
  0).  Each later step before ``E`` is then only counted while every
  order in play (the leader's job kind and each surviving rider pair's)
  has a job that does not fit on top: :func:`_visit_order`'s own head at
  that step's elapsed time, so the check is exact; FCFS order is
  constant and needs none.  Skipped steps keep the reference's
  ``t = t + tick`` accumulation and ``max_steps`` cut, so
  ``SimOutcome.steps`` includes them.  Riders survive them unchanged;
  ODX urgency flags catch up at the next executed step (urgency is
  monotone in time: same flagged set).

Bit-identity argument (verified by the differential soak in
``tests/test_kernel_fast.py`` and the CI export diffs):

* every priority / demand / remaining-paid expression here performs the
  same IEEE-754 operations in the same order as the policy classes;
  per-job constants (e.g. ``max(runtime, 1.0)``) are hoisted, which is
  value-preserving because the operands never change;
* all sorts use stable ``sorted(..., key=arr.__getitem__)`` (optionally
  ``reverse=True``, which is tie-stable), reproducing the reference's
  ``(±value, index)`` tie-breaking exactly; FCFS visit order is a
  precomputed constant because adding the same elapsed time to every
  wait never reorders or un-ties priorities;
* RV charges are integer multiples of the billing period (see
  ``_charged``), so their float accumulation is exact and
  order-independent; every *decision* (idle order, pending order, VM
  choice) preserves the reference iteration order.
"""

from __future__ import annotations

import heapq
import math
from itertools import islice
from math import ceil
from typing import TYPE_CHECKING, Sequence

from repro.cloud.profile import CloudProfile
from repro.policies.combined import CombinedPolicy
from repro.policies.job_selection import FCFS, LXF, UNICEF, WFP3
from repro.policies.provisioning import ODA, ODB, ODE, ODM, ODX
from repro.policies.spot_aware import SpotBidProvisioning
from repro.policies.vm_selection import BestFit, FirstFit, WorstFit
from repro.workload.job import BOUNDED_SLOWDOWN_BOUND, Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.online_sim import OnlineSimulator, SimOutcome

__all__ = ["KernelPrep", "fast_plan", "fast_evaluate"]

_EPS = 1e-6
_INF = float("inf")

# Exact-type dispatch tables.  ``type(x) is C`` (not isinstance) on
# purpose: a subclass may override the formula, and then only the
# reference kernel — which calls the methods — is correct.
_PROV_ODA, _PROV_ODB, _PROV_ODE, _PROV_ODM, _PROV_ODX = range(5)
_PROV_KINDS = {ODA: _PROV_ODA, ODB: _PROV_ODB, ODE: _PROV_ODE,
               ODM: _PROV_ODM, ODX: _PROV_ODX}
_JSEL_FCFS, _JSEL_LXF, _JSEL_UNICEF, _JSEL_WFP3 = range(4)
_JSEL_KINDS = {FCFS: _JSEL_FCFS, LXF: _JSEL_LXF,
               UNICEF: _JSEL_UNICEF, WFP3: _JSEL_WFP3}
_VSEL_BEST, _VSEL_FIRST, _VSEL_WORST = range(3)
_VSEL_KINDS = {BestFit: _VSEL_BEST, FirstFit: _VSEL_FIRST,
               WorstFit: _VSEL_WORST}


def fast_plan(policy: CombinedPolicy):
    """Dispatch plan for *policy*, or ``None`` if it must take the
    reference path (any component of an unknown concrete type).

    Returns ``(prov_kind, jsel_kind, vsel_kind, base_provisioning)``.
    A :class:`SpotBidProvisioning` wrapper is unwrapped for demand
    sizing — its ``new_vms`` delegates to the base verbatim — while
    scoring keeps pricing against the wrapper (``rv_spot_factor``).
    """
    if type(policy) is not CombinedPolicy:
        return None
    prov = policy.provisioning
    base = prov.base if type(prov) is SpotBidProvisioning else prov
    pk = _PROV_KINDS.get(type(base))
    jk = _JSEL_KINDS.get(type(policy.job_selection))
    vk = _VSEL_KINDS.get(type(policy.vm_selection))
    if pk is None or jk is None or vk is None:
        return None
    return pk, jk, vk, base


class KernelPrep:
    """Warm-start prefix: snapshot-derived state shared by every policy
    evaluated in one selection round.

    Holds references to the original inputs (for the reference-path
    fallback) plus the derived parallel arrays.  Immutable after
    construction; per-evaluation state is copied out of it in O(fleet).
    """

    __slots__ = (
        "queue", "waits", "runtimes", "profile",
        "t0", "period", "boot", "max_vms", "tick", "release_rule",
        "n_jobs", "procs", "est", "waits0", "work",
        "denom10", "unicef_denom", "odx_crossing", "odx_sorted",
        "fcfs_order", "rj",
        "lease0", "lbe0", "busy0", "boot0", "idle0", "n_busy0", "n_pre",
    )

    def __init__(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> None:
        self.queue = queue
        self.waits = waits
        self.runtimes = runtimes
        self.profile = profile

        t0 = profile.now
        self.t0 = t0
        self.period = profile.billing_period
        self.boot = profile.boot_delay
        self.max_vms = profile.max_vms
        self.tick = profile.tick
        self.release_rule = profile.release_rule

        n = len(queue)
        self.n_jobs = n
        procs = [job.procs for job in queue]
        self.procs = procs
        # max(runtime, 1.0) serves three reference expressions with one
        # array: the job-selection _MIN_RUNTIME floor, the simulated
        # finish time, and the scoring estimate.
        est = [rt if rt > 1.0 else 1.0 for rt in runtimes]
        self.est = est
        self.waits0 = [w + 0.0 for w in waits]
        # ODE's work sum terms (job.procs * runtime, unfloored).
        self.work = [procs[i] * runtimes[i] for i in range(n)]
        # max(runtime, 10.0): the bounded-slowdown denominator, equal in
        # value whether floored at 1.0 first or not (10 > 1).
        self.denom10 = [
            rt if rt > BOUNDED_SLOWDOWN_BOUND else BOUNDED_SLOWDOWN_BOUND
            for rt in runtimes
        ]
        self.unicef_denom = [
            max(1.0, math.log2(procs[i])) * est[i] for i in range(n)
        ]
        # ODX urgency crossings: t0 + (denom - wait0) + EPS is constant
        # per job, so the reference's per-step recomputation collapses
        # to a table lookup (identical operands, identical rounding).
        # The crossing-sorted job order lets the wake-up scan advance a
        # pointer past dead (<= t) entries instead of re-walking the
        # whole pending set every step.
        self.odx_crossing = [
            t0 + (self.denom10[i] - waits[i]) + _EPS for i in range(n)
        ]
        self.odx_sorted = sorted(range(n), key=self.odx_crossing.__getitem__)
        # FCFS priorities are waits0[i] + dt: a shared offset never
        # changes their order or creates/breaks ties, and the reference's
        # pending-position tie-break equals job-index order (pending
        # preserves queue order), so one static job visit order serves
        # every step of every FCFS policy.
        self.fcfs_order = sorted(range(n), key=self.waits0.__getitem__,
                                 reverse=True)
        # RJ is policy-independent: accumulate once, in queue order,
        # exactly like the reference scoring loop.
        rj = 0.0
        for i in range(n):
            rj += procs[i] * est[i]
        self.rj = rj

        # Base VM arrays, mirroring the reference _SimVM construction.
        # Instead of re-scanning the whole fleet every step, the fast
        # kernel tracks state transitions in two event heaps; the t0
        # classification is itself policy-independent, so the initial
        # heaps/idle list are built (and heapified) once here and merely
        # copied per evaluation — a copy of a heap is a valid heap.
        lease0: list[float] = []
        lbe0: list[float] = []
        busy0: list[tuple[float, int]] = []   # (busy_until, slot)
        boot0: list[tuple[float, int]] = []   # (ready_time, slot)
        idle0: list[int] = []                 # slots, ascending
        for s, snap in enumerate(profile.vms):
            lease0.append(snap.lease_time)
            lbe0.append(max(t0, snap.busy_until))
            if snap.busy_until > t0:
                busy0.append((snap.busy_until, s))
            elif snap.ready_time > t0:
                boot0.append((snap.ready_time, s))
            else:
                idle0.append(s)
        heapq.heapify(busy0)
        heapq.heapify(boot0)
        self.lease0 = lease0
        self.lbe0 = lbe0
        self.busy0 = busy0
        self.boot0 = boot0
        self.idle0 = idle0
        self.n_busy0 = len(busy0)
        self.n_pre = len(lease0)


def _demand(kind, total_procs, widest, work_sum, available, rented):
    """Unclamped demand of the ODA / ODB / ODE / ODM closed forms."""
    if kind == _PROV_ODA:
        return total_procs - available
    if kind == _PROV_ODB:
        return total_procs - rented
    if kind == _PROV_ODE:
        if work_sum <= 0:
            return 0
        target = math.ceil(work_sum / 3_600.0)
        target = min(max(target, widest), total_procs)
        return target - available
    return widest - available  # ODM


def _visit_order(jk, pending, in_pending, prep, dt, head=None):
    """Job visit order of job-selection kind *jk* at elapsed time *dt*,
    as a one-pass iterable; with *head*, only its first *head* jobs.

    The reference's stable sort on (-priority, pending position).  FCFS
    order is constant (see :class:`KernelPrep`) and filtered lazily, so
    a walk that stops early never materialises the tail; the others sort
    a per-step priority list with a C-level key (``heapq.nlargest`` is
    documented equal to ``sorted(..., reverse=True)[:head]``).
    """
    if jk == _JSEL_FCFS:
        order = (i for i in prep.fcfs_order if in_pending[i])
        return order if head is None else list(islice(order, head))
    waits0 = prep.waits0
    est = prep.est
    if jk == _JSEL_LXF:
        prio = [(waits0[i] + dt + est[i]) / est[i] for i in pending]
    elif jk == _JSEL_UNICEF:
        udenom = prep.unicef_denom
        prio = [(waits0[i] + dt) / udenom[i] for i in pending]
    else:  # WFP3
        procs = prep.procs
        prio = [((waits0[i] + dt) / est[i]) ** 3 * procs[i] for i in pending]
    if head is None:
        ranked = sorted(range(len(pending)), key=prio.__getitem__,
                        reverse=True)
    else:
        ranked = heapq.nlargest(head, range(len(pending)),
                                key=prio.__getitem__)
    return [pending[qpos] for qpos in ranked]


def _walk(order, vk, procs, runtimes, rem, n_idle, period):
    """One allocation pass: ``[(job, idle positions)]`` in start order.

    Walks *order* over a pool of *n_idle* idle positions and stops at
    the first job that does not fit (no backfilling) or at an empty
    pool.  Reads nothing it would change, so a rider's pass can run on
    the leader's state before the leader applies its own.
    """
    pool = list(range(n_idle))
    taken = []
    for qidx in order:
        p = procs[qidx]
        if p > len(pool):
            break  # no backfilling: the blocked job stalls the queue
        if vk == _VSEL_FIRST:
            chosen = pool[:p]
            del pool[:p]
        else:
            runtime = runtimes[qidx]
            ra = [(rem[pi] - runtime) % period for pi in pool]
            picks = sorted(range(len(pool)), key=ra.__getitem__,
                           reverse=vk == _VSEL_WORST)[:p]
            chosen = [pool[ci] for ci in picks]
            for ci in sorted(picks, reverse=True):
                del pool[ci]
        taken.append((qidx, chosen))
        if not pool:
            break
    return taken


def _agreeing(pairs, jk, vk, taken, pending, in_pending, prep, dt, rem,
              n_idle) -> set:
    """The tracked (job, VM) selection pairs whose allocation pass at this
    step equals the leader's *taken*.

    Which jobs a pass starts depends only on its visit order (a job
    starts while it fits the pool's size), and which VMs they take only
    on its VM rule, so the two halves are checked apart, once per
    distinct kind.  An order agrees when it starts with the leader's
    jobs and, if the pool is not empty, its next job does not fit
    either; on a 1-job queue all orders are equal.  A VM rule agrees
    when it picks the leader's VMs for those jobs; when every idle VM
    has the same paid time left (*rem*; ``None`` when only FirstFit is
    in play), every rule takes the first free positions.
    """
    procs = prep.procs
    started = [qidx for qidx, _ in taken]
    left = n_idle
    for qidx in started:
        left -= procs[qidx]
    head = len(started) + (left > 0 and len(started) < len(pending))
    orders_agree = {jk: True}
    if len(pending) == 1:
        orders_agree = dict.fromkeys(range(4), True)
    rules_agree = {vk: True}
    if rem is None or rem.count(rem[0]) == n_idle:
        rules_agree = dict.fromkeys(range(3), True)
    agreeing = set()
    for pair in pairs:
        rjk, rvk = pair
        same = orders_agree.get(rjk)
        if same is None:
            order = _visit_order(rjk, pending, in_pending, prep, dt, head)
            same = orders_agree[rjk] = order[:len(started)] == started and (
                len(order) == len(started) or procs[order[-1]] > left
            )
        if same:
            same = rules_agree.get(rvk)
            if same is None:
                same = rules_agree[rvk] = _walk(
                    started, rvk, procs, prep.runtimes, rem, n_idle,
                    prep.period,
                ) == taken
        if same:
            agreeing.add(pair)
    return agreeing


def _muster(riders, is_odx: bool, threshold: float) -> list:
    """``(rider, provisioning kind, (job kind, VM kind))`` for every
    rider that may share the leader's trajectory.

    ODX adds urgency wake-ups to the step times, so ODX riders need an
    ODX leader of the same ``threshold`` and the others a non-ODX
    leader.  Riders without a fast plan never ride.
    """
    crew = []
    for rider in riders:
        if type(rider) is not CombinedPolicy:
            continue
        plan = rider.kernel_plan
        if plan is None:
            continue
        rpk, rjk, rvk, base = plan
        if (rpk == _PROV_ODX) != is_odx:
            continue
        if is_odx and base.threshold != threshold:
            continue
        crew.append((rider, rpk, (rjk, rvk)))
    return crew


def fast_evaluate(
    sim: "OnlineSimulator",
    prep: KernelPrep,
    policy: CombinedPolicy,
    plan,
    riders: Sequence[CombinedPolicy] = (),
    shared: list | None = None,
) -> "SimOutcome":
    """Array-based evaluation of *policy* on *prep*'s snapshot.

    Decision-for-decision identical to
    ``OnlineSimulator._evaluate_reference`` on an eager-rule snapshot;
    see the module docstring for the bit-identity argument.

    *riders* ride along: every rider whose provisioning and allocation
    decisions equal *policy*'s at every step has the same trajectory,
    so ``(rider, outcome)`` is appended to *shared* for it.  A rider is
    dropped at its first differing decision.
    """
    pk, jk, vk, base_prov = plan
    tick = prep.tick
    max_steps = sim.max_steps

    t0 = prep.t0
    period = prep.period
    boot = prep.boot
    max_vms = prep.max_vms
    procs = prep.procs
    est = prep.est
    waits0 = prep.waits0
    runtimes = prep.runtimes
    work = prep.work
    denom10 = prep.denom10
    crossing = prep.odx_crossing
    n_pre = prep.n_pre

    heappush = heapq.heappush
    heappop = heapq.heappop

    # Per-evaluation mutable state: O(fleet) copies of the base arrays
    # and event heaps.  ``busy_heap``/``boot_heap`` hold (time, slot)
    # pairs; a VM is in exactly one of {busy_heap, boot_heap, idle,
    # released}.  Slots are assigned in lease order, so the reference's
    # ``active`` iteration order is simply ascending slot id.
    lease = prep.lease0[:]
    lbe = prep.lbe0[:]
    busy_heap = prep.busy0[:]
    boot_heap = prep.boot0[:]
    idle = prep.idle0[:]
    n_busy = prep.n_busy0
    rented = n_pre
    released: set[int] = set()

    rv = 0.0
    rv_new = 0.0
    pending = list(range(prep.n_jobs))
    in_pending = [True] * prep.n_jobs
    start_times: dict[int, float] = {}

    # Pending-set aggregates, refreshed only when a job starts.  All are
    # exact (int sums/extrema; the ODE work sum is re-accumulated in
    # pending order on refresh, matching the reference's sum()).
    total_procs = 0
    widest = 0
    min_procs = 1 << 30
    work_sum = 0.0
    for i in pending:
        p = procs[i]
        total_procs += p
        if p > widest:
            widest = p
        if p < min_procs:
            min_procs = p
        work_sum += work[i]

    is_odx = pk == _PROV_ODX
    odx_threshold = base_prov.threshold if is_odx else 2.0
    if is_odx:
        n_jobs = prep.n_jobs
        odx_sorted = prep.odx_sorted
        odx_ptr = 0
        # Urgency ((wait + denom) / denom > threshold) is monotone
        # nondecreasing in t, so each job is probed only until it
        # crosses; after that its procs sit in ``urgent_sum`` until it
        # starts.  This replaces the reference's full pending re-scan
        # with exactly one crossing evaluation per (job, pre-crossing
        # step) — same comparisons, same results.
        watch = pending[:]
        urgent_flag = [False] * n_jobs
        urgent_sum = 0

    # Riders are tracked by component kind: a provisioning decision
    # depends only on the kind and the state, an allocation decision
    # only on the (job, VM) selection pair and the state.  ``kinds`` and
    # ``pairs`` hold the riders' ones, other than the leader's, that
    # have decided like the leader at every step so far.
    lead_pair = (jk, vk)
    crew = _muster(riders, is_odx, odx_threshold) if shared is not None else ()
    kinds = {rk for _, rk, _ in crew}
    kinds.discard(pk)
    pairs = {rp for _, _, rp in crew}
    pairs.discard(lead_pair)

    t = t0
    steps = 0
    truncated = False

    while pending:
        steps += 1
        if steps > max_steps:
            truncated = True
            break

        # --- advance fleet state to t (event-driven classify) ---------
        # The reference scans every VM per step; here finished/booted
        # VMs pop off their heaps into the idle list.  Idle order must
        # stay ascending-slot (== the reference's active order), so the
        # (cheap, nearly-sorted) sort restores it after arrivals.
        moved = False
        while busy_heap and busy_heap[0][0] <= t:
            n_busy -= 1
            idle.append(heappop(busy_heap)[1])
            moved = True
        while boot_heap and boot_heap[0][0] <= t:
            idle.append(heappop(boot_heap)[1])
            moved = True
        if moved:
            idle.sort()
        next_event = busy_heap[0][0] if busy_heap else _INF
        if boot_heap:
            bt = boot_heap[0][0]
            if bt < next_event:
                next_event = bt
        available = rented - n_busy
        dt = t - t0

        # --- provisioning (closed forms of the five OD* policies) -----
        if is_odx:
            if watch:
                still = []
                for i in watch:
                    d = denom10[i]
                    if ((waits0[i] + dt) + d) / d > odx_threshold:
                        urgent_flag[i] = True
                        urgent_sum += procs[i]
                    else:
                        still.append(i)
                watch = still
            demand = urgent_sum - available
        else:
            demand = _demand(pk, total_procs, widest, work_sum, available,
                             rented)
        if demand < 0:
            demand = 0
        headroom = max_vms - rented
        if headroom < 0:
            headroom = 0
        n_new = demand if demand < headroom else headroom
        # At headroom 0 every kind's clamped demand is 0 == n_new.
        if kinds and headroom:
            kinds = {
                k for k in kinds
                if min(max(_demand(k, total_procs, widest, work_sum,
                                   available, rented), 0), headroom) == n_new
            }
        if n_new:
            ready_at = t + boot
            for _ in range(n_new):
                heappush(boot_heap, (ready_at, len(lease)))
                lease.append(t)
                lbe.append(t)
            if ready_at < next_event:
                next_event = ready_at
            rented += n_new
            available += n_new

        # --- allocation -----------------------------------------------
        # With no backfilling the walk breaks at the first job that does
        # not fit, so when even the narrowest pending job exceeds the
        # idle pool the whole pass is a guaranteed no-op for every
        # member — skip it (including the priority sort) outright.
        supply_changed = n_new > 0
        if idle and min_procs <= len(idle):
            rem = None
            if vk != _VSEL_FIRST or (
                pairs and any(rp[1] != _VSEL_FIRST for rp in pairs)
            ):
                rem = [
                    # _remaining_paid() inlined — hot loop; equality is
                    # property-tested in tests/test_kernel_fast.py
                    (period - (t - lease[s]) % period) % period or period
                    for s in idle
                ]
            n_idle = len(idle)
            taken = _walk(_visit_order(jk, pending, in_pending, prep, dt), vk,
                          procs, runtimes, rem, n_idle, period)
            if pairs:
                pairs = _agreeing(pairs, jk, vk, taken, pending, in_pending,
                                  prep, dt, rem, n_idle)
            if taken:
                # The reference's walk-then-apply split: the walk never
                # reads the VM state applied here.
                used: set[int] = set()
                for qidx, chosen in taken:
                    finish = t + est[qidx]
                    for pi in chosen:
                        s = idle[pi]
                        lbe[s] = finish
                        heappush(busy_heap, (finish, s))
                        used.add(s)
                    n_busy += len(chosen)
                    start_times[qidx] = t
                    in_pending[qidx] = False
                    if is_odx and urgent_flag[qidx]:
                        urgent_sum -= procs[qidx]
                    if finish < next_event:
                        next_event = finish
                pending = [i for i in pending if in_pending[i]]
                if not pending:
                    break
                idle = [s for s in idle if s not in used]
                supply_changed = True
                total_procs = 0
                widest = 0
                min_procs = 1 << 30
                work_sum = 0.0
                for i in pending:
                    p = procs[i]
                    total_procs += p
                    if p > widest:
                        widest = p
                    if p < min_procs:
                        min_procs = p
                    work_sum += work[i]
                if is_odx and watch:
                    watch = [i for i in watch if in_pending[i]]

        # --- eager release: drop idle VMs the queue no longer needs ----
        if idle:
            surplus = len(idle) - total_procs
            if surplus > 0:
                rem = [
                    # _remaining_paid() inlined (hot loop, see above)
                    (period - (t - lease[s]) % period) % period or period
                    for s in idle
                ]
                victims = sorted(range(len(idle)),
                                 key=rem.__getitem__)[:surplus]
                gone: set[int] = set()
                for pos in victims:
                    s = idle[pos]
                    # _charged() inlined: ceil(max(0, used)/period - eps)
                    # is never negative, so ``or 1`` == max(1, ...)
                    ls = lease[s]
                    used_t = t - ls if t > ls else 0.0
                    charge = (ceil(used_t / period - 1e-9) or 1) * period
                    rv += charge
                    if s >= n_pre:
                        rv_new += charge
                    gone.add(s)
                released.update(gone)
                rented -= len(gone)
                idle = [s for s in idle if s not in gone]
                supply_changed = True

        # --- extra wake-ups -------------------------------------------
        if supply_changed and pending:
            cand = t + tick
            if cand < next_event:
                next_event = cand
        if is_odx:
            # min crossing in (t, next_event) over pending jobs: advance
            # the pointer past dead entries (crossings are fixed, t only
            # grows), then the first live entry in the sorted order is
            # the minimum — same value the reference's full scan finds.
            while odx_ptr < n_jobs and crossing[odx_sorted[odx_ptr]] <= t:
                odx_ptr += 1
            k = odx_ptr
            while k < n_jobs:
                i = odx_sorted[k]
                c = crossing[i]
                if c >= next_event:
                    break
                if in_pending[i]:
                    next_event = c
                    break
                k += 1
        if idle and pending:
            # Head-blocked: fall back to tick-stepping (see reference).
            if min_procs <= len(idle):
                cand = t + tick
                if cand < next_event:
                    # A quiet step (a lease, start or release would have
                    # woken us at t + tick already).  Until next_event
                    # only dt moves and nothing is leased, so a later
                    # step at which every order in play still has a
                    # blocked head repeats this one: count it and step t
                    # exactly as the reference would.
                    if not (is_odx and headroom):
                        n_idle = len(idle)
                        orders = {jk, *[rp[0] for rp in pairs]}
                        orders.discard(_JSEL_FCFS)  # constant order
                        t = cand
                        while t < next_event and all(
                            procs[_visit_order(k, pending, in_pending, prep,
                                               t - t0, 1)[0]] > n_idle
                            for k in orders
                        ):
                            steps += 1
                            if steps > max_steps:
                                truncated = True
                                break
                            cand = t + tick
                            t = cand if cand < next_event else next_event
                        if truncated:
                            break
                        continue
                    next_event = cand
        if next_event == _INF:
            next_event = t + tick
        t = next_event

    # Still-active VMs are charged through their last use (see the
    # reference's scoring commentary).  Ascending slot order == the
    # reference's active order; charges are exact period multiples so
    # the accumulation order could not matter anyway.
    for s in range(len(lease)):
        if s in released:
            continue
        end = lbe[s]
        ls = lease[s]
        used_t = end - ls if end > ls else 0.0
        charge = (ceil(used_t / period - 1e-9) or 1) * period
        rv += charge
        if s >= n_pre:
            rv_new += charge

    outcome = sim._score(prep, policy.provisioning, start_times,
                         t, rv, rv_new, steps, truncated)
    if crew:
        # A rider differs from the leader only in its provisioning
        # object, which scoring reads for the spot re-pricing alone.
        reprice = prep.profile.spot_price is not None
        for rider, rk, rp in crew:
            if (rk == pk or rk in kinds) and (rp == lead_pair or rp in pairs):
                shared.append((rider, sim._score(
                    prep, rider.provisioning, start_times, t, rv, rv_new,
                    steps, truncated,
                ) if reprice else outcome))
    return outcome
