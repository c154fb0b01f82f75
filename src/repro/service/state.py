"""Deterministic service state: tenants, admission, and engine rounds.

The state machine at the heart of the service.  Every mutation enters
through :meth:`ServiceState.apply`, driven by exactly the records the
journal holds — the live server appends a record and then applies it;
replay reads the file and applies the same records through the same
code path.  Bit-identical recovery is therefore not a property someone
has to maintain by hand: there is only one mutation path.

Determinism rules the whole module:

* Time is **virtual** — ``virtual_now`` advances only when a ``round``
  record applies (``round_virtual_step`` per round, the paper's 20 s
  tick); submissions are stamped with the virtual time of admission.
* Token buckets refill per *round*, not per wall second.
* Tenants are always iterated in sorted-name order.
* Each tenant's scheduler (Algorithm 1 or a fixed policy) derives its
  seed from the service seed and the tenant name.

Admission control is two-phase: :meth:`ServiceState.admit` is a *pure*
check returning a typed :class:`AdmissionDecision`; the server journals
the resulting ``submit`` or ``shed`` record and applies it.  Replay
never re-runs admission — it applies recorded outcomes — so a replayed
state cannot diverge on a borderline decision.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cloud.profile import CloudProfile, VMSnapshot, profile_from_vms
from repro.core.scheduler import FixedScheduler, PortfolioScheduler, Scheduler
from repro.policies.base import IdleVM, SchedContext
from repro.policies.combined import policy_by_name
from repro.service.config import ServiceConfig, TenantBudget
from repro.service.split import largest_remainder
from repro.sim.clock import VirtualCostClock
from repro.workload.job import Job

__all__ = [
    "STATE_SCHEMA",
    "AdmissionDecision",
    "TenantState",
    "ServiceState",
    "SHED_UNKNOWN_TENANT",
    "SHED_QUEUE_FULL",
    "SHED_VM_HOURS",
    "SHED_RATE_LIMITED",
    "SHED_TENANT_LIMIT",
    "SHED_DRAINING",
    "SHED_JOURNAL",
    "SHED_REASONS",
]

#: Version of the canonical ``to_dict`` export (CI diffs depend on it).
STATE_SCHEMA = 1

BILLING_PERIOD = 3_600.0

# -- typed shed reasons -------------------------------------------------------

SHED_UNKNOWN_TENANT = "unknown_tenant"
SHED_QUEUE_FULL = "queue_full"
SHED_VM_HOURS = "vm_hours_exhausted"
SHED_RATE_LIMITED = "rate_limited"
SHED_TENANT_LIMIT = "tenant_limit"
SHED_DRAINING = "draining"
#: Journal unavailable (I/O failure or open breaker).  The one reason
#: that cannot itself be journaled; counted in memory only.
SHED_JOURNAL = "journal_unavailable"

SHED_REASONS = (
    SHED_UNKNOWN_TENANT,
    SHED_QUEUE_FULL,
    SHED_VM_HOURS,
    SHED_RATE_LIMITED,
    SHED_TENANT_LIMIT,
    SHED_DRAINING,
    SHED_JOURNAL,
)


@dataclass(slots=True, frozen=True)
class AdmissionDecision:
    """Outcome of one admission check: accepted, or shed with a reason."""

    accepted: bool
    reason: str | None = None


@dataclass(slots=True)
class _VMLease:
    """One leased slot of the shared provider (single-core VM)."""

    vm_id: int
    lease_t: float
    busy_until: float = -1.0  # -1: idle
    job_id: int | None = None

    def is_busy(self, now: float) -> bool:
        return self.busy_until > now


@dataclass(slots=True)
class TenantState:
    """One tenant: its budget, queue, fleet slice, and counters."""

    name: str
    budget: TenantBudget
    queue: list[Job] = field(default_factory=list)
    tokens: float = 0.0
    vm_hours_used: float = 0.0
    accepted: int = 0
    started: int = 0
    completed: int = 0
    shed: dict[str, int] = field(default_factory=dict)
    vms: list[_VMLease] = field(default_factory=list)

    def idle_vms(self, now: float) -> list[_VMLease]:
        return [vm for vm in self.vms if not vm.is_busy(now)]

    def busy_vms(self, now: float) -> list[_VMLease]:
        return [vm for vm in self.vms if vm.is_busy(now)]

    def to_dict(self) -> dict:
        return {
            "budget": self.budget.to_dict(),
            "queue": [
                [job.job_id, job.submit_time, job.runtime, job.procs]
                for job in self.queue
            ],
            "tokens": self.tokens,
            "vm_hours_used": self.vm_hours_used,
            "accepted": self.accepted,
            "started": self.started,
            "completed": self.completed,
            "shed": dict(sorted(self.shed.items())),
            "vms": [
                [vm.vm_id, vm.lease_t, vm.busy_until, vm.job_id]
                for vm in sorted(self.vms, key=lambda v: v.vm_id)
            ],
        }


def _tenant_seed(base_seed: int, name: str) -> int:
    """A stable per-tenant seed (independent of open order)."""
    return (int(base_seed) ^ zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


class ServiceState:
    """The whole service, as reconstructible from the journal alone."""

    def __init__(self, config: ServiceConfig) -> None:
        self.max_total_vms = config.max_total_vms
        self.round_virtual_step = config.round_virtual_step
        self.scheduler_spec = config.scheduler
        self.selection_period = config.selection_period
        self.seed = config.seed
        self.default_budget = config.default_budget
        self.max_tenants = config.max_tenants

        self.tenants: dict[str, TenantState] = {}
        self.virtual_now = 0.0
        self.rounds = 0
        self.kill_switch = False
        self.draining = False
        self._next_vm_id = 1
        #: Sheds that could not be attributed to an open tenant
        #: (``unknown_tenant``) or not journaled (``journal_unavailable``).
        self.unattributed_shed: dict[str, int] = {}
        self._schedulers: dict[str, Scheduler] = {}

    # -- derived views -------------------------------------------------------

    def total_rented(self) -> int:
        return sum(len(t.vms) for t in self.tenants.values())

    def _scheduler_for(self, name: str) -> Scheduler:
        scheduler = self._schedulers.get(name)
        if scheduler is None:
            seed = _tenant_seed(self.seed, name)
            if self.scheduler_spec == "portfolio":
                scheduler = PortfolioScheduler(
                    selection_period=self.selection_period,
                    time_constraint=0.2,
                    cost_clock=VirtualCostClock(0.010),
                    seed=seed,
                )
            else:
                scheduler = FixedScheduler(policy_by_name(self.scheduler_spec))
            self._schedulers[name] = scheduler
        return scheduler

    # -- admission (pure checks; the server journals the outcome) ------------

    def open_check(self, name: str) -> AdmissionDecision:
        if self.draining:
            return AdmissionDecision(False, SHED_DRAINING)
        if name in self.tenants:
            return AdmissionDecision(True)  # idempotent re-open, no record
        if len(self.tenants) >= self.max_tenants:
            return AdmissionDecision(False, SHED_TENANT_LIMIT)
        return AdmissionDecision(True)

    def admit(self, name: str, runtime: float, procs: int) -> AdmissionDecision:
        """May this submission enter *name*'s queue right now?"""
        if self.draining:
            return AdmissionDecision(False, SHED_DRAINING)
        tenant = self.tenants.get(name)
        if tenant is None:
            return AdmissionDecision(False, SHED_UNKNOWN_TENANT)
        if len(tenant.queue) >= tenant.budget.max_queued_jobs:
            return AdmissionDecision(False, SHED_QUEUE_FULL)
        if tenant.tokens < 1.0:
            return AdmissionDecision(False, SHED_RATE_LIMITED)
        cost = procs * runtime / BILLING_PERIOD
        if tenant.vm_hours_used + cost > tenant.budget.max_vm_hours:
            return AdmissionDecision(False, SHED_VM_HOURS)
        return AdmissionDecision(True)

    # -- the single mutation path --------------------------------------------

    def apply(self, record: dict) -> None:
        """Apply one journal record (live path and replay path alike)."""
        kind = record["kind"]
        if kind == "tenant_open":
            name = record["tenant"]
            if name not in self.tenants:
                budget = TenantBudget.from_dict(record.get("budget") or {})
                self.tenants[name] = TenantState(
                    name=name, budget=budget, tokens=budget.burst
                )
        elif kind == "tenant_close":
            self.tenants.pop(record["tenant"], None)
            self._schedulers.pop(record["tenant"], None)
        elif kind == "submit":
            tenant = self.tenants[record["tenant"]]
            job = Job(
                job_id=int(record["job_id"]),
                submit_time=float(record["t"]),
                runtime=float(record["runtime"]),
                procs=int(record["procs"]),
            )
            tenant.queue.append(job)
            tenant.tokens -= 1.0
            tenant.vm_hours_used += job.procs * job.runtime / BILLING_PERIOD
            tenant.accepted += 1
        elif kind == "shed":
            reason = record["reason"]
            tenant = self.tenants.get(record.get("tenant") or "")
            if tenant is not None:
                tenant.shed[reason] = tenant.shed.get(reason, 0) + 1
            else:
                self.unattributed_shed[reason] = (
                    self.unattributed_shed.get(reason, 0) + 1
                )
        elif kind == "round":
            self.run_round()
        elif kind == "kill_switch":
            self.kill_switch = bool(record["engaged"])
        elif kind == "drain":
            self.draining = True
        else:
            raise ValueError(f"unknown journal record kind {kind!r}")

    def shed_in_memory(self, name: str | None, reason: str) -> None:
        """Count a shed that could not be journaled (in-memory only —
        replay cannot reconstruct these; metrics still surface them)."""
        tenant = self.tenants.get(name or "")
        if tenant is not None and reason != SHED_JOURNAL:
            tenant.shed[reason] = tenant.shed.get(reason, 0) + 1
        else:
            self.unattributed_shed[reason] = (
                self.unattributed_shed.get(reason, 0) + 1
            )

    # -- the engine round ----------------------------------------------------

    def run_round(self) -> None:
        """One deterministic engine round over all tenants.

        Advance virtual time, refill token buckets, complete finished
        jobs, then — tenant by tenant in sorted order — let the tenant's
        scheduler provision (fair-share + global cap clamped, zero when
        the kill switch is engaged) and allocate idle VMs to queued jobs
        via the exact :meth:`CombinedPolicy.allocate
        <repro.policies.combined.CombinedPolicy.allocate>` the batch
        engine uses.
        """
        self.rounds += 1
        self.virtual_now += self.round_virtual_step
        now = self.virtual_now

        names = sorted(self.tenants)
        for name in names:
            tenant = self.tenants[name]
            budget = tenant.budget
            tenant.tokens = min(budget.burst, tenant.tokens + budget.rate_per_round)
            # Completions: jobs whose runtime elapsed free their VMs.
            finished_jobs: set[int] = set()
            for vm in tenant.vms:
                if vm.job_id is not None and not vm.is_busy(now):
                    finished_jobs.add(vm.job_id)
                    vm.job_id = None
                    vm.busy_until = -1.0
            tenant.completed += len(finished_jobs)

        # Weighted fair share via the largest-remainder splitter
        # (repro.service.split): tenants with queued demand divide the
        # global cap in proportion to their budget weights (all 1.0 by
        # default — plain fair share), and the max(1, ...) floor keeps
        # every demanding tenant schedulable even when tenants outnumber
        # VMs (the per-tenant scheduler still clamps against real global
        # headroom).
        demanding = [n for n in names if self.tenants[n].queue]
        shares = (
            dict(
                zip(
                    demanding,
                    largest_remainder(
                        self.max_total_vms,
                        [self.tenants[n].budget.weight for n in demanding],
                        seed=self.seed,
                    ),
                )
            )
            if demanding
            else {}
        )
        for name in names:
            tenant = self.tenants[name]
            if not tenant.queue:
                # No demand: idle VMs are released at the round boundary
                # (the portfolio policies' default keep rule).
                tenant.vms = tenant.busy_vms(now)
                continue
            self._schedule_tenant(tenant, now, max(1, shares[name]))

    def _schedule_tenant(self, tenant: TenantState, now: float, share: int) -> None:
        cap = min(share, self.max_total_vms)

        def capture_profile() -> CloudProfile:
            return profile_from_vms(
                now,
                [
                    VMSnapshot(
                        vm_id=vm.vm_id,
                        lease_time=vm.lease_t,
                        ready_time=vm.lease_t,  # service VMs boot instantly
                        busy_until=vm.busy_until,
                    )
                    for vm in sorted(tenant.vms, key=lambda v: v.vm_id)
                ],
                max_vms=cap,
                boot_delay=0.0,
                billing_period=BILLING_PERIOD,
                # Simulated at the service's own round step.  The
                # profile's default eager release rule is not what the
                # service applies: it keeps a tenant's idle VMs until
                # its queue empties.
                tick=self.round_virtual_step,
            )

        waits = [now - job.submit_time for job in tenant.queue]
        runtimes = [job.runtime for job in tenant.queue]
        policy = self._scheduler_for(tenant.name).active_policy(
            self.rounds, tenant.queue, waits, runtimes, capture_profile
        )

        busy = len(tenant.busy_vms(now))
        idle = len(tenant.vms) - busy
        ctx = SchedContext(
            now=now,
            queue=tenant.queue,
            waits=waits,
            runtimes=runtimes,
            rented=len(tenant.vms),
            available=idle,
            busy=busy,
            max_vms=cap,
        )
        if not self.kill_switch:
            global_headroom = self.max_total_vms - self.total_rented()
            n_new = min(policy.new_vms(ctx), max(0, global_headroom))
            for _ in range(n_new):
                tenant.vms.append(_VMLease(vm_id=self._next_vm_id, lease_t=now))
                self._next_vm_id += 1

        idle_pool = sorted(tenant.idle_vms(now), key=lambda v: v.vm_id)
        if idle_pool:
            idle_view = [
                IdleVM(
                    vm_id=vm.vm_id,
                    remaining_paid=BILLING_PERIOD
                    - ((now - vm.lease_t) % BILLING_PERIOD),
                )
                for vm in idle_pool
            ]
            alloc_ctx = SchedContext(
                now=now,
                queue=tenant.queue,
                waits=waits,
                runtimes=runtimes,
                rented=len(tenant.vms),
                available=len(idle_pool),
                busy=len(tenant.vms) - len(idle_pool),
                max_vms=cap,
            )
            by_id = {vm.vm_id: vm for vm in idle_pool}
            started: list[int] = []
            for allocation in policy.allocate(alloc_ctx, idle_view, BILLING_PERIOD):
                job = tenant.queue[allocation.queue_index]
                for vm_id in allocation.vm_ids:
                    lease = by_id[vm_id]
                    lease.busy_until = now + job.runtime
                    lease.job_id = job.job_id
                started.append(allocation.queue_index)
                tenant.started += 1
            for qidx in sorted(started, reverse=True):
                del tenant.queue[qidx]

    # -- canonical export ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-able view; the CI smoke diffs two of these."""
        return {
            "schema": STATE_SCHEMA,
            "virtual_now": self.virtual_now,
            "rounds": self.rounds,
            "kill_switch": self.kill_switch,
            "draining": self.draining,
            "vms_in_use": self.total_rented(),
            "unattributed_shed": dict(sorted(self.unattributed_shed.items())),
            "tenants": {
                name: self.tenants[name].to_dict() for name in sorted(self.tenants)
            },
        }

    # -- replay ---------------------------------------------------------------

    @classmethod
    def replay(
        cls,
        records: list[dict],
        config: ServiceConfig,
        base: "ServiceState | None" = None,
        after_seq: int = 0,
    ) -> "ServiceState":
        """Reconstruct a state by applying *records* in journal order.

        ``base``/``after_seq`` resume from a snapshot (level 1 of the
        recovery ladder): records at or below *after_seq* are skipped
        because the snapshot already contains their effects.
        """
        state = base if base is not None else cls(config)
        for record in records:
            if record["seq"] <= after_seq:
                continue
            state.apply(record)
        return state
