"""Combined scheduling policies and the 60-policy portfolio builder.

A :class:`CombinedPolicy` glues one provisioning, one job-selection and
one VM-selection policy into the unit the portfolio scheduler simulates,
scores, and applies.  Its :meth:`allocate` method is the single
allocation routine shared by the real engine and the online simulator —
the two can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.policies.base import (
    IdleVM,
    JobSelectionPolicy,
    ProvisioningPolicy,
    SchedContext,
    VMSelectionPolicy,
)
from repro.policies.job_selection import JOB_SELECTION_POLICIES
from repro.policies.provisioning import PROVISIONING_POLICIES
from repro.policies.vm_selection import VM_SELECTION_POLICIES

__all__ = ["CombinedPolicy", "Allocation", "build_portfolio", "policy_by_name"]


@dataclass(slots=True, frozen=True)
class Allocation:
    """One job-start decision: queue index → chosen idle VM ids."""

    queue_index: int
    vm_ids: tuple[int, ...]


@dataclass(frozen=True)
class CombinedPolicy:
    """One member of the policy portfolio.

    The canonical name is ``<provisioning>-<job_selection>-<vm_selection>``,
    e.g. ``ODX-UNICEF-FirstFit``, matching the paper's policy clusters.
    """

    provisioning: ProvisioningPolicy
    job_selection: JobSelectionPolicy
    vm_selection: VMSelectionPolicy

    @cached_property
    def name(self) -> str:
        # Formatted once per policy: the selector reads it per member on
        # every evaluation.  Field-based equality and hashing ignore it.
        return (
            f"{self.provisioning.name}-{self.job_selection.name}-"
            f"{self.vm_selection.name}"
        )

    @cached_property
    def kernel_plan(self):
        """The fast kernel's dispatch plan for this member, or ``None``
        (see :func:`repro.core.fast_sim.fast_plan`).  Derived once: the
        components never change after construction."""
        from repro.core.fast_sim import fast_plan  # fast_sim imports this module

        return fast_plan(self)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<CombinedPolicy {self.name}>"

    # -- the two scheduling decisions ---------------------------------------

    def new_vms(self, ctx: SchedContext) -> int:
        """Provisioning step: how many new VMs to lease (cap-clamped)."""
        return min(self.provisioning.new_vms(ctx), ctx.headroom())

    def allocate(
        self,
        ctx: SchedContext,
        idle: Sequence[IdleVM],
        period: float = 3_600.0,
    ) -> list[Allocation]:
        """Allocation step: which queued jobs start on which idle VMs.

        Orders the queue by the job-selection policy, then walks it from
        the top; each job that fits takes VMs chosen by the VM-selection
        policy.  The walk stops at the first job that does not fit — the
        paper's no-backfilling discipline (head-of-line blocking is
        intentional; see §7).
        """
        if not ctx.queue or not idle:
            return []
        pool: list[IdleVM] = list(idle)
        order = self.job_selection.order(ctx)
        allocations: list[Allocation] = []
        for qidx in order:
            job = ctx.queue[qidx]
            if job.procs > len(pool):
                break  # no backfilling: the blocked job stalls the queue
            runtime = ctx.runtimes[qidx]
            chosen = self.vm_selection.select(pool, job.procs, runtime, period)
            chosen_set = set(chosen)
            vm_ids = tuple(pool[i].vm_id for i in chosen)
            allocations.append(Allocation(queue_index=qidx, vm_ids=vm_ids))
            pool = [vm for i, vm in enumerate(pool) if i not in chosen_set]
            if not pool:
                break
        return allocations


def build_portfolio() -> list[CombinedPolicy]:
    """All 60 policies, in the paper's canonical iteration order:
    {ODA,ODB,ODE,ODM,ODX} × {FCFS,LXF,UNICEF,WFP3} × {BestFit,FirstFit,WorstFit}.
    """
    return [
        CombinedPolicy(prov, jsel, vsel)
        for prov in PROVISIONING_POLICIES
        for jsel in JOB_SELECTION_POLICIES
        for vsel in VM_SELECTION_POLICIES
    ]


def policy_by_name(name: str) -> CombinedPolicy:
    """Look up one portfolio member, e.g. ``policy_by_name("ODX-UNICEF-FirstFit")``.

    Also resolves the spot-aware additions (``ODA-S35-FCFS-FirstFit``,
    ...); raises ``KeyError`` with the list of valid names on a miss.
    """
    # Lazy import: spot_aware builds CombinedPolicy instances, so a
    # top-level import would be circular.
    from repro.policies.spot_aware import spot_portfolio_members

    for policy in build_portfolio() + spot_portfolio_members():
        if policy.name == name:
            return policy
    valid = ", ".join(p.name for p in build_portfolio()[:6])
    raise KeyError(f"unknown policy {name!r}; names look like: {valid}, ...")
