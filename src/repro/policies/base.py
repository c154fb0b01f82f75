"""Policy interfaces and the scheduling context.

Policies are evaluated both against the real cluster and inside the
online simulator, so they never touch engine internals: everything they
may observe is packed into a :class:`SchedContext`, and everything they
produce is a plain value (a lease count, a priority vector, a VM choice).
This keeps the 60 portfolio members side-effect free and trivially
simulable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

from repro.workload.job import Job

__all__ = [
    "SchedContext",
    "ProvisioningPolicy",
    "JobSelectionPolicy",
    "VMSelectionPolicy",
    "IdleVM",
]


@dataclass(slots=True)
class SchedContext:
    """Everything a policy may observe at one scheduling decision.

    Attributes
    ----------
    now:
        Decision timestamp.
    queue:
        Queued jobs, arrival order.  Policies must not mutate them.
    waits:
        Current wait time of each queued job (``now - submit``, but
        snapshot-relative inside the online simulator).
    runtimes:
        The runtime *estimate* the scheduler works with per queued job
        (actual, predicted, or user-supplied — paper §3.2/§6.3).
    rented:
        Total live VMs (booting + idle + busy).
    available:
        VMs usable for the queue without new leases (idle + booting).
    busy:
        VMs currently running jobs.
    max_vms:
        Provider concurrency cap.
    busy_free_times:
        Optional: per busy VM, the (estimated) time it frees — start time
        of its job plus the job's runtime estimate.  Only policies that
        plan ahead (EASY backfilling) read it.  The engine fills it only
        for a policy whose ``plans_ahead`` is true and leaves it ``None``
        otherwise; the service always passes ``None``, and the online
        simulator the snapshot's actual busy-until times.
    spot_price:
        Current spot price as a fraction of the on-demand rate, or
        ``None`` when no spot market is configured (the paper's
        cooperative cloud).  Only spot-aware policies read it.
    """

    now: float
    queue: Sequence[Job]
    waits: Sequence[float]
    runtimes: Sequence[float]
    rented: int
    available: int
    busy: int
    max_vms: int
    busy_free_times: Sequence[float] | None = None
    spot_price: float | None = None

    def headroom(self) -> int:
        """How many new VMs the cap still allows."""
        return max(0, self.max_vms - self.rented)

    def total_queued_procs(self) -> int:
        return sum(job.procs for job in self.queue)


@dataclass(slots=True, frozen=True)
class IdleVM:
    """What VM selection sees of an idle VM: its id and the seconds of
    already-paid time left before its next hourly charge."""

    vm_id: int
    remaining_paid: float


class ProvisioningPolicy(abc.ABC):
    """Decides how many *new* VMs to lease at this decision point."""

    name: str = "provisioning"

    @abc.abstractmethod
    def new_vms(self, ctx: SchedContext) -> int:
        """Number of additional VMs to lease now (before cap clamping).

        Implementations return their raw demand; the engine clamps to the
        provider cap.  Must be ≥ 0.
        """

    def keep_idle_vm(self, ctx: SchedContext, remaining_paid: float) -> bool:
        """Whether to keep an idle VM whose paid hour is expiring.

        Default (all paper policies): keep it only if the queue still has
        demand for it — otherwise release at the boundary, which wastes no
        paid time.
        """
        return ctx.total_queued_procs() > ctx.available - 1

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name}>"


class JobSelectionPolicy(abc.ABC):
    """Orders the queue; higher priority runs first."""

    name: str = "job-selection"

    @abc.abstractmethod
    def priorities(self, ctx: SchedContext) -> list[float]:
        """Priority value per queued job (aligned with ``ctx.queue``)."""

    def order(self, ctx: SchedContext) -> list[int]:
        """Queue indices sorted by descending priority.

        Ties break by queue position (i.e. arrival order), which keeps
        every policy deterministic and starvation behaviour analysable.
        """
        prio = self.priorities(ctx)
        return sorted(range(len(prio)), key=lambda i: (-prio[i], i))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name}>"


class VMSelectionPolicy(abc.ABC):
    """Picks which idle VMs run a selected job."""

    name: str = "vm-selection"

    @abc.abstractmethod
    def select(
        self,
        idle: Sequence[IdleVM],
        count: int,
        runtime: float,
        period: float,
    ) -> list[int]:
        """Indices into *idle* of the ``count`` VMs to use.

        Parameters
        ----------
        idle:
            Candidate idle VMs.
        count:
            How many are needed (caller guarantees ``count <= len(idle)``).
        runtime:
            The job's runtime estimate, used by Best/WorstFit to rank VMs
            by paid time remaining *after* the job would finish.
        period:
            Billing period (3600 s) for the wrap-around of that ranking.
        """

    @staticmethod
    def remaining_after(vm: IdleVM, runtime: float, period: float) -> float:
        """Paid seconds the VM would have left right after running the job.

        If the job runs past the VM's boundary the VM is re-charged, so the
        remainder wraps modulo the billing period; finishing exactly on a
        boundary leaves 0 (no paid time wasted — the BestFit optimum).
        """
        return (vm.remaining_paid - runtime) % period

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"<{type(self).__name__} {self.name}>"
