"""EASY backfilling — the paper's deferred extension (§7: "We don't
consider backfilling in our current scheduling policies. We leave it for
the future work").

EASY backfilling [Lifka'95] relaxes the head-of-line blocking of plain
priority scheduling: when the head job does not fit, it receives a
*reservation* at the earliest time enough VMs will be free (computed from
the runtime estimates of running jobs), and later queued jobs may jump
ahead **iff** starting them now cannot delay that reservation — either
they finish before it, or they fit into the VMs left over after it.

:class:`BackfillingPolicy` wraps any portfolio member: provisioning and
VM selection are inherited; only the allocation walk changes.  Because
it is a :class:`CombinedPolicy`, it drops straight into the portfolio —
``build_backfilling_portfolio()`` builds the 60 backfilling-enabled
counterparts for ablation studies.
"""

from __future__ import annotations

from typing import Sequence

from repro.policies.base import IdleVM, SchedContext
from repro.policies.combined import Allocation, CombinedPolicy, build_portfolio

__all__ = ["BackfillingPolicy", "build_backfilling_portfolio"]


class BackfillingPolicy(CombinedPolicy):
    """A portfolio policy with EASY backfilling in the allocation step."""

    plans_ahead = True

    @property
    def name(self) -> str:
        return f"EASY:{super().name}"

    def allocate(
        self,
        ctx: SchedContext,
        idle: Sequence[IdleVM],
        period: float = 3_600.0,
    ) -> list[Allocation]:
        if not ctx.queue or not idle:
            return []
        pool: list[IdleVM] = list(idle)
        order = self.job_selection.order(ctx)
        allocations: list[Allocation] = []

        def take(qidx: int) -> None:
            nonlocal pool
            job = ctx.queue[qidx]
            chosen = self.vm_selection.select(pool, job.procs, ctx.runtimes[qidx], period)
            chosen_set = set(chosen)
            allocations.append(
                Allocation(queue_index=qidx, vm_ids=tuple(pool[i].vm_id for i in chosen))
            )
            pool = [vm for i, vm in enumerate(pool) if i not in chosen_set]

        blocked_at = None
        for pos, qidx in enumerate(order):
            if ctx.queue[qidx].procs <= len(pool):
                take(qidx)
                if not pool:
                    return allocations
            else:
                blocked_at = pos
                break
        if blocked_at is None:
            return allocations

        # --- reservation for the blocked head -----------------------------
        head = order[blocked_at]
        need = ctx.queue[head].procs
        reserve_time, free_at_reserve = self._reservation(ctx, len(pool), need)

        # --- backfill the remainder ----------------------------------------
        # spare = VMs free at the reservation beyond what the head needs;
        # a backfilled job is safe if it ends before the reservation or if
        # it fits into that spare capacity throughout.
        spare = max(0, free_at_reserve - need)
        for qidx in order[blocked_at + 1 :]:
            if not pool:
                break
            job = ctx.queue[qidx]
            if job.procs > len(pool):
                continue
            est = max(ctx.runtimes[qidx], 1.0)
            ends_before_reservation = ctx.now + est <= reserve_time + 1e-9
            fits_in_spare = job.procs <= spare
            if ends_before_reservation or fits_in_spare:
                take(qidx)
                if fits_in_spare and not ends_before_reservation:
                    spare -= job.procs
        return allocations

    @staticmethod
    def _reservation(
        ctx: SchedContext, idle_now: int, need: int
    ) -> tuple[float, int]:
        """Earliest time *need* VMs are free, per running-job estimates.

        Returns ``(time, vms_free_then)``.  With no (or insufficient)
        busy-VM information the reservation degenerates to "now" with the
        current idle count — backfilling then only admits spare-fitting
        jobs, which is safely conservative.
        """
        frees = sorted(ctx.busy_free_times or [])
        available = idle_now
        for i, when in enumerate(frees):
            available += 1
            if available >= need:
                # absorb every VM freeing at the same instant so the spare
                # capacity at the reservation is counted fully
                j = i + 1
                while j < len(frees) and frees[j] <= when + 1e-9:
                    available += 1
                    j += 1
                return max(when, ctx.now), available
        return ctx.now, idle_now


def build_backfilling_portfolio() -> list[CombinedPolicy]:
    """The 60 portfolio members with EASY backfilling enabled."""
    return [
        BackfillingPolicy(p.provisioning, p.job_selection, p.vm_selection)
        for p in build_portfolio()
    ]
