"""Service configuration: budgets, pacing, and durability knobs.

Everything here is frozen and JSON-serialisable so a config can ride in
a snapshot, be compared across restarts, and be rebuilt from CLI flags
without surprises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TenantBudget", "ServiceConfig", "DEFAULT_BUDGET"]


@dataclass(slots=True, frozen=True)
class TenantBudget:
    """Admission-control limits for one tenant.

    Parameters
    ----------
    max_queued_jobs:
        Hard cap on the tenant's queue depth; submissions beyond it shed
        with reason ``queue_full``.
    max_vm_hours:
        Lifetime VM-hour budget, charged *at admission* as
        ``procs × runtime / 3600`` (deterministic, so replay re-derives
        the same balance).  Exhaustion sheds with ``vm_hours_exhausted``.
    rate_per_round:
        Token-bucket refill: submissions the tenant may make per engine
        round, on average.  Refilled when a round runs (virtual time),
        never from the wall clock, so admission stays replayable.
    burst:
        Token-bucket capacity (instantaneous burst allowance).
    weight:
        Fair-share weight for the per-round VM split: tenants with
        queued demand divide the global cap in proportion to their
        weights via :func:`repro.service.split.largest_remainder`.  The
        default 1.0 for everyone is plain equal fair share.
    """

    max_queued_jobs: int = 256
    max_vm_hours: float = float("inf")
    rate_per_round: float = 64.0
    burst: float = 128.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.max_queued_jobs < 1:
            raise ValueError(
                f"max_queued_jobs must be >= 1, got {self.max_queued_jobs}"
            )
        if self.max_vm_hours <= 0:
            raise ValueError(f"max_vm_hours must be > 0, got {self.max_vm_hours}")
        if self.rate_per_round <= 0:
            raise ValueError(
                f"rate_per_round must be > 0, got {self.rate_per_round}"
            )
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")

    def to_dict(self) -> dict:
        # Strict JSON has no Infinity; an unlimited VM-hour budget rides
        # in journal records and state exports as null.
        return {
            "max_queued_jobs": self.max_queued_jobs,
            "max_vm_hours": (
                None if self.max_vm_hours == float("inf") else self.max_vm_hours
            ),
            "rate_per_round": self.rate_per_round,
            "burst": self.burst,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantBudget":
        hours = data.get("max_vm_hours")
        return cls(
            max_queued_jobs=int(data.get("max_queued_jobs", 256)),
            max_vm_hours=float("inf") if hours is None else float(hours),
            rate_per_round=float(data.get("rate_per_round", 64.0)),
            burst=float(data.get("burst", 128.0)),
            weight=float(data.get("weight", 1.0)),
        )


DEFAULT_BUDGET = TenantBudget()


@dataclass(slots=True, frozen=True)
class ServiceConfig:
    """How one service instance runs.

    Parameters
    ----------
    socket_path:
        Unix socket the asyncio server listens on.
    journal_dir:
        Directory of the append-only service journal (created on start;
        orphaned ``*.tmp`` debris is swept like the snapshot layer does).
    snapshot_dir:
        Optional :class:`~repro.durability.snapshot.SnapshotStore`
        directory — level 1 of the recovery ladder.  ``None`` replays
        the journal from the beginning on every start.
    max_total_vms:
        Shared provider cap all tenants compete under.
    round_virtual_step:
        Seconds of *virtual* time one engine round advances (the paper's
        20 s tick).  Virtual time, not the wall clock, stamps every
        journal record, which is what makes replay bit-identical.
    round_interval:
        Wall seconds between automatic rounds; ``0`` disables the timer
        so rounds run only on explicit ``{"op": "round"}`` requests
        (tests and the CI smoke drive rounds this way for determinism).
    scheduler:
        ``"portfolio"`` for per-tenant Algorithm 1, or a fixed portfolio
        member name (e.g. ``"ODX-UNICEF-FirstFit"``).
    selection_period:
        Portfolio re-selection period, in rounds (paper §6.4).
    seed:
        Base seed; each tenant's scheduler derives its own stream.
    snapshot_every_rounds:
        Snapshot the full service state every N rounds (needs
        ``snapshot_dir``); ``None`` disables periodic snapshots.
    kill_switch_path:
        When this file exists, provisioning halts (admissions continue;
        queues grow) — the operator's big red button.  ``None`` disables.
    max_tenants:
        Cap on concurrently open tenants; ``tenant_open`` beyond it is
        refused with ``tenant_limit``.
    default_budget:
        Budget applied to tenants that open without an explicit one.
    """

    socket_path: str
    journal_dir: str
    snapshot_dir: str | None = None
    max_total_vms: int = 64
    round_virtual_step: float = 20.0
    round_interval: float = 0.5
    scheduler: str = "portfolio"
    selection_period: int = 4
    seed: int = 0
    snapshot_every_rounds: int | None = None
    kill_switch_path: str | None = None
    max_tenants: int = 1024
    default_budget: TenantBudget = field(default=DEFAULT_BUDGET)

    def __post_init__(self) -> None:
        if self.max_total_vms < 1:
            raise ValueError(f"max_total_vms must be >= 1, got {self.max_total_vms}")
        if self.round_virtual_step <= 0:
            raise ValueError(
                f"round_virtual_step must be > 0, got {self.round_virtual_step}"
            )
        if self.round_interval < 0:
            raise ValueError(
                f"round_interval must be >= 0, got {self.round_interval}"
            )
        if self.selection_period < 1:
            raise ValueError(
                f"selection_period must be >= 1, got {self.selection_period}"
            )
        if self.snapshot_every_rounds is not None and self.snapshot_every_rounds < 1:
            raise ValueError(
                f"snapshot_every_rounds must be >= 1, got {self.snapshot_every_rounds}"
            )
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")
