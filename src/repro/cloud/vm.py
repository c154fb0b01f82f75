"""VM instance lifecycle.

A VM is leased (BOOTING), becomes usable after the provisioning delay
(IDLE), alternates IDLE/BUSY as jobs are assigned, and is eventually
TERMINATED.  Jobs run exclusively: one VM serves at most one job's
processor at a time (paper §5.1: homogeneous single-core instances).

A VM leased from a :class:`~repro.cloud.provider.CloudProvider` changes
state only through the provider, whose transition methods call the ones
here and then move the VM between the provider's BOOTING, IDLE and BUSY
partitions.  Calling these methods on a leased VM directly leaves those
partitions stale; only a standalone VM drives its own lifecycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["VM", "VMState"]


class VMState(enum.Enum):
    BOOTING = "booting"
    IDLE = "idle"
    BUSY = "busy"
    TERMINATED = "terminated"


@dataclass(slots=True)
class VM:
    """One leased single-core VM instance.

    Parameters
    ----------
    vm_id:
        Unique id within a provider.
    lease_time:
        When the lease started (billing begins here, per EC2 semantics —
        boot time is paid for).
    ready_time:
        When the instance becomes usable (lease_time + boot delay).
    """

    vm_id: int
    lease_time: float
    ready_time: float
    state: VMState = VMState.BOOTING
    job_id: int | None = field(default=None, compare=False)
    busy_until: float = field(default=-1.0, compare=False)
    terminate_time: float = field(default=-1.0, compare=False)
    #: Reserved instances are committed for the whole experiment: billed
    #: flat at a discounted rate, never terminated by release rules.
    reserved: bool = field(default=False, compare=False)
    #: Spot instances (hostile-cloud extension): leased from the spot
    #: market at ``price`` (a fraction of the on-demand rate, locked at
    #: lease time) and reclaimable by the provider at any moment.
    spot: bool = field(default=False, compare=False)
    #: Price multiplier applied to every charge of this VM.  1.0 for
    #: on-demand/reserved instances, so multiplying is exact (IEEE754
    #: ``x * 1.0 == x``) and the default path stays bit-identical.
    price: float = field(default=1.0, compare=False)

    def __post_init__(self) -> None:
        if self.ready_time < self.lease_time:
            raise ValueError(
                f"vm {self.vm_id}: ready_time {self.ready_time} precedes "
                f"lease_time {self.lease_time}"
            )

    @property
    def alive(self) -> bool:
        return self.state is not VMState.TERMINATED

    def boot_complete(self, now: float) -> None:
        """BOOTING → IDLE at *now*."""
        if self.state is not VMState.BOOTING:
            raise RuntimeError(f"vm {self.vm_id}: boot_complete in state {self.state}")
        if now + 1e-9 < self.ready_time:
            raise RuntimeError(
                f"vm {self.vm_id}: boot_complete at {now} before ready {self.ready_time}"
            )
        self.state = VMState.IDLE

    def assign(self, job_id: int, until: float) -> None:
        """IDLE → BUSY running *job_id* until *until*."""
        if self.state is not VMState.IDLE:
            raise RuntimeError(f"vm {self.vm_id}: assign in state {self.state}")
        self.state = VMState.BUSY
        self.job_id = job_id
        self.busy_until = until

    def release_job(self) -> None:
        """BUSY → IDLE when its job completes."""
        if self.state is not VMState.BUSY:
            raise RuntimeError(f"vm {self.vm_id}: release_job in state {self.state}")
        self.state = VMState.IDLE
        self.job_id = None
        self.busy_until = -1.0

    def terminate(self, now: float) -> None:
        """Any live state → TERMINATED (busy VMs cannot be terminated)."""
        if self.state is VMState.TERMINATED:
            raise RuntimeError(f"vm {self.vm_id}: already terminated")
        if self.state is VMState.BUSY:
            raise RuntimeError(f"vm {self.vm_id}: cannot terminate while busy")
        if now < self.lease_time:
            raise ValueError(f"vm {self.vm_id}: terminate before lease")
        self.state = VMState.TERMINATED
        self.terminate_time = now
