"""EC2-style IaaS provider.

Implements the resource model of the paper's §5.1: on-demand leases of
homogeneous single-core VMs, a hard cap on concurrently leased instances
(256 in all experiments), a fixed acquisition+boot delay (120 s), and
hour-rounded billing.  The provider tracks the fleet and accumulates the
charged cost ``RV``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cloud.billing import BillingModel, HourlyBilling
from repro.cloud.vm import VM, VMState

__all__ = ["CloudProvider", "ProviderConfig"]


@dataclass(slots=True, frozen=True)
class ProviderConfig:
    """Provider parameters (defaults = the paper's experimental setup).

    ``billing_period`` is the charging granularity: 3600 s reproduces the
    2013 EC2 hour-rounded model the paper assumes; 60 s / 1 s model the
    per-minute / per-second billing of modern clouds (see the billing
    ablation benchmark).
    """

    max_vms: int = 256
    boot_delay: float = 120.0
    billing_period: float = 3_600.0
    #: Flat-rate discount applied to reserved-instance settlements
    #: (:meth:`CloudProvider.settle_stragglers` and
    #: :meth:`CloudProvider.finalize_reserved` both read it, so they
    #: cannot disagree).
    reserved_discount: float = 0.4

    def __post_init__(self) -> None:
        if self.max_vms < 1:
            raise ValueError(f"max_vms must be >= 1, got {self.max_vms}")
        if self.boot_delay < 0:
            raise ValueError(f"boot_delay must be >= 0, got {self.boot_delay}")
        if self.billing_period <= 0:
            raise ValueError(
                f"billing_period must be positive, got {self.billing_period}"
            )
        if not 0.0 < self.reserved_discount <= 1.0:
            raise ValueError(
                f"reserved_discount must lie in (0, 1], got {self.reserved_discount}"
            )


class CloudProvider:
    """Leases and bills VM instances.

    The provider owns VM objects for their whole life; schedulers interact
    through :meth:`lease`, :meth:`terminate` and the fleet queries.

    A leased VM changes state only through the provider: its transitions
    (:meth:`boot_complete`, :meth:`assign`, :meth:`release_job`) and its
    terminations (:meth:`terminate`, :meth:`preempt`,
    :meth:`finalize_reserved`).  That keeps the live fleet partitioned by
    state: beside ``_fleet`` sit ``_booting``, ``_idle`` and ``_busy``,
    one id→VM dict per state, which the idle, booting and busy views and
    counts read instead of walking the fleet.  The partitions are derived
    state: pickling leaves them out and unpickling rebuilds them from
    ``_fleet``, so a snapshot holds what it always did.
    """

    def __init__(
        self,
        config: ProviderConfig | None = None,
        billing: BillingModel | None = None,
    ) -> None:
        self.config = config or ProviderConfig()
        self.billing = billing or HourlyBilling(self.config.billing_period)
        self._next_id = 0
        self._fleet: dict[int, VM] = {}
        self._index_fleet()
        self.charged_seconds_total = 0.0
        self.leases_total = 0
        #: Price-weighted charged seconds booked against spot instances
        #: (subset of ``charged_seconds_total``); 0.0 with no spot market.
        self.spot_charged_seconds = 0.0
        #: Optional billing observation hook: called with
        #: ``(vm, charged_seconds, end_time, kind)`` after every charge is
        #: booked into ``charged_seconds_total`` (``kind`` is one of
        #: ``terminate | straggler | reserved | preempt``).  The audit
        #: layer's invariant monitor subscribes here to keep its
        #: independent charge ledger; ``None`` (default) adds no overhead.
        self.on_charge: Callable[[VM, float, float, str], None] | None = None

    def _index_fleet(self) -> None:
        """(Re)build the per-state partitions from ``_fleet``, in id order."""
        self._booting: dict[int, VM] = {}
        self._idle: dict[int, VM] = {}
        self._busy: dict[int, VM] = {}
        parts = {
            VMState.BOOTING: self._booting,
            VMState.IDLE: self._idle,
            VMState.BUSY: self._busy,
        }
        for vm_id, vm in self._fleet.items():
            parts[vm.state][vm_id] = vm

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_booting", "_idle", "_busy"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._index_fleet()

    # -- leasing ------------------------------------------------------------

    def lease(
        self,
        count: int,
        now: float,
        reserved: bool = False,
        *,
        spot: bool = False,
        price: float = 1.0,
    ) -> list[VM]:
        """Lease up to *count* VMs at *now*; returns the VMs actually leased.

        The result is shorter than *count* when the concurrency cap binds
        (EC2 instance-limit semantics: requests are partially satisfied).
        ``reserved`` marks committed instances: they count against the cap
        and boot like any VM, but release rules skip them and they are
        billed flat-rate via :meth:`finalize_reserved`.  ``spot`` marks
        preemptible instances charged at ``price`` × the on-demand rate
        (locked at lease time); the provider may reclaim them at any
        moment via :meth:`preempt`.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if reserved and spot:
            raise ValueError("a VM cannot be both reserved and spot")
        if price <= 0:
            raise ValueError(f"price must be positive, got {price}")
        room = self.config.max_vms - self.leased_count()
        granted = min(count, max(0, room))
        vms = []
        for _ in range(granted):
            vm = VM(
                vm_id=self._next_id,
                lease_time=now,
                ready_time=now + self.config.boot_delay,
                reserved=reserved,
                spot=spot,
                price=price,
            )
            self._next_id += 1
            self._fleet[vm.vm_id] = vm
            self._booting[vm.vm_id] = vm
            vms.append(vm)
        self.leases_total += granted
        return vms

    def terminate(self, vm: VM, now: float) -> float:
        """Terminate *vm*, book its charge, and return the charged seconds.

        Reserved instances cannot be terminated this way — their lease is
        a commitment settled by :meth:`finalize_reserved`.
        """
        if vm.vm_id not in self._fleet:
            raise KeyError(f"vm {vm.vm_id} is not in this provider's fleet")
        if vm.reserved:
            raise ValueError(
                f"vm {vm.vm_id} is reserved; use finalize_reserved at run end"
            )
        self._retire(vm, now)
        charge = self.billing.charged_seconds(vm.lease_time, now) * vm.price
        self.charged_seconds_total += charge
        if vm.spot:
            self.spot_charged_seconds += charge
        if self.on_charge is not None:
            self.on_charge(vm, charge, now, "terminate")
        return charge

    def preempt(self, vm: VM, now: float) -> float:
        """Provider-initiated reclamation of a spot VM; returns the charge.

        EC2 spot semantics: the customer pays ``price`` × whole *completed*
        billing periods — the partial period the provider cut short is
        free (a VM reclaimed inside its first period costs nothing).  The
        caller must have released any job first; a BUSY VM cannot be
        reclaimed through this method.
        """
        if vm.vm_id not in self._fleet:
            raise KeyError(f"vm {vm.vm_id} is not in this provider's fleet")
        if not vm.spot:
            raise ValueError(f"vm {vm.vm_id} is not a spot instance")
        self._retire(vm, now)
        charge = self.billing.completed_seconds(vm.lease_time, now) * vm.price
        self.charged_seconds_total += charge
        self.spot_charged_seconds += charge
        if self.on_charge is not None:
            self.on_charge(vm, charge, now, "preempt")
        return charge

    def terminate_all(self, now: float) -> float:
        """Terminate every live, non-busy on-demand VM (end-of-run cleanup)."""
        total = 0.0
        for vm in list(self._fleet.values()):
            if vm.state is not VMState.BUSY and not vm.reserved:
                total += self.terminate(vm, now)
        return total

    def settle_stragglers(self, now: float) -> float:
        """Book charges for VMs still BUSY at *now* (stalled-run cleanup).

        :meth:`terminate_all` and :meth:`finalize_reserved` deliberately
        skip BUSY VMs, so a run that hits its safety horizon with stuck
        jobs would otherwise omit those VMs' charges from RV entirely.
        This settles them — hour-rounded for on-demand, flat-rate for
        reserved — without touching their (still BUSY) state.  A second
        call books nothing new, and drained runs have no BUSY VMs, so
        this is a no-op outside the stalled case.
        """
        reserved_discount = self.config.reserved_discount
        extra = 0.0
        settled: list[tuple[VM, float]] = []
        for vm in self._fleet.values():
            if vm.state is not VMState.BUSY:
                continue
            if vm.reserved:
                charge = max(0.0, now - vm.lease_time) * reserved_discount
            else:
                charge = self.billing.charged_seconds(
                    vm.lease_time, max(now, vm.lease_time)
                ) * vm.price
                if vm.spot:
                    self.spot_charged_seconds += charge
            extra += charge
            settled.append((vm, charge))
        self.charged_seconds_total += extra
        if self.on_charge is not None:
            for vm, charge in settled:
                self.on_charge(vm, charge, now, "straggler")
        # Mark them settled by rebasing the lease clock so a (hypothetical)
        # later settlement cannot double-charge the same interval.
        for vm in self._fleet.values():
            if vm.state is VMState.BUSY:
                vm.lease_time = max(vm.lease_time, now)
                vm.ready_time = max(vm.ready_time, vm.lease_time)
        return extra

    def finalize_reserved(self, now: float) -> float:
        """Settle every reserved instance's flat-rate bill at run end.

        A reserved VM costs the config's ``reserved_discount`` × committed
        seconds whether used or not (the effective-rate model of
        long-term reservations); the charge is booked into the provider
        total and returned.
        """
        discount = self.config.reserved_discount
        total = 0.0
        for vm in list(self._fleet.values()):
            if vm.reserved and vm.state is not VMState.BUSY:
                self._retire(vm, now)
                charge = (now - vm.lease_time) * discount
                self.charged_seconds_total += charge
                total += charge
                if self.on_charge is not None:
                    self.on_charge(vm, charge, now, "reserved")
        return total

    # -- state transitions ----------------------------------------------------
    #
    # Each runs the VM's own checked transition, then moves the VM's entry
    # between partitions, so a rejected transition moves nothing.

    def boot_complete(self, vm: VM, now: float) -> None:
        """BOOTING → IDLE at *now*."""
        vm.boot_complete(now)
        self._idle[vm.vm_id] = self._booting.pop(vm.vm_id)

    def assign(self, vm: VM, job_id: int, until: float) -> None:
        """IDLE → BUSY running *job_id* until *until*."""
        vm.assign(job_id, until)
        self._busy[vm.vm_id] = self._idle.pop(vm.vm_id)

    def release_job(self, vm: VM) -> None:
        """BUSY → IDLE when its job completes or dies."""
        vm.release_job()
        self._idle[vm.vm_id] = self._busy.pop(vm.vm_id)

    def _retire(self, vm: VM, now: float) -> None:
        """Terminate a BOOTING or IDLE *vm* and drop it from the fleet."""
        booting = vm.state is VMState.BOOTING
        vm.terminate(now)
        del self._fleet[vm.vm_id]
        del (self._booting if booting else self._idle)[vm.vm_id]

    # -- fleet queries --------------------------------------------------------

    def leased_count(self) -> int:
        """Number of currently leased (booting/idle/busy) VMs."""
        return len(self._fleet)

    def headroom(self) -> int:
        """How many more VMs could be leased right now."""
        return self.config.max_vms - self.leased_count()

    def vms(self) -> list[VM]:
        """All live VMs, in id order.

        ``_fleet`` keeps insertion order, and that is id order: only
        :meth:`lease` inserts, with ids from the monotone ``_next_id``
        counter.  Deleting an entry or pickling the dict (a durability
        snapshot) never reorders the rest, so this view does not re-sort.
        """
        return list(self._fleet.values())

    def idle_vms(self) -> list[VM]:
        """Usable idle VMs, in id order."""
        return _in_id_order(self._idle)

    def booting_vms(self) -> list[VM]:
        return _in_id_order(self._booting)

    def busy_vms(self) -> list[VM]:
        return _in_id_order(self._busy)

    def idle_count(self) -> int:
        return len(self._idle)

    def booting_count(self) -> int:
        return len(self._booting)

    def busy_count(self) -> int:
        return len(self._busy)

    # -- billing helpers ------------------------------------------------------

    def remaining_paid(self, vm: VM, now: float) -> float:
        """Paid seconds left before *vm*'s next hourly boundary."""
        return self.billing.remaining_paid(vm.lease_time, now)

    def next_boundary(self, vm: VM, now: float) -> float:
        """Absolute time of *vm*'s next charging boundary."""
        return self.billing.next_boundary(vm.lease_time, now)


def _in_id_order(part: dict[int, VM]) -> list[VM]:
    """A partition's VMs in id order.  A VM that re-enters the IDLE or
    BUSY partition lands at the end of its dict, so a view sorts."""
    return [part[vm_id] for vm_id in sorted(part)]
