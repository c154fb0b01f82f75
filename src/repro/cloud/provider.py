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
    #: :meth:`CloudProvider.finalize_reserved` read it when no explicit
    #: discount is passed, so call sites cannot silently disagree).
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
        vm.terminate(now)
        charge = self.billing.charged_seconds(vm.lease_time, now) * vm.price
        self.charged_seconds_total += charge
        if vm.spot:
            self.spot_charged_seconds += charge
        del self._fleet[vm.vm_id]
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
        vm.terminate(now)
        charge = self.billing.completed_seconds(vm.lease_time, now) * vm.price
        self.charged_seconds_total += charge
        self.spot_charged_seconds += charge
        del self._fleet[vm.vm_id]
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

    def settle_stragglers(
        self, now: float, reserved_discount: float | None = None
    ) -> float:
        """Book charges for VMs still BUSY at *now* (stalled-run cleanup).

        :meth:`terminate_all` and :meth:`finalize_reserved` deliberately
        skip BUSY VMs, so a run that hits its safety horizon with stuck
        jobs would otherwise omit those VMs' charges from RV entirely.
        This settles them — hour-rounded for on-demand, flat-rate for
        reserved — without touching their (still BUSY) state.  A second
        call books nothing new, and drained runs have no BUSY VMs, so
        this is a no-op outside the stalled case.

        ``reserved_discount`` defaults to the provider config's rate, so
        every call site settles reserved capacity at the same price as
        :meth:`finalize_reserved`; pass a value only to override it.
        """
        if reserved_discount is None:
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

    def finalize_reserved(self, now: float, discount: float | None = None) -> float:
        """Settle every reserved instance's flat-rate bill at run end.

        A reserved VM costs ``discount × committed seconds`` whether used
        or not (the effective-rate model of long-term reservations);
        the charge is booked into the provider total and returned.
        ``discount`` defaults to the config's ``reserved_discount``.
        """
        if discount is None:
            discount = self.config.reserved_discount
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must lie in (0, 1], got {discount}")
        total = 0.0
        for vm in list(self._fleet.values()):
            if vm.reserved and vm.state is not VMState.BUSY:
                vm.terminate(now)
                charge = (now - vm.lease_time) * discount
                self.charged_seconds_total += charge
                total += charge
                del self._fleet[vm.vm_id]
                if self.on_charge is not None:
                    self.on_charge(vm, charge, now, "reserved")
        return total

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
        snapshot) never reorders the rest, so no view re-sorts.
        """
        return list(self._fleet.values())

    def idle_vms(self) -> list[VM]:
        """Usable idle VMs, in id order."""
        return [vm for vm in self._fleet.values() if vm.state is VMState.IDLE]

    def booting_vms(self) -> list[VM]:
        return [vm for vm in self._fleet.values() if vm.state is VMState.BOOTING]

    def busy_vms(self) -> list[VM]:
        return [vm for vm in self._fleet.values() if vm.state is VMState.BUSY]

    def available_count(self) -> int:
        """VMs that are idle or will become usable without new leases
        (idle + booting) — what provisioning policies count as supply."""
        return sum(1 for vm in self._fleet.values() if vm.state in
                   (VMState.IDLE, VMState.BOOTING))

    def spot_count(self) -> int:
        """Currently leased spot instances."""
        return sum(1 for vm in self._fleet.values() if vm.spot)

    # -- billing helpers ------------------------------------------------------

    def remaining_paid(self, vm: VM, now: float) -> float:
        """Paid seconds left before *vm*'s next hourly boundary."""
        return self.billing.remaining_paid(vm.lease_time, now)

    def next_boundary(self, vm: VM, now: float) -> float:
        """Absolute time of *vm*'s next charging boundary."""
        return self.billing.next_boundary(vm.lease_time, now)

    def accrued_cost(self, now: float) -> float:
        """Total charged seconds so far: booked terminations plus the
        hour-rounded charge the live fleet would incur if stopped at *now*."""
        live = sum(
            self.billing.charged_seconds(vm.lease_time, max(now, vm.lease_time))
            * vm.price
            for vm in self._fleet.values()
        )
        return self.charged_seconds_total + live
