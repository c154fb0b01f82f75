"""Cloud profile snapshots.

The portfolio scheduler's online simulator must evaluate tens of policies
against "the resource profile of the current system" (paper Fig. 2)
without mutating real state.  A :class:`CloudProfile` is that snapshot:
a compact, immutable view of the live fleet, cheap to copy per policy
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.cloud.vm import VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.cloud.provider import CloudProvider

__all__ = ["VMSnapshot", "CloudProfile"]


@dataclass(slots=True, frozen=True)
class VMSnapshot:
    """Frozen view of one live VM at snapshot time."""

    vm_id: int
    lease_time: float
    ready_time: float
    busy_until: float  # -1 when not busy


@dataclass(slots=True, frozen=True)
class CloudProfile:
    """State of the system handed to the online simulator.

    Attributes
    ----------
    now:
        Snapshot timestamp.
    vms:
        Live VMs (booting, idle, and busy).
    max_vms / boot_delay / billing_period:
        Provider parameters the simulated policies must respect.
    tick / release_rule:
        The scheduling tick and idle-VM release rule (see
        ``EngineConfig``) of the system that took the snapshot; the
        simulator replays both, so it cannot drift from the engine.
    """

    now: float
    vms: tuple[VMSnapshot, ...]
    max_vms: int
    boot_delay: float
    billing_period: float
    tick: float = 20.0
    release_rule: str = "eager"
    #: Spot-market view (hostile-cloud extension): the current raw spot
    #: price and its risk-adjusted effective price, both as fractions of
    #: the on-demand rate.  ``None`` (the default, and always the case
    #: with no spot market) keeps policy evaluation bit-identical to the
    #: paper's cooperative cloud.
    spot_price: float | None = None
    spot_price_effective: float | None = None

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError(f"tick must be positive, got {self.tick}")
        if self.release_rule not in ("eager", "boundary"):
            raise ValueError(
                "release_rule must be 'eager' or 'boundary', "
                f"got {self.release_rule!r}"
            )

    @classmethod
    def capture(
        cls,
        provider: "CloudProvider",
        now: float,
        tick: float = 20.0,
        release_rule: str = "eager",
    ) -> "CloudProfile":
        """Snapshot *provider* at time *now*, under the caller's *tick*
        and *release_rule*."""
        from repro.cloud.billing import HourlyBilling

        billing = provider.billing
        period = billing.period if isinstance(billing, HourlyBilling) else 3_600.0
        snaps = []
        for vm in provider.vms():
            busy_until = vm.busy_until if vm.state is VMState.BUSY else -1.0
            snaps.append(
                VMSnapshot(
                    vm_id=vm.vm_id,
                    lease_time=vm.lease_time,
                    ready_time=vm.ready_time,
                    busy_until=busy_until,
                )
            )
        return cls(
            now=now,
            vms=tuple(snaps),
            max_vms=provider.config.max_vms,
            boot_delay=provider.config.boot_delay,
            billing_period=period,
            tick=tick,
            release_rule=release_rule,
        )


def profile_from_vms(
    now: float,
    vms: Sequence[VMSnapshot],
    max_vms: int = 256,
    boot_delay: float = 120.0,
    billing_period: float = 3_600.0,
    tick: float = 20.0,
    release_rule: str = "eager",
) -> CloudProfile:
    """Build a profile directly from snapshots (the service's tenants,
    tests, synthetic states)."""
    return CloudProfile(
        now=now,
        vms=tuple(vms),
        max_vms=max_vms,
        boot_delay=boot_delay,
        billing_period=billing_period,
        tick=tick,
        release_rule=release_rule,
    )
