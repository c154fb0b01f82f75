"""Injectable cloud faults (extension; the paper assumes reliable IaaS).

Real cloud resource managers treat VM acquisition as a retryable,
failure-prone operation: lease requests are rejected ("insufficient
capacity") or only partially granted, boot times are long-tailed, some
instances never become ready, and availability-zone events take down a
correlated slice of the fleet at once.  :class:`FaultModel` configures
those behaviours; :class:`FaultInjector` draws them.

Each fault class draws from its own named RNG stream derived from the
model seed (``faults-lease``, ``faults-boot``, ``faults-outage``,
``faults-retry``), so enabling one fault never perturbs the draws of
another and runs replay bit-identically per seed.  Zero-rate knobs never
touch their stream at all.

These faults layer *on top of* the seed per-VM exponential lifetime
model (:class:`repro.cloud.failures.FailureModel`), which stays the
independent-failure baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.rng import make_rng

__all__ = ["FaultModel", "FaultInjector"]


@dataclass(slots=True, frozen=True)
class FaultModel:
    """Configuration of the injectable cloud faults.

    Parameters
    ----------
    seed:
        Root seed for every fault stream.
    lease_fault_rate:
        Probability that a lease request fails outright with a transient
        API error (nothing granted this attempt).
    partial_grant_rate:
        Probability that a lease request is only partially granted
        ("insufficient capacity"): a uniform fraction of the requested
        VMs, possibly zero, is delivered.
    boot_jitter_scale:
        Scale (seconds) of a lognormal long tail *added* to the fixed
        boot delay of every on-demand VM; 0 disables jitter.
    boot_jitter_sigma:
        Shape of the lognormal boot-delay tail.
    boot_fail_rate:
        Probability that a freshly leased VM never becomes ready: it
        dies (and is charged) at its would-be ready time.
    outage_mtbo_seconds:
        Mean time between correlated outage starts (exponential);
        ``None`` disables outages.
    outage_duration_seconds:
        Mean outage duration (exponential).  While an outage window is
        open, every lease request is rejected.
    outage_kill_fraction:
        Probability that each live on-demand VM is killed when an outage
        begins (AZ-style correlated failure).
    """

    seed: int = 0
    lease_fault_rate: float = 0.0
    partial_grant_rate: float = 0.0
    boot_jitter_scale: float = 0.0
    boot_jitter_sigma: float = 1.0
    boot_fail_rate: float = 0.0
    outage_mtbo_seconds: float | None = None
    outage_duration_seconds: float = 900.0
    outage_kill_fraction: float = 0.5

    def __post_init__(self) -> None:
        for name in ("lease_fault_rate", "partial_grant_rate", "boot_fail_rate",
                     "outage_kill_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.boot_jitter_scale < 0:
            raise ValueError(
                f"boot_jitter_scale must be >= 0, got {self.boot_jitter_scale}"
            )
        if self.boot_jitter_sigma <= 0:
            raise ValueError(
                f"boot_jitter_sigma must be positive, got {self.boot_jitter_sigma}"
            )
        if self.outage_mtbo_seconds is not None and self.outage_mtbo_seconds <= 0:
            raise ValueError(
                f"outage_mtbo_seconds must be positive, got {self.outage_mtbo_seconds}"
            )
        if self.outage_duration_seconds <= 0:
            raise ValueError(
                "outage_duration_seconds must be positive, "
                f"got {self.outage_duration_seconds}"
            )

    @property
    def outages_enabled(self) -> bool:
        return self.outage_mtbo_seconds is not None

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Stateful per-run fault sampler (one per engine run)."""

    def __init__(self, model: FaultModel) -> None:
        self.model = model
        self._lease_rng: np.random.Generator = make_rng(model.seed, "faults-lease")
        self._boot_rng: np.random.Generator = make_rng(model.seed, "faults-boot")
        self._outage_rng: np.random.Generator = make_rng(model.seed, "faults-outage")
        self._retry_rng: np.random.Generator = make_rng(model.seed, "faults-retry")

    # -- lease faults ------------------------------------------------------

    def lease_fails(self) -> bool:
        """Does this lease request fail with a transient API error?"""
        m = self.model
        return m.lease_fault_rate > 0 and bool(
            self._lease_rng.random() < m.lease_fault_rate
        )

    def grant(self, requested: int) -> int:
        """VMs actually granted for *requested* ("insufficient capacity")."""
        m = self.model
        if requested <= 0 or m.partial_grant_rate <= 0:
            return requested
        if self._lease_rng.random() >= m.partial_grant_rate:
            return requested
        # Partial grant: a uniform number in [0, requested - 1].
        return int(self._lease_rng.integers(0, requested))

    # -- boot pathology ----------------------------------------------------

    def boot_delay_extra(self) -> float:
        """Extra (long-tailed) boot delay for a freshly leased VM."""
        m = self.model
        if m.boot_jitter_scale <= 0:
            return 0.0
        return float(
            m.boot_jitter_scale * self._boot_rng.lognormal(0.0, m.boot_jitter_sigma)
        )

    def boot_fails(self) -> bool:
        """Does this VM die during boot (never becomes ready)?"""
        m = self.model
        return m.boot_fail_rate > 0 and bool(
            self._boot_rng.random() < m.boot_fail_rate
        )

    # -- correlated outages ------------------------------------------------

    def next_outage_in(self) -> float:
        """Seconds until the next outage window opens."""
        m = self.model
        if m.outage_mtbo_seconds is None:
            raise RuntimeError("outages are not enabled on this model")
        return float(self._outage_rng.exponential(m.outage_mtbo_seconds))

    def outage_duration(self) -> float:
        """Length of an outage window (seconds)."""
        return float(
            self._outage_rng.exponential(self.model.outage_duration_seconds)
        )

    def outage_kills(self) -> bool:
        """Is this particular VM killed by the outage?"""
        m = self.model
        return m.outage_kill_fraction > 0 and bool(
            self._outage_rng.random() < m.outage_kill_fraction
        )

    # -- retry jitter ------------------------------------------------------

    @property
    def retry_rng(self) -> np.random.Generator:
        """The stream backoff jitter draws from (decorrelated jitter)."""
        return self._retry_rng
