"""Scheduler frontends: the portfolio scheduler (Fig. 2) and the
fixed-policy baseline.

The cluster engine asks its scheduler for the active policy at every
scheduling tick; the portfolio scheduler re-runs Algorithm 1 every
*selection period* ticks (when the queue is non-empty) and keeps the
winner applied in between, exactly the paper's §6.4 parameterisation.
"""

from __future__ import annotations

import abc
from typing import Callable, Sequence

import numpy as np

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator
from repro.core.reflection import ReflectionStore
from repro.core.selection import SelectionOutcome, TimeConstrainedSelector
from repro.core.utility import UtilityFunction
from repro.policies.combined import CombinedPolicy, build_portfolio
from repro.sim.clock import CostClock
from repro.workload.job import Job

__all__ = [
    "Scheduler",
    "FixedScheduler",
    "PortfolioScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
]


class Scheduler(abc.ABC):
    """Chooses the scheduling policy the engine applies at each tick."""

    @abc.abstractmethod
    def active_policy(
        self,
        tick_index: int,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        capture_profile: Callable[[], CloudProfile],
    ) -> CombinedPolicy:
        """The policy to apply at this tick (queue is non-empty).

        ``capture_profile`` snapshots the cloud when called.  Taking the
        snapshot costs a walk over the live fleet, so a scheduler calls
        it only on the rounds that read it.
        """

    def describe(self) -> str:
        return type(self).__name__


class FixedScheduler(Scheduler):
    """Always applies one constituent policy (the paper's baselines)."""

    def __init__(self, policy: CombinedPolicy) -> None:
        self.policy = policy

    def active_policy(
        self,
        tick_index: int,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        capture_profile: Callable[[], CloudProfile],
    ) -> CombinedPolicy:
        return self.policy

    def describe(self) -> str:
        return self.policy.name


class PortfolioScheduler(Scheduler):
    """The paper's portfolio scheduler.

    Parameters
    ----------
    portfolio:
        Candidate policies (default: all 60 of :func:`build_portfolio`).
    utility:
        Objective for the online simulator (default κ=100, α=β=1).
    selection_period:
        Re-select every this many scheduling ticks (paper §6.4 sweeps
        1×–16× the 20 s tick).
    time_constraint:
        Δ for Algorithm 1, seconds.
    lam:
        λ, the Smart-set fraction.
    cost_clock:
        Cost model for Algorithm 1 (wall clock by default; the virtual
        10 ms clock reproduces §6.5).
    seed:
        Seed for the random Poor-set sampling.
    quarantine_limit:
        Fail-safe cap: after this many *consecutive* quarantined policy
        evaluations (exceptions swallowed by the selector), the scheduler
        stops running Algorithm 1 and permanently applies ``safe_policy``.
        ``None`` (default) never fails over.
    safe_policy:
        The fixed policy applied after failover — a policy object, a
        portfolio member's name, or ``None`` for the first portfolio
        member.

    The online simulator takes its tick and idle-VM release rule from
    the profile the caller's ``capture_profile`` returns (the engine's
    ``EngineConfig``), so there is no setting here to keep in step.
    Every invocation's scores and winner go to :attr:`reflection`,
    which Fig. 5 reads; they never feed back into selection.
    """

    def __init__(
        self,
        portfolio: Sequence[CombinedPolicy] | None = None,
        utility: UtilityFunction | None = None,
        selection_period: int = 1,
        time_constraint: float = 0.2,
        lam: float = 0.6,
        cost_clock: CostClock | None = None,
        seed: int = 0,
        quarantine_limit: int | None = None,
        safe_policy: CombinedPolicy | str | None = None,
    ) -> None:
        if selection_period < 1:
            raise ValueError(f"selection_period must be >= 1, got {selection_period}")
        if quarantine_limit is not None and quarantine_limit < 1:
            raise ValueError(
                f"quarantine_limit must be >= 1, got {quarantine_limit}"
            )
        members = list(portfolio) if portfolio is not None else build_portfolio()
        self.utility = utility or UtilityFunction()
        self.simulator = OnlineSimulator(self.utility)
        self.selector = TimeConstrainedSelector(
            members,
            simulator=self.simulator,
            time_constraint=time_constraint,
            lam=lam,
            cost_clock=cost_clock,
            rng=np.random.default_rng(seed),
        )
        self.selection_period = int(selection_period)
        self.reflection = ReflectionStore()
        self.quarantine_limit = quarantine_limit
        if isinstance(safe_policy, str):
            by_name = {p.name: p for p in members}
            if safe_policy not in by_name:
                raise KeyError(
                    f"safe_policy {safe_policy!r} is not a portfolio member"
                )
            safe_policy = by_name[safe_policy]
        self.safe_policy: CombinedPolicy = safe_policy or members[0]
        self.failed_over = False
        self._active: CombinedPolicy | None = None
        self._last_selection_tick: int | None = None
        # Telemetry hand-off to the engine's tracer: the outcome of the
        # most recent Algorithm 1 invocation (and whether it tripped the
        # failover cap), cleared when consumed.  Pure observation — the
        # selection logic never reads these.
        self._pending_outcome: SelectionOutcome | None = None
        self._pending_failover = False

    @property
    def invocations(self) -> int:
        """How many times Algorithm 1 ran (Fig. 9d's series)."""
        return self.selector.invocations

    @property
    def quarantined(self) -> int:
        """Total policy evaluations quarantined across the run."""
        return self.selector.quarantined

    def take_selection_telemetry(self) -> tuple[SelectionOutcome | None, bool]:
        """Consume ``(outcome, failed_over_now)`` of the latest invocation.

        Returns ``(None, False)`` on rounds where Algorithm 1 did not run
        (the previous winner stayed applied).  Used by the engine's run
        tracer; consuming is idempotent per invocation.
        """
        outcome = self._pending_outcome
        failover = self._pending_failover
        self._pending_outcome = None
        self._pending_failover = False
        return outcome, failover

    def active_policy(
        self,
        tick_index: int,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        capture_profile: Callable[[], CloudProfile],
    ) -> CombinedPolicy:
        if self.failed_over:
            return self.safe_policy
        due = (
            self._active is None
            or self._last_selection_tick is None
            or tick_index - self._last_selection_tick >= self.selection_period
        )
        if due and queue:
            profile = capture_profile()
            outcome = self.selector.select(queue, waits, runtimes, profile)
            self._pending_outcome = outcome
            if (
                self.quarantine_limit is not None
                and self.selector.consecutive_quarantines >= self.quarantine_limit
            ):
                self._pending_failover = True
                # Too many consecutive evaluation failures: the portfolio
                # machinery itself is suspect.  Stop selecting and apply
                # the designated safe fixed policy for the rest of the run.
                self.failed_over = True
                self._active = self.safe_policy
                self._last_selection_tick = tick_index
                return self.safe_policy
            chosen = outcome.best
            # Quarantined entries carry −inf scores; the store records
            # only the policies that were actually scored.
            scores = [
                (ps.policy.name, ps.score)
                for ps in outcome.simulated
                if not ps.quarantined
            ]
            self._active = chosen
            self._last_selection_tick = tick_index
            if any(name == chosen.name for name, _ in scores):
                self.reflection.record_invocation(
                    time=profile.now,
                    scores=scores,
                    applied=chosen.name,
                )
        assert self._active is not None
        return self._active

    def describe(self) -> str:
        return (
            f"portfolio(n={len(self.selector.smart) + len(self.selector.stale) + len(self.selector.poor)}, "
            f"period={self.selection_period}, delta={self.selector.time_constraint}s)"
        )


class RandomScheduler(Scheduler):
    """Selection-ablation baseline: pick a random policy each period.

    Shares the portfolio and period semantics with
    :class:`PortfolioScheduler` but skips the online simulation entirely —
    the gap between the two isolates the value of informed selection.
    """

    def __init__(
        self,
        portfolio: Sequence[CombinedPolicy] | None = None,
        selection_period: int = 1,
        seed: int = 0,
    ) -> None:
        self.portfolio = list(portfolio) if portfolio is not None else build_portfolio()
        if not self.portfolio:
            raise ValueError("portfolio must not be empty")
        self.selection_period = int(selection_period)
        self.rng = np.random.default_rng(seed)
        self._active: CombinedPolicy | None = None
        self._last_tick: int | None = None

    def active_policy(
        self,
        tick_index: int,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        capture_profile: Callable[[], CloudProfile],
    ) -> CombinedPolicy:
        due = (
            self._active is None
            or self._last_tick is None
            or tick_index - self._last_tick >= self.selection_period
        )
        if due and queue:
            self._active = self.portfolio[int(self.rng.integers(len(self.portfolio)))]
            self._last_tick = tick_index
        assert self._active is not None
        return self._active

    def describe(self) -> str:
        return f"random(n={len(self.portfolio)})"


class RoundRobinScheduler(Scheduler):
    """Selection-ablation baseline: cycle through the portfolio."""

    def __init__(
        self,
        portfolio: Sequence[CombinedPolicy] | None = None,
        selection_period: int = 1,
    ) -> None:
        self.portfolio = list(portfolio) if portfolio is not None else build_portfolio()
        if not self.portfolio:
            raise ValueError("portfolio must not be empty")
        self.selection_period = int(selection_period)
        self._index = -1
        self._active: CombinedPolicy | None = None
        self._last_tick: int | None = None

    def active_policy(
        self,
        tick_index: int,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        capture_profile: Callable[[], CloudProfile],
    ) -> CombinedPolicy:
        due = (
            self._active is None
            or self._last_tick is None
            or tick_index - self._last_tick >= self.selection_period
        )
        if due and queue:
            self._index = (self._index + 1) % len(self.portfolio)
            self._active = self.portfolio[self._index]
            self._last_tick = tick_index
        assert self._active is not None
        return self._active

    def describe(self) -> str:
        return f"round-robin(n={len(self.portfolio)})"
