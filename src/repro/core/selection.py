"""Time-constrained portfolio simulation (paper §4, Algorithm 1).

Simulating all 60 policies at every scheduling decision can blow the
sub-second budget, so policies live in three sets:

* **Smart** — top scorers of the previous invocation,
* **Stale** — policies not simulated last time (ordered by staleness),
* **Poor**  — previous low scorers, sampled randomly (a policy that is
  poor today can win tomorrow when the workload shifts).

Each invocation splits the time constraint Δ proportionally to the set
sizes, simulates Smart then Stale sequentially and Poor randomly until
the budget runs out, then rebuilds the sets: the top λ (=0.6) fraction of
the simulated policies becomes the new Smart set, the rest joins Poor,
and whatever went unsimulated becomes Stale.  The sets stabilise at
‖Smart‖=λK, ‖Stale‖=λ(N−K), ‖Poor‖=(1−λ)N for K policies simulatable
within Δ (paper's informal proof, §4) — property-tested in this repo.

Every scored policy is charged :data:`POLICY_COST`, the constant 10 ms
per policy simulation of the paper's §6.5 experiments, so the budget
trajectory is the same on every host and in every replay.  Because no
charge depends on a score, each invocation first runs the three quota
loops to fix its plan (which members it scores, in what order, with the
Poor draws) and only then simulates.  It scores the plan in order, and
a simulation carries as riders the plan's later members that no earlier
run of the round has answered, so a shared kernel run answers only
members the round scores.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator, SimOutcome
from repro.policies.combined import CombinedPolicy
from repro.workload.job import Job

__all__ = [
    "PolicyScore",
    "TimeConstrainedSelector",
    "SelectionOutcome",
    "POLICY_COST",
    "QUARANTINE_SCORE",
    "split_budget",
]

#: Seconds of Δ charged per scored policy ``c_i``: the paper's constant
#: 10 ms per policy simulation (§6.5), whether the score came from a
#: simulation, another member's shared run, or a quarantined raise.
POLICY_COST = 0.010

#: Score assigned to a policy whose online simulation raised: worse than
#: any real utility, so a quarantined policy can never win an invocation.
QUARANTINE_SCORE = float("-inf")


def split_budget(
    delta: float, n_smart: int, n_stale: int, n_poor: int
) -> tuple[float, float, float]:
    """Split Δ across the three sets proportionally to their sizes.

    Each tranche is clamped to ≥ 0: with an empty Poor set the float sum
    ``d1 + d2`` can exceed ``delta`` by an ulp, which would make the Poor
    tranche *negative* and (once leftovers shrink) wrongly veto Poor
    simulations.
    """
    n_total = n_smart + n_stale + n_poor
    d1 = max(0.0, n_smart / n_total * delta)
    d2 = max(0.0, n_stale / n_total * delta)
    d3 = max(0.0, delta - (d1 + d2))
    return d1, d2, d3


@dataclass(slots=True, frozen=True)
class PolicyScore:
    """One simulated policy with its utility score and charged cost.

    ``outcome`` is ``None`` — and ``quarantined`` True — when the online
    simulation raised instead of returning a score.
    """

    policy: CombinedPolicy
    score: float
    cost: float
    outcome: SimOutcome | None
    quarantined: bool = False


@dataclass(slots=True, frozen=True)
class SelectionOutcome:
    """The result of one Algorithm 1 invocation (selection + telemetry)."""

    best: CombinedPolicy
    simulated: tuple[PolicyScore, ...]
    budget: float
    spent: float
    #: Scores answered by another member's shared kernel run.
    n_shared: int = 0

    @property
    def n_simulated(self) -> int:
        return len(self.simulated)

    @property
    def n_quarantined(self) -> int:
        """Policies whose simulation raised during this invocation."""
        return sum(1 for ps in self.simulated if ps.quarantined)


class TimeConstrainedSelector:
    """Algorithm 1: select the best policy within a time constraint Δ.

    Parameters
    ----------
    portfolio:
        The candidate policies (all start in Smart, per the paper).
    simulator:
        The online simulator used as the selection mapping.
    time_constraint:
        Δ in seconds (paper explores 0.02–0.6 s; 0.2 s suffices).
    lam:
        λ, the fraction of simulated policies promoted to Smart (0.6).
    rng:
        Source of the random picks from Poor (seed it for replays).
    """

    def __init__(
        self,
        portfolio: Sequence[CombinedPolicy],
        simulator: OnlineSimulator | None = None,
        time_constraint: float = 0.2,
        lam: float = 0.6,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not portfolio:
            raise ValueError("portfolio must not be empty")
        if time_constraint <= 0:
            raise ValueError(f"time_constraint must be positive, got {time_constraint}")
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"lambda must lie in (0, 1], got {lam}")
        self.simulator = simulator or OnlineSimulator()
        self.time_constraint = float(time_constraint)
        self.lam = float(lam)
        self.rng = rng if rng is not None else np.random.default_rng(0)

        self.smart: list[CombinedPolicy] = list(portfolio)
        self.stale: list[CombinedPolicy] = []
        self.poor: list[CombinedPolicy] = []
        self.invocations = 0
        self.total_simulated = 0
        #: Total evaluations quarantined (exceptions swallowed) so far.
        self.quarantined = 0
        #: Warm-start prefix for the current invocation: one
        #: ``KernelPrep`` built in :meth:`select` and shared by every
        #: policy evaluation of the round (``None`` between rounds).
        self._prep = None
        #: This round's shared outcomes, ``policy.name -> (policy,
        #: SimOutcome)``, for members a shared kernel run already
        #: answered (see :meth:`_simulate`).  ``None`` between rounds.
        self._memo: dict[str, tuple[CombinedPolicy, SimOutcome]] | None = None
        #: Evaluations answered by another member's shared run.
        self.memo_hits = 0
        #: Evaluations quarantined since the last *successful* evaluation;
        #: the scheduler's failover cap watches this.
        self.consecutive_quarantines = 0
        #: Optional :class:`~repro.obs.profiler.Profiler`.  When set,
        #: every online-simulation call is timed into the
        #: ``selector.evaluate`` span and each Algorithm 1 invocation into
        #: ``selector.select``.  ``None`` (default) adds no clock reads.
        #: The profiler only observes: every score is charged
        #: :data:`POLICY_COST`.
        self.profiler = None

    # ------------------------------------------------------------------

    def _begin_round(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> None:
        """Set up the round's warm-start prefix and shared-outcome memo.

        The prefix (:meth:`OnlineSimulator.prepare`) is built once and
        shared by every evaluation this round; the memo starts empty, so
        no outcome crosses rounds.
        """
        self._memo = {}
        profiler = self.profiler
        prep_begin = _time.perf_counter() if profiler is not None else 0.0
        self._prep = self.simulator.prepare(queue, waits, runtimes, profile)
        if profiler is not None:
            profiler.add("selector.prepare", _time.perf_counter() - prep_begin)

    def _simulate(
        self, policy: CombinedPolicy, later: Sequence[CombinedPolicy]
    ) -> PolicyScore:
        """Score one policy, quarantining it if the simulation raises.

        A raising policy must not abort the whole run (fail-safe portfolio
        evaluation): it is scored :data:`QUARANTINE_SCORE` and demoted to
        Poor at set-rebuild time.  Every score, quarantined or shared,
        costs :data:`POLICY_COST`.

        A member an earlier run of this round already answered is scored
        from the memo.  On a miss, the riders are *later*, the members
        the round's plan scores after *policy*, less those the memo
        already holds: they ride along with *policy* (see
        :meth:`OnlineSimulator.evaluate_prepared`), and the answered
        riders fill the memo.  Members the plan leaves out never ride.
        """
        memo = self._memo
        rider, outcome = memo.get(policy.name, (None, None))
        if rider is policy:
            self.memo_hits += 1
            self.consecutive_quarantines = 0
            return PolicyScore(policy, outcome.score, POLICY_COST, outcome)
        riders = [p for p in later if p.name not in memo]
        shared: list = []
        profiler = self.profiler
        span_begin = _time.perf_counter() if profiler is not None else 0.0
        try:
            outcome = self.simulator.evaluate_prepared(
                self._prep, policy, riders, shared
            )
        except Exception:
            outcome = None
        if profiler is not None:
            profiler.add("selector.evaluate", _time.perf_counter() - span_begin)
        if outcome is None:
            self.quarantined += 1
            self.consecutive_quarantines += 1
            return PolicyScore(
                policy, QUARANTINE_SCORE, POLICY_COST, None, quarantined=True
            )
        self.consecutive_quarantines = 0
        for rider, rider_outcome in shared:
            memo[rider.name] = (rider, rider_outcome)
        return PolicyScore(policy, outcome.score, POLICY_COST, outcome)

    def select(
        self,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> SelectionOutcome:
        """Run Algorithm 1 once and return the chosen policy.

        Follows the paper's pseudo-code exactly: quota split (lines 1-2),
        sequential Smart and Stale phases (3-12), leftover-funded random
        Poor phase (13-19), set rebuild (20-23), best-first return (24).
        The phases pick the round's members before any is simulated (see
        :meth:`_phases`).
        """
        select_begin = _time.perf_counter() if self.profiler is not None else 0.0
        delta = self.time_constraint
        hits_before = self.memo_hits
        self._begin_round(queue, waits, runtimes, profile)
        d1, d2, d3 = split_budget(
            delta, len(self.smart), len(self.stale), len(self.poor)
        )
        simulated, spent = self._phases(d1, d2, d3)
        # Stable sort on score alone: preserves simulation order among ties.
        simulated.sort(key=lambda ps: -ps.score)

        # Phase 3: rebuild the sets.
        # Unsimulated Smart policies age into the end of Stale.
        self.stale.extend(self.smart)
        self.smart = []
        best = self._rebuild_sets(simulated)

        self.invocations += 1
        self.total_simulated += len(simulated)
        # Do not pin the round's snapshot or outcomes between ticks.
        self._prep = None
        self._memo = None
        if self.profiler is not None:
            self.profiler.add(
                "selector.select", _time.perf_counter() - select_begin
            )
        return SelectionOutcome(
            best=best,
            simulated=tuple(simulated),
            budget=delta,
            spent=spent,
            n_shared=self.memo_hits - hits_before,
        )

    def _phases(
        self, d1: float, d2: float, d3: float
    ) -> tuple[list[PolicyScore], float]:
        """Phases 2a-2c in two passes: plan the round, then score it.

        The plan pass runs the paper's three quota loops, picking members
        and charging each pick :data:`POLICY_COST`.  The charge does not
        depend on the score, so the picks, their order, the Poor draws
        and Δ spent are exactly those of a loop that simulated as it
        went.  The score pass then scores the plan in order; each member
        passes the plan's later members on as riders (:meth:`_simulate`).
        """
        plan: list[CombinedPolicy] = []
        spent = 0.0

        # Phase 2a: Smart, in order, while its quota lasts.
        while self.smart and d1 > 0:
            plan.append(self.smart.pop(0))
            d1 -= POLICY_COST
            spent += POLICY_COST

        # Phase 2b: Stale, in staleness order, while its quota lasts.
        while self.stale and d2 > 0:
            plan.append(self.stale.pop(0))
            d2 -= POLICY_COST
            spent += POLICY_COST

        # Phase 2c: Poor, random picks, funded by its quota plus leftovers.
        d3 = d3 + d2 + d1
        while self.poor and d3 > 0:
            idx = int(self.rng.integers(len(self.poor)))
            plan.append(self.poor.pop(idx))
            d3 -= POLICY_COST
            spent += POLICY_COST

        simulated = [
            self._simulate(policy, plan[at + 1:])
            for at, policy in enumerate(plan)
        ]
        return simulated, spent

    def _rebuild_sets(self, simulated: list[PolicyScore]) -> CombinedPolicy:
        """Rebuild Smart/Poor from the *sorted* score table; return best.

        Quarantined policies (score −inf, sorted last) are always demoted
        to Poor and never promoted to Smart or chosen as best."""
        healthy = [ps for ps in simulated if not ps.quarantined]
        if healthy:
            k = max(1, round(self.lam * len(healthy)))
            self.smart = [ps.policy for ps in healthy[:k]]
            self.poor.extend(ps.policy for ps in healthy[k:])
            best = healthy[0].policy
        else:
            # Δ smaller than any single simulation cost, or every simulated
            # policy quarantined: fall back to the freshest leftover.
            fallback = (
                self.stale
                or self.poor
                or [ps.policy for ps in simulated]
            )
            best = fallback[0]
        self.poor.extend(ps.policy for ps in simulated if ps.quarantined)
        return best

    # -- introspection ---------------------------------------------------

    def set_sizes(self) -> tuple[int, int, int]:
        """Current (‖Smart‖, ‖Stale‖, ‖Poor‖) — the stabilisation property."""
        return (len(self.smart), len(self.stale), len(self.poor))
