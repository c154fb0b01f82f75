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

The per-policy cost ``c_i`` comes from a pluggable
:class:`~repro.sim.clock.CostClock`: wall time in production, or the
paper's deterministic 10 ms per policy for the §6.5 experiments.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator, SimOutcome
from repro.policies.combined import CombinedPolicy
from repro.sim.clock import CostClock, WallCostClock
from repro.workload.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.parallel)
    from repro.parallel.evaluator import ParallelPortfolioEvaluator

__all__ = [
    "PolicyScore",
    "TimeConstrainedSelector",
    "SelectionOutcome",
    "QUARANTINE_SCORE",
    "split_budget",
]

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
    cost_clock:
        How ``c_i`` is measured (wall clock by default).
    rng:
        Source of the random picks from Poor (seed it for replays).
    evaluator:
        Optional :class:`~repro.parallel.evaluator.ParallelPortfolioEvaluator`:
        policy simulations run concurrently on the shared worker pool and
        Δ is charged in aggregate worker-seconds (see the parallel
        subsystem docs).  ``None`` (default) is the paper's serial path,
        bit-identical to previous releases.
    """

    def __init__(
        self,
        portfolio: Sequence[CombinedPolicy],
        simulator: OnlineSimulator | None = None,
        time_constraint: float = 0.2,
        lam: float = 0.6,
        cost_clock: CostClock | None = None,
        rng: np.random.Generator | None = None,
        evaluator: "ParallelPortfolioEvaluator | None" = None,
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
        self.cost_clock = cost_clock or WallCostClock()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.evaluator = evaluator

        self.smart: list[CombinedPolicy] = list(portfolio)
        self.stale: list[CombinedPolicy] = []
        self.poor: list[CombinedPolicy] = []
        #: Fixed index of each member in the constructed portfolio: the
        #: deterministic tie-break of the parallel merge order.
        self._policy_index = {p.name: i for i, p in enumerate(portfolio)}
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
        #: answered (see :meth:`_simulate`).  ``None`` between rounds and
        #: whenever shared runs are off (see :meth:`_begin_round`).
        self._memo: dict[str, tuple[CombinedPolicy, SimOutcome]] | None = None
        #: Evaluations answered by another member's shared run.
        self.memo_hits = 0
        #: Evaluations quarantined since the last *successful* evaluation;
        #: the scheduler's failover cap watches this.
        self.consecutive_quarantines = 0
        #: Optional :class:`~repro.obs.profiler.Profiler`.  When set,
        #: every online-simulation call is timed into the
        #: ``selector.evaluate`` span (worker-side walls are merged into
        #: ``selector.evaluate.worker`` under parallel evaluation) and
        #: each Algorithm 1 invocation into ``selector.select``.  ``None``
        #: (default) adds no clock reads: charged costs always come from
        #: ``cost_clock``, never from the profiler.
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
        shared by every serial evaluation this round; the memo starts
        empty, so no outcome crosses rounds.  Both are gated on the fast
        kernel so ``--kernel reference`` keeps the historical evaluation
        path bit-for-bit, and neither serves the parallel path, whose
        workers evaluate one member per task.  Overrides are detected
        against the class attributes at call time, so a wrapper
        installed on :class:`OnlineSimulator` itself is not mistaken for
        one.
        """
        simulator = self.simulator
        self._memo = None
        if (
            self.evaluator is not None
            or getattr(simulator, "kernel", "reference") != "fast"
            # A subclass overriding ``evaluate`` (stubs, instrumentation)
            # must keep seeing one call per policy: the prepared path
            # would silently bypass the override.
            or type(simulator).evaluate is not OnlineSimulator.evaluate
        ):
            self._prep = None
            return
        # One overriding only ``evaluate_prepared`` may not take riders,
        # and must not have calls swallowed by shared runs either.
        if type(simulator).evaluate_prepared is OnlineSimulator.evaluate_prepared:
            self._memo = {}
        profiler = self.profiler
        prep_begin = _time.perf_counter() if profiler is not None else 0.0
        self._prep = simulator.prepare(queue, waits, runtimes, profile)
        if profiler is not None:
            profiler.add("selector.prepare", _time.perf_counter() - prep_begin)

    def _simulate(
        self,
        policy: CombinedPolicy,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> PolicyScore:
        """Evaluate one policy, quarantining it if the simulation raises.

        A raising policy must not abort the whole run (fail-safe portfolio
        evaluation): it is charged the wall time it burned, scored
        :data:`QUARANTINE_SCORE`, and demoted to Poor at set-rebuild time.

        Timing brackets the ``evaluate`` call and nothing else — the
        charged ``c_i`` must be the simulation's own cost, not the
        selector's set-rebuild bookkeeping — and goes through
        :meth:`CostClock.stamp`, so virtual clocks never touch the real
        clock at all.

        With shared runs on, a member an earlier run of this round
        already answered is scored from the memo; on a miss, every member
        still unscored this round rides along with *policy* (see
        :meth:`OnlineSimulator.evaluate_prepared`), and the answered
        riders fill the memo.
        """
        memo = self._memo
        if memo is not None:
            rider, outcome = memo.get(policy.name, (None, None))
            if rider is policy:
                # Charged like a fresh evaluation under the paper's
                # virtual clock (which ignores wall time), so shared runs
                # never perturb the budget trajectory; free on a wall
                # clock, where the leader paid for the shared run.
                self.memo_hits += 1
                self.consecutive_quarantines = 0
                return PolicyScore(
                    policy=policy,
                    score=outcome.score,
                    cost=self.cost_clock.measure(0.0, outcome.steps),
                    outcome=outcome,
                )
        profiler = self.profiler
        span_begin = _time.perf_counter() if profiler is not None else 0.0
        begin = self.cost_clock.stamp()
        prep = self._prep
        shared: list = []
        try:
            if prep is None:
                outcome = self.simulator.evaluate(
                    queue, waits, runtimes, profile, policy
                )
            elif memo is None:
                outcome = self.simulator.evaluate_prepared(prep, policy)
            else:
                # Every member still unscored this round rides along.
                riders = [
                    p for p in (*self.smart, *self.stale, *self.poor)
                    if p.name not in memo
                ]
                outcome = self.simulator.evaluate_prepared(
                    prep, policy, riders, shared
                )
        except Exception:
            wall = self.cost_clock.stamp() - begin
            if profiler is not None:
                profiler.add("selector.evaluate", _time.perf_counter() - span_begin)
            self.quarantined += 1
            self.consecutive_quarantines += 1
            return PolicyScore(
                policy=policy,
                score=QUARANTINE_SCORE,
                cost=self.cost_clock.measure(wall, 0),
                outcome=None,
                quarantined=True,
            )
        wall = self.cost_clock.stamp() - begin
        if profiler is not None:
            profiler.add("selector.evaluate", _time.perf_counter() - span_begin)
        self.consecutive_quarantines = 0
        for rider, rider_outcome in shared:
            memo[rider.name] = (rider, rider_outcome)
        cost = self.cost_clock.measure(wall, outcome.steps)
        return PolicyScore(policy=policy, score=outcome.score, cost=cost, outcome=outcome)

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
        With a parallel ``evaluator``, phases 2a-2c run in concurrent
        waves instead (same visit order, Δ charged in aggregate
        worker-seconds) and the score table is merged with a
        deterministic total order.
        """
        select_begin = _time.perf_counter() if self.profiler is not None else 0.0
        delta = self.time_constraint
        hits_before = self.memo_hits
        self._begin_round(queue, waits, runtimes, profile)
        d1, d2, d3 = split_budget(
            delta, len(self.smart), len(self.stale), len(self.poor)
        )
        if self.evaluator is not None:
            simulated, spent = self._phases_parallel(
                d1, d2, d3, queue, waits, runtimes, profile
            )
            # Deterministic total order — (score desc, fixed policy index)
            # — so the merge cannot depend on worker completion order.
            simulated.sort(
                key=lambda ps: (-ps.score, self._policy_index[ps.policy.name])
            )
        else:
            simulated, spent = self._phases_serial(
                d1, d2, d3, queue, waits, runtimes, profile
            )
            # Stable sort on score alone: preserves simulation order among
            # ties, bit-identical to the historical serial selector.
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

    def _phases_serial(
        self,
        d1: float,
        d2: float,
        d3: float,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> tuple[list[PolicyScore], float]:
        """Phases 2a-2c, one policy at a time (the paper's loop)."""
        simulated: list[PolicyScore] = []
        spent = 0.0

        def run(policy: CombinedPolicy) -> float:
            ps = self._simulate(policy, queue, waits, runtimes, profile)
            simulated.append(ps)
            return ps.cost

        # Phase 2a: Smart, in order, while its quota lasts.
        while self.smart and d1 > 0:
            cost = run(self.smart.pop(0))
            d1 -= cost
            spent += cost

        # Phase 2b: Stale, in staleness order, while its quota lasts.
        while self.stale and d2 > 0:
            cost = run(self.stale.pop(0))
            d2 -= cost
            spent += cost

        # Phase 2c: Poor, random picks, funded by its quota plus leftovers.
        d3 = d3 + d2 + d1
        while self.poor and d3 > 0:
            idx = int(self.rng.integers(len(self.poor)))
            cost = run(self.poor.pop(idx))
            d3 -= cost
            spent += cost

        return simulated, spent

    def _phases_parallel(
        self,
        d1: float,
        d2: float,
        d3: float,
        queue: Sequence[Job],
        waits: Sequence[float],
        runtimes: Sequence[float],
        profile: CloudProfile,
    ) -> tuple[list[PolicyScore], float]:
        """Phases 2a-2c in concurrent waves on the worker pool.

        Visit order matches the serial loop (Smart in order, Stale in
        staleness order, Poor by the same seeded random picks).  Each
        wave ships at most ``evaluator.workers`` policies; the wave's
        summed per-policy costs are charged against the phase quota, so Δ
        is a budget of aggregate worker-seconds (documented deviation).
        """
        evaluator = self.evaluator
        assert evaluator is not None
        simulated: list[PolicyScore] = []
        spent = 0.0

        def run_phase(take_next: "Callable[[], CombinedPolicy | None]",
                      budget: float) -> float:
            nonlocal spent
            while budget > 0:
                wave: list[tuple[int, CombinedPolicy]] = []
                for _ in range(evaluator.workers):
                    policy = take_next()
                    if policy is None:
                        break
                    wave.append((self._policy_index[policy.name], policy))
                if not wave:
                    break
                by_index = {index: policy for index, policy in wave}
                wave_begin = (
                    _time.perf_counter() if self.profiler is not None else 0.0
                )
                records = evaluator.evaluate_wave(
                    wave, queue, waits, runtimes, profile
                )
                if self.profiler is not None:
                    # Parent-side elapsed wave time, plus the per-policy
                    # walls measured inside the workers merged back in.
                    self.profiler.add(
                        "selector.wave", _time.perf_counter() - wave_begin
                    )
                    for rec in records:
                        self.profiler.add("selector.evaluate.worker", rec.wall)
                for rec in records:  # submission order, like the serial loop
                    policy = by_index[rec.index]
                    if rec.error is not None:
                        self.quarantined += 1
                        self.consecutive_quarantines += 1
                        ps = PolicyScore(
                            policy=policy,
                            score=QUARANTINE_SCORE,
                            cost=self.cost_clock.measure(rec.wall, 0),
                            outcome=None,
                            quarantined=True,
                        )
                    else:
                        self.consecutive_quarantines = 0
                        assert rec.outcome is not None
                        ps = PolicyScore(
                            policy=policy,
                            score=rec.outcome.score,
                            cost=self.cost_clock.measure(rec.wall, rec.outcome.steps),
                            outcome=rec.outcome,
                        )
                    simulated.append(ps)
                    budget -= ps.cost
                    spent += ps.cost
            return budget

        d1 = run_phase(lambda: self.smart.pop(0) if self.smart else None, d1)
        d2 = run_phase(lambda: self.stale.pop(0) if self.stale else None, d2)

        def pick_poor() -> CombinedPolicy | None:
            if not self.poor:
                return None
            return self.poor.pop(int(self.rng.integers(len(self.poor))))

        run_phase(pick_poor, d3 + d2 + d1)
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
