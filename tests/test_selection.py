"""Tests for Algorithm 1: time-constrained portfolio simulation.

Covers the quota split, the phase order, the set rebuild, the paper's
stabilisation property, and fallback behaviour — using a stub simulator
with controllable scores/costs so every branch is exercised
deterministically.
"""

import copy

import numpy as np
import pytest

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator, SimOutcome
from repro.core.selection import (
    POLICY_COST,
    QUARANTINE_SCORE,
    TimeConstrainedSelector,
    split_budget,
)
from repro.policies.combined import build_portfolio
from repro.workload.job import Job


def profile(now=0.0) -> CloudProfile:
    return CloudProfile(now=now, vms=(), max_vms=256, boot_delay=120.0,
                        billing_period=3_600.0)


class StubSimulator(OnlineSimulator):
    """Returns scripted scores; counts evaluations; answers no riders."""

    def __init__(self, score_fn=None):
        super().__init__()
        self.score_fn = score_fn or (lambda name: 50.0)
        self.evaluated: list[str] = []

    def evaluate_prepared(self, prep, policy, riders=(), shared=None):
        self.evaluated.append(policy.name)
        s = self.score_fn(policy.name)
        return SimOutcome(score=s, bsd=1.0, rj_seconds=1.0, rv_seconds=1.0,
                          steps=1, end_time=0.0)


def make_selector(n=None, score_fn=None, delta=0.2, lam=0.6, seed=0):
    portfolio = build_portfolio()
    if n is not None:
        portfolio = portfolio[:n]
    sim = StubSimulator(score_fn)
    sel = TimeConstrainedSelector(
        portfolio,
        simulator=sim,
        time_constraint=delta,
        lam=lam,
        rng=np.random.default_rng(seed),
    )
    return sel, sim


def select(sel):
    return sel.select([], [], [], profile())


class TestBudgeting:
    def test_first_invocation_simulates_budget_worth(self):
        # delta/POLICY_COST = 20 simulations per invocation
        sel, sim = make_selector()
        out = select(sel)
        assert out.n_simulated == 20
        assert len(sim.evaluated) == 20
        assert out.spent == pytest.approx(0.2)

    def test_budget_larger_than_portfolio_simulates_all(self):
        sel, sim = make_selector(delta=10.0)
        out = select(sel)
        assert out.n_simulated == 60

    def test_tiny_budget_still_simulates_one(self):
        sel, _ = make_selector(delta=0.001)
        out = select(sel)
        assert out.n_simulated == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeConstrainedSelector([], time_constraint=0.2)
        with pytest.raises(ValueError):
            TimeConstrainedSelector(build_portfolio(), time_constraint=0.0)
        with pytest.raises(ValueError):
            TimeConstrainedSelector(build_portfolio(), lam=0.0)


class TestPhases:
    def test_first_invocation_all_smart(self):
        sel, _ = make_selector()
        assert sel.set_sizes() == (60, 0, 0)

    def test_rebuild_after_first_invocation(self):
        sel, _ = make_selector(lam=0.6)
        select(sel)
        smart, stale, poor = sel.set_sizes()
        # 20 simulated: top 12 smart, 8 poor; 40 unsimulated became stale
        assert smart == 12
        assert stale == 40
        assert poor == 8
        assert smart + stale + poor == 60

    def test_smart_simulated_before_stale_before_poor(self):
        sel, sim = make_selector()
        select(sel)
        first_smart = [p.name for p in sel.smart]
        sim.evaluated.clear()
        select(sel)
        # Smart only gets its proportional quota (‖Smart‖/N·Δ), so the
        # invocation starts with a *prefix* of Smart, in order.
        quota_sims = sim.evaluated[:4]
        assert quota_sims == first_smart[: len(quota_sims)]
        # and Smart policies that missed their quota aged into Stale
        aged = set(first_smart) - set(sim.evaluated)
        assert aged <= {p.name for p in sel.stale} | {p.name for p in sel.smart} | {
            p.name for p in sel.poor
        }

    def test_best_policy_returned(self):
        scores = {"ODB-LXF-WorstFit": 99.0}
        sel, _ = make_selector(score_fn=lambda n: scores.get(n, 10.0), delta=10.0)
        out = select(sel)
        assert out.best.name == "ODB-LXF-WorstFit"

    def test_stale_policies_eventually_simulated(self):
        """Everything unsimulated rotates through Stale and gets its turn."""
        sel, sim = make_selector()
        seen: set[str] = set()
        for _ in range(12):
            select(sel)
            seen.update(sim.evaluated)
        assert len(seen) == 60

    def test_poor_policies_keep_getting_sampled(self):
        sel, sim = make_selector(score_fn=lambda n: 1.0 if "ODA" in n else 90.0)
        for _ in range(6):
            select(sel)
        sim.evaluated.clear()
        counts = 0
        for _ in range(30):
            select(sel)
            counts += sum(1 for name in sim.evaluated if "ODA" in name)
            sim.evaluated.clear()
        assert counts > 0  # random resurrection from Poor

    def test_invocation_counters(self):
        sel, _ = make_selector()
        select(sel)
        select(sel)
        assert sel.invocations == 2
        # ~Δ/POLICY_COST per invocation; float residue in the quota split
        # may buy one extra simulation, which the paper's algorithm permits
        assert 40 <= sel.total_simulated <= 42


class TestStabilisation:
    def test_set_sizes_stabilise_at_paper_values(self):
        """‖Smart‖→λK, ‖Stale‖→λ(N−K), ‖Poor‖→(1−λ)N (paper §4)."""
        n, k, lam = 60, 20, 0.6
        sel, _ = make_selector(delta=0.2, lam=lam)
        for _ in range(50):
            select(sel)
        smart, stale, poor = sel.set_sizes()
        assert smart + stale + poor == n
        assert smart == pytest.approx(lam * k, abs=3)
        assert stale == pytest.approx(lam * (n - k), abs=6)
        assert poor == pytest.approx((1 - lam) * n, abs=6)

    def test_conservation_of_policies(self):
        sel, _ = make_selector()
        for _ in range(10):
            select(sel)
            assert sum(sel.set_sizes()) == 60
            names = [p.name for p in sel.smart + sel.stale + sel.poor]
            assert len(set(names)) == 60


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a, _ = make_selector(seed=5)
        b, _ = make_selector(seed=5)
        for _ in range(5):
            assert select(a).best.name == select(b).best.name
        assert [p.name for p in a.smart] == [p.name for p in b.smart]

    def test_round_plan_does_not_depend_on_its_scores(self):
        """Every score costs the same, so which members a round scores,
        in what order, and the Δ it spends are settled by the sets and
        the RNG alone: two copies fed different scores agree on them."""
        sel, _ = make_selector(
            score_fn=lambda name: float(sum(map(ord, name)) % 13), seed=3
        )
        for _ in range(4):
            select(sel)
        a, b = copy.deepcopy(sel), copy.deepcopy(sel)
        a.simulator.score_fn = lambda name: float(len(name) % 7)
        b.simulator.score_fn = lambda name: -float(sum(map(ord, name)) % 11)
        a.simulator.evaluated.clear()
        b.simulator.evaluated.clear()
        out_a, out_b = select(a), select(b)
        assert a.simulator.evaluated == b.simulator.evaluated
        assert len(a.simulator.evaluated) == out_a.n_simulated > 0
        assert out_a.spent == out_b.spent
        assert out_a.best.name != out_b.best.name


class TestSplitBudget:
    def test_proportional_split(self):
        d1, d2, d3 = split_budget(0.6, 1, 1, 1)
        assert d1 == pytest.approx(0.2)
        assert d2 == pytest.approx(0.2)
        assert d3 == pytest.approx(0.2)
        assert d1 + d2 + d3 == 0.6  # exact: d3 is the remainder

    def test_empty_sets_get_zero(self):
        d1, d2, d3 = split_budget(0.2, 60, 0, 0)
        assert d1 == 0.2
        assert d2 == 0.0
        assert d3 == 0.0

    def test_tranches_never_negative(self):
        """Regression: with Poor empty, float residue in d1+d2 could exceed
        delta, driving the Poor tranche an ulp below zero."""
        rng = np.random.default_rng(42)
        for _ in range(2_000):
            delta = float(rng.uniform(1e-6, 10.0))
            n1, n2, n3 = (int(x) for x in rng.integers(0, 200, size=3))
            if n1 + n2 + n3 == 0:
                n1 = 1
            d1, d2, d3 = split_budget(delta, n1, n2, n3)
            assert d1 >= 0.0 and d2 >= 0.0 and d3 >= 0.0
            assert d1 + d2 + d3 == pytest.approx(delta, rel=1e-12)

    def test_known_residue_case(self):
        # 0.1 + 0.2 > 0.3 in binary floats; the unclamped remainder
        # delta - (d1 + d2) would be negative here.
        delta = 0.3
        d1, d2, d3 = split_budget(delta, 1, 2, 0)
        assert d3 >= 0.0


class FlakySimulator(StubSimulator):
    """Raises for policies whose name matches ``fail_when``."""

    def __init__(self, fail_when, score_fn=None):
        super().__init__(score_fn)
        self.fail_when = fail_when

    def evaluate_prepared(self, prep, policy, riders=(), shared=None):
        if self.fail_when(policy.name):
            self.evaluated.append(policy.name)
            raise RuntimeError(f"simulated crash in {policy.name}")
        return super().evaluate_prepared(prep, policy, riders, shared)


def make_flaky_selector(fail_when, n=None, score_fn=None, delta=0.2):
    portfolio = build_portfolio()
    if n is not None:
        portfolio = portfolio[:n]
    sim = FlakySimulator(fail_when, score_fn)
    sel = TimeConstrainedSelector(
        portfolio,
        simulator=sim,
        time_constraint=delta,
        rng=np.random.default_rng(0),
    )
    return sel, sim


class TestQuarantine:
    def test_raising_policy_is_quarantined_not_fatal(self):
        sel, _ = make_flaky_selector(lambda name: "ODA" in name)
        out = select(sel)  # must not raise
        assert out.n_quarantined > 0
        for ps in out.simulated:
            if ps.quarantined:
                assert ps.score == QUARANTINE_SCORE
                assert ps.outcome is None

    def test_quarantined_never_wins(self):
        # The crashing policies would otherwise be the top scorers.
        sel, _ = make_flaky_selector(
            lambda name: "ODA" in name,
            score_fn=lambda name: 99.0 if "ODA" in name else 5.0,
            delta=10.0,
        )
        out = select(sel)
        assert "ODA" not in out.best.name

    def test_quarantined_demoted_to_poor(self):
        sel, _ = make_flaky_selector(lambda name: "ODA" in name, delta=10.0)
        select(sel)
        smart_names = {p.name for p in sel.smart}
        poor_names = {p.name for p in sel.poor}
        assert not any("ODA" in name for name in smart_names)
        n_oda = sum(1 for p in build_portfolio() if "ODA" in p.name)
        assert sum(1 for name in poor_names if "ODA" in name) == n_oda

    def test_quarantine_counters(self):
        sel, _ = make_flaky_selector(lambda name: "ODA" in name, delta=10.0)
        select(sel)
        n_oda = sum(1 for p in build_portfolio() if "ODA" in p.name)
        assert sel.quarantined == n_oda
        # Poor is sampled randomly, so the last evaluation may or may not
        # have been a crasher; the counter just has to be consistent.
        assert sel.consecutive_quarantines >= 0

    def test_consecutive_resets_on_success(self):
        sel, _ = make_flaky_selector(lambda name: True, n=6, delta=10.0)
        select(sel)
        assert sel.consecutive_quarantines == 6
        sel.simulator.fail_when = lambda name: False
        select(sel)
        assert sel.consecutive_quarantines == 0

    def test_all_quarantined_still_returns_a_policy(self):
        sel, _ = make_flaky_selector(lambda name: True, n=4, delta=10.0)
        out = select(sel)
        assert out.best is not None
        assert out.n_quarantined == 4
        assert sum(sel.set_sizes()) == 4


class TestBudgetAccounting:
    """Pin the per-score charge and the exact budget arithmetic."""

    def test_every_score_is_charged_the_papers_10ms(self):
        # No cost argument: Δ = 0.2 s buys exactly 20 of the 60 members.
        sel = TimeConstrainedSelector(
            build_portfolio(),
            simulator=StubSimulator(),
            time_constraint=0.2,
        )
        out = select(sel)
        assert out.n_simulated == 20
        assert out.spent == pytest.approx(0.2)

    def test_exact_count_and_spend_with_virtual_clock(self):
        # Δ = 0.2 s at 10 ms each over 60 policies: exactly 20 simulated
        # (paper §6.5's K = 20), and the spend is exactly 20 costs.
        sel, sim = make_selector(delta=0.2)
        out = select(sel)
        assert out.n_simulated == 20
        assert out.spent == pytest.approx(20 * 0.01)
        assert out.budget == 0.2

    def test_quarantined_policy_still_charged(self):
        sel = TimeConstrainedSelector(
            build_portfolio()[:4],
            simulator=FlakySimulator(lambda name: True),
            time_constraint=10.0,
            rng=np.random.default_rng(0),
        )
        out = select(sel)
        assert out.n_quarantined == 4
        # Crashing simulations burn budget too: 10 ms each.
        assert [ps.cost for ps in out.simulated] == [POLICY_COST] * 4
        assert out.spent == 4 * 0.010


class TestRealSimulatorIntegration:
    def test_selects_a_sensible_policy_for_a_burst(self):
        """With a real online simulator and a burst of short jobs, the
        chosen policy must not be one that scores zero."""
        portfolio = build_portfolio()
        sel = TimeConstrainedSelector(
            portfolio,
            simulator=OnlineSimulator(),
            time_constraint=10.0,  # exhaustive
            rng=np.random.default_rng(0),
        )
        jobs = [Job(job_id=i, submit_time=0.0, runtime=60.0, procs=1) for i in range(20)]
        out = sel.select(jobs, [5.0] * 20, [60.0] * 20, profile(now=100.0))
        assert out.n_simulated == 60
        scores = {ps.policy.name: ps.score for ps in out.simulated}
        assert scores[out.best.name] == max(scores.values())
