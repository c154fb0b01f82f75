"""Tests for the scheduler frontends."""

import pickle

import numpy as np
import pytest

from repro.cloud.profile import CloudProfile
from repro.cloud.spot import SpotConfig
from repro.core.online_sim import OnlineSimulator
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.policies.combined import build_portfolio, policy_by_name
from repro.workload.job import Job
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0


def profile(now=0.0) -> CloudProfile:
    return CloudProfile(now=now, vms=(), max_vms=256, boot_delay=120.0,
                        billing_period=3_600.0)


def capture(now=0.0, log=None):
    """The ``capture_profile`` argument of ``active_policy``; each call
    appends *now* to *log* when one is given."""
    def capture_profile():
        if log is not None:
            log.append(now)
        return profile(now)
    return capture_profile


def jobs(n=3) -> list[Job]:
    return [Job(job_id=i, submit_time=0.0, runtime=60.0, procs=1) for i in range(n)]


class TestFixedScheduler:
    def test_always_returns_its_policy(self):
        p = policy_by_name("ODX-LXF-WorstFit")
        s = FixedScheduler(p)
        captured = []
        for tick in range(5):
            assert s.active_policy(tick, jobs(), [0.0] * 3, [60.0] * 3,
                                   capture(log=captured)) is p
        assert captured == []  # never reads the cloud

    def test_describe(self):
        assert FixedScheduler(build_portfolio()[0]).describe() == "ODA-FCFS-BestFit"


class TestPortfolioScheduler:
    def make(self, **kw):
        defaults = dict(seed=0)
        defaults.update(kw)
        return PortfolioScheduler(**defaults)

    def test_selects_on_first_call(self):
        s = self.make()
        q = jobs()
        p = s.active_policy(0, q, [0.0] * 3, [60.0] * 3, capture())
        assert p is not None
        assert s.invocations == 1

    def test_respects_selection_period(self):
        s = self.make(selection_period=4)
        q = jobs()
        captured = []
        for tick in range(8):
            s.active_policy(tick, q, [0.0] * 3, [60.0] * 3,
                            capture(now=tick * 20.0, log=captured))
        # selections at ticks 0 and 4 only, each capturing the cloud once
        assert s.invocations == 2
        assert captured == [0.0, 80.0]

    def test_period_one_selects_every_tick(self):
        s = self.make(selection_period=1)
        q = jobs()
        for tick in range(5):
            s.active_policy(tick, q, [0.0] * 3, [60.0] * 3, capture(now=tick * 20.0))
        assert s.invocations == 5

    def test_empty_queue_keeps_active_policy(self):
        s = self.make()
        q = jobs()
        captured = []
        first = s.active_policy(0, q, [0.0] * 3, [60.0] * 3, capture(log=captured))
        second = s.active_policy(1, [], [], [], capture(now=20.0, log=captured))
        assert second is first
        assert s.invocations == 1
        assert captured == [0.0]

    def test_reflection_records_applied_policy(self):
        s = self.make()
        s.active_policy(0, jobs(), [0.0] * 3, [60.0] * 3, capture())
        assert len(s.reflection.applied_counts()) == 1

    def test_reflection_does_not_grow_with_rounds(self):
        """The store keeps win counts, not one record per scored policy."""
        s = self.make()
        q = jobs()

        def run_until(invocations):
            while s.invocations < invocations:
                s.active_policy(s.invocations, q, [0.0] * 3, [60.0] * 3,
                                capture())

        run_until(20)
        early = len(pickle.dumps(s.reflection))
        run_until(200)
        assert len(pickle.dumps(s.reflection)) - early < 1_024

    def test_custom_portfolio(self):
        members = build_portfolio()[:6]
        s = self.make(portfolio=members)
        p = s.active_policy(0, jobs(), [0.0] * 3, [60.0] * 3, capture())
        assert p in members

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(selection_period=0)

    def test_describe_mentions_config(self):
        text = self.make(selection_period=2).describe()
        assert "period=2" in text and "n=60" in text


class CrashingSimulator(OnlineSimulator):
    """Stand-in online simulator whose every evaluation raises."""

    def evaluate_prepared(self, prep, policy, riders=(), shared=None):
        raise RuntimeError("boom")


class TestFailover:
    def make(self, **kw):
        defaults = dict(seed=0, portfolio=build_portfolio()[:6])
        defaults.update(kw)
        s = PortfolioScheduler(**defaults)
        s.selector.simulator = CrashingSimulator()
        return s

    def test_no_limit_never_fails_over(self):
        s = self.make()
        for tick in range(5):
            p = s.active_policy(tick, jobs(), [0.0] * 3, [60.0] * 3,
                                capture(now=tick * 20.0))
            assert p is not None
        assert not s.failed_over
        assert s.quarantined > 0

    def test_fails_over_at_limit(self):
        s = self.make(quarantine_limit=3)
        p = s.active_policy(0, jobs(), [0.0] * 3, [60.0] * 3, capture())
        # first invocation simulates >= 3 policies, all crash
        assert s.failed_over
        assert p is s.safe_policy

    def test_failover_is_permanent_and_stops_selecting(self):
        s = self.make(quarantine_limit=1)
        s.active_policy(0, jobs(), [0.0] * 3, [60.0] * 3, capture())
        assert s.failed_over
        before = s.invocations
        p = s.active_policy(5, jobs(), [0.0] * 3, [60.0] * 3, capture(now=100.0))
        assert p is s.safe_policy
        assert s.invocations == before  # Algorithm 1 no longer runs

    def test_safe_policy_by_name(self):
        members = build_portfolio()[:6]
        s = self.make(portfolio=members, quarantine_limit=1,
                      safe_policy=members[2].name)
        s.active_policy(0, jobs(), [0.0] * 3, [60.0] * 3, capture())
        assert s.safe_policy is members[2]

    def test_unknown_safe_policy_rejected(self):
        with pytest.raises(KeyError):
            PortfolioScheduler(
                portfolio=build_portfolio()[:3], safe_policy="NoSuchPolicy"
            )

    def test_invalid_quarantine_limit(self):
        with pytest.raises(ValueError):
            PortfolioScheduler(quarantine_limit=0)

    def test_default_safe_policy_is_first_member(self):
        members = build_portfolio()[:4]
        s = PortfolioScheduler(portfolio=members)
        assert s.safe_policy is members[0]


class TestLazyProfile:
    """In an engine run, only a due portfolio round snapshots the cloud."""

    def test_spot_fixed_run_never_captures(self, monkeypatch):
        def refuse(cls, provider, now):
            raise AssertionError("CloudProfile.capture called")

        monkeypatch.setattr(CloudProfile, "capture", classmethod(refuse))
        engine = ClusterEngine(
            generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29),
            FixedScheduler(policy_by_name("ODA-UNICEF-FirstFit")),
            config=EngineConfig(spot=SpotConfig(seed=3)),
        )
        result = engine.run()
        assert result.unfinished_jobs == 0
        assert result.audit is not None and result.audit.ok
        assert result.spot is not None and result.spot.spot_leases > 0

    def test_portfolio_run_captures_once_per_due_tick(self, monkeypatch):
        captured = []
        original = CloudProfile.capture.__func__

        def counting(cls, provider, now, *args, **kwargs):
            captured.append(now)
            return original(cls, provider, now, *args, **kwargs)

        monkeypatch.setattr(CloudProfile, "capture", classmethod(counting))
        scheduler = PortfolioScheduler(
            portfolio=build_portfolio()[:6], selection_period=4, seed=0,
        )
        engine = ClusterEngine(
            generate_trace(DAS2_FS0, duration=2 * HOUR, seed=29), scheduler
        )
        result = engine.run()
        # Every round sees a non-empty queue, so rounds 0, 4, 8, ... are due.
        due = -(-result.ticks // 4)
        assert result.ticks > due > 0
        assert scheduler.invocations == due
        assert len(captured) == len(set(captured)) == due
