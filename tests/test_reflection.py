"""Unit tests for the reflection store."""

import pytest

from repro.cloud.profile import CloudProfile
from repro.core.reflection import ReflectionStore
from repro.core.scheduler import PortfolioScheduler
from repro.policies.combined import build_portfolio
from repro.workload.job import Job


def store_with_history() -> ReflectionStore:
    s = ReflectionStore()
    for winner in ("B", "A", "B"):
        s.record_win(winner)
    return s


class TestRecording:
    def test_applied_must_be_among_scores(self, monkeypatch):
        # Every evaluation quarantined: the winner is a fallback nobody
        # scored, so the scheduler records no win.
        scheduler = PortfolioScheduler(portfolio=build_portfolio()[:6], seed=0)

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(scheduler.simulator, "evaluate_prepared", crash)
        queue = [Job(job_id=i, submit_time=0.0, runtime=60.0, procs=1)
                 for i in range(3)]
        profile = CloudProfile(now=0.0, vms=(), max_vms=256, boot_delay=120.0,
                               billing_period=3_600.0)
        policy = scheduler.active_policy(
            0, queue, [0.0] * 3, [60.0] * 3, lambda: profile
        )
        assert policy is not None
        assert scheduler.quarantined > 0
        assert scheduler.reflection.applied_counts() == {}


class TestInvocationRatios:
    def test_applied_counts(self):
        assert store_with_history().applied_counts() == {"B": 2, "A": 1}

    def test_ratio_sums_to_one(self):
        ratios = store_with_history().invocation_ratio()
        assert sum(ratios.values()) == pytest.approx(1.0)
        assert ratios["B"] == pytest.approx(2 / 3)

    def test_empty_ratio(self):
        assert ReflectionStore().invocation_ratio() == {}

    def test_grouped_ratio(self):
        s = ReflectionStore()
        for winner in ("ODA-FCFS-BestFit", "ODA-LXF-BestFit", "ODB-LXF-BestFit"):
            s.record_win(winner)
        assert s.grouped_ratio(1) == {"ODA": pytest.approx(2 / 3), "ODB": pytest.approx(1 / 3)}
        g2 = s.grouped_ratio(2)
        assert g2["ODA-FCFS"] == pytest.approx(1 / 3)

    def test_grouped_ratio_validation(self):
        with pytest.raises(ValueError):
            ReflectionStore().grouped_ratio(0)
