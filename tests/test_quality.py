"""Tests for selection-quality (regret) diagnostics."""

import numpy as np
import pytest

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator
from repro.core.quality import (
    DecisionProblem,
    SelectionQuality,
    measure_selection_quality,
)
from repro.core.selection import TimeConstrainedSelector
from repro.policies.combined import build_portfolio
from repro.workload.job import Job


def profile(now=0.0):
    return CloudProfile(now=now, vms=(), max_vms=256, boot_delay=120.0,
                        billing_period=3_600.0)


def problem(n_jobs=8, runtime=120.0, procs=1, now=0.0):
    queue = tuple(
        Job(job_id=i, submit_time=0.0, runtime=runtime, procs=procs)
        for i in range(n_jobs)
    )
    return DecisionProblem(
        queue=queue,
        waits=(30.0,) * n_jobs,
        runtimes=(runtime,) * n_jobs,
        profile=profile(now),
    )


def selector(delta=0.2):
    return TimeConstrainedSelector(
        build_portfolio(),
        simulator=OnlineSimulator(),
        time_constraint=delta,
        rng=np.random.default_rng(0),
    )


class TestDecisionProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            DecisionProblem(queue=(), waits=(), runtimes=(), profile=profile())
        with pytest.raises(ValueError, match="parallel"):
            DecisionProblem(
                queue=(Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1),),
                waits=(), runtimes=(1.0,), profile=profile(),
            )


class TestQualityMeasure:
    def test_exhaustive_budget_zero_regret(self):
        """With Δ big enough for all 60 policies, the selector IS the
        exhaustive argmax: zero regret, 100% hits."""
        q = measure_selection_quality(
            selector(delta=10.0), [problem()], build_portfolio()
        )
        assert q.hit_rate == 1.0
        assert q.mean_regret == pytest.approx(0.0, abs=1e-9)
        assert q.mean_relative_score == pytest.approx(1.0)

    def test_constrained_budget_bounded_regret(self):
        """At the paper's Δ=200 ms (20 policies/invocation) over a stream
        of problems, the selector converges: late decisions score near the
        best."""
        sel = selector(delta=0.2)
        problems = [problem(n_jobs=4 + (i % 5), now=i * 20.0) for i in range(10)]
        q = measure_selection_quality(sel, problems, build_portfolio())
        assert q.problems == 10
        assert 0.0 <= q.hit_rate <= 1.0
        assert q.mean_relative_score > 0.7

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            measure_selection_quality(selector(), [], build_portfolio())

    def test_row_shape(self):
        q = SelectionQuality(5, 3, 0.1, 0.5, 0.9)
        assert q.hit_rate == 0.6
        assert set(q.row()) == {
            "problems", "hit rate", "mean regret", "max regret", "chosen/best",
        }
