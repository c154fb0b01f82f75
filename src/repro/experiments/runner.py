"""High-level experiment helpers shared by the figure drivers: one run
of a constituent policy, or of the portfolio scheduler.  The per-cluster
grid of Figs. 4/7/8 is :func:`repro.experiments.compare.compare_trace`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig, ExperimentResult
from repro.policies.combined import CombinedPolicy
from repro.predict.base import RuntimePredictor
from repro.workload.job import Job

__all__ = ["run_fixed", "run_portfolio"]


def run_fixed(
    jobs: Sequence[Job],
    policy: CombinedPolicy,
    predictor: RuntimePredictor | None = None,
    config: EngineConfig | None = None,
) -> ExperimentResult:
    """Run one constituent policy alone (a paper baseline)."""
    engine = ClusterEngine(jobs, FixedScheduler(policy), predictor, config)
    return engine.run()


def run_portfolio(
    jobs: Sequence[Job],
    predictor: RuntimePredictor | None = None,
    config: EngineConfig | None = None,
    **scheduler_kwargs: object,
) -> tuple[ExperimentResult, PortfolioScheduler]:
    """Run the portfolio scheduler; returns (result, scheduler) so callers
    can inspect the reflection store (Fig. 5) and invocation counts (Fig. 9d).
    """
    scheduler = PortfolioScheduler(**scheduler_kwargs)  # type: ignore[arg-type]
    engine = ClusterEngine(jobs, scheduler, predictor, config)
    return engine.run(), scheduler
