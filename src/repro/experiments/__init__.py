"""Experiment harness: the trace-replay cluster engine plus one driver per
paper table/figure (see DESIGN.md §4 for the index).
"""

from repro.experiments.engine import ClusterEngine, EngineConfig, ExperimentResult
from repro.experiments.runner import run_fixed, run_portfolio

__all__ = [
    "ClusterEngine",
    "EngineConfig",
    "ExperimentResult",
    "run_fixed",
    "run_portfolio",
]
