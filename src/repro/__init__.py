"""repro — portfolio scheduling for long-term execution of scientific
workloads in IaaS clouds.

A from-scratch Python reproduction of Deng, Song, Ren & Iosup (SC'13):
a portfolio scheduler that selects, by online simulation under a time
constraint, the best of 60 provisioning/allocation policies for the
current workload on EC2-style cloud resources.

Quickstart
----------
>>> from repro import generate_trace, KTH_SP2, run_portfolio
>>> jobs = generate_trace(KTH_SP2, duration=6 * 3600, seed=42)
>>> result, scheduler = run_portfolio(jobs)
>>> result.metrics.avg_bounded_slowdown  # doctest: +SKIP
1.7

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.cloud import CloudProfile, CloudProvider, ProviderConfig, VM, VMState
from repro.cloud.failures import FailureModel
from repro.core import (
    FixedScheduler,
    OnlineSimulator,
    PortfolioScheduler,
    ReflectionStore,
    Scheduler,
    TimeConstrainedSelector,
    UtilityFunction,
)
from repro.durability import (
    DurableRunner,
    RunInterrupted,
    SnapshotConfig,
    SnapshotStore,
)
from repro.experiments import (
    ClusterEngine,
    EngineConfig,
    ExperimentResult,
    run_fixed,
    run_portfolio,
    run_provisioning_clusters,
)
from repro.metrics import MetricsCollector, SummaryMetrics, bounded_slowdown
from repro.metrics.timeseries import TimeseriesRecorder
from repro.policies import CombinedPolicy, build_portfolio, policy_by_name
from repro.policies.backfilling import BackfillingPolicy, build_backfilling_portfolio
from repro.predict import KnnPredictor, OraclePredictor, UserEstimatePredictor
from repro.resilience import (
    CheckpointPolicy,
    FaultModel,
    ResilienceStats,
    RetryPolicy,
)
from repro.workload.lublin import LublinModel, generate_lublin_trace
from repro.workload.workflows import (
    Workflow,
    bag_of_tasks,
    fork_join_workflow,
    merge_workflows,
    random_layered_workflow,
)
from repro.sim import VirtualCostClock, WallCostClock
from repro.workload import (
    DAS2_FS0,
    KTH_SP2,
    LPC_EGEE,
    SDSC_SP2,
    TRACES,
    Job,
    TraceSpec,
    clean_jobs,
    generate_trace,
    parse_swf_file,
    summarize_trace,
)

__version__ = "1.0.0"

__all__ = [
    "BackfillingPolicy",
    "CheckpointPolicy",
    "CloudProfile",
    "CloudProvider",
    "ClusterEngine",
    "CombinedPolicy",
    "DAS2_FS0",
    "DurableRunner",
    "EngineConfig",
    "ExperimentResult",
    "FailureModel",
    "FaultModel",
    "FixedScheduler",
    "Job",
    "KTH_SP2",
    "KnnPredictor",
    "LPC_EGEE",
    "LublinModel",
    "MetricsCollector",
    "OnlineSimulator",
    "OraclePredictor",
    "PortfolioScheduler",
    "ProviderConfig",
    "ReflectionStore",
    "ResilienceStats",
    "RetryPolicy",
    "RunInterrupted",
    "SDSC_SP2",
    "Scheduler",
    "SnapshotConfig",
    "SnapshotStore",
    "SummaryMetrics",
    "TRACES",
    "TimeConstrainedSelector",
    "TimeseriesRecorder",
    "TraceSpec",
    "UserEstimatePredictor",
    "UtilityFunction",
    "VM",
    "VMState",
    "VirtualCostClock",
    "WallCostClock",
    "Workflow",
    "bag_of_tasks",
    "bounded_slowdown",
    "build_backfilling_portfolio",
    "build_portfolio",
    "clean_jobs",
    "fork_join_workflow",
    "generate_lublin_trace",
    "generate_trace",
    "merge_workflows",
    "parse_swf_file",
    "policy_by_name",
    "random_layered_workflow",
    "run_fixed",
    "run_portfolio",
    "run_provisioning_clusters",
    "summarize_trace",
    "__version__",
]
