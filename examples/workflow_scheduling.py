"""Schedule scientific workflows with the portfolio scheduler.

The paper's future work adapts portfolio scheduling to workflows; this
example runs that extension: a stream of fork-join pipelines and
bags-of-tasks on the simulated cloud, reporting per-workflow makespans
against their critical-path lower bounds.

Run:  python examples/workflow_scheduling.py
"""

from repro.core.scheduler import PortfolioScheduler
from repro.experiments.engine import ClusterEngine
from repro.metrics.report import format_table
from repro.workload.workflows import (
    bag_of_tasks,
    fork_join_workflow,
    merge_workflows,
    random_layered_workflow,
    workflow_makespan,
)


def build_workload():
    """A morning of workflow submissions: pipelines, bags, random DAGs."""
    workflows = []
    next_id = 0
    for i in range(4):
        wf = fork_join_workflow(
            f"pipeline-{i}", submit_time=i * 1_800.0, width=8,
            stage_runtime=400.0, seed=i, first_id=next_id,
        )
        next_id += len(wf.jobs)
        workflows.append(wf)
    for i in range(3):
        wf = bag_of_tasks(
            f"bag-{i}", submit_time=900.0 + i * 2_400.0, n_tasks=20,
            runtime_mean=150.0, seed=10 + i, first_id=next_id,
        )
        next_id += len(wf.jobs)
        workflows.append(wf)
    for i in range(2):
        wf = random_layered_workflow(
            f"dag-{i}", submit_time=1_200.0 + i * 3_600.0, layers=4, width=5,
            runtime_mean=250.0, seed=20 + i, first_id=next_id,
        )
        next_id += len(wf.jobs)
        workflows.append(wf)
    return workflows


def main() -> None:
    workflows = build_workload()
    jobs, deps = merge_workflows(workflows)
    print(f"{len(workflows)} workflows, {len(jobs)} tasks total\n")

    scheduler = PortfolioScheduler(seed=7)
    result = ClusterEngine(jobs, scheduler, dependencies=deps).run()
    finish = {r.job_id: r.finish_time for r in result.records}

    rows = []
    for wf in workflows:
        makespan = workflow_makespan(wf, finish)
        bound = wf.critical_path_seconds()
        rows.append(
            {
                "workflow": wf.name,
                "tasks": len(wf.jobs),
                "makespan[s]": round(makespan, 0),
                "critical path[s]": round(bound, 0),
                "stretch": round(makespan / bound, 2),
            }
        )
    print(format_table(rows, title="per-workflow makespans"))
    m = result.metrics
    print(f"\ncluster totals: cost {m.charged_hours:.0f} VM-hours, "
          f"task slowdown {m.avg_bounded_slowdown:.2f}, "
          f"utility {result.utility:.2f}")


if __name__ == "__main__":
    main()
