"""Tests for workflow (DAG) scheduling."""

import pytest

from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.engine import ClusterEngine
from repro.policies.combined import policy_by_name
from repro.workload.job import Job
from repro.workload.workflows import (
    Workflow,
    bag_of_tasks,
    fork_join_workflow,
    merge_workflows,
    random_layered_workflow,
    workflow_makespan,
)


def run_workflow(wf: Workflow, policy="ODA-FCFS-FirstFit"):
    jobs, deps = merge_workflows([wf])
    engine = ClusterEngine(
        jobs, FixedScheduler(policy_by_name(policy)), dependencies=deps
    )
    return engine.run()


class TestWorkflowModel:
    def test_duplicate_ids_rejected(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            Workflow("w", jobs)

    def test_unknown_parent_rejected(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1)]
        with pytest.raises(ValueError, match="unknown"):
            Workflow("w", jobs, {1: (99,)})

    def test_cycle_rejected(self):
        jobs = [
            Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1),
            Job(job_id=2, submit_time=0.0, runtime=1.0, procs=1),
        ]
        with pytest.raises(ValueError, match="cycle"):
            Workflow("w", jobs, {1: (2,), 2: (1,)})

    def test_critical_path(self):
        wf = fork_join_workflow("f", 0.0, width=3, stage_runtime=100.0, seed=1)
        runtimes = {j.job_id: j.runtime for j in wf.jobs}
        split, merge = wf.jobs[0], wf.jobs[-1]
        longest_mid = max(j.runtime for j in wf.jobs[1:-1])
        expected = runtimes[split.job_id] + longest_mid + runtimes[merge.job_id]
        assert wf.critical_path_seconds() == pytest.approx(expected)

    def test_roots(self):
        wf = fork_join_workflow("f", 0.0, width=2, stage_runtime=10.0)
        assert [j.job_id for j in wf.roots()] == [wf.jobs[0].job_id]

    def test_bag_of_tasks_has_no_edges(self):
        bag = bag_of_tasks("b", 5.0, n_tasks=10, runtime_mean=50.0, seed=2)
        assert bag.dependencies == {}
        assert len(bag.jobs) == 10
        assert all(j.submit_time == 5.0 for j in bag.jobs)

    def test_layered_every_nonroot_has_parent(self):
        wf = random_layered_workflow(
            "l", 0.0, layers=4, width=3, runtime_mean=60.0, seed=3
        )
        first_layer = {j.job_id for j in wf.jobs[:3]}
        for job in wf.jobs:
            if job.job_id not in first_layer:
                assert wf.dependencies.get(job.job_id)

    def test_merge_rejects_id_collisions(self):
        a = bag_of_tasks("a", 0.0, 3, 10.0, first_id=0)
        b = bag_of_tasks("b", 0.0, 3, 10.0, first_id=2)
        with pytest.raises(ValueError, match="two workflows"):
            merge_workflows([a, b])


class TestEngineDependencies:
    def test_fork_join_order_respected(self):
        wf = fork_join_workflow("f", 0.0, width=3, stage_runtime=200.0, seed=4)
        result = run_workflow(wf)
        assert result.unfinished_jobs == 0
        finish = {r.job_id: r.finish_time for r in result.records}
        start = {r.job_id: r.start_time for r in result.records}
        split, merge = wf.jobs[0], wf.jobs[-1]
        for mid in wf.jobs[1:-1]:
            assert start[mid.job_id] >= finish[split.job_id]
        assert start[merge.job_id] >= max(finish[m.job_id] for m in wf.jobs[1:-1])

    def test_makespan_at_least_critical_path(self):
        wf = random_layered_workflow(
            "l", 0.0, layers=3, width=4, runtime_mean=120.0, seed=5
        )
        result = run_workflow(wf)
        finish = {r.job_id: r.finish_time for r in result.records}
        assert workflow_makespan(wf, finish) >= wf.critical_path_seconds()

    def test_waits_measured_from_eligibility(self):
        """A child released hours after submission must not book that time
        as scheduler-caused wait."""
        wf = fork_join_workflow("f", 0.0, width=1, stage_runtime=7_200.0, seed=6)
        result = run_workflow(wf)
        merge = wf.jobs[-1]
        rec = next(r for r in result.records if r.job_id == merge.job_id)
        # wait is boot/tick-scale, not the hours its parents ran
        assert rec.wait < 600.0

    def test_cycle_rejected_by_engine(self):
        jobs = [
            Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1),
            Job(job_id=2, submit_time=0.0, runtime=1.0, procs=1),
        ]
        with pytest.raises(ValueError, match="cycle"):
            ClusterEngine(
                jobs,
                FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")),
                dependencies={1: (2,), 2: (1,)},
            )

    def test_unknown_dependency_ids_rejected(self):
        jobs = [Job(job_id=1, submit_time=0.0, runtime=1.0, procs=1)]
        with pytest.raises(ValueError, match="unknown job"):
            ClusterEngine(
                jobs,
                FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")),
                dependencies={1: (99,)},
            )

    def test_portfolio_schedules_workflow_mix(self):
        workflows = [
            fork_join_workflow("f1", 0.0, width=4, stage_runtime=300.0, seed=7,
                               first_id=0),
            bag_of_tasks("b1", 600.0, n_tasks=8, runtime_mean=120.0, seed=8,
                         first_id=100),
            random_layered_workflow("l1", 1_200.0, layers=3, width=3,
                                    runtime_mean=200.0, seed=9, first_id=200),
        ]
        jobs, deps = merge_workflows(workflows)
        scheduler = PortfolioScheduler(seed=4)
        result = ClusterEngine(jobs, scheduler, dependencies=deps).run()
        assert result.unfinished_jobs == 0
        finish = {r.job_id: r.finish_time for r in result.records}
        for wf in workflows:
            assert workflow_makespan(wf, finish) >= wf.critical_path_seconds() - 1e-6
