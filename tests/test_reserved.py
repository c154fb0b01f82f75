"""Tests for the reserved-instances extension."""

import pytest

from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.core.scheduler import FixedScheduler
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.policies.combined import policy_by_name
from repro.workload.job import Job
from repro.workload.synthetic import LPC_EGEE, generate_trace

HOUR = 3_600.0


class TestProviderReserved:
    def test_lease_reserved_marks_vms(self):
        p = CloudProvider()
        vms = p.lease(3, 0.0, reserved=True)
        assert all(vm.reserved for vm in vms)
        assert p.leased_count() == 3

    def test_reserved_cannot_be_terminated_normally(self):
        p = CloudProvider()
        (vm,) = p.lease(1, 0.0, reserved=True)
        p.boot_complete(vm, 120.0)
        with pytest.raises(ValueError, match="reserved"):
            p.terminate(vm, 500.0)

    def test_terminate_all_skips_reserved(self):
        p = CloudProvider()
        p.lease(2, 0.0, reserved=True)
        p.lease(2, 0.0)
        for vm in p.vms():
            p.boot_complete(vm, 120.0)
        p.terminate_all(500.0)
        assert p.leased_count() == 2
        assert all(vm.reserved for vm in p.vms())

    def test_finalize_reserved_flat_rate(self):
        p = CloudProvider()
        vms = p.lease(2, 0.0, reserved=True)
        for vm in vms:
            p.boot_complete(vm, 120.0)
        charged = p.finalize_reserved(10 * HOUR)
        # 2 VMs x 10 h x 0.4 — no hour rounding for commitments
        assert charged == pytest.approx(2 * 10 * HOUR * 0.4)
        assert p.leased_count() == 0


class TestEngineReserved:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(reserved_vms=-1)
        with pytest.raises(ValueError):
            EngineConfig(reserved_vms=500)  # exceeds the 256 cap
        with pytest.raises(ValueError):
            EngineConfig(reserved_vms=1, reserved_discount=0.0)

    def test_reserved_vms_serve_jobs_without_new_leases(self):
        """With enough reserved capacity and ODB provisioning, no
        on-demand VM is ever leased; cost is the flat reserved bill."""
        jobs = [Job(job_id=i, submit_time=i * 600.0, runtime=120.0, procs=1)
                for i in range(5)]
        config = EngineConfig(reserved_vms=4, reserved_discount=0.4)
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODB-FCFS-FirstFit")), config=config
        ).run()
        assert result.unfinished_jobs == 0
        end = result.end_time
        assert result.metrics.rv_seconds == pytest.approx(4 * end * 0.4)
        # jobs started as soon as the reserved VMs had booted
        assert result.records[0].wait <= 120.0 + 20.0

    def test_reserved_survive_idle_gaps(self):
        """Unlike eager-released on-demand VMs, reserved capacity is warm
        when the next job arrives — no boot wait."""
        jobs = [
            Job(job_id=1, submit_time=0.0, runtime=120.0, procs=1),
            Job(job_id=2, submit_time=2 * HOUR, runtime=120.0, procs=1),
        ]
        config = EngineConfig(reserved_vms=1)
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODB-FCFS-FirstFit")), config=config
        ).run()
        rec2 = next(r for r in result.records if r.job_id == 2)
        assert rec2.wait <= 20.0 + 1e-9  # at most one scheduling tick

    def test_zero_reserved_reproduces_paper_setup(self):
        jobs = generate_trace(LPC_EGEE, duration=2 * HOUR, seed=23)
        base = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODM-LXF-FirstFit"))
        ).run()
        explicit = ClusterEngine(
            jobs,
            FixedScheduler(policy_by_name("ODM-LXF-FirstFit")),
            config=EngineConfig(reserved_vms=0),
        ).run()
        assert base.metrics == explicit.metrics

    def test_mixed_fleet_accounting(self):
        """Reserved + on-demand: RV = flat reserved bill + hour-rounded
        on-demand charges, and the total is consistent."""
        jobs = [Job(job_id=i, submit_time=0.0, runtime=300.0, procs=1)
                for i in range(6)]
        config = EngineConfig(reserved_vms=2, reserved_discount=0.5)
        result = ClusterEngine(
            jobs, FixedScheduler(policy_by_name("ODA-FCFS-FirstFit")), config=config
        ).run()
        assert result.unfinished_jobs == 0
        end = result.end_time
        reserved_bill = 2 * end * 0.5
        on_demand = result.metrics.rv_seconds - reserved_bill
        assert on_demand >= 0
        assert on_demand % HOUR == pytest.approx(0.0, abs=1e-6)
