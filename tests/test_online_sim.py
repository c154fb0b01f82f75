"""Unit tests for the online simulator (the selection mapping S)."""

import pytest

from repro.cloud.profile import CloudProfile, VMSnapshot
from repro.core.online_sim import OnlineSimulator
from repro.core.utility import UtilityFunction
from repro.policies.combined import build_portfolio, policy_by_name
from repro.workload.job import Job

HOUR = 3_600.0


def profile(now=0.0, vms=(), max_vms=256, boot=120.0) -> CloudProfile:
    return CloudProfile(
        now=now, vms=tuple(vms), max_vms=max_vms, boot_delay=boot,
        billing_period=HOUR,
    )


def job(jid=0, procs=1, runtime=100.0) -> Job:
    return Job(job_id=jid, submit_time=0.0, runtime=runtime, procs=procs)


def idle_snap(vm_id, lease, now) -> VMSnapshot:
    return VMSnapshot(vm_id=vm_id, lease_time=lease, ready_time=lease, busy_until=-1.0)


class TestEvaluateBasics:
    def test_empty_queue_scores_perfect(self):
        sim = OnlineSimulator()
        out = sim.evaluate([], [], [], profile(), build_portfolio()[0])
        assert out.bsd == 1.0
        assert out.rj_seconds == 0.0
        assert out.score == 100.0

    def test_parallel_input_validation(self):
        sim = OnlineSimulator()
        with pytest.raises(ValueError, match="parallel"):
            sim.evaluate([job(1)], [], [100.0], profile(), build_portfolio()[0])

    def test_single_job_empty_fleet(self):
        """One job, no fleet: lease, boot 120 s, run; BSD reflects the boot."""
        sim = OnlineSimulator()
        j = job(1, procs=2, runtime=600.0)
        out = sim.evaluate(
            [j], [0.0], [600.0], profile(now=1_000.0),
            policy_by_name("ODA-FCFS-FirstFit"),
        )
        # wait = boot delay; bsd = (120 + 600)/600
        assert out.bsd == pytest.approx(720.0 / 600.0)
        assert out.rj_seconds == 1_200.0
        assert out.rv_seconds == 2 * HOUR  # two VMs, one charged hour each
        assert not out.truncated

    def test_existing_idle_vm_used_without_leasing(self):
        sim = OnlineSimulator()
        j = job(1, procs=1, runtime=60.0)
        prof = profile(now=1_000.0, vms=[idle_snap(0, lease=500.0, now=1_000.0)])
        out = sim.evaluate([j], [10.0], [60.0], prof, policy_by_name("ODB-FCFS-FirstFit"))
        # starts immediately: wait stays at the accrued 10 s
        assert out.bsd == pytest.approx((10.0 + 60.0) / 60.0)
        assert out.rv_seconds == HOUR  # the idle VM's single charged hour

    def test_busy_vm_frees_then_runs_job(self):
        sim = OnlineSimulator()
        busy = VMSnapshot(vm_id=0, lease_time=0.0, ready_time=0.0, busy_until=1_200.0)
        prof = profile(now=1_000.0, vms=[busy])
        j = job(1, procs=1, runtime=600.0)
        out = sim.evaluate([j], [0.0], [600.0], prof, policy_by_name("ODB-FCFS-FirstFit"))
        # ODB leases nothing (rented covers demand); job waits for the busy
        # VM to free at t=1200, i.e. 200 s
        assert out.bsd == pytest.approx((200.0 + 600.0) / 600.0)

    def test_booting_vm_becomes_usable(self):
        sim = OnlineSimulator()
        booting = VMSnapshot(vm_id=0, lease_time=950.0, ready_time=1_070.0, busy_until=-1.0)
        prof = profile(now=1_000.0, vms=[booting])
        j = job(1, procs=1, runtime=600.0)
        out = sim.evaluate([j], [0.0], [600.0], prof, policy_by_name("ODB-FCFS-FirstFit"))
        # waits 70 s for the boot to complete
        assert out.bsd == pytest.approx((70.0 + 600.0) / 600.0)

    def test_uses_estimates_not_actual_runtimes(self):
        sim = OnlineSimulator()
        j = job(1, procs=1, runtime=50.0)
        out = sim.evaluate(
            [j], [0.0], [7_200.0], profile(now=0.0), policy_by_name("ODA-FCFS-FirstFit")
        )
        # the simulator believes the 2 h estimate: RJ and RV follow it
        assert out.rj_seconds == 7_200.0
        assert out.rv_seconds == pytest.approx(2 * HOUR + HOUR)  # 120 s boot pushes past 2 h


class TestScoringModes:
    def test_total_accounting_charges_the_whole_lease(self):
        j = job(1, procs=1, runtime=60.0)
        # idle VM leased 90 min ago: 2 booked hours; job adds nothing new
        prof = profile(now=5_400.0, vms=[idle_snap(0, lease=0.0, now=5_400.0)])
        total = OnlineSimulator().evaluate(
            [j], [0.0], [60.0], prof, policy_by_name("ODB-FCFS-FirstFit")
        )
        assert total.rv_seconds == 2 * HOUR  # full booked history


class TestPolicyDifferentiation:
    def test_ode_cheaper_oda_faster_on_short_job_floods(self):
        """The portfolio's raison d'être: for a flood of short sequential
        jobs, ODE should score cheaper (lower RV), ODA faster (lower BSD)."""
        sim = OnlineSimulator()
        jobs = [job(i, procs=1, runtime=120.0) for i in range(40)]
        waits = [0.0] * 40
        rts = [120.0] * 40
        oda = sim.evaluate(jobs, waits, rts, profile(), policy_by_name("ODA-FCFS-FirstFit"))
        ode = sim.evaluate(jobs, waits, rts, profile(), policy_by_name("ODE-FCFS-FirstFit"))
        assert ode.rv_seconds < oda.rv_seconds
        assert oda.bsd < ode.bsd

    def test_odx_delays_leasing_until_urgency(self):
        sim = OnlineSimulator()
        j = job(1, procs=1, runtime=1_000.0)
        out = sim.evaluate([j], [0.0], [1_000.0], profile(now=0.0), policy_by_name("ODX-FCFS-FirstFit"))
        # ODX waits for the bounded slowdown to cross 2 (wait = runtime =
        # 1000 s), then leases and boots: wait ≈ 1000 + 120
        assert out.bsd == pytest.approx((1_120.0 + 1_000.0) / 1_000.0, rel=0.01)

    def test_vm_cap_respected(self):
        sim = OnlineSimulator()
        jobs = [job(i, procs=10, runtime=500.0) for i in range(5)]
        prof = profile(max_vms=25)
        out = sim.evaluate(jobs, [0.0] * 5, [500.0] * 5, prof, policy_by_name("ODA-FCFS-FirstFit"))
        # 50 procs demanded, only 25 VMs allowed: jobs run in two waves
        assert out.rv_seconds <= 25 * HOUR
        assert not out.truncated


class TestRobustness:
    def test_max_steps_truncation_scores_zero(self):
        sim = OnlineSimulator(max_steps=3)
        jobs = [job(i, procs=1, runtime=50.0) for i in range(30)]
        out = sim.evaluate(
            jobs, [0.0] * 30, [50.0] * 30, profile(), policy_by_name("ODM-FCFS-FirstFit")
        )
        assert out.truncated
        assert out.score == 0.0

    def test_all_60_policies_complete_on_a_mixed_queue(self):
        sim = OnlineSimulator()
        jobs = [job(i, procs=p, runtime=r) for i, (p, r) in enumerate(
            [(1, 30.0), (4, 600.0), (16, 3_600.0), (1, 5.0), (8, 900.0)] * 3
        )]
        waits = [float(10 * i) for i in range(len(jobs))]
        rts = [j.runtime for j in jobs]
        prof = profile(now=50_000.0, vms=[idle_snap(i, 48_000.0, 50_000.0) for i in range(4)])
        for policy in build_portfolio():
            out = sim.evaluate(jobs, waits, rts, prof, policy)
            assert not out.truncated, policy.name
            assert out.score > 0.0, policy.name
            assert out.rv_seconds >= 0.0

    def test_deterministic(self):
        sim = OnlineSimulator()
        jobs = [job(i, procs=2, runtime=300.0) for i in range(10)]
        args = (jobs, [0.0] * 10, [300.0] * 10, profile(), policy_by_name("ODX-LXF-BestFit"))
        a = sim.evaluate(*args)
        b = sim.evaluate(*args)
        assert a == b

    def test_inputs_not_mutated(self):
        sim = OnlineSimulator()
        j = job(1, procs=1, runtime=100.0)
        snap = idle_snap(0, 0.0, 100.0)
        prof = profile(now=100.0, vms=[snap])
        sim.evaluate([j], [5.0], [100.0], prof, build_portfolio()[0])
        assert j.start_time == -1.0  # untouched
        assert snap.busy_until == -1.0
