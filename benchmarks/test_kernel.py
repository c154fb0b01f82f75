"""Kernel fast-path benchmarks: policies-evaluated/sec, events/sec, and
an end-to-end portfolio cell, fast vs reference.

The scenario is a fig7-sized mid-experiment snapshot: a 32-VM fleet with
booting, busy and idle instances plus a 48-job mixed queue — the shape
``OnlineSimulator.evaluate`` actually sees once an experiment is under
way (an all-idle or empty fleet flatters the fast path less because the
reference loop's per-step fleet scan is what dominates).

The reference side runs through :class:`ReferenceSimulator`, which
sends every evaluation to ``OnlineSimulator._evaluate_reference``.
Equivalence is asserted before speed: every (policy, outcome) pair must
be identical across kernels, so the ratio can never come from computing
something different.  Results land in ``BENCH_kernel.json`` at the repo
root; CI checks the checked-in ratio for coherence rather than
re-measuring on noisy runners.
"""

from __future__ import annotations

import os
import platform
import time

from _common import run_once, save_and_show, save_json

from repro.cloud.profile import CloudProfile, VMSnapshot
from repro.core.online_sim import OnlineSimulator
from repro.core.scheduler import PortfolioScheduler
from repro.experiments.engine import ClusterEngine
from repro.metrics.report import format_table
from repro.policies.combined import build_portfolio
from repro.workload.job import Job
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0

HOST = {
    "cpus": os.cpu_count(),
    "python": platform.python_version(),
    "platform": platform.platform(),
}


class ReferenceSimulator(OnlineSimulator):
    """Runs every evaluation through the reference loop."""

    def evaluate_prepared(self, prep, policy, riders=(), shared=None):
        return self._evaluate_reference(prep, policy)


SIMULATORS = {"fast": OnlineSimulator, "reference": ReferenceSimulator}


def fig7_snapshot():
    """Mid-experiment snapshot: 32 VMs (8 booting / 16 busy / 8 idle),
    48 queued jobs with mixed widths and runtimes."""
    now = 7_200.0
    vms = []
    for v in range(32):
        if v % 4 == 0:  # booting
            vms.append(
                VMSnapshot(
                    vm_id=v, lease_time=now - 30.0, ready_time=now + 70.0,
                    busy_until=-1.0,
                )
            )
        elif v % 4 in (1, 2):  # busy
            vms.append(
                VMSnapshot(
                    vm_id=v, lease_time=now - 1_800.0, ready_time=now - 1_700.0,
                    busy_until=now + 180.0 * (1 + v % 5),
                )
            )
        else:  # idle
            vms.append(
                VMSnapshot(
                    vm_id=v, lease_time=now - 1_800.0, ready_time=now - 1_700.0,
                    busy_until=-1.0,
                )
            )
    profile = CloudProfile(
        now=now, vms=tuple(vms), max_vms=64, boot_delay=100.0,
        billing_period=HOUR,
    )
    queue = [
        Job(job_id=i, submit_time=0.0, runtime=120.0 * (1 + i % 7), procs=1 + i % 4)
        for i in range(48)
    ]
    waits = [15.0 * (i % 9) for i in range(48)]
    runtimes = [j.runtime for j in queue]
    return queue, waits, runtimes, profile


def _throughput(kernel: str, rounds: int):
    """(policies/sec, events/sec, outcomes) for *rounds* full-portfolio
    selection rounds on the snapshot, using the same prepare-once
    pattern the selector uses."""
    queue, waits, runtimes, profile = fig7_snapshot()
    portfolio = build_portfolio()
    sim = SIMULATORS[kernel]()
    outcomes = []
    steps = 0
    begin = time.perf_counter()
    for _ in range(rounds):
        outcomes = []
        prep = sim.prepare(queue, waits, runtimes, profile)
        for policy in portfolio:
            out = sim.evaluate_prepared(prep, policy)
            outcomes.append((policy.name, out))
            steps += out.steps
    wall = time.perf_counter() - begin
    n_evals = rounds * len(portfolio)
    return n_evals / wall, steps / wall, wall, outcomes


def test_kernel_throughput(benchmark):
    rounds = 8
    fast_pps, fast_eps, fast_wall, fast_out = run_once(
        benchmark, lambda: _throughput("fast", rounds)
    )
    ref_pps, ref_eps, ref_wall, ref_out = _throughput("reference", rounds)

    # Bit-identity first: the ratio is meaningless if outcomes diverge.
    assert fast_out == ref_out, "fast kernel diverged from reference"

    ratio = fast_pps / ref_pps
    rows = [
        {
            "kernel": k,
            "policies/s": round(p, 1),
            "events/s": round(e, 1),
            "wall[s]": round(w, 3),
        }
        for k, p, e, w in (
            ("fast", fast_pps, fast_eps, fast_wall),
            ("reference", ref_pps, ref_eps, ref_wall),
        )
    ]
    save_and_show(
        "kernel_throughput",
        format_table(
            rows,
            title=f"online-sim kernel, fig7 snapshot (60 policies x "
            f"{rounds} rounds, speedup {ratio:.2f}x)",
        ),
    )
    save_json(
        "BENCH_kernel",
        {
            "host": HOST,
            "throughput": {
                "scenario": "fig7 snapshot: 32 VMs (8 booting/16 busy/8 idle), "
                "48-job mixed queue, 60 policies",
                "rounds": rounds,
                "fast_policies_per_s": round(fast_pps, 1),
                "reference_policies_per_s": round(ref_pps, 1),
                "fast_events_per_s": round(fast_eps, 1),
                "reference_events_per_s": round(ref_eps, 1),
                "speedup": round(ratio, 3),
                "bit_identical": True,  # asserted above before timing is reported
            },
        },
        root=True,
    )


def test_kernel_end_to_end_cell(benchmark):
    """One fig7-style portfolio cell (DAS2-fs0 slice) end to end."""
    jobs = generate_trace(DAS2_FS0, duration=12 * HOUR, seed=13)

    def run_cell(kernel: str):
        scheduler = PortfolioScheduler(seed=7)
        scheduler.selector.simulator = SIMULATORS[kernel](scheduler.utility)
        engine = ClusterEngine([j.fresh_copy() for j in jobs], scheduler)
        begin = time.perf_counter()
        result = engine.run()
        return time.perf_counter() - begin, result

    fast_wall, fast_result = run_once(benchmark, lambda: run_cell("fast"))
    ref_wall, ref_result = run_cell("reference")

    assert fast_result.utility == ref_result.utility
    assert fast_result.metrics.rv_seconds == ref_result.metrics.rv_seconds

    save_json(
        "BENCH_kernel",
        {
            "end_to_end_cell": {
                "trace": "DAS2-fs0 synthetic, 12h, seed 13",
                "jobs": len(jobs),
                "fast_wall_s": round(fast_wall, 3),
                "reference_wall_s": round(ref_wall, 3),
                "speedup": round(ref_wall / fast_wall, 3),
                "identical_utility": True,
            },
        },
        root=True,
    )
