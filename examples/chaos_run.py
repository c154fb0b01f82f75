"""Chaos run: the portfolio scheduler on an unreliable cloud.

The paper assumes VMs never fail (§3.1).  This example turns every fault
knob of the resilience extension on at once — exponential VM lifetimes,
transient lease rejections, partial capacity grants, boot failures,
long-tailed boot jitter, and correlated AZ-style outage windows — then
runs the same workload twice: restart-from-scratch versus periodic
checkpointing.  Every fault stream is seeded, so reruns are bit-identical.

Run:  python examples/chaos_run.py
"""

from repro import (
    CheckpointPolicy,
    DAS2_FS0,
    EngineConfig,
    FailureModel,
    FaultModel,
    RetryPolicy,
    generate_trace,
    run_portfolio,
)

HOUR = 3_600.0


def chaos_config(checkpoint: CheckpointPolicy | None) -> EngineConfig:
    return EngineConfig(
        # independent exponential VM lifetimes, mean 4 h
        failures=FailureModel(mtbf_seconds=4 * HOUR, seed=11),
        # cloud-side faults: flaky control plane + one outage window every
        # ~8 h that kills 80% of the on-demand fleet for ~15 min
        faults=FaultModel(
            seed=11,
            lease_fault_rate=0.10,
            partial_grant_rate=0.10,
            boot_fail_rate=0.05,
            boot_jitter_scale=30.0,
            outage_mtbo_seconds=8 * HOUR,
            outage_duration_seconds=900.0,
            outage_kill_fraction=0.8,
        ),
        # back off on rejected lease requests instead of hammering the API
        lease_retry=RetryPolicy(),
        # a job killed more than 10 times ends FAILED instead of looping
        max_job_retries=10,
        checkpoint=checkpoint,
    )


def run(label: str, checkpoint: CheckpointPolicy | None) -> None:
    jobs = generate_trace(DAS2_FS0, duration=12 * HOUR, seed=42)
    result, _ = run_portfolio(jobs, config=chaos_config(checkpoint), seed=7)
    m, r9 = result.metrics, result.resilience
    print(f"--- {label} ---")
    print(f"jobs finished       : {m.jobs} "
          f"(failed: {r9.jobs_failed}, unfinished: {result.unfinished_jobs})")
    print(f"avg bounded slowdown: {m.avg_bounded_slowdown:.2f}")
    print(f"charged cost        : {m.charged_hours:.0f} VM-hours")
    print(f"utility             : {result.utility:.2f}")
    print(f"VM failures         : {r9.vm_failures} "
          f"({r9.boot_failures} during boot)")
    print(f"lease faults        : {r9.lease_rejections} rejected, "
          f"{r9.lease_retries} retried, {r9.vms_denied} VMs denied")
    print(f"outages             : {r9.outages} "
          f"({r9.outage_downtime_seconds / 60:.0f} min down)")
    print(f"work lost to kills  : {r9.wasted_cpu_seconds / HOUR:.1f} CPU-h "
          f"(checkpoints saved {r9.checkpoint_saved_cpu_seconds / HOUR:.1f})")
    print()


def main() -> None:
    run("restart from scratch", checkpoint=None)
    run("checkpoint every 15 min", CheckpointPolicy(900.0, overhead_seconds=30.0))


if __name__ == "__main__":
    main()
