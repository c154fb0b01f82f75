"""Watch the portfolio scheduler adapt to a bursty workload over time.

Attaches a :class:`TimeseriesRecorder` to the engine and renders ASCII
sparklines of queue depth and fleet size across a simulated day of the
bursty DAS2-fs0 workload, plus which provisioning policies the scheduler
switched between.

Run:  python examples/fleet_dynamics.py
"""

from collections import Counter

from repro import DAS2_FS0, generate_trace
from repro.core.scheduler import PortfolioScheduler
from repro.experiments.engine import ClusterEngine
from repro.metrics.timeseries import TimeseriesRecorder, sparkline


def main() -> None:
    jobs = generate_trace(DAS2_FS0, duration=86_400.0, seed=3)
    recorder = TimeseriesRecorder()
    scheduler = PortfolioScheduler(seed=7)
    result = ClusterEngine(jobs, scheduler, observer=recorder).run()

    print(f"{len(jobs)} jobs over one simulated day "
          f"({result.portfolio_invocations} portfolio selections)\n")
    print("queue depth :", sparkline(recorder.series("queue_length")))
    print("fleet size  :", sparkline(recorder.series("fleet")))
    print("idle VMs    :", sparkline(recorder.series("idle")))
    print()
    print(f"peak queue {recorder.peak_queue()} jobs, "
          f"peak fleet {recorder.peak_fleet()} VMs, "
          f"mean idle fraction {recorder.mean_idle_fraction():.1%}, "
          f"policy switches {recorder.policy_switches()}")

    # which provisioning policy was active at the busiest vs quietest ticks?
    busy = [s for s in recorder.samples if s.queue_length >= recorder.peak_queue() // 2]
    quiet = [s for s in recorder.samples if s.queue_length <= 2]
    for label, samples in (("busy ticks", busy), ("quiet ticks", quiet)):
        mix = Counter(s.active_policy.split("-")[0] for s in samples)
        total = sum(mix.values()) or 1
        top = ", ".join(f"{k} {v / total:.0%}" for k, v in mix.most_common(3))
        print(f"provisioning during {label:<11}: {top}")


if __name__ == "__main__":
    main()
