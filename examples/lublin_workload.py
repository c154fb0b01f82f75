"""Generate a new workload with the Lublin-Feitelson-style model and
schedule it.

The four built-in trace models imitate the paper's specific systems;
:class:`LublinModel` generates *new* workloads with the canonical
structure of rigid parallel jobs (power-of-two sizes, hyper-gamma
runtimes whose long-job share grows with width, diurnal gamma arrivals).

Run:  python examples/lublin_workload.py
"""

from repro import LublinModel, generate_lublin_trace, run_portfolio
from repro.workload.stats import summarize_trace


def main() -> None:
    model = LublinModel(
        max_procs=64,
        serial_prob=0.3,
        interarrival_scale=900.0,  # ~1 job / 12 min on average
    )
    jobs = generate_lublin_trace(model, duration=86_400.0, seed=17)
    summary = summarize_trace("lublin", jobs, model.max_procs, span=86_400.0)
    print(
        f"generated {summary.jobs} jobs: mean runtime {summary.mean_runtime:.0f} s, "
        f"mean width {summary.mean_procs:.1f} procs, "
        f"offered load {summary.load:.0%} of a {model.max_procs}-VM ceiling"
    )

    result, scheduler = run_portfolio(jobs, seed=7)
    m = result.metrics
    print(
        f"portfolio: BSD {m.avg_bounded_slowdown:.2f}, "
        f"cost {m.charged_hours:.0f} VM-hours, utility {result.utility:.2f}"
    )
    mix = scheduler.reflection.grouped_ratio(1)
    print("provisioning mix:",
          ", ".join(f"{k} {v:.0%}" for k, v in sorted(mix.items(), key=lambda kv: -kv[1])))


if __name__ == "__main__":
    main()
