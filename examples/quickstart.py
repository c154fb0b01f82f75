"""Quickstart: run the portfolio scheduler on a synthetic workload.

Generates six hours of a KTH-SP2-like workload, executes it on a
simulated EC2-style cloud under the portfolio scheduler, and prints the
metrics the paper reports (bounded slowdown, charged cost, utility).

Run:  python examples/quickstart.py
"""

from repro import KTH_SP2, generate_trace, run_portfolio


def main() -> None:
    # 1. A workload: six hours of the stable KTH-SP2 trace model.
    jobs = generate_trace(KTH_SP2, duration=6 * 3_600.0, seed=42)
    print(f"generated {len(jobs)} jobs "
          f"(max {max(j.procs for j in jobs)} processors each)")

    # 2. Run the portfolio scheduler: 60 policies, online simulation,
    #    Algorithm 1 with the paper's Δ = 200 ms / 10 ms-per-policy budget.
    result, scheduler = run_portfolio(jobs, time_constraint=0.2, seed=7)

    # 3. The numbers the paper's figures plot.
    m = result.metrics
    print(f"jobs finished      : {m.jobs} (unfinished: {result.unfinished_jobs})")
    print(f"avg bounded slowdown: {m.avg_bounded_slowdown:.2f}")
    print(f"charged cost       : {m.charged_hours:.0f} VM-hours")
    print(f"utilization RJ/RV  : {m.utilization:.2f}")
    print(f"utility            : {result.utility:.2f}")
    print(f"portfolio selections: {result.portfolio_invocations}")

    # 4. Which policies did the scheduler actually use?
    ratios = scheduler.reflection.grouped_ratio(1)
    print("provisioning mix   :",
          ", ".join(f"{k} {v:.0%}" for k, v in sorted(ratios.items(), key=lambda kv: -kv[1])))


if __name__ == "__main__":
    main()
