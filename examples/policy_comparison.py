"""Compare individual scheduling policies against the portfolio on a
bursty workload — a miniature of the paper's Figure 4.

The bursty DAS2-fs0 model is where the paper finds the largest portfolio
gains: no single provisioning policy handles both the quiet stretches
(cheap policies win) and the submission bursts (aggressive policies win).

Run:  python examples/policy_comparison.py
"""

from repro import (
    DAS2_FS0,
    generate_trace,
    policy_by_name,
    run_fixed,
    run_portfolio,
)
from repro.metrics.report import format_table

#: One representative policy per provisioning cluster (the full grid is
#: what benchmarks/test_fig4.py runs).
CANDIDATES = (
    "ODA-UNICEF-FirstFit",
    "ODB-UNICEF-FirstFit",
    "ODE-UNICEF-BestFit",
    "ODM-UNICEF-BestFit",
    "ODX-UNICEF-FirstFit",
)


def main() -> None:
    jobs = generate_trace(DAS2_FS0, duration=86_400.0, seed=3)
    print(f"workload: {len(jobs)} jobs over one simulated day (bursty)\n")

    rows = []
    for name in CANDIDATES:
        result = run_fixed(jobs, policy_by_name(name))
        m = result.metrics
        rows.append(
            {
                "scheduler": name,
                "BSD": round(m.avg_bounded_slowdown, 2),
                "cost[VMh]": round(m.charged_hours, 1),
                "utility": round(result.utility, 2),
            }
        )

    result, _ = run_portfolio(jobs, seed=7)
    m = result.metrics
    rows.append(
        {
            "scheduler": "PORTFOLIO (60 policies)",
            "BSD": round(m.avg_bounded_slowdown, 2),
            "cost[VMh]": round(m.charged_hours, 1),
            "utility": round(result.utility, 2),
        }
    )
    rows.sort(key=lambda r: -float(r["utility"]))
    print(format_table(rows, title="policy comparison (higher utility is better)"))


if __name__ == "__main__":
    main()
