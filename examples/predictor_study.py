"""Compare runtime predictors — accuracy and scheduling impact.

First scores five predictors offline on the same trace (Tsafrir-style
accuracy: mean of min/max prediction-truth ratios), then runs the
portfolio scheduler under each to show how prediction quality translates
into slowdown and cost (the paper's §6.3 question, extended to more
predictors).

Run:  python examples/predictor_study.py
"""

from repro import DAS2_FS0, generate_trace, run_portfolio
from repro.metrics.report import format_table
from repro.predict.extra import (
    EwmaPredictor,
    GlobalMedianPredictor,
    UserMeanPredictor,
    evaluate_predictor,
)
from repro.predict.knn import KnnPredictor
from repro.predict.simple import OraclePredictor, UserEstimatePredictor


def predictors():
    return [
        OraclePredictor(),
        KnnPredictor(),
        UserMeanPredictor(),
        EwmaPredictor(alpha=0.5),
        GlobalMedianPredictor(),
        UserEstimatePredictor(),
    ]


def main() -> None:
    jobs = generate_trace(DAS2_FS0, duration=86_400.0, seed=3)
    print(f"workload: {len(jobs)} jobs, one simulated day\n")

    rows = [evaluate_predictor(p, jobs).row() for p in predictors()]
    print(format_table(rows, title="offline prediction accuracy"))
    print()

    rows = []
    for predictor in predictors():
        predictor.reset()
        result, _ = run_portfolio(jobs, predictor, seed=7)
        m = result.metrics
        rows.append(
            {
                "predictor": predictor.name,
                "BSD": round(m.avg_bounded_slowdown, 2),
                "cost[VMh]": round(m.charged_hours, 1),
                "utility": round(result.utility, 2),
            }
        )
    print(format_table(rows, title="portfolio scheduling under each predictor"))


if __name__ == "__main__":
    main()
