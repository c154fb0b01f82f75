"""Figure 10: the impact of the simulation time constraint Δ.

Exactly the paper's §6.5 instrumentation: every policy simulation is
charged a constant 10 ms, and Δ sweeps 20–600 ms, so Δ/10 ms policies
are evaluated per invocation.  Series are
normalized to the Δ = 20 ms run (the paper's axes).
"""

from __future__ import annotations

from repro.experiments.cache import cached_portfolio_run
from repro.experiments.configs import DEFAULT_SCALE, ExperimentScale, portfolio_kwargs
from repro.metrics.report import format_table
from repro.workload.synthetic import TRACES

__all__ = ["TIME_CONSTRAINTS_MS", "fig10_rows", "main"]

TIME_CONSTRAINTS_MS: tuple[int, ...] = (20, 40, 60, 80, 100, 200, 300, 400, 500, 600)


def fig10_rows(
    scale: ExperimentScale | None = None,
    constraints_ms: tuple[int, ...] | None = None,
) -> list[dict[str, object]]:
    scale = scale or DEFAULT_SCALE
    constraints = constraints_ms or TIME_CONSTRAINTS_MS
    rows: list[dict[str, object]] = []
    for spec in TRACES:
        base = None
        for ms in constraints:
            result, scheduler = cached_portfolio_run(
                spec,
                scale.sweep_duration,
                scale.seed,
                "oracle",
                **portfolio_kwargs(time_constraint=ms / 1_000.0),
            )
            m = result.metrics
            sims_per_inv = (
                scheduler.selector.total_simulated / scheduler.selector.invocations
                if scheduler.selector.invocations
                else 0.0
            )
            point = {
                "bsd": m.avg_bounded_slowdown,
                "cost": m.charged_hours,
                "utility": result.utility,
            }
            if base is None:
                base = point
            rows.append(
                {
                    "trace": spec.name,
                    "delta[ms]": ms,
                    "policies/invocation": round(sims_per_inv, 1),
                    "norm BSD": round(point["bsd"] / base["bsd"], 3) if base["bsd"] else 0.0,
                    "norm cost": round(point["cost"] / base["cost"], 3) if base["cost"] else 0.0,
                    "norm utility": round(point["utility"] / base["utility"], 3)
                    if base["utility"]
                    else 0.0,
                }
            )
    return rows


def main() -> None:
    print(format_table(fig10_rows(), title="Figure 10 — time constraint sweep"))


if __name__ == "__main__":
    main()
