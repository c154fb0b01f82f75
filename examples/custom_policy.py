"""Extend the portfolio with your own policies.

The portfolio scheduler treats policies as data: anything implementing
the ``ProvisioningPolicy`` / ``JobSelectionPolicy`` interfaces can join
the portfolio and will be selected whenever the online simulator scores
it best.  This example adds:

* ``OverProvision`` — leases 25% headroom above queued demand (slack for
  future arrivals, something no paper policy does), and
* ``ShortestJobFirst`` — the classic SJF queue order.

Run:  python examples/custom_policy.py
"""

from repro import DAS2_FS0, generate_trace
from repro.core.scheduler import PortfolioScheduler
from repro.experiments.engine import ClusterEngine
from repro.policies.base import JobSelectionPolicy, ProvisioningPolicy, SchedContext
from repro.policies.combined import CombinedPolicy, build_portfolio
from repro.policies.vm_selection import FirstFit


class OverProvision(ProvisioningPolicy):
    """Cover queued demand plus 25% slack (capped by the provider)."""

    name = "OVR"

    def new_vms(self, ctx: SchedContext) -> int:
        demand = ctx.total_queued_procs()
        target = int(demand * 1.25 + 0.5)
        return max(0, target - ctx.available)


class ShortestJobFirst(JobSelectionPolicy):
    """Classic SJF on the runtime estimate."""

    name = "SJF"

    def priorities(self, ctx: SchedContext) -> list[float]:
        # higher priority = earlier; invert the estimate
        return [1.0 / max(t, 1.0) for t in ctx.runtimes]


def main() -> None:
    extras = [
        CombinedPolicy(OverProvision(), ShortestJobFirst(), FirstFit()),
    ]
    portfolio = build_portfolio() + extras
    print(f"portfolio size: {len(portfolio)} (60 paper policies + {len(extras)} custom)")

    jobs = generate_trace(DAS2_FS0, duration=43_200.0, seed=5)
    scheduler = PortfolioScheduler(portfolio=portfolio, seed=7)
    result = ClusterEngine(jobs, scheduler).run()

    m = result.metrics
    print(f"{m.jobs} jobs: BSD {m.avg_bounded_slowdown:.2f}, "
          f"cost {m.charged_hours:.0f} VM-hours, utility {result.utility:.2f}")

    share = scheduler.reflection.invocation_ratio().get("OVR-SJF-FirstFit", 0.0)
    print(f"custom policy won {share:.1%} of the portfolio selections")


if __name__ == "__main__":
    main()
