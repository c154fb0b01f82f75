"""Ablation (design choice in DESIGN.md §3): the idle-VM release rule.

"eager" terminates idle VMs the moment queued demand no longer needs
them (the paper's semantics — what makes naive provisioning expensive);
"boundary" keeps them until their already-paid hour expires.  Boundary
release should cut cost on bursty short-job workloads (paid hours get
reused by the next burst) at no slowdown penalty — quantifying how much
the 2013 billing model shapes the paper's results.
"""

from _common import run_once, save_and_show

from repro.experiments.cache import cached_portfolio_run
from repro.experiments.configs import DEFAULT_SCALE, portfolio_kwargs
from repro.experiments.engine import EngineConfig
from repro.metrics.report import format_table
from repro.workload.synthetic import DAS2_FS0, KTH_SP2


def _rows():
    rows = []
    duration, seed = DEFAULT_SCALE.sweep_duration, DEFAULT_SCALE.seed
    for spec in (KTH_SP2, DAS2_FS0):
        for rule in ("eager", "boundary"):
            result, _ = cached_portfolio_run(
                spec,
                duration,
                seed,
                "oracle",
                config=EngineConfig(release_rule=rule),
                **portfolio_kwargs(),
            )
            rows.append(
                {
                    "trace": spec.name,
                    "release": rule,
                    "BSD": round(result.metrics.avg_bounded_slowdown, 3),
                    "cost[VMh]": round(result.metrics.charged_hours, 1),
                    "utility": round(result.utility, 3),
                }
            )
    return rows


def test_ablation_release(benchmark):
    rows = run_once(benchmark, _rows)
    save_and_show(
        "ablation_release",
        format_table(rows, title="Ablation — idle-VM release rule"),
    )
    by = {(r["trace"], r["release"]): r for r in rows}
    # keeping paid capacity through the hour never increases cost
    for trace in ("KTH-SP2", "DAS2-fs0"):
        assert (
            by[(trace, "boundary")]["cost[VMh]"]
            <= by[(trace, "eager")]["cost[VMh]"] * 1.05
        )
    # and on the bursty trace it also helps slowdown (VMs are warm when
    # the next burst lands)
    assert by[("DAS2-fs0", "boundary")]["BSD"] <= by[("DAS2-fs0", "eager")]["BSD"] * 1.1
