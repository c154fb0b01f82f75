"""Companion to Fig. 10: direct regret of Algorithm 1 vs exhaustive
selection, as a function of the time constraint Δ.

Fig. 10 measures the *end-to-end* effect of Δ; this bench isolates the
selection step itself: on a stream of decision problems sampled from a
bursty workload, how often does the constrained selector pick the true
argmax, and how much utility does it leave on the table when it misses?
"""

import numpy as np
from _common import run_once, save_and_show

from repro.cloud.profile import CloudProfile
from repro.core.online_sim import OnlineSimulator
from repro.core.quality import DecisionProblem, measure_selection_quality
from repro.core.selection import TimeConstrainedSelector
from repro.experiments.cache import cached_trace
from repro.experiments.configs import DEFAULT_SCALE
from repro.metrics.report import format_table
from repro.policies.combined import build_portfolio
from repro.workload.synthetic import DAS2_FS0

DELTAS_MS = (20, 60, 200, 600)


def _problems(n=30):
    """Decision problems sampled from a DAS2-like arrival stream: the
    queue at time t holds the jobs that arrived in the last 10 minutes."""
    jobs = cached_trace(DAS2_FS0, DEFAULT_SCALE.sweep_duration, DEFAULT_SCALE.seed)
    problems = []
    step = DEFAULT_SCALE.sweep_duration / n
    for k in range(1, n + 1):
        now = k * step
        window = [j for j in jobs if now - 600.0 <= j.submit_time <= now]
        if not window:
            continue
        profile = CloudProfile(
            now=now, vms=(), max_vms=256, boot_delay=120.0, billing_period=3_600.0
        )
        problems.append(
            DecisionProblem(
                queue=tuple(window),
                waits=tuple(now - j.submit_time for j in window),
                runtimes=tuple(max(j.runtime, 1.0) for j in window),
                profile=profile,
            )
        )
    return problems


def _rows():
    portfolio = build_portfolio()
    problems = _problems()
    rows = []
    for ms in DELTAS_MS:
        selector = TimeConstrainedSelector(
            portfolio,
            simulator=OnlineSimulator(),
            time_constraint=ms / 1_000.0,
            rng=np.random.default_rng(1),
        )
        quality = measure_selection_quality(selector, problems, portfolio)
        rows.append({"delta[ms]": ms, **quality.row()})
    return rows


def test_selection_quality(benchmark):
    rows = run_once(benchmark, _rows)
    save_and_show(
        "selection_quality",
        format_table(rows, title="Selection regret vs time constraint (DAS2-fs0)"),
    )
    by = {r["delta[ms]"]: r for r in rows}
    # an exhaustive budget (600 ms = 60 policies) never regrets
    assert by[600]["hit rate"] == 1.0
    assert by[600]["mean regret"] == 0.0
    # quality is monotone-ish in the budget: 200 ms within 10% of best
    assert by[200]["chosen/best"] >= 0.9
    # even the tiny 20 ms budget keeps most of the achievable utility
    assert by[20]["chosen/best"] >= 0.5
