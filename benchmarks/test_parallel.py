"""Parallel-subsystem benchmark: campaign fan-out.

Measures the same fig7-sized campaign (the full four-trace grid at a
quarter of the benchmark horizon) serially and with 2 and 4 workers.
Results land in ``BENCH_parallel.json`` at the repo root, alongside the
host's core count — speedups are only meaningful relative to ``cpus``;
on a single-core host the parallel runs measure pure overhead (spawn +
pickling), which is worth tracking too.

Serial/parallel *equivalence* is asserted here as well: a benchmark that
got faster by computing something different would be worthless.
"""

from __future__ import annotations

import os
import platform
import time

from _common import run_once, save_and_show, save_json

from repro.experiments.cache import clear_cache
from repro.experiments.configs import DEFAULT_SCALE, ExperimentScale
from repro.experiments.export import result_to_dict
from repro.metrics.report import format_table
from repro.parallel import Campaign, comparison_cells

#: Quarter of the benchmark horizon: a fig7-shaped grid (4 traces × 61
#: cells) that a laptop finishes in tens of seconds.
CAMPAIGN_SCALE = ExperimentScale(
    compare_duration=DEFAULT_SCALE.compare_duration * 0.25,
    sweep_duration=DEFAULT_SCALE.sweep_duration * 0.25,
)

HOST = {
    "cpus": os.cpu_count(),
    "python": platform.python_version(),
    "platform": platform.platform(),
}


def _campaign(workers: int):
    """One cold campaign run: fresh memo, fresh pool, no disk cache."""
    clear_cache()
    cells = comparison_cells("knn", scale=CAMPAIGN_SCALE)
    begin = time.perf_counter()
    outcomes = Campaign(cells, workers=workers, fresh_pool=workers > 0).run()
    wall = time.perf_counter() - begin
    return wall, outcomes


def test_campaign_scaling(benchmark):
    serial_wall, serial = run_once(benchmark, lambda: _campaign(0))

    walls = {0: serial_wall}
    for workers in (2, 4):
        wall, outcomes = _campaign(workers)
        walls[workers] = wall
        # Equivalence first, speed second.
        assert [result_to_dict(o.result) for o in outcomes] == [
            result_to_dict(o.result) for o in serial
        ], f"{workers}-worker campaign diverged from serial"

    rows = [
        {
            "workers": w or "serial",
            "wall[s]": round(walls[w], 2),
            "speedup": round(walls[0] / walls[w], 2),
        }
        for w in (0, 2, 4)
    ]
    save_and_show(
        "parallel_campaign",
        format_table(
            rows,
            title=f"fig7-sized campaign ({len(serial)} cells, "
            f"{HOST['cpus']} cpus)",
        ),
    )
    save_json(
        "BENCH_parallel",
        {
            "host": HOST,
            "campaign": {
                "cells": len(serial),
                "compare_duration_s": CAMPAIGN_SCALE.compare_duration,
                "serial_wall_s": round(walls[0], 3),
                "workers2_wall_s": round(walls[2], 3),
                "workers4_wall_s": round(walls[4], 3),
                "speedup_workers2": round(walls[0] / walls[2], 3),
                "speedup_workers4": round(walls[0] / walls[4], 3),
                "note": "speedup is bounded by host cpus; on a 1-cpu host "
                "these runs measure spawn+pickle overhead, not scaling",
            },
        },
        root=True,
    )

