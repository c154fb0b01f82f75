"""Replay a Standard Workload Format (SWF) trace through the scheduler.

If you have a real Parallel Workloads Archive trace (e.g. KTH-SP2.swf),
pass its path; otherwise the example writes a small synthetic SWF file
first, so the full parse → clean → replay pipeline runs out of the box:

    python examples/swf_replay.py [path/to/trace.swf]
"""

import sys
import tempfile
from pathlib import Path

from repro import (
    LPC_EGEE,
    KnnPredictor,
    generate_trace,
    parse_swf_file,
    run_portfolio,
)
from repro.workload.cleaning import clean_jobs
from repro.workload.swf import write_swf


def demo_swf_file() -> Path:
    """Write a synthetic 6-hour trace as SWF (stand-in for a PWA file)."""
    jobs = generate_trace(LPC_EGEE, duration=6 * 3_600.0, seed=11)
    path = Path(tempfile.gettempdir()) / "repro_demo_trace.swf"
    with open(path, "w", encoding="utf-8") as fh:
        write_swf(jobs, fh, header="synthetic LPC-EGEE-like demo trace\nMaxProcs: 140")
    return path


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else demo_swf_file()
    print(f"parsing {path} ...")
    raw = parse_swf_file(path)

    # The paper's cleaning rules (§5.2): drop zero-runtime/zero-processor
    # jobs, jobs larger than the source system, and jobs over 64 procs.
    jobs, report = clean_jobs(raw, system_procs=140, max_procs=64)
    print(
        f"cleaned: kept {report.kept}/{report.total} jobs "
        f"({report.kept_fraction:.1%}); dropped "
        f"{report.dropped_zero_runtime} zero-runtime, "
        f"{report.dropped_zero_procs} zero-proc, "
        f"{report.dropped_oversized} oversized, "
        f"{report.dropped_over_filter} over the 64-proc filter"
    )

    # Replay with the k-NN runtime predictor (the scheduler does not get
    # to see actual runtimes — the realistic regime of the paper's Fig. 7).
    result, _ = run_portfolio(jobs, KnnPredictor(), seed=7)
    m = result.metrics
    print(f"replayed {m.jobs} jobs: BSD {m.avg_bounded_slowdown:.2f}, "
          f"cost {m.charged_hours:.0f} VM-hours, utility {result.utility:.2f}")


if __name__ == "__main__":
    main()
