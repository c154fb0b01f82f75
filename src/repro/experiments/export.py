"""Result export: JSON and CSV serialisation of experiment outputs.

Figures in the paper are plots; this repository's artifacts are tables.
For users who want to re-plot with their own tooling, every
:class:`~repro.experiments.engine.ExperimentResult` and every driver's
row list can be dumped losslessly.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.engine import ExperimentResult

__all__ = ["result_to_dict", "dump_result_json", "rows_to_csv", "dump_rows_csv"]


def result_to_dict(result: ExperimentResult, include_records: bool = False) -> dict:
    """Flatten a result to plain JSON-safe types."""
    m = result.metrics
    r9 = result.resilience
    out: dict = {
        "scheduler": result.scheduler_desc,
        "jobs": m.jobs,
        "avg_bounded_slowdown": m.avg_bounded_slowdown,
        "rj_seconds": m.rj_seconds,
        "rv_seconds": m.rv_seconds,
        "utilization": m.utilization,
        "charged_hours": m.charged_hours,
        "avg_wait_seconds": m.avg_wait,
        "max_wait_seconds": m.max_wait,
        "utility": result.utility,
        "portfolio_invocations": result.portfolio_invocations,
        "policies_quarantined": result.policies_quarantined,
        "portfolio_failed_over": result.portfolio_failed_over,
        "unfinished_jobs": result.unfinished_jobs,
        "sim_events": result.sim_events,
        "ticks": result.ticks,
        "end_time": result.end_time,
        "failures": result.failures,
        "wasted_cpu_seconds": result.wasted_cpu_seconds,
        "resilience": {
            "vm_failures": r9.vm_failures,
            "boot_failures": r9.boot_failures,
            "lease_rejections": r9.lease_rejections,
            "lease_retries": r9.lease_retries,
            "vms_denied": r9.vms_denied,
            "outages": r9.outages,
            "outage_downtime_seconds": r9.outage_downtime_seconds,
            "job_kills": r9.job_kills,
            "jobs_failed": r9.jobs_failed,
            "wasted_cpu_seconds": r9.wasted_cpu_seconds,
            "checkpoint_saved_cpu_seconds": r9.checkpoint_saved_cpu_seconds,
        },
    }
    # Snapshots written before the audit layer existed unpickle without
    # the field; treat them as unaudited.
    audit = getattr(result, "audit", None)
    if audit is not None:
        out["audit"] = audit.to_dict()
    # Observability summaries ride along only when the subsystem was on,
    # so an untraced, unprofiled export stays bit-identical to builds
    # predating the obs layer (and to old unpickled results, which lack
    # the fields entirely).
    profile = getattr(result, "profile", None)
    if profile is not None:
        out["profile"] = profile
    trace = getattr(result, "trace", None)
    if trace is not None:
        out["trace"] = trace
    # A resume that fell back past a corrupted snapshot generation
    # records how; clean resumes and fresh runs export no such key.
    recovery = getattr(result, "recovery", None)
    if recovery is not None:
        out["recovery"] = recovery
    # Hostile-cloud counters export only when a spot market was
    # configured; cooperative-cloud exports carry no "spot" key at all.
    spot = getattr(result, "spot", None)
    if spot is not None:
        out["spot"] = spot.to_dict()
    if include_records:
        out["records"] = [
            {
                "job_id": r.job_id,
                "submit": r.submit_time,
                "start": r.start_time,
                "finish": r.finish_time,
                "runtime": r.runtime,
                "procs": r.procs,
                "wait": r.wait,
                "slowdown": r.slowdown,
            }
            for r in result.records
        ]
    return out


def dump_result_json(
    result: ExperimentResult, path: str | Path, include_records: bool = False
) -> None:
    """Write a result as pretty-printed JSON."""
    payload = result_to_dict(result, include_records=include_records)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Serialise driver rows (list of same-keyed dicts) as CSV text."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def dump_rows_csv(rows: Sequence[Mapping[str, object]], path: str | Path) -> None:
    """Write driver rows as a CSV file."""
    Path(path).write_text(rows_to_csv(rows), encoding="utf-8")
