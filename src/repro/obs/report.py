"""Trace-file reading and the ``repro trace-report`` summary.

Reading is deliberately forgiving where crashes can corrupt and strict
where bugs would hide:

* a torn **final** line (the run was killed mid-append) is dropped and
  counted — crash debris, not data loss;
* torn or foreign lines elsewhere are also skipped but reported, so a
  truncated-in-the-middle file is visible;
* records from a **newer schema** than this reader raise, records with
  unknown kinds are kept (forward-compatible readers ignore what they
  do not understand).

The report renders the scheduler's dynamics: per-policy win counts, the
policy-switch timeline, Δ accounting across Algorithm 1 invocations,
queue/fleet sparklines, and the top profiled spans when the trace
carries a ``profile`` record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.metrics.report import format_table
from repro.metrics.timeseries import sparkline
from repro.obs.records import (
    CHARGE,
    FAILOVER,
    PROFILE,
    ROUND,
    RUN_END,
    RUN_START,
    TRACE_SCHEMA,
    VM,
)

__all__ = ["TraceReadResult", "TraceReadError", "read_trace", "render_trace_report"]


class TraceReadError(RuntimeError):
    """The trace file is missing, unreadable, or from a newer schema."""


@dataclass(slots=True)
class TraceReadResult:
    """Parsed trace: records in file order plus read diagnostics."""

    records: list[dict] = field(default_factory=list)
    torn_final_line: bool = False
    skipped_lines: int = 0

    def of_kind(self, kind: str) -> list[dict]:
        return [r for r in self.records if r.get("kind") == kind]


def read_trace(path: str | Path) -> TraceReadResult:
    """Parse a JSONL trace file; see the module docstring for tolerance."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise TraceReadError(f"cannot read trace {path}: {exc}") from exc
    result = TraceReadResult()
    lines = raw.split(b"\n")
    # A well-formed file ends with a newline, leaving one empty tail entry.
    if lines and lines[-1] == b"":
        lines.pop()
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                result.torn_final_line = True  # killed mid-append
            else:
                result.skipped_lines += 1
            continue
        if not isinstance(record, dict):
            result.skipped_lines += 1
            continue
        version = record.get("v")
        if isinstance(version, int) and version > TRACE_SCHEMA:
            raise TraceReadError(
                f"trace {path} uses schema {version}; this reader "
                f"understands up to {TRACE_SCHEMA}"
            )
        result.records.append(record)
    return result


def _fmt_time(seconds: float) -> str:
    if seconds >= 2 * 86_400:
        return f"{seconds / 86_400:.1f}d"
    if seconds >= 2 * 3_600:
        return f"{seconds / 3_600:.1f}h"
    return f"{seconds:.0f}s"


def _series(rounds: list[dict], key: str) -> np.ndarray:
    return np.array([float(r.get(key, np.nan)) for r in rounds], dtype=float)


def render_trace_report(
    trace: TraceReadResult,
    source: str = "trace",
    top_spans: int = 5,
    max_switches: int = 40,
    width: int = 60,
) -> str:
    """Render the human-readable summary of one parsed trace."""
    out: list[str] = []
    rounds = trace.of_kind(ROUND)
    starts = trace.of_kind(RUN_START)
    ends = trace.of_kind(RUN_END)

    counts: dict[str, int] = {}
    for record in trace.records:
        kind = str(record.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    out.append(f"{source}: schema {TRACE_SCHEMA}, "
               f"{len(trace.records)} records ({summary})")
    if trace.torn_final_line:
        out.append("note: dropped a torn final line (run was killed mid-append)")
    if trace.skipped_lines:
        out.append(f"note: skipped {trace.skipped_lines} unparseable line(s)")

    if starts:
        s = starts[0]
        resumes = sum(1 for r in starts if r.get("resumed"))
        seg = f", {resumes} resumed segment(s)" if resumes else ""
        out.append(
            f"run: {s.get('scheduler', '?')} over {s.get('jobs', '?')} jobs"
            f" (tick {s.get('tick', '?')}s, max_vms {s.get('max_vms', '?')}){seg}"
        )
    if ends:
        e = ends[-1]
        out.append(
            f"end: t={_fmt_time(float(e.get('t', 0.0)))}, "
            f"utility {e.get('utility', float('nan')):.3f}, "
            f"BSD {e.get('bsd', float('nan')):.3f}, "
            f"RV {e.get('rv_seconds', 0.0) / 3_600.0:.1f} VMh, "
            f"unfinished {e.get('unfinished', 0)}"
        )

    if not rounds:
        out.append("no scheduler rounds recorded")
        return "\n".join(out)

    # Per-policy application counts and Algorithm 1 win counts.  A round
    # books a win as the scheduler's reflection store (Fig. 5) does: its
    # applied policy must be its first non-quarantined score, and no
    # failover record may follow it (the failover round applies the safe
    # policy, whatever scored best).
    failed_over: set[object] = set()
    last_round: object = None
    for record in trace.records:
        if record.get("kind") == ROUND:
            last_round = record.get("round")
        elif record.get("kind") == FAILOVER:
            failed_over.add(last_round)
    applied: dict[str, int] = {}
    wins: dict[str, int] = {}
    budgets: list[float] = []
    spents: list[float] = []
    n_sim = 0
    n_shared = 0
    n_quar = 0
    for r in rounds:
        name = str(r.get("policy", "?"))
        applied[name] = applied.get(name, 0) + 1
        sel = r.get("selection")
        if isinstance(sel, dict):
            winner = next(
                (s.get("policy") for s in sel.get("scores", ())
                 if not s.get("quarantined")),
                None,
            )
            if winner == name and r.get("round") not in failed_over:
                wins[name] = wins.get(name, 0) + 1
            budgets.append(float(sel.get("budget", 0.0)))
            spents.append(float(sel.get("spent", 0.0)))
            n_sim += int(sel.get("n_simulated", 0))
            n_shared += int(sel.get("n_shared", 0))
            n_quar += int(sel.get("n_quarantined", 0))

    rows = [
        {"policy": name, "applied_rounds": applied[name],
         "selection_wins": wins.get(name, 0)}
        for name in sorted(applied, key=lambda n: (-applied[n], n))
    ]
    out.append("")
    out.append(format_table(rows[:10], title="policies by applied rounds (top 10)"))

    if budgets:
        out.append("")
        mean_b = float(np.mean(budgets))
        mean_s = float(np.mean(spents))
        share = 100.0 * mean_s / mean_b if mean_b > 0 else 0.0
        out.append(
            f"Δ accounting: {len(budgets)} invocations, mean spent "
            f"{mean_s * 1e3:.1f} ms of {mean_b * 1e3:.1f} ms budget "
            f"({share:.0f}%), {n_sim} policy simulations "
            f"({n_shared} shared), {n_quar} quarantined"
        )

    # Policy-switch timeline.
    switches: list[tuple[float, int, str, str]] = []
    previous: str | None = None
    for r in rounds:
        name = str(r.get("policy", "?"))
        if previous is not None and name != previous:
            switches.append((float(r.get("t", 0.0)), int(r.get("round", -1)),
                             previous, name))
        previous = name
    out.append("")
    out.append(f"policy switches: {len(switches)}")
    shown = switches[:max_switches]
    for t, round_id, old, new in shown:
        out.append(f"  t={_fmt_time(t):>7} round={round_id:<6} {old} -> {new}")
    if len(switches) > len(shown):
        out.append(f"  ... {len(switches) - len(shown)} more")
    for r in trace.of_kind(FAILOVER):
        out.append(
            f"  t={_fmt_time(float(r.get('t', 0.0))):>7} FAILOVER -> "
            f"{r.get('safe_policy', '?')} after "
            f"{r.get('consecutive_quarantines', '?')} consecutive quarantines"
        )

    out.append("")
    for key, label in (("queue", "queue"), ("fleet", "fleet")):
        series = _series(rounds, key)
        peak = np.nanmax(series) if np.isfinite(series).any() else float("nan")
        out.append(f"{label:>6} |{sparkline(series, width=width)}| peak {peak:g}")

    vm_events = trace.of_kind(VM)
    charges = trace.of_kind(CHARGE)
    if vm_events or charges:
        leases = sum(1 for r in vm_events if r.get("event") == "lease")
        fails = sum(1 for r in vm_events if r.get("event") == "fail")
        charged = sum(float(r.get("seconds", 0.0)) for r in charges)
        out.append(
            f"fleet events: {leases} leases, {fails} VM failures, "
            f"{len(charges)} billing settlements ({charged / 3_600.0:.1f} VMh)"
        )

    profiles = trace.of_kind(PROFILE)
    if profiles:
        spans = profiles[-1].get("spans", {})
        if isinstance(spans, dict) and spans:
            ranked = sorted(
                spans.items(),
                key=lambda kv: -float(kv[1].get("total", 0.0)),
            )[:top_spans]
            rows = [
                {
                    "span": name,
                    "calls": int(s.get("count", 0)),
                    "total_s": float(s.get("total", 0.0)),
                    "max_ms": float(s.get("max", 0.0)) * 1e3,
                }
                for name, s in ranked
            ]
            out.append("")
            out.append(format_table(rows, title=f"top {len(rows)} spans by total time"))
    return "\n".join(out)
