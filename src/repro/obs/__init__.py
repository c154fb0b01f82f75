"""Observability layer: structured run tracing, scheduler telemetry, and
profiling hooks.

Three pieces, all inert (and bit-identical to an uninstrumented build)
unless explicitly switched on:

* :class:`~repro.obs.tracer.RunTracer` — append-only, schema-versioned
  JSONL trace of scheduler rounds (portfolio selection outcomes,
  per-policy scores and Δ accounting, Smart/Stale/Poor membership,
  quarantine/failover), VM lifecycle, and billing settlements.  A bounded
  in-memory ring buffer keeps the newest records addressable in-process;
  flushes append to disk and survive crash/resume without duplicating
  round records.
* :class:`~repro.obs.profiler.Profiler` — lightweight span aggregation
  (count / total / max seconds) over the hot paths: kernel event
  dispatch, Algorithm 1 policy evaluation, campaign cells.  Campaign
  cells' worker-side walls are merged back into the parent profiler.
* :mod:`~repro.obs.exporter` — JSON summary and Prometheus text-format
  output of run metrics, span stats, and trace record counts.

``repro run --trace-out/--profile/--prom-out`` wires them up;
``repro trace-report`` summarises a trace file after the fact.
"""

from repro.obs.profiler import Profiler, SpanStats, profiled
from repro.obs.records import TRACE_SCHEMA
from repro.obs.report import (
    TraceReadError,
    TraceReadResult,
    read_trace,
    render_trace_report,
)
from repro.obs.tracer import RunTracer, TraceConfig
from repro.obs.exporter import profile_to_dict, prometheus_text, trace_to_dict

__all__ = [
    "TRACE_SCHEMA",
    "TraceConfig",
    "RunTracer",
    "Profiler",
    "SpanStats",
    "profiled",
    "profile_to_dict",
    "prometheus_text",
    "trace_to_dict",
    "TraceReadError",
    "TraceReadResult",
    "read_trace",
    "render_trace_report",
]
