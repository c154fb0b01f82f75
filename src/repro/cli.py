"""Command-line interface.

Four subcommands cover the common workflows without writing Python:

* ``repro trace`` — generate a synthetic trace (optionally write SWF) and
  print its Table 1-style summary,
* ``repro run`` — replay a trace (synthetic or SWF) under the portfolio
  scheduler or a single fixed policy,
* ``repro figure`` — regenerate one of the paper's tables/figures,
* ``repro campaign`` — run a figure grid as independent cells, optionally
  fanned out over worker processes and memoised in a disk cache,
* ``repro trace-report`` — summarise a JSONL run trace written by
  ``repro run --trace-out`` (policy timeline, Δ accounting, top spans),
* ``repro chaos`` — turn environment faults against the platform itself:
  ``chaos run`` replays a trace with a seeded fault plan injected into
  the snapshot/tracer/cache/pool write paths, ``chaos soak`` loops
  kill → corrupt → resume cycles under strict audit and diffs the final
  export against an unfaulted reference,
* ``repro service`` — the long-running multi-tenant scheduler service:
  ``service run`` serves the unix-socket API until drained, ``service
  loadgen`` replays seeded synthetic tenants against it (and can spawn
  its own service), ``service replay`` reconstructs the canonical state
  from a journal,
* ``repro doctor`` — environment sanity checks (writable dirs, fsync,
  spawn pool, unix sockets, free space) with one-line verdicts,
* ``repro policies`` — list the 60 portfolio members.

Exit codes are centralised in :mod:`repro.exit_codes` (README has the
table).

Invoke as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal as _signal_mod
import sys
from typing import Sequence

from repro.exit_codes import (
    EX_AUDIT_VIOLATION,
    EX_FAILURE,
    EX_OK,
    EX_USAGE,
    signal_exit,
)
from repro.experiments.engine import EngineConfig
from repro.metrics.report import format_table
from repro.parallel.campaign import CAMPAIGN_FIGURES
from repro.policies.combined import build_portfolio, policy_by_name
from repro.predict.knn import KnnPredictor
from repro.predict.simple import OraclePredictor, UserEstimatePredictor
from repro.sim.clock import VirtualCostClock
from repro.workload.cleaning import clean_jobs
from repro.workload.job import Job
from repro.workload.stats import summarize_trace
from repro.workload.swf import parse_swf_file, write_swf
from repro.workload.synthetic import TRACES, generate_trace

__all__ = ["main", "build_parser"]

_TRACES = {spec.name: spec for spec in TRACES}
_FIGURES = (
    "table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
)


# -- argument validation ------------------------------------------------------
#
# Range errors surface as argparse usage errors at parse time instead of
# deep-in-run failures (a negative MTBF, say, would otherwise blow up in
# the failure sampler hours into a long run).

def _number(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _positive_float(text: str) -> float:
    value = _number(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    value = _number(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _rate(text: str) -> float:
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}"
        )
    return value


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer"
            ) from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Portfolio scheduling for scientific workloads in IaaS "
        "clouds (SC'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trace = sub.add_parser("trace", help="generate and summarise a synthetic trace")
    p_trace.add_argument("model", choices=sorted(_TRACES))
    p_trace.add_argument("--hours", type=_positive_float, default=24.0)
    p_trace.add_argument("--seed", type=int, default=42)
    p_trace.add_argument("--swf-out", metavar="PATH", help="also write the trace as SWF")

    p_run = sub.add_parser("run", help="replay a trace under a scheduler")
    source = p_run.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=sorted(_TRACES))
    source.add_argument("--swf", metavar="PATH", help="Standard Workload Format file")
    source.add_argument(
        "--resume", action="store_true",
        help="continue the run snapshotted in --snapshot-dir (trace, policy "
        "and fault options are restored from the snapshot and need not be "
        "repeated)",
    )
    p_run.add_argument("--hours", type=_positive_float, default=24.0)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--policy",
        default="portfolio",
        help="'portfolio' (default) or a fixed policy name like ODX-UNICEF-FirstFit",
    )
    p_run.add_argument(
        "--predictor", choices=("oracle", "knn", "user"), default="oracle"
    )
    p_run.add_argument("--max-vms", type=_positive_int, default=256)
    p_run.add_argument("--system-procs", type=_positive_int, default=128,
                       help="source system size for SWF cleaning")

    chaos = p_run.add_argument_group(
        "fault injection & resilience",
        "unreliable-cloud extension: all knobs off reproduces the paper's "
        "reliable-VM model; every fault stream is deterministic per --seed",
    )
    chaos.add_argument("--mtbf", type=_positive_float, metavar="SECONDS",
                       help="mean exponential VM lifetime (VM failure injection)")
    chaos.add_argument("--lease-fault-rate", type=_rate, default=0.0,
                       metavar="P", help="P[lease request fails transiently]")
    chaos.add_argument("--partial-grant-rate", type=_rate, default=0.0,
                       metavar="P",
                       help="P[lease request only partially granted]")
    chaos.add_argument("--boot-fail-rate", type=_rate, default=0.0, metavar="P",
                       help="P[a leased VM never becomes ready]")
    chaos.add_argument("--boot-jitter", type=_nonneg_float, default=0.0,
                       metavar="SECONDS",
                       help="lognormal long-tail scale added to boot delays")
    chaos.add_argument("--outage-rate", type=_nonneg_float, default=0.0,
                       metavar="PER_DAY",
                       help="mean correlated outage windows per simulated day")
    chaos.add_argument("--outage-duration", type=_positive_float, default=900.0,
                       metavar="SECONDS", help="mean outage window length")
    chaos.add_argument("--outage-kill-fraction", type=_rate, default=0.5,
                       metavar="P",
                       help="P[each on-demand VM dies when an outage opens]")
    chaos.add_argument("--checkpoint-interval", type=_positive_float,
                       metavar="SECONDS",
                       help="periodic checkpointing: killed jobs resume from "
                       "their last checkpoint instead of restarting")
    chaos.add_argument("--max-job-retries", type=_nonneg_int, metavar="N",
                       help="kill budget per job before it ends FAILED "
                       "(default: unlimited)")

    spot = p_run.add_argument_group(
        "spot market & control-plane degradation",
        "hostile-cloud extension: a seeded spot price/preemption process "
        "plus API brownouts, rate limiting, and a provisioning circuit "
        "breaker; all knobs off reproduces the cooperative-cloud model "
        "bit-identically",
    )
    spot.add_argument("--spot-fraction", type=_rate, default=0.0, metavar="P",
                      help="fraction of each provisioning request leased as "
                      "preemptible spot VMs (0 disables the spot market)")
    spot.add_argument("--preempt-rate", type=_nonneg_float, default=0.05,
                      metavar="PER_HOUR",
                      help="mean spot reclaims per VM-hour")
    spot.add_argument("--spot-price", type=_rate, default=0.3, metavar="MEAN",
                      help="mean spot price as a fraction of on-demand")
    spot.add_argument("--spot-bid", type=_rate, default=1.0, metavar="BID",
                      help="default bid ceiling; spot leases are deferred "
                      "while the price exceeds it (policy members may "
                      "override per round)")
    spot.add_argument("--preempt-grace", type=_nonneg_float, default=120.0,
                      metavar="SECONDS",
                      help="notice window between VM_PREEMPT and the kill; "
                      "long enough windows fit an emergency checkpoint")
    spot.add_argument("--capacity-shortage-rate", type=_rate, default=0.0,
                      metavar="P",
                      help="P[spot capacity is exhausted in a price bucket] "
                      "(InsufficientCapacity; hedged to on-demand)")
    spot.add_argument("--brownout", type=_nonneg_float, default=0.0,
                      metavar="PER_DAY",
                      help="mean control-plane brownout windows per "
                      "simulated day (provisioning calls rejected)")
    spot.add_argument("--brownout-duration", type=_positive_float,
                      default=600.0, metavar="SECONDS",
                      help="mean brownout window length")
    spot.add_argument("--api-rate-limit", type=_positive_int, default=None,
                      metavar="N",
                      help="max provisioning calls per rolling window; "
                      "excess calls are throttled (feeds the breaker)")
    spot.add_argument("--api-rate-window", type=_positive_float,
                      default=60.0, metavar="SECONDS",
                      help="rolling window for --api-rate-limit")
    spot.add_argument("--breaker-threshold", type=_positive_int, default=3,
                      metavar="N",
                      help="consecutive control-plane failures that open "
                      "the provisioning circuit breaker")
    spot.add_argument("--breaker-cooldown", type=_positive_float,
                      default=300.0, metavar="SECONDS",
                      help="base cooldown before the open breaker admits a "
                      "half-open probe (decorrelated-jitter backoff)")
    spot.add_argument("--no-hedge", action="store_true",
                      help="do not fall back to on-demand when spot "
                      "capacity is short or the price exceeds the bid")
    spot.add_argument("--spot-policies", action="store_true",
                      help="extend the portfolio with the preemption-aware "
                      "family (bid-threshold provisioning, checkpoint-"
                      "interval tuning), arbitrated by Algorithm 1")

    durable = p_run.add_argument_group(
        "durability",
        "crash-safe execution: periodic atomic snapshots of full run state, "
        "snapshot-and-exit on SIGINT/SIGTERM, and --resume after a kill; a "
        "resumed run reproduces the uninterrupted result bit-identically",
    )
    durable.add_argument("--snapshot-dir", metavar="DIR",
                         help="directory for run-state snapshots (enables "
                         "durable execution)")
    durable.add_argument("--snapshot-interval", type=_positive_float,
                         metavar="SECONDS",
                         help="wall-clock seconds between snapshots "
                         "(default 300 when --snapshot-dir is set)")
    durable.add_argument("--snapshot-every-events", type=_positive_int,
                         metavar="N",
                         help="also snapshot every N simulation events "
                         "(deterministic trigger, used by tests/CI)")
    durable.add_argument("--export-json", metavar="PATH",
                         help="write the final result as JSON (resume-safe: "
                         "identical to the uninterrupted run's export)")

    failsafe = p_run.add_argument_group(
        "fail-safe portfolio evaluation",
        "a policy that raises during online simulation is quarantined "
        "(scored -inf, demoted to Poor) instead of aborting the run",
    )
    failsafe.add_argument("--quarantine-limit", type=_positive_int, metavar="N",
                          help="after N consecutive quarantined evaluations, "
                          "stop selecting and apply --safe-policy for the "
                          "rest of the run (default: never fail over)")
    failsafe.add_argument("--safe-policy", metavar="NAME",
                          help="fixed policy applied after quarantine "
                          "failover (default: first portfolio member)")

    auditing = p_run.add_argument_group(
        "self-verification",
        "runtime invariant auditing: an online monitor checks event "
        "delivery, VM lifecycle/billing, job conservation, and "
        "provider/queue consistency, and a differential oracle re-derives "
        "RJ/RV/BSD/U from an independent ledger at run end; 'off' is "
        "bit-identical to an unaudited run",
    )
    auditing.add_argument("--audit", choices=("off", "record", "warn", "strict"),
                          default=None,
                          help="severity: record silently, warn on stderr, or "
                          "strict (first violation aborts the run; exit 3); "
                          "ignored on --resume, which restores the snapshot's "
                          "audit config (default: off)")
    auditing.add_argument("--audit-report", action="store_true",
                          help="print the audit summary and oracle tables "
                          "after the run")

    kernel = p_run.add_argument_group(
        "simulation kernel",
        "online-simulator implementation used for Algorithm 1's policy "
        "evaluations; 'fast' (default) shares a warm-start prefix per "
        "round and runs slot/array-based policy arithmetic with "
        "bit-identical scoring; 'reference' keeps the historical "
        "per-step object scan as an escape hatch",
    )
    kernel.add_argument("--kernel", choices=("fast", "reference"),
                        default="fast",
                        help="online-simulator kernel (default: fast; "
                        "'reference' is bit-identical and ~3x slower)")

    parallel = p_run.add_argument_group(
        "parallel evaluation",
        "evaluate portfolio policies on worker processes; 0 (default) is "
        "the serial path, bit-identical to previous releases; with N > 0 "
        "the time constraint is charged in aggregate worker-seconds",
    )
    parallel.add_argument("--workers", type=_nonneg_int, default=0, metavar="N",
                          help="worker processes for Algorithm 1's policy "
                          "simulations (portfolio runs only)")
    parallel.add_argument("--worker-deadline", type=_positive_float,
                          metavar="SECONDS",
                          help="watchdog: SIGKILL and respawn the wave's "
                          "workers if one evaluation wave exceeds this many "
                          "wall-clock seconds (default: wait forever)")

    obs = p_run.add_argument_group(
        "observability",
        "structured run tracing and span profiling; with both off "
        "(default) the run is bit-identical to an uninstrumented build; "
        "on --resume the snapshot's tracer/profiler are restored and "
        "--trace-out/--profile are ignored",
    )
    obs.add_argument("--trace-out", metavar="PATH",
                     help="write one JSONL record per scheduler round (policy "
                     "scores, Δ accounting, Smart/Stale/Poor sets) plus VM "
                     "lifecycle and billing settlements; inspect with "
                     "'repro trace-report'")
    obs.add_argument("--profile", action="store_true",
                     help="time hot-path spans (kernel dispatch, Algorithm 1, "
                     "parallel waves) and print the top spans after the run")
    obs.add_argument("--prom-out", metavar="PATH",
                     help="write the final result as Prometheus text-format "
                     "metrics")

    p_fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    p_fig.add_argument("name", choices=_FIGURES)

    p_camp = sub.add_parser(
        "campaign",
        help="run a figure grid as independent cells, optionally in "
        "parallel and memoised in a disk cache",
    )
    p_camp.add_argument("figure", choices=sorted(CAMPAIGN_FIGURES))
    p_camp.add_argument("--workers", type=_nonneg_int, default=0, metavar="N",
                        help="worker processes for the cell fan-out "
                        "(0 = serial, bit-identical to the figure drivers)")
    p_camp.add_argument("--cell-cache", metavar="DIR",
                        help="content-addressed disk cache of completed "
                        "cells; re-runs only recompute what changed")
    p_camp.add_argument("--trace", action="append", choices=sorted(_TRACES),
                        metavar="MODEL",
                        help="restrict to this trace (repeatable; "
                        "default: all four)")
    p_camp.add_argument("--scale", type=_positive_float, default=None,
                        metavar="FACTOR",
                        help="scale the figure's simulated horizon (1.0 = "
                        "the drivers' default two days)")
    p_camp.add_argument("--export-json", metavar="PATH",
                        help="write the figure rows as JSON (identical for "
                        "serial and parallel runs)")

    p_chaos = sub.add_parser(
        "chaos",
        help="inject environment faults into the platform itself "
        "(snapshot writes, tracer flushes, cache puts, pool workers)",
    )
    chaos_sub = p_chaos.add_subparsers(dest="chaos_command", required=True)

    def chaos_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=sorted(_TRACES), default="KTH-SP2")
        p.add_argument("--hours", type=_positive_float, default=2.0)
        p.add_argument("--seed", type=int, default=42,
                       help="trace seed (not the fault seed)")
        p.add_argument("--policy", default="portfolio",
                       help="'portfolio' (default) or a fixed policy name")
        p.add_argument("--plan", metavar="PATH",
                       help="JSON fault plan ({'seed': ..., 'rules': "
                       "[{'site': ..., 'action': ..., 'nth': ...}, ...]})")
        p.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                       help="override the plan's fault-content seed")
        p.add_argument("--export-json", metavar="PATH",
                       help="write the chaos report as JSON")

    p_crun = chaos_sub.add_parser(
        "run",
        help="replay a trace (strictly audited, durable if --snapshot-dir "
        "is given) with the fault plan installed; reports every fault "
        "delivered",
    )
    chaos_common(p_crun)
    p_crun.add_argument("--snapshot-dir", metavar="DIR",
                        help="run durably, snapshotting into DIR")
    p_crun.add_argument("--snapshot-every-events", type=_positive_int,
                        default=2000, metavar="N",
                        help="snapshot cadence for --snapshot-dir")

    p_soak = chaos_sub.add_parser(
        "soak",
        help="loop kill -> corrupt-newest-snapshot -> resume cycles under "
        "strict audit; exit 0 only if the final export matches an "
        "unfaulted reference run",
    )
    chaos_common(p_soak)
    p_soak.add_argument("--cycles", type=_positive_int, default=3,
                        help="interrupt/corrupt/resume rounds")
    p_soak.add_argument("--every-events", type=_positive_int, default=500,
                        metavar="N", help="snapshot cadence during the soak")
    p_soak.add_argument("--dir", metavar="DIR",
                        help="snapshot directory (default: a temporary one)")

    p_report = sub.add_parser(
        "trace-report",
        help="summarise a JSONL run trace written by 'repro run --trace-out'",
    )
    p_report.add_argument("trace", metavar="PATH", help="the trace file")
    p_report.add_argument("--top-spans", type=_positive_int, default=5,
                          metavar="N", help="profiled spans to show")
    p_report.add_argument("--max-switches", type=_nonneg_int, default=40,
                          metavar="N",
                          help="policy-switch timeline rows to show")
    p_report.add_argument("--width", type=_positive_int, default=60,
                          metavar="CHARS", help="sparkline width")

    p_service = sub.add_parser(
        "service",
        help="the long-running multi-tenant scheduler service "
        "(journaled admissions, crash-consistent replay, graceful drain)",
    )
    service_sub = p_service.add_subparsers(dest="service_command", required=True)

    def service_state_flags(p: argparse.ArgumentParser) -> None:
        """Flags that shape the deterministic state machine — ``service
        replay`` must be invoked with the same values the server used."""
        p.add_argument("--max-vms", type=_positive_int, default=64,
                       help="shared provider cap all tenants compete under")
        p.add_argument("--round-step", type=_positive_float, default=20.0,
                       metavar="SECONDS",
                       help="virtual seconds per engine round (paper tick)")
        p.add_argument("--scheduler", default="portfolio",
                       help="'portfolio' (Algorithm 1 per tenant) or a fixed "
                       "policy name like ODX-UNICEF-FirstFit")
        p.add_argument("--selection-period", type=_positive_int, default=4,
                       metavar="ROUNDS", help="portfolio re-selection period")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-queued", type=_positive_int, default=None,
                       metavar="N", help="default tenant queue-depth budget")
        p.add_argument("--rate", type=_positive_float, default=None,
                       metavar="PER_ROUND",
                       help="default tenant token-bucket refill per round")
        p.add_argument("--burst", type=_positive_float, default=None,
                       metavar="N", help="default tenant token-bucket burst")
        p.add_argument("--vm-hours", type=_positive_float, default=None,
                       metavar="H", help="default tenant VM-hour budget "
                       "(charged at admission; default unlimited)")

    p_srun = service_sub.add_parser(
        "run", help="serve the unix-socket API until drained "
        "(SIGTERM/SIGINT or an API drain request; exits 4, or 5 with the "
        "kill switch engaged)",
    )
    p_srun.add_argument("--socket", required=True, metavar="PATH",
                        help="unix socket to listen on")
    p_srun.add_argument("--journal-dir", required=True, metavar="DIR",
                        help="append-only service journal (replayed on start)")
    p_srun.add_argument("--snapshot-dir", metavar="DIR",
                        help="snapshot store for fast restart (level 1 of "
                        "the recovery ladder)")
    p_srun.add_argument("--snapshot-every-rounds", type=_positive_int,
                        metavar="N", help="snapshot cadence, in rounds")
    p_srun.add_argument("--round-interval", type=_nonneg_float, default=0.5,
                        metavar="SECONDS",
                        help="wall seconds between automatic rounds "
                        "(0: rounds only on explicit {'op': 'round'})")
    p_srun.add_argument("--kill-switch", metavar="PATH",
                        help="while this file exists, provisioning halts "
                        "(admissions continue; journaled on toggle)")
    p_srun.add_argument("--max-tenants", type=_positive_int, default=1024)
    service_state_flags(p_srun)

    p_sload = service_sub.add_parser(
        "loadgen", help="replay seeded synthetic tenants against a service "
        "and report sustained submissions/sec and the shed breakdown",
    )
    target = p_sload.add_mutually_exclusive_group(required=True)
    target.add_argument("--socket", metavar="PATH",
                        help="socket of an already-running service")
    target.add_argument("--spawn", action="store_true",
                        help="spawn a private service child for the run "
                        "(drained afterwards)")
    p_sload.add_argument("--tenants", type=_positive_int, default=50)
    p_sload.add_argument("--jobs-per-tenant", type=_positive_int, default=20)
    p_sload.add_argument("--rounds-every", type=_nonneg_int, default=100,
                         metavar="N",
                         help="interleave one engine round per N submissions "
                         "(0: leave pacing to the service timer)")
    p_sload.add_argument("--hot", type=_nonneg_int, default=0, metavar="N",
                         help="first N tenants submit 4x the jobs "
                         "(the overload scenario)")
    p_sload.add_argument("--out", metavar="PATH",
                         help="write the report as JSON (BENCH_service.json)")
    service_state_flags(p_sload)

    p_sreplay = service_sub.add_parser(
        "replay", help="reconstruct the canonical service state from a "
        "journal (give the same state flags the server ran with)",
    )
    p_sreplay.add_argument("--journal-dir", required=True, metavar="DIR")
    p_sreplay.add_argument("--out", metavar="PATH",
                           help="write the state as JSON instead of stdout")
    service_state_flags(p_sreplay)

    p_doctor = sub.add_parser(
        "doctor", help="check this environment can host durable runs and "
        "the service (writable dirs, fsync, spawn pool, unix sockets)",
    )
    p_doctor.add_argument("--dir", metavar="PATH",
                          help="directory to probe (default: the temp dir); "
                          "point it at your journal/snapshot location")
    p_doctor.add_argument("--no-pool", action="store_true",
                          help="skip the spawn-context worker pool check "
                          "(slowest probe)")

    sub.add_parser("policies", help="list the 60 portfolio policies")
    return parser


def _predictor(name: str):
    return {"oracle": OraclePredictor, "knn": KnnPredictor,
            "user": UserEstimatePredictor}[name]()


def _cmd_trace(args: argparse.Namespace) -> int:
    spec = _TRACES[args.model]
    duration = args.hours * 3_600.0
    jobs = generate_trace(spec, duration, args.seed)
    if not jobs:
        print("trace is empty at this duration/seed", file=sys.stderr)
        return EX_FAILURE
    summary = summarize_trace(spec.name, jobs, spec.system_procs, span=duration)
    print(format_table([summary.row()], title=f"{spec.name} — {args.hours:g} h"))
    if args.swf_out:
        with open(args.swf_out, "w", encoding="utf-8") as fh:
            write_swf(jobs, fh, header=f"synthetic {spec.name} trace, seed {args.seed}")
        print(f"wrote {len(jobs)} jobs to {args.swf_out}")
    return EX_OK


def _load_jobs(args: argparse.Namespace) -> list[Job]:
    if args.model:
        spec = _TRACES[args.model]
        return generate_trace(spec, args.hours * 3_600.0, args.seed)
    raw = parse_swf_file(args.swf)
    jobs, report = clean_jobs(raw, system_procs=args.system_procs)
    print(f"cleaned SWF: kept {report.kept}/{report.total} jobs")
    return jobs


def _resilience_config(args: argparse.Namespace) -> dict:
    """EngineConfig kwargs for the fault/resilience CLI knobs."""
    from repro.cloud.failures import FailureModel
    from repro.resilience import CheckpointPolicy, FaultModel, RetryPolicy

    kwargs: dict = {}
    if args.mtbf is not None:
        kwargs["failures"] = FailureModel(mtbf_seconds=args.mtbf, seed=args.seed)
    fault_knobs = (
        args.lease_fault_rate or args.partial_grant_rate
        or args.boot_fail_rate or args.boot_jitter or args.outage_rate
    )
    if fault_knobs:
        kwargs["faults"] = FaultModel(
            seed=args.seed,
            lease_fault_rate=args.lease_fault_rate,
            partial_grant_rate=args.partial_grant_rate,
            boot_fail_rate=args.boot_fail_rate,
            boot_jitter_scale=args.boot_jitter,
            outage_mtbo_seconds=(86_400.0 / args.outage_rate
                                 if args.outage_rate else None),
            outage_duration_seconds=args.outage_duration,
            outage_kill_fraction=args.outage_kill_fraction,
        )
        # Faulty control planes deserve backoff, not tick-rate hammering.
        kwargs["lease_retry"] = RetryPolicy()
    if args.checkpoint_interval is not None:
        kwargs["checkpoint"] = CheckpointPolicy(args.checkpoint_interval)
    if args.max_job_retries is not None:
        kwargs["max_job_retries"] = args.max_job_retries
    return kwargs


def _spot_config(args: argparse.Namespace):
    """Build the SpotConfig for the hostile-cloud knobs, or None.

    The market switches on only when a knob with observable effect is
    raised (a spot fraction, a brownout rate, or an API rate limit);
    leaving everything at the defaults must construct the exact same
    EngineConfig as builds predating the spot layer.
    """
    active = (
        args.spot_fraction > 0.0
        or args.brownout > 0.0
        or args.api_rate_limit is not None
    )
    if not active:
        return None
    from repro.cloud.spot import SpotConfig

    return SpotConfig(
        seed=args.seed,
        spot_fraction=args.spot_fraction,
        price_mean=args.spot_price,
        preempt_rate_per_hour=args.preempt_rate,
        grace_period_seconds=args.preempt_grace,
        bid=args.spot_bid,
        capacity_shortage_rate=args.capacity_shortage_rate,
        brownout_mtbb_seconds=(86_400.0 / args.brownout
                               if args.brownout else None),
        brownout_duration_seconds=args.brownout_duration,
        api_rate_limit=args.api_rate_limit,
        api_rate_window_seconds=args.api_rate_window,
        hedge=not args.no_hedge,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_seconds=args.breaker_cooldown,
    )


def _snapshot_config(args: argparse.Namespace):
    """Build the SnapshotConfig for --snapshot-dir, or None."""
    if not args.snapshot_dir:
        return None
    from repro.durability import SnapshotConfig

    interval = args.snapshot_interval
    if interval is None and args.snapshot_every_events is None:
        interval = 300.0  # durable by default once a directory is given
    return SnapshotConfig(
        args.snapshot_dir,
        interval_seconds=interval,
        every_events=args.snapshot_every_events,
    )


class SystemExit2(Exception):
    """Carries (message, exit code) out of the engine builder."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _build_engine(args: argparse.Namespace):
    """Construct a fresh (never-started) engine from the run arguments."""
    from repro.cloud.provider import ProviderConfig
    from repro.core.scheduler import FixedScheduler, PortfolioScheduler
    from repro.experiments.engine import ClusterEngine

    jobs = _load_jobs(args)
    if not jobs:
        raise SystemExit2("no jobs to run", EX_FAILURE)
    audit_kwargs: dict = {}
    if args.audit is not None:
        from repro.audit import AuditConfig

        audit_kwargs["audit"] = AuditConfig(level=args.audit)
    obs_kwargs: dict = {}
    if args.trace_out:
        from repro.obs import TraceConfig

        obs_kwargs["trace"] = TraceConfig(path=args.trace_out)
    if args.profile:
        obs_kwargs["profile"] = True
    spot_kwargs: dict = {}
    spot_cfg = _spot_config(args)
    if spot_cfg is not None:
        spot_kwargs["spot"] = spot_cfg
    config = EngineConfig(
        provider=ProviderConfig(max_vms=args.max_vms),
        **_resilience_config(args),
        **spot_kwargs,
        **audit_kwargs,
        **obs_kwargs,
    )
    predictor = _predictor(args.predictor)
    portfolio_kwargs: dict = {}
    if args.spot_policies:
        from repro.policies.spot_aware import spot_portfolio_members

        portfolio_kwargs["portfolio"] = (
            build_portfolio() + spot_portfolio_members()
        )
    if args.policy == "portfolio":
        try:
            scheduler = PortfolioScheduler(
                cost_clock=VirtualCostClock(0.010),
                seed=7,
                quarantine_limit=args.quarantine_limit,
                safe_policy=args.safe_policy,
                workers=args.workers,
                worker_deadline=args.worker_deadline,
                kernel=getattr(args, "kernel", "fast"),
                **portfolio_kwargs,
            )
        except KeyError as exc:
            raise SystemExit2(exc.args[0], EX_USAGE) from exc
    else:
        try:
            scheduler = FixedScheduler(policy_by_name(args.policy))
        except KeyError as exc:
            raise SystemExit2(exc.args[0], EX_USAGE) from exc
    return ClusterEngine(jobs, scheduler, predictor, config)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.audit import InvariantViolation
    from repro.durability import DurableRunner, RunInterrupted, SnapshotError

    snap_cfg = _snapshot_config(args)
    if args.resume and snap_cfg is None:
        print("--resume requires --snapshot-dir", file=sys.stderr)
        return EX_USAGE
    try:
        if args.resume:
            runner = DurableRunner.resume(snap_cfg)
            if runner.resumed_from.completed:
                print("snapshot marks the run completed; reporting its result")
        elif snap_cfg is not None:
            runner = DurableRunner(_build_engine(args), snap_cfg)
        else:
            runner = None
            result = _build_engine(args).run()
        if runner is not None:
            result = runner.run()
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except InvariantViolation as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return EX_AUDIT_VIOLATION
    except SnapshotError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    except RunInterrupted as exc:
        print(str(exc), file=sys.stderr)
        print(
            f"resume with: repro run --resume --snapshot-dir {args.snapshot_dir}",
            file=sys.stderr,
        )
        return signal_exit(exc.signum)

    recovery = getattr(runner, "recovery", None) if runner is not None else None
    if recovery is not None and recovery.fallback:
        print(
            f"recovery: newest snapshot was unusable; fell back to "
            f"generation {recovery.recovered_sequence} "
            f"({recovery.recovered}) after "
            f"{len(recovery.errors)} failed attempt(s)",
            file=sys.stderr,
        )
    is_portfolio = result.scheduler_desc.startswith("portfolio(")
    extra = {}
    if is_portfolio:
        extra["selections"] = result.portfolio_invocations
        extra["quarantined"] = result.policies_quarantined
    m = result.metrics
    row = {
        "scheduler": result.scheduler_desc,
        "jobs": m.jobs,
        "BSD": round(m.avg_bounded_slowdown, 3),
        "cost[VMh]": round(m.charged_hours, 1),
        "util": round(m.utilization, 3),
        "utility": round(result.utility, 3),
        **extra,
    }
    print(format_table([row], title="run result"))
    if result.portfolio_failed_over:
        print("portfolio failed over to its safe policy "
              f"after {result.policies_quarantined} quarantined evaluations")
    r9 = result.resilience
    if r9.any_activity or result.unfinished_jobs:
        row = {**r9.row(), "unfinished": result.unfinished_jobs}
        print(format_table([row], title="resilience"))
    spot_stats = getattr(result, "spot", None)
    if spot_stats is not None and spot_stats.any_activity:
        print(format_table([spot_stats.row()], title="spot market"))
    report = getattr(result, "audit", None)
    if report is not None and (args.audit_report or not report.ok):
        print(format_table([report.summary_row()], title="audit"))
        if report.oracle_checks:
            print(format_table(report.oracle_rows(), title="differential oracle"))
        for violation in report.violations[:10]:
            print(f"violation [{violation.kind}] t={violation.time:.0f}: "
                  f"{violation.message}")
    profile = getattr(result, "profile", None)
    if profile and profile.get("spans"):
        ranked = sorted(
            profile["spans"].items(), key=lambda kv: -float(kv[1]["total"])
        )[:5]
        rows = [
            {
                "span": name,
                "calls": int(s["count"]),
                "total_s": round(float(s["total"]), 4),
                "max_ms": round(float(s["max"]) * 1e3, 3),
            }
            for name, s in ranked
        ]
        print(format_table(rows, title=f"top {len(rows)} spans by total time"))
    trace_summary = getattr(result, "trace", None)
    if trace_summary is not None and trace_summary.get("path"):
        print(
            f"trace: {trace_summary['records']} records -> "
            f"{trace_summary['path']} (inspect with 'repro trace-report')"
        )
    if args.prom_out:
        from repro.obs import prometheus_text

        with open(args.prom_out, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(result))
        print(f"wrote {args.prom_out}")
    if args.export_json:
        from repro.experiments.export import dump_result_json

        dump_result_json(result, args.export_json)
        print(f"wrote {args.export_json}")
    return EX_OK


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from repro.obs import TraceReadError, read_trace, render_trace_report

    try:
        trace = read_trace(args.trace)
    except TraceReadError as exc:
        print(str(exc), file=sys.stderr)
        return EX_FAILURE
    print(
        render_trace_report(
            trace,
            source=args.trace,
            top_spans=args.top_spans,
            max_switches=args.max_switches,
            width=args.width,
        )
    )
    return EX_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    import importlib

    module = importlib.import_module(f"repro.experiments.{args.name}")
    module.main()
    return EX_OK


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.compare import comparison_rows
    from repro.experiments.configs import DAY, DEFAULT_SCALE, ExperimentScale
    from repro.parallel import (
        Campaign,
        CampaignError,
        comparison_cells,
        install_results,
    )

    predictor = CAMPAIGN_FIGURES[args.figure]
    if args.scale is not None:
        scale = ExperimentScale(
            compare_duration=2 * DAY * args.scale,
            sweep_duration=DAY * args.scale,
        )
    else:
        scale = DEFAULT_SCALE
    if args.trace:
        wanted = set(args.trace)
        traces = [spec for spec in TRACES if spec.name in wanted]
    else:
        traces = list(TRACES)
    cells = comparison_cells(predictor, scale=scale, traces=traces)

    def progress(done: int, total: int, outcome) -> None:
        print(
            f"[{done}/{total}] {outcome.spec.describe()} ({outcome.source})",
            file=sys.stderr,
        )

    campaign = Campaign(
        cells,
        workers=args.workers,
        cell_cache=args.cell_cache,
        progress=progress,
    )
    try:
        outcomes = campaign.run()
    except CampaignError as exc:
        print(str(exc), file=sys.stderr)
        return EX_FAILURE
    except KeyboardInterrupt:
        if args.cell_cache:
            print(
                "interrupted; completed cells are in the cell cache — "
                "re-run the same command to resume",
                file=sys.stderr,
            )
        else:
            print("interrupted", file=sys.stderr)
        return signal_exit(_signal_mod.SIGINT)
    install_results(outcomes)
    rows = comparison_rows(predictor=predictor, scale=scale, traces=traces)
    print(
        format_table(
            rows,
            title=f"{args.figure} campaign — {predictor} runtimes, "
            f"{args.workers or 'no'} workers",
        )
    )
    ran = sum(1 for o in outcomes if o.source == "ran")
    print(
        f"{len(outcomes)} cells: {ran} computed, {len(outcomes) - ran} from cache",
        file=sys.stderr,
    )
    if args.export_json:
        import json

        with open(args.export_json, "w", encoding="utf-8") as fh:
            json.dump(
                {"figure": args.figure, "predictor": predictor, "rows": rows},
                fh,
                indent=2,
            )
            fh.write("\n")
        print(f"wrote {args.export_json}")
    return EX_OK


def _chaos_plan(args: argparse.Namespace):
    """The FaultPlan for a chaos subcommand (empty plan if no --plan)."""
    import dataclasses

    from repro.chaos import FaultPlan

    try:
        plan = FaultPlan.load(args.plan) if args.plan else FaultPlan()
    except ValueError as exc:
        raise SystemExit2(str(exc), EX_USAGE) from exc
    if args.chaos_seed is not None:
        plan = dataclasses.replace(plan, seed=args.chaos_seed)
    return plan


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    # The soak harness imports the engine stack; keep `import repro.chaos`
    # cheap by loading it only here.
    from repro.chaos import soak as soak_mod
    from repro.durability import DurableRunner, SnapshotConfig

    try:
        plan = _chaos_plan(args)
    except SystemExit2 as exc:
        print(str(exc), file=sys.stderr)
        return exc.code

    if args.chaos_command == "soak":
        spec = soak_mod.SoakSpec(
            model=args.model,
            hours=args.hours,
            seed=args.seed,
            policy=args.policy,
            cycles=args.cycles,
            every_events=args.every_events,
            chaos_seed=args.chaos_seed or 0,
            plan=plan if plan.rules else None,
        )
        report = soak_mod.run_soak(spec, args.dir)
        row = {
            "cycles": report.cycles,
            "corruptions": report.corruptions,
            "fallbacks": report.fallbacks,
            "plan faults": len(report.injected),
            "export identical": report.identical,
            "ok": report.ok,
        }
        print(format_table([row], title="chaos soak"))
        if args.export_json:
            with open(args.export_json, "w", encoding="utf-8") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.export_json}")
        if not report.ok:
            print("soak FAILED: faulted run diverged from the unfaulted "
                  "reference", file=sys.stderr)
            return EX_FAILURE
        return EX_OK

    # chaos run: one strictly audited run with the plan installed.
    spec = soak_mod.SoakSpec(
        model=args.model, hours=args.hours, seed=args.seed, policy=args.policy
    )
    engine = soak_mod.build_engine(spec)
    injector = plan.injector()
    try:
        with injector:
            if args.snapshot_dir:
                runner = DurableRunner(
                    engine,
                    SnapshotConfig(
                        args.snapshot_dir,
                        interval_seconds=None,
                        every_events=args.snapshot_every_events,
                    ),
                )
                result = runner.run()
            else:
                result = engine.run()
    except OSError as exc:
        # An injected (or genuine) environment fault escaped a
        # non-degradable path, e.g. a snapshot write.
        print(f"run failed under environment fault: {exc}", file=sys.stderr)
        return EX_FAILURE
    m = result.metrics
    print(format_table(
        [{
            "scheduler": result.scheduler_desc,
            "jobs": m.jobs,
            "BSD": round(m.avg_bounded_slowdown, 3),
            "utility": round(result.utility, 3),
            "faults injected": len(injector.injected),
        }],
        title="chaos run",
    ))
    for site, action, count in injector.injected:
        print(f"  fault: {action} @ {site} (operation #{count})")
    if args.export_json:
        from repro.experiments.export import result_to_dict

        payload = {
            "plan": plan.to_dict(),
            "injected": [list(entry) for entry in injector.injected],
            "result": result_to_dict(result),
        }
        with open(args.export_json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.export_json}")
    return EX_OK


def _cmd_policies(_: argparse.Namespace) -> int:
    for policy in build_portfolio():
        print(policy.name)
    return EX_OK


def _service_budget(args: argparse.Namespace):
    """Default :class:`~repro.service.config.TenantBudget` from CLI flags."""
    from repro.service.config import DEFAULT_BUDGET, TenantBudget

    if (args.max_queued, args.rate, args.burst, args.vm_hours) == (None,) * 4:
        return DEFAULT_BUDGET
    return TenantBudget(
        max_queued_jobs=(
            args.max_queued if args.max_queued is not None
            else DEFAULT_BUDGET.max_queued_jobs
        ),
        max_vm_hours=(
            args.vm_hours if args.vm_hours is not None
            else DEFAULT_BUDGET.max_vm_hours
        ),
        rate_per_round=(
            args.rate if args.rate is not None else DEFAULT_BUDGET.rate_per_round
        ),
        burst=args.burst if args.burst is not None else DEFAULT_BUDGET.burst,
    )


def _service_config(args: argparse.Namespace, socket_path: str, journal_dir: str):
    from repro.service.config import ServiceConfig

    return ServiceConfig(
        socket_path=socket_path,
        journal_dir=journal_dir,
        snapshot_dir=getattr(args, "snapshot_dir", None),
        max_total_vms=args.max_vms,
        round_virtual_step=args.round_step,
        round_interval=getattr(args, "round_interval", 0.0),
        scheduler=args.scheduler,
        selection_period=args.selection_period,
        seed=args.seed,
        snapshot_every_rounds=getattr(args, "snapshot_every_rounds", None),
        kill_switch_path=getattr(args, "kill_switch", None),
        max_tenants=getattr(args, "max_tenants", 1024),
        default_budget=_service_budget(args),
    )


def _cmd_service_run(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    return run_service(_service_config(args, args.socket, args.journal_dir))


def _cmd_service_loadgen(args: argparse.Namespace) -> int:
    import subprocess
    import sys as _sys
    import tempfile

    from repro.service.loadgen import ServiceClient, run_loadgen

    budget = _service_budget(args).to_dict()

    def drive(socket_path: str) -> dict:
        return run_loadgen(
            socket_path,
            tenants=args.tenants,
            jobs_per_tenant=args.jobs_per_tenant,
            seed=args.seed,
            rounds_every=args.rounds_every,
            hot=args.hot,
            budget=budget,
        )

    if args.spawn:
        with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as scratch:
            socket_path = os.path.join(scratch, "service.sock")
            child = subprocess.Popen(
                [
                    _sys.executable, "-m", "repro", "service", "run",
                    "--socket", socket_path,
                    "--journal-dir", os.path.join(scratch, "journal"),
                    "--round-interval", "0",
                    "--max-vms", str(args.max_vms),
                    "--round-step", str(args.round_step),
                    "--scheduler", args.scheduler,
                    "--selection-period", str(args.selection_period),
                    "--seed", str(args.seed),
                ],
            )
            try:
                report = drive(socket_path)
            finally:
                drainer = ServiceClient(socket_path)
                try:
                    drainer.connect(retries=5)
                    drainer.drain()
                except (OSError, ConnectionError):
                    child.terminate()
                finally:
                    drainer.close()
                child.wait(timeout=30.0)
            report["service_exit_code"] = child.returncode
    else:
        report = drive(args.socket)

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
        print(
            f"submitted={report['submitted']} accepted={report['accepted']} "
            f"shed={report['shed']} at {report['submissions_per_sec']} "
            "submissions/sec"
        )
    else:
        print(text, end="")
    return EX_OK


def _cmd_service_replay(args: argparse.Namespace) -> int:
    from repro.service.journal import JOURNAL_NAME, read_journal
    from repro.service.state import ServiceState

    journal_path = os.path.join(args.journal_dir, JOURNAL_NAME)
    if not os.path.exists(journal_path):
        print(f"repro service replay: no journal at {journal_path}",
              file=sys.stderr)
        return EX_FAILURE
    records, _ = read_journal(journal_path)
    # The socket path never enters the state machine; any placeholder
    # keeps replay independent of where the server listened.
    config = _service_config(args, "replayed.sock", args.journal_dir)
    state = ServiceState.replay(records, config)
    text = json.dumps(state.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(records)} records replayed)")
    else:
        print(text, end="")
    return EX_OK


def _cmd_service(args: argparse.Namespace) -> int:
    return {
        "run": _cmd_service_run,
        "loadgen": _cmd_service_loadgen,
        "replay": _cmd_service_replay,
    }[args.service_command](args)


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.doctor import doctor_main

    return doctor_main(args.dir, pool=not args.no_pool)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "trace": _cmd_trace,
        "run": _cmd_run,
        "figure": _cmd_figure,
        "campaign": _cmd_campaign,
        "trace-report": _cmd_trace_report,
        "chaos": _cmd_chaos,
        "policies": _cmd_policies,
        "service": _cmd_service,
        "doctor": _cmd_doctor,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
