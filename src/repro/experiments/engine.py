"""The cluster engine: trace-driven simulation of long-term execution on
IaaS-cloud resources (the paper's extended-DGSim environment, §5.1).

The engine replays a trace against a :class:`~repro.cloud.provider.CloudProvider`
under a :class:`~repro.core.scheduler.Scheduler`:

* jobs arrive and queue;
* every 20 s scheduling tick (lazily scheduled — the tick chain pauses
  while the queue is empty), the scheduler's active policy provisions VMs
  and allocates queued jobs onto idle ones;
* VMs boot for 120 s, are billed by the hour, and idle VMs are terminated
  at their next hourly boundary unless the active policy keeps them;
* jobs run to completion, exclusively, without preemption or migration.

Each tick the engine calls the active policy's ``CombinedPolicy.new_vms``
and ``allocate``.  The online simulator shares that code only in its
reference loop (custom, subclassed or backfilling members, the boundary
release rule); its fast kernel (:mod:`repro.core.fast_sim`) re-derives
the 12 built-in component formulas over arrays.  Tests hold the three equal: the differential soak
in ``tests/test_kernel_fast.py`` (fast ≡ reference, exact),
``tests/test_online_engine_consistency.py`` (engine ≈ simulator on a
closed burst, for every portfolio member), and the CI ``kernel-smoke``
export diffs.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.audit.config import AuditConfig, default_audit_config
from repro.audit.monitor import InvariantMonitor
from repro.audit.report import AuditReport
from repro.cloud.failures import FailureModel
from repro.cloud.profile import CloudProfile
from repro.cloud.provider import CloudProvider, ProviderConfig
from repro.cloud.spot import SpotConfig, SpotStats
from repro.cloud.vm import VM, VMState
from repro.core.scheduler import PortfolioScheduler, Scheduler
from repro.metrics.collector import JobRecord, MetricsCollector, SummaryMetrics
from repro.obs import records as trace_records
from repro.obs.exporter import profile_to_dict, trace_to_dict
from repro.obs.profiler import Profiler
from repro.obs.tracer import RunTracer, TraceConfig
from repro.policies.base import IdleVM, SchedContext
from repro.policies.combined import CombinedPolicy
from repro.policies.spot_aware import SpotPlan
from repro.predict.base import RuntimePredictor
from repro.predict.simple import OraclePredictor
from repro.resilience.checkpoint import CheckpointPolicy
from repro.resilience.faults import FaultModel
from repro.resilience.retry import RetryPolicy, RetryState
from repro.resilience.stats import ResilienceStats
from repro.sim.events import Event, EventKind
from repro.sim.kernel import Simulator
from repro.workload.job import Job, JobState

__all__ = ["EngineConfig", "ExperimentResult", "ClusterEngine"]


@dataclass(slots=True, frozen=True)
class EngineConfig:
    """Engine parameters (defaults = the paper's experimental setup).

    ``release_rule`` controls when idle VMs are terminated:

    * ``"eager"`` (paper semantics): as soon as queued demand no longer
      needs them — this is what makes naive provisioning expensive
      ("charged for an entire hour may be released after just a few
      minutes of use", §3.1) and gives the portfolio cost structure to
      exploit;
    * ``"boundary"``: only at the next hourly billing boundary (a
      keep-paid-capacity ablation; see DESIGN.md §7).

    Algorithm 1's online simulator replays ``tick`` and ``release_rule``
    from the ``CloudProfile`` the engine captures for it.
    """

    tick: float = 20.0
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    max_sim_time: float | None = None  # safety horizon; None = trace-derived
    release_rule: str = "eager"
    #: Reserved instances (extension, see DESIGN.md §7): this many VMs are
    #: committed for the whole run at the provider's ``reserved_discount``
    #: of the on-demand rate, are always part of the fleet, and are never
    #: released.  0 reproduces the paper's pure on-demand setup.
    reserved_vms: int = 0
    #: Optional VM failure injection (extension): on-demand VMs die after
    #: an exponential lifetime; a running job is killed and re-queued from
    #: scratch.  ``None`` (default) = the paper's reliable-VM model.
    failures: "FailureModel | None" = None
    #: Optional injected cloud faults (extension): transient lease
    #: rejections, partial grants, long-tailed/failed boots, correlated
    #: outage windows.  Layers on top of ``failures``; ``None`` = none.
    faults: "FaultModel | None" = None
    #: Backoff applied to rejected lease requests (decorrelated jitter).
    #: ``None`` = re-request every scheduling tick, no backoff.
    lease_retry: "RetryPolicy | None" = None
    #: Periodic checkpointing: a killed job resumes from its last
    #: checkpoint instead of restarting from scratch.  ``None`` = the
    #: paper's rigid restart-from-scratch model.
    checkpoint: "CheckpointPolicy | None" = None
    #: Per-job retry budget: a job killed more than this many times ends
    #: in the terminal FAILED state instead of requeuing forever.
    #: ``None`` = unlimited retries (seed behaviour).
    max_job_retries: int | None = None
    #: Runtime invariant auditing (:mod:`repro.audit`): the monitor hooks
    #: event dispatch, billing, and scheduling rounds, and a differential
    #: oracle re-derives RJ/RV/BSD/U at finalize.  ``None`` falls back to
    #: the process default (``off`` unless the test suite or the
    #: ``REPRO_AUDIT`` env var raises it); level ``off`` is bit-identical
    #: to an unaudited build.
    audit: "AuditConfig | None" = None
    #: Structured run tracing (:mod:`repro.obs`): one JSONL record per
    #: scheduler round (policy scores, Δ accounting, Smart/Stale/Poor
    #: membership), plus VM lifecycle and billing settlements.  ``None``
    #: (default) emits nothing and leaves every hot path on its seed
    #: code path.
    trace: "TraceConfig | None" = None
    #: Lightweight span profiling of the hot paths (kernel dispatch,
    #: Algorithm 1).  Wall-clock observation only — the profiler never
    #: feeds back into simulated time or Δ accounting.
    profile: bool = False
    #: Hostile-cloud layer (:mod:`repro.cloud.spot`): a seeded spot market
    #: (preemptible VMs, price process, bid crossings), control-plane
    #: degradation (InsufficientCapacity, rate limiting, brownouts) and
    #: the scheduler's circuit-breaker/hedging response.  ``None``
    #: (default) is the paper's cooperative cloud — every spot branch is
    #: gated on it, so the run stays bit-identical to earlier builds.
    spot: "SpotConfig | None" = None

    def __post_init__(self) -> None:
        if self.tick <= 0:
            raise ValueError(f"tick must be positive, got {self.tick}")
        if self.release_rule not in ("eager", "boundary"):
            raise ValueError(
                f"release_rule must be 'eager' or 'boundary', got {self.release_rule!r}"
            )
        if self.reserved_vms < 0:
            raise ValueError(f"reserved_vms must be >= 0, got {self.reserved_vms}")
        if self.reserved_vms > self.provider.max_vms:
            raise ValueError("reserved_vms cannot exceed the provider cap")
        if self.max_job_retries is not None and self.max_job_retries < 0:
            raise ValueError(
                f"max_job_retries must be >= 0, got {self.max_job_retries}"
            )


@dataclass(slots=True, frozen=True)
class ExperimentResult:
    """Everything a figure driver needs from one run."""

    metrics: SummaryMetrics
    records: tuple[JobRecord, ...]
    scheduler_desc: str
    portfolio_invocations: int
    unfinished_jobs: int
    sim_events: int
    ticks: int
    wall_seconds: float
    end_time: float
    failures: int = 0
    wasted_cpu_seconds: float = 0.0
    #: Full unreliability-layer counters (also on ``metrics.resilience``);
    #: ``failures``/``wasted_cpu_seconds`` above stay as legacy aliases.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)
    #: Portfolio policy evaluations quarantined (exceptions swallowed by
    #: the fail-safe selector); 0 for fixed-policy and healthy runs.
    policies_quarantined: int = 0
    #: Did the portfolio scheduler hit its quarantine cap and fall back to
    #: its designated safe fixed policy?
    portfolio_failed_over: bool = False
    #: What the audit layer saw (``None`` when auditing was off).
    audit: "AuditReport | None" = None
    #: Per-span profile summary (``None`` when profiling was off).
    profile: "dict | None" = None
    #: Trace summary — schema, destination, per-kind record counts
    #: (``None`` when the run was untraced).
    trace: "dict | None" = None
    #: Snapshot recovery report (:class:`repro.durability.RecoveryReport`
    #: as a dict), attached by the durable runner only when ``--resume``
    #: had to fall back past a corrupted snapshot generation; ``None``
    #: for fresh runs and clean resumes, keeping their exports identical.
    recovery: "dict | None" = None
    #: Hostile-cloud counters (``None`` when no spot market was
    #: configured, keeping cooperative-cloud exports identical).
    spot: "SpotStats | None" = None

    @property
    def utility(self) -> float:
        """Utility with the paper's default κ=100, α=β=1 (figure axes)."""
        from repro.core.utility import UtilityFunction

        m = self.metrics
        return UtilityFunction()(m.rj_seconds, m.rv_seconds, m.avg_bounded_slowdown)


class ClusterEngine:
    """One end-to-end experiment: (trace, scheduler, predictor) → metrics."""

    def __init__(
        self,
        jobs: Sequence[Job],
        scheduler: Scheduler,
        predictor: RuntimePredictor | None = None,
        config: EngineConfig | None = None,
        observer: "Callable[[object], None] | None" = None,
        dependencies: "dict[int, tuple[int, ...]] | None" = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.scheduler = scheduler
        self.predictor = predictor or OraclePredictor()
        self.observer = observer
        self.provider = CloudProvider(self.config.provider)
        self.metrics = MetricsCollector()

        max_vms = self.config.provider.max_vms
        for job in jobs:
            if job.procs < 1:
                raise ValueError(
                    f"job {job.job_id} needs {job.procs} VMs: every job "
                    "must run on at least one"
                )
            if job.procs > max_vms:
                raise ValueError(
                    f"job {job.job_id} needs {job.procs} VMs but the provider "
                    f"cap is {max_vms}: it could never run"
                )
        # Fresh copies: the engine owns all dynamic state.
        self.jobs = [job.fresh_copy() for job in jobs]
        self.jobs.sort(key=lambda j: (j.submit_time, j.job_id))

        self.queue: list[Job] = []
        self._jobs_by_id = {job.job_id: job for job in self.jobs}
        self._vms_of_job: dict[int, list[VM]] = {}
        self._boundary_events: dict[int, Event] = {}
        self._finish_events: dict[int, Event] = {}
        self._tick_event: Event | None = None
        self._tick_index = 0
        self._last_policy: CombinedPolicy | None = None
        self._finished = 0
        self._failure_sampler = (
            self.config.failures.sampler() if self.config.failures else None
        )
        self.failures = 0
        self.wasted_cpu_seconds = 0.0

        # Resilience layer (extension): injected faults, lease backoff,
        # checkpoint progress, and per-job retry budgets.  All of it is
        # inert (and allocates no RNG streams) when the knobs are off.
        self._injector = self.config.faults.injector() if self.config.faults else None
        self._retry_state = RetryState()
        self._failure_events: dict[int, Event] = {}
        self._progress: dict[int, float] = {}  # checkpointed seconds per job
        self._kills: dict[int, int] = {}  # kill count per job
        self._outage_until = float("-inf")
        self._last_terminal_time = 0.0
        self.boot_failures = 0
        self.lease_rejections = 0
        self.lease_retries = 0
        self.vms_denied = 0
        self.outages = 0
        self.outage_downtime_seconds = 0.0
        self.job_kills = 0
        self.jobs_failed = 0
        self.checkpoint_saved_cpu_seconds = 0.0

        # Hostile-cloud layer (extension): spot market, preemption
        # lifecycle, control-plane degradation, circuit breaker.  All
        # ``None``/empty when no SpotConfig is given — every branch below
        # gates on ``self._spot_market is not None``, so cooperative-cloud
        # runs never touch the spot RNG streams or change a float op.
        spot_cfg = self.config.spot
        self._spot_market = spot_cfg.market() if spot_cfg is not None else None
        self._spot_breaker = spot_cfg.breaker() if spot_cfg is not None else None
        self.spot_stats = SpotStats() if spot_cfg is not None else None
        self._brownout_until = float("-inf")
        #: VMs under a preemption notice: excluded from allocation so no
        #: fresh job starts inside a closing grace window.
        self._doomed: set[int] = set()
        self._preempt_notice_events: dict[int, Event] = {}
        self._preempt_kill_events: dict[int, Event] = {}
        # Token-window state of the control-plane rate limiter.
        self._api_window_start = float("-inf")
        self._api_window_calls = 0
        #: Checkpoint-interval override of the active spot-aware policy
        #: (``None`` keeps the configured cadence).
        self._ckpt_override: float | None = None

        # Workflow support: jobs with unmet dependencies are held back and
        # become eligible (submit time reset to the release instant, so
        # waits measure time-after-eligibility) when their last parent
        # finishes.
        self._deps_remaining: dict[int, int] = {}
        self._children: dict[int, list[int]] = {}
        self._held: set[int] = set()
        if dependencies:
            for child, parents in dependencies.items():
                if child not in self._jobs_by_id:
                    raise ValueError(f"dependency child {child} is not in the trace")
                unmet = 0
                for parent in parents:
                    if parent not in self._jobs_by_id:
                        raise ValueError(
                            f"job {child} depends on unknown job {parent}"
                        )
                    self._children.setdefault(parent, []).append(child)
                    unmet += 1
                if unmet:
                    self._deps_remaining[child] = unmet
            self._check_acyclic(dependencies)

        # Phased-run state (start → advance* → finalize): the durability
        # layer snapshots between advance() calls, so everything the loop
        # needs lives on the engine rather than in run()'s locals.
        self._started = False
        self._finalized = False
        self._horizon: float | None = None
        self._wall_accum = 0.0
        self._segment_began = 0.0

        self.sim = Simulator()
        self.sim.on(EventKind.JOB_ARRIVAL, self._on_arrival)
        self.sim.on(EventKind.SCHEDULE_TICK, self._on_tick)
        self.sim.on(EventKind.VM_READY, self._on_vm_ready)
        self.sim.on(EventKind.VM_BOUNDARY, self._on_vm_boundary)
        self.sim.on(EventKind.JOB_FINISH, self._on_job_finish)
        self.sim.on(EventKind.VM_FAIL, self._on_vm_fail)
        self.sim.on(EventKind.OUTAGE_START, self._on_outage_start)
        self.sim.on(EventKind.OUTAGE_END, self._on_outage_end)
        self.sim.on(EventKind.VM_PREEMPT, self._on_vm_preempt)
        self.sim.on(EventKind.VM_PREEMPT_KILL, self._on_vm_preempt_kill)
        self.sim.on(EventKind.BROWNOUT_START, self._on_brownout_start)
        self.sim.on(EventKind.BROWNOUT_END, self._on_brownout_end)

        # Runtime invariant auditing (all state hangs off the engine, so
        # durability snapshots carry it and resumed runs keep auditing).
        audit_cfg = (
            self.config.audit
            if self.config.audit is not None
            else default_audit_config()
        )
        self.audit: InvariantMonitor | None = None
        if audit_cfg.enabled:
            self.audit = InvariantMonitor(audit_cfg)
            self.audit.attach_billing(self.provider.billing)
            self.sim.tracer = self.audit.on_event
            self.provider.on_charge = self.audit.on_vm_charge

        # Observability (:mod:`repro.obs`): run tracing and span
        # profiling.  Both hang off the engine so durability snapshots
        # carry them across kill/resume; both are ``None`` when off,
        # leaving every hot path on its seed code path.
        self.tracer: RunTracer | None = (
            RunTracer(self.config.trace) if self.config.trace is not None else None
        )
        self.profiler: Profiler | None = Profiler() if self.config.profile else None
        if self.profiler is not None:
            self.sim.profiler = self.profiler
            if isinstance(scheduler, PortfolioScheduler):
                scheduler.selector.profiler = self.profiler
        if self.tracer is not None:
            # Billing fan-out must stay a bound method (snapshots pickle
            # the engine whole; a closure would break them).
            self.provider.on_charge = self._dispatch_charge

    @staticmethod
    def _check_acyclic(dependencies: "dict[int, tuple[int, ...]]") -> None:
        """Kahn's algorithm over the dependency edges; cycles deadlock the
        run, so reject them up front."""
        indegree: dict[int, int] = {}
        children: dict[int, list[int]] = {}
        nodes: set[int] = set()
        for child, parents in dependencies.items():
            nodes.add(child)
            for parent in parents:
                nodes.add(parent)
                children.setdefault(parent, []).append(child)
                indegree[child] = indegree.get(child, 0) + 1
        frontier = [n for n in nodes if indegree.get(n, 0) == 0]
        visited = 0
        while frontier:
            node = frontier.pop()
            visited += 1
            for child in children.get(node, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if visited != len(nodes):
            raise ValueError("dependency graph contains a cycle")

    # -- observability -------------------------------------------------------

    def _dispatch_charge(self, vm: VM, charge: float, end_time: float,
                         kind: str) -> None:
        """Billing fan-out: audit ledger first, then the trace record."""
        if self.audit is not None:
            self.audit.on_vm_charge(vm, charge, end_time, kind)
        assert self.tracer is not None
        self.tracer.emit(
            trace_records.CHARGE, end_time, vm=vm.vm_id, seconds=charge,
            settlement=kind, reserved=vm.reserved,
        )

    def _emit_round(self, now: float, ctx: SchedContext,
                    policy: CombinedPolicy, round_id: int) -> None:
        """One ``round`` record per scheduling round.

        When this round re-ran Algorithm 1, the record carries the full
        selection outcome (per-policy score and Δ cost, Smart/Stale/Poor
        membership, Δ budget vs. spent); rounds that kept the previous
        winner applied record only the fleet/queue state.
        """
        assert self.tracer is not None
        record: dict[str, object] = {
            "round": round_id,
            "queue": len(self.queue),
            "queued_procs": ctx.total_queued_procs(),
            "fleet": self.provider.leased_count(),
            "idle": self.provider.idle_count(),
            "booting": self.provider.booting_count(),
            "busy": ctx.busy,
            "policy": policy.name,
        }
        outcome = None
        failed_over_now = False
        if isinstance(self.scheduler, PortfolioScheduler):
            outcome, failed_over_now = self.scheduler.take_selection_telemetry()
        if outcome is not None:
            selector = self.scheduler.selector
            record["selection"] = {
                "budget": outcome.budget,
                "spent": outcome.spent,
                "n_simulated": outcome.n_simulated,
                "n_shared": outcome.n_shared,
                "n_quarantined": outcome.n_quarantined,
                "sets": {
                    "smart": [p.name for p in selector.smart],
                    "stale": [p.name for p in selector.stale],
                    "poor": [p.name for p in selector.poor],
                },
                "scores": [
                    {
                        "policy": ps.policy.name,
                        "score": ps.score,
                        "cost": ps.cost,
                        "quarantined": ps.quarantined,
                    }
                    for ps in outcome.simulated
                ],
            }
        self.tracer.emit(trace_records.ROUND, now, **record)
        if failed_over_now:
            self.tracer.emit(
                trace_records.FAILOVER, now,
                safe_policy=self.scheduler.safe_policy.name,
                consecutive_quarantines=(
                    self.scheduler.selector.consecutive_quarantines
                ),
            )

    # -- event handlers -----------------------------------------------------

    def _on_arrival(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        if self._deps_remaining.get(job.job_id, 0) > 0:
            self._held.add(job.job_id)  # waits for its parents to finish
            return
        self._enqueue(sim, job)

    def _enqueue(self, sim: Simulator, job: Job) -> None:
        job.state = JobState.QUEUED
        self.queue.append(job)
        if self._tick_event is None:
            # Wake the scheduling chain; same-timestamp arrivals batch into
            # this tick because SCHEDULE_TICK sorts after JOB_ARRIVAL.
            self._tick_event = sim.schedule_at(sim.now, EventKind.SCHEDULE_TICK)

    def _build_context(self, now: float) -> SchedContext:
        """The context a round decides from.  ``busy_free_times`` stays
        ``None``; :meth:`_on_tick` fills it for a policy that plans ahead."""
        waits = [now - job.submit_time for job in self.queue]
        runtimes = [max(self.predictor.predict(job), 1.0) for job in self.queue]
        rented = self.provider.leased_count()
        busy = self.provider.busy_count()
        return SchedContext(
            now=now,
            queue=self.queue,
            waits=waits,
            runtimes=runtimes,
            rented=rented,
            available=rented - busy,
            busy=busy,
            max_vms=self.provider.config.max_vms,
            spot_price=(
                self._spot_market.price_at(now)
                if self._spot_market is not None
                else None
            ),
        )

    def _busy_free_times(self, now: float) -> list[float]:
        """Estimated free time of each busy VM, in id order, for a policy
        that plans ahead (EASY backfilling): its job's start plus the
        *predicted* runtime — the scheduler never sees actual runtimes."""
        frees = []
        for vm in self.provider.busy_vms():
            job = self._jobs_by_id.get(vm.job_id) if vm.job_id is not None else None
            if job is not None and job.start_time >= 0:
                frees.append(job.start_time + max(self.predictor.predict(job), 1.0))
            else:  # pragma: no cover - defensive
                frees.append(now)
        return frees

    def _capture_profile(self, now: float) -> CloudProfile:
        """The fleet snapshot Algorithm 1 simulates from: this engine's
        tick and release rule, and the spot market's current price when
        one is running."""
        profile = CloudProfile.capture(
            self.provider, now, self.config.tick, self.config.release_rule
        )
        if self._spot_market is not None:
            price = self._spot_market.price_at(now)
            profile = dataclasses.replace(
                profile,
                spot_price=price,
                spot_price_effective=self.config.spot.effective_price(price),
            )
        return profile

    def _on_tick(self, sim: Simulator, event: Event) -> None:
        self._tick_event = None
        if not self.queue:
            return  # chain pauses; the next arrival restarts it
        now = sim.now
        ctx = self._build_context(now)
        policy = self.scheduler.active_policy(
            self._tick_index, self.queue, ctx.waits, ctx.runtimes,
            functools.partial(self._capture_profile, now),
        )
        if policy.plans_ahead:
            ctx.busy_free_times = self._busy_free_times(now)
        self._last_policy = policy
        self._tick_index += 1
        if self.observer is not None:
            from repro.metrics.timeseries import TimeseriesSample

            self.observer(
                TimeseriesSample(
                    time=now,
                    queue_length=len(self.queue),
                    queued_procs=ctx.total_queued_procs(),
                    fleet=self.provider.leased_count(),
                    idle=self.provider.idle_count(),
                    booting=self.provider.booting_count(),
                    busy=ctx.busy,
                    active_policy=policy.name,
                )
            )
        if self.tracer is not None:
            self._emit_round(now, ctx, policy, self._tick_index - 1)

        # Provisioning (one lease request, subject to injected faults).
        n_new = policy.new_vms(ctx)
        if n_new > 0:
            if self._spot_market is not None:
                self._provision_spot(sim, policy, ctx, n_new, now)
            else:
                self._provision(sim, n_new, now)

        # Allocation.  VMs under a preemption notice are excluded: their
        # grace window is closing and a job started now would just die.
        idle = self.provider.idle_vms()
        if self._doomed:
            idle = [vm for vm in idle if vm.vm_id not in self._doomed]
        if idle and self.queue:
            period = self.provider.billing.period
            views = [
                IdleVM(vm_id=vm.vm_id, remaining_paid=self.provider.remaining_paid(vm, now) or period)
                for vm in idle
            ]
            by_id = {vm.vm_id: vm for vm in idle}
            allocations = policy.allocate(ctx, views, period)
            started: list[Job] = []
            for alloc in allocations:
                job = self.queue[alloc.queue_index]
                finish = now + self._remaining_runtime(job)
                vms = [by_id[vid] for vid in alloc.vm_ids]
                for vm in vms:
                    self._cancel_boundary(vm)
                    self.provider.assign(vm, job.job_id, finish)
                self._vms_of_job[job.job_id] = vms
                job.state = JobState.RUNNING
                job.start_time = now
                self._finish_events[job.job_id] = sim.schedule_at(
                    finish, EventKind.JOB_FINISH, job
                )
                started.append(job)
            if started:
                started_ids = {job.job_id for job in started}
                self.queue = [j for j in self.queue if j.job_id not in started_ids]

        self._release_surplus(sim)
        if self.queue:
            self._tick_event = sim.schedule_after(self.config.tick, EventKind.SCHEDULE_TICK)
        if self.audit is not None:
            self.audit.check_round(self)

    def _on_vm_ready(self, sim: Simulator, event: Event) -> None:
        vm: VM = event.payload
        if not vm.alive:
            return
        self.provider.boot_complete(vm, sim.now)
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.VM, sim.now, event="ready", vm=vm.vm_id,
            )
        self._schedule_boundary(sim, vm)
        self._release_surplus(sim)

    def _on_vm_boundary(self, sim: Simulator, event: Event) -> None:
        vm: VM = event.payload
        self._boundary_events.pop(vm.vm_id, None)
        if not vm.alive or vm.state is not VMState.IDLE or vm.reserved:
            return
        ctx = self._build_context(sim.now)
        keep = (
            self._last_policy.provisioning.keep_idle_vm(ctx, 0.0)
            if self._last_policy is not None
            else ctx.total_queued_procs() > ctx.available - 1
        )
        if keep:
            self._schedule_boundary(sim, vm)
        else:
            self._terminate_vm(vm, sim.now)

    def _on_vm_fail(self, sim: Simulator, event: Event) -> None:
        vm: VM = event.payload
        self._failure_events.pop(vm.vm_id, None)
        if not vm.alive:
            return  # already terminated; stale failure event
        self._fail_vm(sim, vm)

    def _fail_vm(self, sim: Simulator, vm: VM) -> None:
        """Kill *vm* now: waste/checkpoint its job's work, requeue or fail
        the job, and terminate (and bill) the instance."""
        self.failures += 1
        now = sim.now
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.VM, now, event="fail", vm=vm.vm_id,
                state=vm.state.name, job=vm.job_id,
            )
        if vm.state is VMState.BOOTING:
            self.boot_failures += 1  # an instance that never became ready
        if vm.state is VMState.BUSY:
            self._kill_job_on_vm(sim, vm)
        self._terminate_vm(vm, now)

    def _checkpoint_policy(self) -> "CheckpointPolicy | None":
        """The checkpoint cadence in force: the run's configured policy,
        with the interval retuned when the active spot-aware policy asks
        for a denser one (its override must still exceed the overhead)."""
        base = self.config.checkpoint
        override = self._ckpt_override
        if (
            base is None
            or override is None
            or override == base.interval_seconds
            or override <= base.overhead_seconds
        ):
            return base
        return dataclasses.replace(base, interval_seconds=override)

    def _kill_job_on_vm(
        self, sim: Simulator, vm: VM, *, notice_time: float | None = None
    ) -> None:
        """Kill the job running on *vm*: waste/checkpoint its work and
        requeue or fail it.  The VM itself is left to the caller (VM
        failures terminate it; spot preemptions reclaim it).

        ``notice_time`` marks a preemption kill: the grace window between
        notice and kill is long enough for an emergency checkpoint when it
        covers the checkpoint overhead, so work persisted then survives on
        top of the periodic checkpoints.
        """
        assert vm.job_id is not None
        job = self._jobs_by_id[vm.job_id]
        now = sim.now
        self.job_kills += 1
        # The whole rigid job dies with the VM.  Work persisted by
        # completed checkpoints survives; the rest is wasted.
        elapsed = max(0.0, now - job.start_time)
        saved = 0.0
        ckpt = self._checkpoint_policy()
        if ckpt is not None:
            saved = min(ckpt.saved_progress(elapsed), elapsed)
            if notice_time is not None and self.config.spot is not None:
                grace = now - notice_time
                if grace >= ckpt.overhead_seconds:
                    at_notice = max(0.0, notice_time - job.start_time)
                    emergency = min(
                        max(0.0, at_notice - ckpt.overhead_seconds), elapsed
                    )
                    if emergency > saved:
                        saved = emergency
                        self.spot_stats.grace_checkpoints += 1
            if saved > 0.0:
                self._progress[job.job_id] = (
                    self._progress.get(job.job_id, 0.0) + saved
                )
                self.checkpoint_saved_cpu_seconds += job.procs * saved
        self.wasted_cpu_seconds += job.procs * (elapsed - saved)
        if notice_time is not None:
            self.spot_stats.preempt_saved_cpu_seconds += job.procs * saved
            self.spot_stats.preempt_wasted_cpu_seconds += job.procs * (
                elapsed - saved
            )
        pending_finish = self._finish_events.pop(job.job_id, None)
        if pending_finish is not None:
            pending_finish.cancel()
        for peer in self._vms_of_job.pop(job.job_id, []):
            self.provider.release_job(peer)
            if peer is not vm:
                self._schedule_boundary(sim, peer)
        job.start_time = -1.0
        kills = self._kills.get(job.job_id, 0) + 1
        self._kills[job.job_id] = kills
        budget = self.config.max_job_retries
        if budget is not None and kills > budget:
            job.state = JobState.FAILED  # retry budget exhausted
            self.jobs_failed += 1
            self._last_terminal_time = max(self._last_terminal_time, now)
        else:
            job.state = JobState.QUEUED
            self.queue.append(job)
            if self._tick_event is None:
                self._tick_event = sim.schedule_at(now, EventKind.SCHEDULE_TICK)

    def _remaining_runtime(self, job: Job) -> float:
        """Execution time still owed: runtime minus checkpointed progress."""
        if not self._progress:
            return job.runtime
        return max(0.0, job.runtime - self._progress.get(job.job_id, 0.0))

    def _arm_failure(self, sim: Simulator, vm: VM) -> None:
        """Draw the VM's lifetime and schedule its failure (if modelled)."""
        if self._failure_sampler is None or vm.reserved:
            return
        when = sim.now + self._failure_sampler.time_to_failure()
        self._failure_events[vm.vm_id] = sim.schedule_at(when, EventKind.VM_FAIL, vm)

    def _arm_faults(self, sim: Simulator, vm: VM) -> None:
        """Schedule whatever death awaits a freshly leased on-demand VM."""
        if vm.reserved:
            return
        if self._injector is not None and self._injector.boot_fails():
            # Never becomes ready: dies (and is charged) at its would-be
            # ready time.  VM_FAIL sorts before VM_READY at that instant.
            self._failure_events[vm.vm_id] = sim.schedule_at(
                vm.ready_time, EventKind.VM_FAIL, vm
            )
            return
        self._arm_failure(sim, vm)

    # -- provisioning under faults --------------------------------------------

    def _provision(self, sim: Simulator, requested: int, now: float) -> None:
        """Issue one lease request for *requested* VMs.

        The request can fail outright (transient API error, open outage
        window) or be partially granted ("insufficient capacity").  With
        a :class:`RetryPolicy` configured, rejections back the requester
        off with decorrelated jitter instead of hammering the control
        plane every tick.  With no faults configured this reduces to the
        seed's plain ``provider.lease`` path.
        """
        retry = self.config.lease_retry
        if retry is not None and self._retry_state.blocked(now):
            return  # still backing off after a rejection
        if self._retry_state.attempts > 0:
            self.lease_retries += 1
        inj = self._injector
        granted_target = requested
        rejected = now < self._outage_until or (inj is not None and inj.lease_fails())
        if not rejected and inj is not None:
            granted_target = inj.grant(requested)
            if granted_target < requested:
                self.vms_denied += requested - granted_target
            rejected = granted_target == 0  # a zero grant is a rejection
        if rejected:
            self.lease_rejections += 1
            if retry is not None and inj is not None:
                self._retry_state.record_failure(now, retry, inj.retry_rng)
            return
        for vm in self.provider.lease(granted_target, now):
            if inj is not None:
                extra = inj.boot_delay_extra()
                if extra > 0.0:
                    vm.ready_time += extra  # long-tailed boot
            if self.tracer is not None:
                self.tracer.emit(
                    trace_records.VM, now, event="lease", vm=vm.vm_id,
                    ready=vm.ready_time, reserved=vm.reserved,
                )
            sim.schedule_at(vm.ready_time, EventKind.VM_READY, vm)
            self._arm_faults(sim, vm)
        if retry is not None:
            self._retry_state.record_success()

    # -- correlated outages ----------------------------------------------------

    def _on_outage_start(self, sim: Simulator, event: Event) -> None:
        if self._finished + self.jobs_failed >= len(self.jobs):
            return  # workload drained; let the outage chain die out
        inj = self._injector
        assert inj is not None
        now = sim.now
        self.outages += 1
        duration = inj.outage_duration()
        self._outage_until = now + duration
        self.outage_downtime_seconds += duration
        # AZ-style correlated kill: each live on-demand VM dies with the
        # configured probability, in stable id order.
        for vm in self.provider.vms():
            if not vm.reserved and inj.outage_kills():
                self._fail_vm(sim, vm)
        sim.schedule_at(self._outage_until, EventKind.OUTAGE_END)

    def _on_outage_end(self, sim: Simulator, event: Event) -> None:
        inj = self._injector
        assert inj is not None
        sim.schedule(
            Event(
                sim.now + inj.next_outage_in(),
                EventKind.OUTAGE_START,
                priority=int(EventKind.VM_FAIL),
            )
        )

    # -- hostile cloud: spot provisioning & control-plane degradation ----------

    def _note_breaker(self, now: float) -> None:
        """Emit (and count) the breaker's latest state transition, if any."""
        breaker = self._spot_breaker
        transition = breaker.pop_transition()
        if transition is None:
            return
        if transition == breaker.OPEN:
            self.spot_stats.breaker_opens += 1
        elif transition == breaker.CLOSED:
            self.spot_stats.breaker_closes += 1
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.BREAKER, now, state=transition,
                consecutive_failures=breaker.consecutive_failures,
                blocked_until=breaker.blocked_until,
            )

    def _control_plane_failure(self, now: float) -> None:
        """Book one failed control-plane call against the breaker."""
        self._spot_breaker.record_failure(now)
        self._note_breaker(now)

    def _api_call_allowed(self, now: float) -> bool:
        """Token-window rate limiter on lease API calls."""
        cfg = self.config.spot
        if cfg.api_rate_limit is None:
            return True
        if now - self._api_window_start >= cfg.api_rate_window_seconds:
            self._api_window_start = now
            self._api_window_calls = 0
        self._api_window_calls += 1
        return self._api_window_calls <= cfg.api_rate_limit

    def _resolve_spot_plan(self, policy: CombinedPolicy,
                           ctx: SchedContext) -> SpotPlan:
        """This tick's spot split: the active policy's own plan when it is
        spot-aware, otherwise the run-level defaults.  Bid enforcement
        (deferral when the price out-runs the bid) happens in
        :meth:`_provision_spot` so every plan is gated identically."""
        plan_fn = getattr(policy.provisioning, "spot_plan", None)
        if plan_fn is not None:
            plan = plan_fn(ctx)
        else:
            cfg = self.config.spot
            plan = SpotPlan(fraction=cfg.spot_fraction, bid=cfg.bid)
        self._ckpt_override = plan.checkpoint_interval
        return plan

    def _provision_spot(self, sim: Simulator, policy: CombinedPolicy,
                        ctx: SchedContext, requested: int, now: float) -> None:
        """Hostile-cloud provisioning: breaker → brownout → throttle gates,
        then a two-tier lease (spot at the current price, remainder — plus
        any hedged spot shortfall — on-demand through :meth:`_provision`).
        """
        cfg = self.config.spot
        stats = self.spot_stats
        market = self._spot_market
        breaker = self._spot_breaker

        if not breaker.allow(now):
            # Open breaker: no control-plane calls; demand queues.
            stats.breaker_skips += 1
            stats.backpressure_rounds += 1
            return
        self._note_breaker(now)  # possible OPEN → HALF_OPEN probe
        if now < self._brownout_until:
            stats.brownout_rejections += 1
            stats.backpressure_rounds += 1
            self._control_plane_failure(now)
            return
        if not self._api_call_allowed(now):
            stats.throttled_calls += 1
            stats.backpressure_rounds += 1
            self._control_plane_failure(now)
            return

        plan = self._resolve_spot_plan(policy, ctx)
        price = market.price_at(now)
        spot_target = min(requested, int(round(requested * plan.fraction)))
        ondemand_target = requested - spot_target
        if spot_target > 0 and price > plan.bid:
            # The price out-ran the bid: defer spot this tick.
            stats.bid_deferrals += 1
            if cfg.hedge:
                stats.hedged_vms += spot_target
                ondemand_target += spot_target
            spot_target = 0
        if spot_target > 0 and market.capacity_short(now):
            stats.insufficient_capacity += 1
            stats.spot_vms_denied += spot_target
            if cfg.hedge:
                stats.hedged_vms += spot_target
                ondemand_target += spot_target
            spot_target = 0
        if spot_target > 0:
            for vm in self.provider.lease(spot_target, now, spot=True,
                                          price=price):
                stats.spot_leases += 1
                stats.spot_price_sum += price
                if self.tracer is not None:
                    self.tracer.emit(
                        trace_records.VM, now, event="lease", vm=vm.vm_id,
                        ready=vm.ready_time, reserved=False, spot=True,
                        price=price,
                    )
                sim.schedule_at(vm.ready_time, EventKind.VM_READY, vm)
                self._arm_faults(sim, vm)
                self._arm_preemption(sim, vm, now, plan.bid)
        if ondemand_target > 0:
            self._provision(sim, ondemand_target, now)
        breaker.record_success()
        self._note_breaker(now)  # possible HALF_OPEN → CLOSED

    # -- hostile cloud: preemption lifecycle -----------------------------------

    def _arm_preemption(self, sim: Simulator, vm: VM, now: float,
                        bid: float) -> None:
        """Draw the VM's preemption-notice time (capacity reclaim or bid
        crossing) and schedule it; no-op for never-preempted draws."""
        when = self._spot_market.preemption_at(now, bid)
        if when is None:
            return
        self._preempt_notice_events[vm.vm_id] = sim.schedule(
            Event(when, EventKind.VM_PREEMPT, vm,
                  priority=int(EventKind.VM_FAIL))
        )

    def _on_vm_preempt(self, sim: Simulator, event: Event) -> None:
        """Preemption *notice*: doom the VM (no new allocations) and start
        the grace window; the actual reclaim fires at its end."""
        vm: VM = event.payload
        self._preempt_notice_events.pop(vm.vm_id, None)
        if not vm.alive:
            return  # already released; stale notice
        now = sim.now
        self.spot_stats.preempt_notices += 1
        self._doomed.add(vm.vm_id)
        kill_at = now + self.config.spot.grace_period_seconds
        self._preempt_kill_events[vm.vm_id] = sim.schedule(
            Event(kill_at, EventKind.VM_PREEMPT_KILL, (vm, now),
                  priority=int(EventKind.VM_FAIL))
        )
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.PREEMPT, now, event="notice", vm=vm.vm_id,
                job=vm.job_id, kill_at=kill_at,
            )

    def _on_vm_preempt_kill(self, sim: Simulator, event: Event) -> None:
        """End of the grace window: the provider reclaims the VM.  A job
        still running dies (its checkpointed progress — periodic plus any
        emergency grace checkpoint — survives and it requeues); billing is
        spot-style (completed periods only)."""
        vm, notice_time = event.payload
        self._preempt_kill_events.pop(vm.vm_id, None)
        if not vm.alive:
            self._doomed.discard(vm.vm_id)
            return  # released during the grace window
        now = sim.now
        self.spot_stats.preemptions += 1
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.PREEMPT, now, event="kill", vm=vm.vm_id,
                job=vm.job_id, state=vm.state.name,
            )
        if vm.state is VMState.BUSY:
            self.spot_stats.preempted_job_kills += 1
            self._kill_job_on_vm(sim, vm, notice_time=notice_time)
        self._cancel_boundary(vm)
        self._cancel_failure(vm)
        self._doomed.discard(vm.vm_id)
        self.provider.preempt(vm, now)

    # -- hostile cloud: control-plane brownouts --------------------------------

    def _on_brownout_start(self, sim: Simulator, event: Event) -> None:
        if self._finished + self.jobs_failed >= len(self.jobs):
            return  # workload drained; let the brownout chain die out
        market = self._spot_market
        assert market is not None
        now = sim.now
        duration = market.brownout_duration()
        self._brownout_until = now + duration
        self.spot_stats.brownouts += 1
        self.spot_stats.brownout_seconds += duration
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.BROWNOUT, now, event="start",
                until=self._brownout_until,
            )
        sim.schedule_at(self._brownout_until, EventKind.BROWNOUT_END)

    def _on_brownout_end(self, sim: Simulator, event: Event) -> None:
        market = self._spot_market
        assert market is not None
        if self.tracer is not None:
            self.tracer.emit(trace_records.BROWNOUT, sim.now, event="end")
        sim.schedule_at(
            sim.now + market.next_brownout_in(), EventKind.BROWNOUT_START
        )

    def _on_job_finish(self, sim: Simulator, event: Event) -> None:
        job: Job = event.payload
        self._finish_events.pop(job.job_id, None)
        job.state = JobState.FINISHED
        job.finish_time = sim.now
        self._finished += 1
        self._last_terminal_time = max(self._last_terminal_time, sim.now)
        self.metrics.record_completion(job)
        self.predictor.observe_completion(job)
        for vm in self._vms_of_job.pop(job.job_id, []):
            self.provider.release_job(vm)
            self._schedule_boundary(sim, vm)
        # Release workflow children whose last parent just finished.  Their
        # submit time becomes the eligibility instant so slowdown measures
        # scheduler-caused delay, not time spent waiting on parents.
        for child_id in self._children.get(job.job_id, ()):
            remaining = self._deps_remaining[child_id] - 1
            self._deps_remaining[child_id] = remaining
            if remaining == 0 and child_id in self._held:
                self._held.discard(child_id)
                child = self._jobs_by_id[child_id]
                child.submit_time = max(child.submit_time, sim.now)
                self._enqueue(sim, child)
        self._release_surplus(sim)

    def _release_surplus(self, sim: Simulator) -> None:
        """Eager release: terminate idle VMs the queue no longer needs.

        Surplus = idle − queued demand.  Booting VMs deliberately do NOT
        count as supply here: counting them would release each VM the
        moment it finishes booting while the demand that triggered its
        lease still queues — a lease/boot/release livelock.  Idle VMs with
        the least paid time remaining go first (they waste the least).
        No-op under the "boundary" rule, where VM_BOUNDARY events decide.
        """
        if self.config.release_rule != "eager":
            return
        all_idle = self.provider.idle_vms()
        idle = [vm for vm in all_idle if not vm.reserved]
        if not idle:
            return
        now = self.sim.now
        demand = sum(job.procs for job in self.queue)
        # Reserved idle VMs serve demand first, so on-demand surplus is
        # measured against what they cannot cover.
        reserved_idle = len(all_idle) - len(idle)
        surplus = max(0, len(idle) - max(0, demand - reserved_idle))
        if surplus <= 0:
            return
        idle.sort(key=lambda vm: self.provider.remaining_paid(vm, now))
        for vm in idle[:surplus]:
            self._terminate_vm(vm, now)

    # -- per-VM event bookkeeping ---------------------------------------------

    def _terminate_vm(self, vm: VM, now: float) -> None:
        """Terminate *vm* and cancel its pending boundary AND failure
        events — otherwise stale VM_FAIL events linger in the heap until
        their (possibly far-future) timestamps, growing it unboundedly
        under short MTBFs."""
        self._cancel_boundary(vm)
        self._cancel_failure(vm)
        if self._spot_market is not None:
            self._cancel_preempt(vm)
        self.provider.terminate(vm, now)

    def _schedule_boundary(self, sim: Simulator, vm: VM) -> None:
        self._cancel_boundary(vm)
        when = self.provider.next_boundary(vm, sim.now)
        self._boundary_events[vm.vm_id] = sim.schedule_at(
            when, EventKind.VM_BOUNDARY, vm
        )

    def _cancel_boundary(self, vm: VM) -> None:
        pending = self._boundary_events.pop(vm.vm_id, None)
        if pending is not None:
            pending.cancel()

    def _cancel_failure(self, vm: VM) -> None:
        pending = self._failure_events.pop(vm.vm_id, None)
        if pending is not None:
            pending.cancel()

    def _cancel_preempt(self, vm: VM) -> None:
        """Drop any pending preemption notice/kill for a VM leaving the
        fleet through another path (release, failure, end of run)."""
        for events in (self._preempt_notice_events, self._preempt_kill_events):
            pending = events.pop(vm.vm_id, None)
            if pending is not None:
                pending.cancel()
        self._doomed.discard(vm.vm_id)

    # -- running ----------------------------------------------------------------

    def start(self) -> None:
        """Phase 1: seed the event queue and fix the safety horizon.

        Idempotent-guarded; :meth:`run` is ``start → advance → finalize``,
        and the durability layer calls the phases separately so it can
        snapshot between event batches.
        """
        if self._started:
            raise RuntimeError("engine already started")
        self._started = True
        self._segment_began = time.perf_counter()
        if self.tracer is not None:
            self.tracer.emit(
                trace_records.RUN_START, self.sim.now,
                scheduler=self.scheduler.describe(), jobs=len(self.jobs),
                tick=self.config.tick,
                max_vms=self.config.provider.max_vms, resumed=False,
            )
        if self.config.reserved_vms:
            for vm in self.provider.lease(
                self.config.reserved_vms, now=0.0, reserved=True
            ):
                if self.tracer is not None:
                    self.tracer.emit(
                        trace_records.VM, 0.0, event="lease", vm=vm.vm_id,
                        ready=vm.ready_time, reserved=True,
                    )
                self.sim.schedule_at(vm.ready_time, EventKind.VM_READY, vm)
        for job in self.jobs:
            self.sim.schedule_at(job.submit_time, EventKind.JOB_ARRIVAL, job)
        if self._injector is not None and self.config.faults.outages_enabled:
            self.sim.schedule(
                Event(
                    self._injector.next_outage_in(),
                    EventKind.OUTAGE_START,
                    priority=int(EventKind.VM_FAIL),
                )
            )
        if self._spot_market is not None and self.config.spot.brownouts_enabled:
            self.sim.schedule_at(
                self._spot_market.next_brownout_in(), EventKind.BROWNOUT_START
            )

        horizon = self.config.max_sim_time
        if horizon is None and self.jobs:
            last = max(j.submit_time for j in self.jobs)
            total_work = sum(j.runtime * j.procs for j in self.jobs)
            # Generous drain window: even a single VM clears the backlog in
            # total_work seconds; the cap only exists to break pathological
            # custom policies out of infinite stalls.
            horizon = last + total_work + 30 * 86_400.0
        self._horizon = horizon

    def checkpoint_wall(self) -> None:
        """Fold the running wall-clock segment into the accumulator.

        Called just before a snapshot is pickled: ``perf_counter`` readings
        are meaningless across processes, so the snapshot must carry only
        the accumulated total.
        """
        now = time.perf_counter()
        self._wall_accum += now - self._segment_began
        self._segment_began = now

    def rebase_wall(self) -> None:
        """Restart the wall-clock segment in this process (after restore)."""
        self._segment_began = time.perf_counter()

    def advance(self, max_events: int | None = None) -> bool:
        """Phase 2: process up to *max_events* events inside the horizon.

        Returns True while live events remain within the horizon (i.e. the
        caller should keep advancing), False once the run has drained.
        """
        if not self._started:
            raise RuntimeError("engine not started; call start() first")
        processed = 0
        while True:
            next_time = self.sim.queue.peek_time()
            if next_time is None:
                return False
            if self._horizon is not None and next_time > self._horizon:
                return False
            if max_events is not None and processed >= max_events:
                return True
            self.sim.step()
            processed += 1

    def finalize(self) -> ExperimentResult:
        """Phase 3: settle billing and summarise the finished run."""
        if not self._started:
            raise RuntimeError("engine not started; call start() first")
        if self._finalized:
            raise RuntimeError("engine already finalized")
        self._finalized = True
        # Match Simulator.run(until=...): a run stopped by the horizon (or
        # drained before it) leaves the clock at the horizon so post-run
        # measurements see a consistent end time.
        if self._horizon is not None and self.sim.now < self._horizon:
            self.sim.now = self._horizon

        # Natural end: the last terminal job event (completion, or a job
        # exhausting its retry budget).  The simulator clock sits at the
        # safety horizon after a drained run, and billing reserved (or
        # straggler) capacity up to that sentinel would charge for weeks
        # of non-existent workload.  A stalled run (unfinished jobs) keeps
        # the horizon end, which correctly penalises the stall.
        done = self._finished + self.jobs_failed
        if done == len(self.jobs) and done > 0:
            end = self._last_terminal_time
        else:
            end = self.sim.now
        self.provider.terminate_all(end)
        if self.config.reserved_vms:
            self.provider.finalize_reserved(end)
        # Stalled runs leave BUSY VMs behind; settle their charges too, or
        # RV under-reports exactly the runs it should penalise.
        self.provider.settle_stragglers(end)
        unfinished = len(self.jobs) - done
        stats = ResilienceStats(
            vm_failures=self.failures,
            boot_failures=self.boot_failures,
            lease_rejections=self.lease_rejections,
            lease_retries=self.lease_retries,
            vms_denied=self.vms_denied,
            outages=self.outages,
            outage_downtime_seconds=self.outage_downtime_seconds,
            job_kills=self.job_kills,
            jobs_failed=self.jobs_failed,
            wasted_cpu_seconds=self.wasted_cpu_seconds,
            checkpoint_saved_cpu_seconds=self.checkpoint_saved_cpu_seconds,
        )
        metrics = self.metrics.summarize(
            self.provider.charged_seconds_total, resilience=stats
        )
        audit_report = None
        if self.audit is not None:
            from repro.core.utility import UtilityFunction

            engine_utility = UtilityFunction()(
                metrics.rj_seconds,
                metrics.rv_seconds,
                metrics.avg_bounded_slowdown,
            )
            audit_report = self.audit.finalize_audit(
                self, metrics, engine_utility, end
            )
        spot_stats = self.spot_stats
        if spot_stats is not None:
            spot_stats.spot_charged_seconds = self.provider.spot_charged_seconds
        is_portfolio = isinstance(self.scheduler, PortfolioScheduler)
        invocations = self.scheduler.invocations if is_portfolio else 0
        wall = (
            self._wall_accum + time.perf_counter() - self._segment_began
        )
        profile_summary = (
            profile_to_dict(self.profiler) if self.profiler is not None else None
        )
        trace_summary = None
        if self.tracer is not None:
            from repro.core.utility import UtilityFunction

            self.tracer.emit(
                trace_records.RUN_END, end,
                utility=UtilityFunction()(
                    metrics.rj_seconds,
                    metrics.rv_seconds,
                    metrics.avg_bounded_slowdown,
                ),
                bsd=metrics.avg_bounded_slowdown,
                rj_seconds=metrics.rj_seconds,
                rv_seconds=metrics.rv_seconds,
                unfinished=unfinished,
                wall_seconds=wall,
            )
            if profile_summary is not None:
                self.tracer.emit(
                    trace_records.PROFILE, end,
                    spans=profile_summary["spans"],
                )
            self.tracer.close()
            trace_summary = trace_to_dict(self.tracer)
        return ExperimentResult(
            metrics=metrics,
            records=tuple(self.metrics.records),
            scheduler_desc=self.scheduler.describe(),
            portfolio_invocations=invocations,
            unfinished_jobs=unfinished,
            sim_events=self.sim.events_processed,
            ticks=self._tick_index,
            wall_seconds=wall,
            end_time=end,
            failures=self.failures,
            wasted_cpu_seconds=self.wasted_cpu_seconds,
            resilience=stats,
            policies_quarantined=self.scheduler.quarantined if is_portfolio else 0,
            portfolio_failed_over=self.scheduler.failed_over if is_portfolio else False,
            audit=audit_report,
            profile=profile_summary,
            trace=trace_summary,
            spot=spot_stats,
        )

    def run(self) -> ExperimentResult:
        """Replay the whole trace and drain the system; return the metrics."""
        self.start()
        self.advance()
        return self.finalize()
