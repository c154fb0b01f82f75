"""Online invariant auditing of a cluster-engine run.

The :class:`InvariantMonitor` taps three observation points:

* the sim kernel's event dispatch (``Simulator.tracer``) — checks event
  delivery invariants and captures ``JOB_FINISH`` completions into the
  run ledger *before* the engine's own handler can mis-book them;
* the provider's billing call sites (``CloudProvider.on_charge``) —
  checks per-charge billing invariants and captures the charge stream;
* the engine's scheduling rounds (``check_round``) — cross-checks VM
  fleet, job queue, and metric accumulators against each other.

All monitor state lives on plain picklable attributes, and the monitor
itself hangs off the engine object graph, so durability snapshots carry
the audit state and a resumed run audits (and reports) exactly like an
uninterrupted one.

The monitor reads private engine attributes by design: it is the one
component whose job is to double-check the engine's internal books, and
it lives in the same codebase release-locked to them.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from itertools import compress
from typing import TYPE_CHECKING

from repro.audit.config import AuditConfig, AuditLevel
from repro.audit.ledger import ChargeEntry, CompletionEntry, RunLedger
from repro.audit.oracle import DifferentialOracle
from repro.audit.report import AuditReport
from repro.audit.violations import InvariantViolation, Violation
from repro.cloud.vm import VM, VMState
from repro.sim.events import EventKind
from repro.workload.job import Job, JobState

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.experiments.engine import ClusterEngine
    from repro.metrics.collector import SummaryMetrics
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator

__all__ = ["InvariantMonitor"]

#: Slack for float comparisons on simulated-time arithmetic.
_TIME_EPS = 1e-6

#: The job states the round census counts, in the order it unpacks them.
_CENSUS = (JobState.QUEUED, JobState.RUNNING, JobState.FINISHED, JobState.FAILED)


class InvariantMonitor:
    """Checks the engine's books while the run executes."""

    #: Last round's census: every job's state, the ``_CENSUS`` counts
    #: over that list, and its positions 0, 1, 2, ... (built once per
    #: full count, so no round builds an int per job, as ``count()``
    #: would).  Class-level defaults, so a monitor unpickled from a
    #: snapshot written before the census kept them counts in full.
    _census_states: list | None = None
    _census_counts: list[int] | None = None
    _census_positions: list[int] | None = None

    def __init__(self, config: AuditConfig) -> None:
        if not config.enabled:
            raise ValueError("monitor requires an enabled audit level")
        self.config = config
        self.ledger = RunLedger()
        self.violations: list[Violation] = []
        self.violations_total = 0
        self.events_audited = 0
        self.rounds_audited = 0
        self._ring: deque[str] = deque(maxlen=config.ring_size)
        self._completed: set[int] = set()
        self._terminated_vms: set[int] = set()
        self._last_rv = 0.0
        self._warned = 0
        self._billing_period: float | None = None
        #: Preemption ("preempt") settlements seen on the billing hook;
        #: cross-checked against the engine's preemption counter so a
        #: reclaimed VM can neither dodge its bill nor be billed twice.
        self._preempt_charges = 0

    def attach_billing(self, billing: object) -> None:
        """Learn the charging granularity (None for non-periodic models)."""
        period = getattr(billing, "period", None)
        self._billing_period = float(period) if period else None

    # -- severity ladder ------------------------------------------------------

    def _emit(self, kind: str, time: float, message: str) -> None:
        self.violations_total += 1
        violation = Violation(kind=kind, time=time, message=message)
        if len(self.violations) < self.config.max_violations:
            self.violations.append(violation)
        if (
            self.config.level is AuditLevel.WARN
            and self._warned < self.config.max_warnings
        ):
            print(f"[audit] {violation}", file=sys.stderr)
            self._warned += 1
        if self.config.level is AuditLevel.STRICT:
            raise InvariantViolation(violation, tuple(self._ring))

    def _close(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.config.oracle_abs_tol + (
            self.config.oracle_rel_tol * max(abs(a), abs(b))
        )

    # -- kernel dispatch hook -------------------------------------------------

    def on_event(self, sim: "Simulator", event: "Event") -> None:
        """Called by the kernel for every popped event, pre-dispatch
        (``sim.now`` still holds the previous event's timestamp)."""
        self.events_audited += 1
        self._ring.append(_describe(event))
        if event.cancelled:
            self._emit(
                "cancelled-event-delivered",
                event.time,
                f"{event.kind.name} seq={event.seq} was cancelled but "
                "reached dispatch",
            )
        if event.time < sim.now - _TIME_EPS:
            self._emit(
                "event-time-regression",
                event.time,
                f"{event.kind.name} seq={event.seq} at t={event.time} "
                f"dispatched after clock already reached {sim.now}",
            )
        if event.kind is EventKind.JOB_FINISH and isinstance(event.payload, Job):
            self._log_completion(event.time, event.payload)

    def _log_completion(self, finish_time: float, job: Job) -> None:
        if job.job_id in self._completed:
            self._emit(
                "job-double-completion",
                finish_time,
                f"job {job.job_id} delivered a second JOB_FINISH",
            )
        else:
            self._completed.add(job.job_id)
        if job.state is not JobState.RUNNING:
            self._emit(
                "job-finish-not-running",
                finish_time,
                f"job {job.job_id} finishing from state {job.state.name}",
            )
        if job.start_time < 0:
            self._emit(
                "job-finish-unstarted",
                finish_time,
                f"job {job.job_id} finishing without a start time",
            )
        elif finish_time - job.start_time > job.runtime + _TIME_EPS:
            # One attempt cannot consume more than procs × runtime CPU·s
            # (checkpoint resume only ever shortens the final attempt).
            self._emit(
                "job-overconsumption",
                finish_time,
                f"job {job.job_id} ran {finish_time - job.start_time:.3f}s "
                f"in its final attempt, above its runtime {job.runtime:.3f}s",
            )
        self.ledger.job_completed(
            CompletionEntry(
                job_id=job.job_id,
                submit_time=job.submit_time,
                start_time=job.start_time,
                finish_time=finish_time,
                runtime=job.runtime,
                procs=job.procs,
            )
        )

    # -- provider billing hook ------------------------------------------------

    def on_vm_charge(
        self, vm: VM, charged_seconds: float, end_time: float, kind: str
    ) -> None:
        """Called by the provider whenever it books a charge into RV."""
        if charged_seconds < 0:
            self._emit(
                "negative-charge",
                end_time,
                f"vm {vm.vm_id} booked a negative charge {charged_seconds}",
            )
        if vm.vm_id in self._terminated_vms:
            self._emit(
                "billing-after-terminate",
                end_time,
                f"vm {vm.vm_id} billed again ({kind}) after its "
                "termination charge was already booked",
            )
        if kind == "preempt":
            self._preempt_charges += 1
            if not vm.spot:
                self._emit(
                    "preempt-charge-non-spot",
                    end_time,
                    f"vm {vm.vm_id} settled as a preemption but is not a "
                    "spot instance",
                )
        if kind in ("terminate", "preempt"):
            self._terminated_vms.add(vm.vm_id)
        if not vm.reserved:
            wall = end_time - vm.lease_time
            # Spot charges are priced at vm.price × the on-demand rate;
            # normalising by the locked price recovers the charged wall
            # seconds the period invariants apply to.  On-demand VMs have
            # price 1.0, so ``base`` equals the charge exactly (IEEE754
            # division by 1.0 is exact) and their checks are unchanged.
            price = vm.price if vm.spot else 1.0
            base = charged_seconds / price if price > 0 else charged_seconds
            period = self._billing_period
            if kind == "preempt":
                # EC2 spot reclamation: whole *completed* periods only —
                # the provider's cut-short partial period is free.
                if period:
                    expected = math.floor(wall / period + 1e-9) * period
                    if abs(base - expected) > _TIME_EPS:
                        self._emit(
                            "spot-preempt-charge-mismatch",
                            end_time,
                            f"vm {vm.vm_id} preempted after {wall:.3f}s wall "
                            f"was charged {base:.3f} price-normalised seconds; "
                            f"completed-period billing expects {expected:.3f}",
                        )
                elif base > wall + _TIME_EPS:
                    self._emit(
                        "spot-preempt-overcharge",
                        end_time,
                        f"vm {vm.vm_id} preempted after {wall:.3f}s wall was "
                        f"charged {base:.3f} price-normalised seconds",
                    )
            else:
                if base + _TIME_EPS < wall:
                    self._emit(
                        "undercharge",
                        end_time,
                        f"vm {vm.vm_id} charged {base:.3f}s for "
                        f"{wall:.3f}s of wall lease time",
                    )
                if period:
                    remainder = base % period
                    if min(remainder, period - remainder) > _TIME_EPS:
                        self._emit(
                            "charge-not-period-multiple",
                            end_time,
                            f"vm {vm.vm_id} charge {base:.3f}s is not "
                            f"a whole multiple of the {period:.0f}s billing period",
                        )
        self.ledger.vm_charged(
            ChargeEntry(
                vm_id=vm.vm_id,
                lease_time=vm.lease_time,
                end_time=end_time,
                charged_seconds=charged_seconds,
                reserved=vm.reserved,
                kind=kind,
            )
        )

    # -- scheduling-round cross-checks ---------------------------------------

    def check_round(self, engine: "ClusterEngine") -> None:
        """Full state cross-check at the end of one scheduling round."""
        self.rounds_audited += 1
        now = engine.sim.now
        self._check_jobs(engine, now)
        self._check_fleet(engine, now)
        self._check_rv(engine, now)
        self._check_spot(engine, now)
        self._check_fleet_index(engine, now)

    def _check_fleet_index(self, engine: "ClusterEngine", now: float) -> None:
        """Each per-state view the provider serves from its partitions
        must list exactly the live VMs in that state, in id order.  The
        expected side walks ``provider.vms()``, so the check does not run
        through the bookkeeping it checks."""
        provider = engine.provider
        fleet = provider.vms()
        for state, indexed in (
            (VMState.BOOTING, provider.booting_vms()),
            (VMState.IDLE, provider.idle_vms()),
            (VMState.BUSY, provider.busy_vms()),
        ):
            walked = [vm for vm in fleet if vm.state is state]
            if walked != indexed:
                self._emit(
                    "fleet-index-mismatch",
                    now,
                    f"the provider's {state.name} partition holds VMs "
                    f"{[vm.vm_id for vm in indexed]} but the fleet walk "
                    f"finds {[vm.vm_id for vm in walked]}",
                )

    def _check_spot(self, engine: "ClusterEngine", now: float) -> None:
        """Preemption conservation: every reclaim the engine counted must
        have produced exactly one "preempt" settlement, and reclaims can
        never outnumber the notices that opened their grace windows."""
        stats = getattr(engine, "spot_stats", None)
        if stats is None:
            return
        if self._preempt_charges != stats.preemptions:
            self._emit(
                "preemption-conservation",
                now,
                f"engine counted {stats.preemptions} preemptions but the "
                f"billing hook saw {self._preempt_charges} preempt "
                "settlements",
            )
        if stats.preemptions > stats.preempt_notices:
            self._emit(
                "preemption-conservation",
                now,
                f"{stats.preemptions} VMs reclaimed but only "
                f"{stats.preempt_notices} preemption notices were issued",
            )

    def _check_jobs(self, engine: "ClusterEngine", now: float) -> None:
        queued, running, finished, failed = self._census(engine)
        # Queue ↔ state consistency: the queue holds exactly the QUEUED
        # jobs, each once.
        seen: set[int] = set()
        for job in engine.queue:
            if job.job_id in seen:
                self._emit(
                    "job-double-queued",
                    now,
                    f"job {job.job_id} appears twice in the queue",
                )
            seen.add(job.job_id)
            if job.state is not JobState.QUEUED:
                self._emit(
                    "queued-job-bad-state",
                    now,
                    f"job {job.job_id} sits in the queue in state "
                    f"{job.state.name}",
                )
        if queued != len(seen):
            self._emit(
                "job-conservation",
                now,
                f"{queued} jobs are QUEUED but the queue holds {len(seen)}",
            )
        for job_id in engine._held:
            job = engine._jobs_by_id.get(job_id)
            if job is None or job.state is not JobState.PENDING:
                state = "missing" if job is None else job.state.name
                self._emit(
                    "held-job-bad-state",
                    now,
                    f"dependency-held job {job_id} is in state {state}",
                )
        if finished != engine._finished:
            self._emit(
                "job-conservation",
                now,
                f"{finished} jobs are FINISHED but the engine counted "
                f"{engine._finished} completions",
            )
        if finished != len(engine.metrics.records):
            self._emit(
                "metrics-record-mismatch",
                now,
                f"{finished} jobs are FINISHED but the collector holds "
                f"{len(engine.metrics.records)} records",
            )
        if failed != engine.jobs_failed:
            self._emit(
                "job-conservation",
                now,
                f"{failed} jobs are FAILED but the engine counted "
                f"{engine.jobs_failed}",
            )
        if running != len(engine._vms_of_job):
            self._emit(
                "job-conservation",
                now,
                f"{running} jobs are RUNNING but {len(engine._vms_of_job)} "
                "hold VM bindings",
            )

    def _census(self, engine: "ClusterEngine") -> list[int]:
        """Count the ``_CENSUS`` states over every job of the run.

        Every state is read from the job objects each round, so the
        census trusts none of the engine's bookkeeping.  Only the counting
        is incremental: the entries that are not the very object they
        were last round move last round's counts, each compared as
        ``list.count`` compares (identity, then ``==``).  The counts thus
        always equal fresh ``list.count`` passes over the states, whatever
        value a state holds, and an unhashable one never raises.
        """
        states = [job.state for job in engine.jobs]
        last = self._census_states
        if last is None or len(last) != len(states):
            counts = [states.count(state) for state in _CENSUS]
            self._census_positions = list(range(len(states)))
        else:
            counts = list(self._census_counts)
            changed = map(operator.is_not, states, last)
            for i in compress(self._census_positions, changed):
                old, new = last[i], states[i]
                for k, state in enumerate(_CENSUS):
                    if old is state or old == state:
                        counts[k] -= 1
                    if new is state or new == state:
                        counts[k] += 1
        self._census_states = states
        self._census_counts = counts
        return counts

    def _check_fleet(self, engine: "ClusterEngine", now: float) -> None:
        bound_vms = 0
        for job_id, vms in engine._vms_of_job.items():
            job = engine._jobs_by_id.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                state = "missing" if job is None else job.state.name
                self._emit(
                    "binding-without-running-job",
                    now,
                    f"VM binding exists for job {job_id} in state {state}",
                )
                continue
            if len(vms) != job.procs:
                self._emit(
                    "job-vm-count-mismatch",
                    now,
                    f"job {job_id} needs {job.procs} VMs but is bound to "
                    f"{len(vms)}",
                )
            for vm in vms:
                bound_vms += 1
                if not vm.alive:
                    self._emit(
                        "job-on-released-vm",
                        now,
                        f"job {job_id} is bound to terminated vm {vm.vm_id}",
                    )
                elif vm.state is not VMState.BUSY or vm.job_id != job_id:
                    self._emit(
                        "vm-binding-mismatch",
                        now,
                        f"vm {vm.vm_id} bound to job {job_id} is in state "
                        f"{vm.state.name} serving job {vm.job_id}",
                    )
        provider = engine.provider
        fleet = provider.vms()
        if len(fleet) > provider.config.max_vms:
            self._emit(
                "fleet-over-cap",
                now,
                f"{len(fleet)} VMs leased, above the cap "
                f"{provider.config.max_vms}",
            )
        busy_fleet = 0
        for vm in fleet:
            if vm.state is VMState.TERMINATED:
                self._emit(
                    "terminated-vm-in-fleet",
                    now,
                    f"vm {vm.vm_id} is TERMINATED but still in the fleet",
                )
            if vm.vm_id in self._terminated_vms:
                self._emit(
                    "vm-resurrected",
                    now,
                    f"vm {vm.vm_id} was billed for termination but is "
                    "back in the fleet",
                )
            if vm.state is VMState.BUSY:
                busy_fleet += 1
                if vm.job_id is None or vm.job_id not in engine._vms_of_job:
                    self._emit(
                        "busy-vm-unbound",
                        now,
                        f"busy vm {vm.vm_id} serves job {vm.job_id} with no "
                        "engine-side binding",
                    )
            elif vm.job_id is not None:
                self._emit(
                    "non-busy-vm-with-job",
                    now,
                    f"vm {vm.vm_id} in state {vm.state.name} still holds "
                    f"job {vm.job_id}",
                )
        if busy_fleet != bound_vms:
            self._emit(
                "busy-count-mismatch",
                now,
                f"{busy_fleet} VMs are BUSY but jobs hold {bound_vms} "
                "VM bindings",
            )

    def _check_rv(self, engine: "ClusterEngine", now: float) -> None:
        total = engine.provider.charged_seconds_total
        if total < self._last_rv - _TIME_EPS:
            self._emit(
                "rv-accrual-regression",
                now,
                f"charged total fell from {self._last_rv:.3f} to {total:.3f}",
            )
        self._last_rv = max(self._last_rv, total)
        if not self._close(total, self.ledger.rv_total):
            self._emit(
                "rv-ledger-divergence",
                now,
                f"provider booked {total:.3f} charged seconds but the "
                f"audit ledger recorded {self.ledger.rv_total:.3f}",
            )

    # -- finalize -------------------------------------------------------------

    def finalize_audit(
        self,
        engine: "ClusterEngine",
        metrics: "SummaryMetrics",
        engine_utility: float,
        end: float,
    ) -> AuditReport:
        """Terminal cross-checks plus the differential-oracle comparison.

        In strict mode any divergence raises; otherwise everything lands
        in the returned :class:`AuditReport`.
        """
        self._check_jobs(engine, end)
        self._check_rv(engine, end)
        self._check_spot(engine, end)
        oracle = DifferentialOracle(
            rel_tol=self.config.oracle_rel_tol,
            abs_tol=self.config.oracle_abs_tol,
        )
        checks = oracle.compare(self.ledger, metrics, engine_utility)
        for check in checks:
            if not check.ok:
                self._emit(
                    "oracle-divergence",
                    end,
                    f"{check.metric}: engine reports {check.engine_value!r} "
                    f"but the ledger recomputes {check.oracle_value!r} "
                    f"(|Δ|={check.abs_error:.3g})",
                )
        return AuditReport(
            level=self.config.level.value,
            events_audited=self.events_audited,
            rounds_audited=self.rounds_audited,
            completions_logged=len(self.ledger.completions),
            charges_logged=len(self.ledger.charges),
            violations_total=self.violations_total,
            violations=tuple(self.violations),
            oracle_checks=checks,
        )


def _describe(event: "Event") -> str:
    """Compact one-line form of *event* for the context ring buffer."""
    payload = event.payload
    if isinstance(payload, Job):
        tag = f" job#{payload.job_id}"
    elif isinstance(payload, VM):
        tag = f" vm#{payload.vm_id}"
    elif payload is None:
        tag = ""
    else:
        tag = f" {type(payload).__name__}"
    return f"t={event.time:.3f} {event.kind.name} seq={event.seq}{tag}"
