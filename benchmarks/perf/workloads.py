"""The five perf workloads, each run in a process of its own.

``run.py`` starts this file once per set-up sample (``--mode setup``)
and once for the measured run (``--mode full``).  A full run sets the
workload up, runs one untimed warm-up at 1/8 of its size, then either
times repetitions for ``--seconds`` (at least three) or, with
``--trace 1``, runs the traced pass.  The last stdout line is one JSON
object that ``run.py`` turns into metrics, correctness verdicts and the
ledger.

Inputs come from ``--seed`` alone.  For the three single-cell workloads
the job population (sizes, runtimes, the bursts of the LPC-EGEE model)
is the one the paper's default trace seed draws, and the run seed draws
each job's submit offset within one 20 s scheduling tick.  That moves
jobs across tick boundaries, so every seed changes the scheduling
decisions and the output digest while doing about the same amount of
work: two seeds of a bursty 12-hour trace drawn whole differ by up to 3x
in job count, and the wall time would measure the input, not the
program.  The cell workloads keep the scheduler and selector seeds of
the paper's experiments.  The service likewise keeps its stream's jobs
and its server seed, and draws a small runtime factor for each job from
the seed.  The campaign keeps the figure grid's trace seeds and seeds
its portfolio cells' selectors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable

import numpy as np

import repro
from repro.audit.config import AuditConfig
from repro.audit.violations import InvariantViolation
from repro.cloud.spot import SpotConfig
from repro.exit_codes import EX_DRAINED
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.experiments.cache import clear_cache
from repro.experiments.configs import ExperimentScale, portfolio_kwargs
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.obs.tracer import TraceConfig
from repro.parallel.campaign import Campaign, comparison_cells
from repro.policies.combined import policy_by_name
from repro.resilience.faults import FaultModel
from repro.service.config import DEFAULT_BUDGET, ServiceConfig
from repro.service.journal import JOURNAL_NAME, read_journal
from repro.service.loadgen import ServiceClient, synthetic_jobs
from repro.service.state import ServiceState
from repro.sim.clock import VirtualCostClock
from repro.workload.synthetic import LPC_EGEE, generate_trace

from layers import LayerCounters, SpanTracer, calibrate

HOUR = 3_600.0
TICK = 20.0
#: The paper's default trace seed: it fixes the job population.
TRACE_SEED = 42
MIN_REPS = 3
MAX_REPS = 50
WARMUP_FRACTION = 1 / 8
#: Seconds the probe runs of :func:`read_slowdown` and
#: :func:`read_shared_slowdown` take at full speed on the 2-cpu host
#: class the pins and spreads in README.md were measured on.
PROBE_NOMINAL_S = 0.00175
SHORT_PROBE_NOMINAL_S = 0.0003
#: Wall time between two probes inside a timed region.
PROBE_PERIOD_S = 0.1
HERE = Path(__file__).resolve().parent


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of an engine result without its trace and profile summaries
    (the trace file's size is not stable to the byte between runs)."""
    exported = result_to_dict(result)
    exported.pop("trace", None)
    exported.pop("profile", None)
    return digest(exported)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_loop(iterations: int) -> float:
    """Seconds a fixed slice of interpreter work takes right now.

    Integer math and dict stores and loads; it never touches the program
    under test, so it measures the speed of the CPU it runs on alone.
    """
    begin = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        acc += i * i
        table[i & 1023] = acc
        acc ^= table.get((i * 7) & 1023, 0) & 0xFFFF
    return time.perf_counter() - begin


def read_slowdown() -> float:
    """How much slower than nominal this process's CPU runs right now:
    one 1.75 ms :func:`probe_loop` run over its nominal time.  For a
    process nothing else of ours competes with for its CPU."""
    return probe_loop(8_000) / PROBE_NOMINAL_S


def read_shared_slowdown() -> float:
    """:func:`read_slowdown` for a process whose CPUs busy processes of
    ours share: on each of its CPUs in turn, the median of five 0.3 ms
    runs over their nominal time; then the harmonic mean over the CPUs.

    The busy processes run on every CPU, each CPU switches speed on its
    own, so the reading covers them all.  What they get done is the sum
    of the CPUs' speeds, hence the harmonic mean of the slowdowns; it is
    also what the mean of the durations of operations spread over those
    CPUs slows by.  A run those processes preempt reads far too slow, and
    the median rejects up to two such runs.  (The fastest run rejects
    them too, but it catches brief full-speed moments inside the host's
    slow mode and under-reads it.)
    """
    def here() -> float:
        return statistics.median(probe_loop(1_600) for _ in range(5)) / SHORT_PROBE_NOMINAL_S

    if not hasattr(os, "sched_setaffinity"):
        return here()
    cpus = os.sched_getaffinity(0)
    readings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        readings.append(here())
    os.sched_setaffinity(0, cpus)
    return statistics.harmonic_mean(readings)


def pin_to_one_cpu() -> None:
    """Keep this process, and the servers it starts, on one CPU, so that
    the probes run where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostClock:
    """Times one region in seconds at the host's nominal speed.

    The hosts this harness was built on switch each CPU between full
    speed and a mode about 2x slower, every few seconds, for minutes at a
    time; a repetition of a few seconds straddles the switches.  So the
    clock runs :func:`read_slowdown` every :data:`PROBE_PERIOD_S` inside the
    region and divides each interval, and each operation latency that
    ended in it, by the slowdown the probe at its end reads.  Probe time
    is left out of both the raw and the nominal wall; the time of the
    probes inside the region is kept apart as ``probe_s``.  *read* takes
    one reading: :func:`read_slowdown` or
    :func:`read_shared_slowdown`.
    """

    def __init__(self, read: Callable[[], float] = read_slowdown) -> None:
        self.read = read
        self.raw_s = 0.0
        self.nominal_s = 0.0
        self.probe_s = 0.0
        self.slowdowns: list[float] = []
        self.ops: dict[str, list[float]] = {"op": [], "round": []}
        self._pending: list[tuple[str, float]] = []
        self._mark = 0.0

    def start(self) -> None:
        self._mark = time.perf_counter()

    def op(self, seconds: float, kind: str = "op") -> None:
        self._pending.append((kind, seconds))

    def poll(self) -> None:
        if time.perf_counter() - self._mark >= PROBE_PERIOD_S:
            self.probe()

    def probe(self) -> None:
        end = time.perf_counter()
        interval = end - self._mark
        slowdown = self.read()
        self.raw_s += interval
        self.nominal_s += interval / slowdown
        self.slowdowns.append(slowdown)
        for kind, seconds in self._pending:
            self.ops[kind].append(seconds / slowdown)
        self._pending.clear()
        self._mark = time.perf_counter()
        self.probe_s += self._mark - end

    @contextmanager
    def sampling(self):
        """Probe every :data:`PROBE_PERIOD_S` on a timer signal, for a
        region with no hook to pace the probes from that would not add to
        what is measured: the traced pass's engine runs, one of which must
        run with ``sim.profiler`` unset.  The timer is re-armed after each
        probe, so probes never nest."""
        def tick(signum, frame) -> None:
            self.probe()
            signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def stop(self) -> dict:
        inside = self.probe_s  # the closing probe runs after the region
        self.probe()
        return {"wall_s": self.nominal_s, "wall_raw_s": self.raw_s,
                "probe_s": inside,
                "slowdown": statistics.median(self.slowdowns),
                "op_s": self.ops["op"], "round_s": self.ops["round"]}


class SpanRecorder:
    """Stand-in for a ``Profiler`` on an existing hook (``sim.profiler``,
    ``Campaign(profiler=)``) that hands every duration of one span name
    to a :class:`HostClock` as an operation.  With ``paced``, spans of any
    name also pace the clock's probes: the engine's event loop offers no
    other place to run them."""

    def __init__(self, name: str, clock: HostClock, paced: bool = False) -> None:
        self.name = name
        self.clock = clock
        self.paced = paced
        self._since = 0.0

    def add(self, name: str, seconds: float) -> None:
        if name == self.name:
            self.clock.op(seconds)
        if self.paced:
            self._since += seconds
            if self._since >= PROBE_PERIOD_S:
                self._since = 0.0
                self.clock.probe()


def lpc_jobs(hours: float, seed: int):
    """The LPC-EGEE population of ``TRACE_SEED`` with seeded submit offsets."""
    population = generate_trace(LPC_EGEE, duration=hours * HOUR, seed=TRACE_SEED)
    offsets = np.random.default_rng(seed).uniform(0.0, TICK, size=len(population))
    return [
        dataclasses.replace(job, submit_time=job.submit_time + float(offset))
        for job, offset in zip(population, offsets)
    ]


# -- single-cell workloads ----------------------------------------------------


class CellWorkload:
    """One ``ClusterEngine`` run per repetition."""

    HOURS = 0.0
    #: What ``op_ms`` / ``op_p99_ms`` time: one scheduling round.
    OP = "round"
    PINNED = True

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.workdir = workdir
        self.hours = self.HOURS * scale
        self.jobs = lpc_jobs(self.hours, seed)
        self._runs = 0

    def scale_info(self) -> dict:
        return {"trace": "LPC-EGEE", "hours": self.hours, "jobs": len(self.jobs)}

    def scheduler(self):
        raise NotImplementedError

    def config(self, **overrides) -> EngineConfig:
        return EngineConfig(audit=AuditConfig(), **overrides)

    def run(self, fraction: float = 1.0, record: bool = True,
            profile: bool = False, tracer: SpanTracer | None = None) -> dict:
        """Build a fresh engine and time ``ClusterEngine.run``.

        With ``record`` a recorder on ``engine.sim.profiler`` keeps the
        round latencies and paces the host clock's probes; without it
        (the traced pass) a timer signal paces them.
        """
        horizon = self.hours * HOUR * fraction
        jobs = [job for job in self.jobs if job.submit_time < horizon]
        self._runs += 1
        clock = HostClock()
        # Wrappers go in before the engine exists: it binds hooks such as
        # the audit monitor's ``on_event`` at construction.
        with tracer.installed() if tracer is not None else nullcontext():
            engine = ClusterEngine(jobs, self.scheduler(),
                                   config=self.config(profile=profile))
            if record:
                engine.sim.profiler = SpanRecorder(
                    "kernel.dispatch.SCHEDULE_TICK", clock, paced=True)
            clock.start()
            try:
                with nullcontext() if record else clock.sampling():
                    result = engine.run()
            except InvariantViolation as exc:
                print(f"{type(self).__name__}: audit violation: {exc}", file=sys.stderr)
                return {**clock.stop(), "attempted": 1, "failed": 1, "digest": None,
                        "counters": {}}
            timing = clock.stop()
        failed = 0
        counters = self.counters(engine, result)
        if result.unfinished_jobs or result.policies_quarantined or result.portfolio_failed_over:
            failed = 1
        if result.audit is not None and not result.audit.ok:
            failed = 1
        return {
            **timing,
            "attempted": 1,
            "failed": failed,
            "digest": result_digest(result),
            "counters": counters,
        }

    def counters(self, engine: ClusterEngine, result) -> dict:
        counters = {"sim_events": result.sim_events, "ticks": result.ticks}
        scheduler = engine.scheduler
        if isinstance(scheduler, PortfolioScheduler):
            selector = scheduler.selector
            counters.update(
                invocations=selector.invocations,
                total_simulated=selector.total_simulated,
                memo_hits=selector.memo_hits,
                quarantined=selector.quarantined,
            )
        if result.spot is not None:
            counters["preemptions"] = result.spot.preemptions
        if result.audit is not None:
            counters["audit_violations"] = result.audit.violations_total
        return counters

    def traced(self) -> dict:
        """Bare, traced and profiler-on repetitions (no tick recorder, so
        the three differ only in what they measure)."""
        bare = self.run(record=False)
        cost = calibrate()
        counters = LayerCounters()
        tracer = SpanTracer(hooks=counters.hooks())
        traced = self.run(record=False, tracer=tracer)
        profiled = self.run(record=False, profile=True)
        # The timer's probes run inside whatever span is open: shares are
        # of the whole elapsed time, probes included.
        wall = traced["wall_raw_s"] + traced["probe_s"]
        return {
            "reps": [bare, traced, profiled],
            "traced_wall_s": wall,
            "layers": tracer.layers(wall, cost),
            "wrapper_cost": cost,
            "counters": counters.summary(),
            "ratios": {
                "traced_over_bare": traced["wall_s"] / bare["wall_s"],
                "profiler_on_over_off": profiled["wall_s"] / bare["wall_s"],
            },
        }


class PortfolioLpc(CellWorkload):
    HOURS = 18.0

    def scheduler(self):
        # The paper's configuration, Poor-set seed included: a seeded
        # selector doubles the seed-to-seed spread of the kernel's work.
        return PortfolioScheduler(**portfolio_kwargs())


class FixedLpc(CellWorkload):
    HOURS = 120.0

    def scheduler(self):
        return FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))


class AuditedHostile(CellWorkload):
    HOURS = 48.0

    def scheduler(self):
        return FixedScheduler(policy_by_name("ODA-S35-FCFS-FirstFit"))

    def config(self, **overrides) -> EngineConfig:
        trace_path = self.workdir / f"trace-{self._runs}.jsonl"
        return EngineConfig(
            spot=SpotConfig(seed=3, preempt_rate_per_hour=0.2,
                            brownout_mtbb_seconds=21_600.0),
            faults=FaultModel(seed=5, lease_fault_rate=0.05, boot_fail_rate=0.02),
            audit=AuditConfig(level="strict"),
            trace=TraceConfig(path=str(trace_path)),
            **overrides,
        )

    def counters(self, engine: ClusterEngine, result) -> dict:
        counters = super().counters(engine, result)
        path = engine.tracer.path if engine.tracer is not None else None
        counters["trace_bytes"] = os.path.getsize(path) if path else 0
        if path:
            os.unlink(path)
        return counters


# -- the service --------------------------------------------------------------


class ServiceSteady:
    """A fresh ``repro service run`` child per repetition, driven with the
    mix of the CI ``service-smoke`` job: 6 tenants on the default budget,
    the ``synthetic_jobs`` stream of its seed 7, one explicit round per 10
    submissions, the server's state flags at their defaults and its seed
    7 as well.  The run seed scales each job's runtime by a factor drawn
    from [0.99, 1.01]: every seed changes the decisions, and the work
    (simulated steps) varied by 0.5% over ten seeds where drawing the
    stream and the server seed from the run seed varied it by 7.4%.
    One client waits for each reply before it
    sends the next request, as ``run_loadgen`` does, so client and server
    never compute at once and share one pinned CPU.  The stream is longer
    than the job's 12 jobs per tenant so that a repetition lasts long
    enough to time.

    ``repro service loadgen``'s own defaults (50 tenants under the 64-VM
    cap) are no workload: each tenant's fair share is one VM, every
    evaluation of a tenant with a wider job runs to the online
    simulator's step limit, and one round takes about a minute.
    """

    OP = "ack"
    PINNED = True
    TENANTS = 6
    JOBS_PER_TENANT = 100
    ROUNDS_EVERY = 10
    #: The CI job's seed, for the stream and the server alike.
    SEED = 7

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.workdir = workdir
        per_tenant = max(1, round(self.JOBS_PER_TENANT * scale))
        population = list(synthetic_jobs(self.SEED, self.TENANTS, per_tenant, 0))
        factors = np.random.default_rng(seed).uniform(0.99, 1.01, size=len(population))
        self.stream = [
            (tenant, job_id, round(runtime * float(factor), 3), procs)
            for (tenant, job_id, runtime, procs), factor in zip(population, factors)
        ]
        self._servers = 0

    def scale_info(self) -> dict:
        return {"tenants": self.TENANTS, "submits": len(self.stream),
                "rounds_every": self.ROUNDS_EVERY}

    def state_config(self, journal_dir: str) -> ServiceConfig:
        return ServiceConfig(socket_path="replayed.sock", journal_dir=journal_dir,
                             round_interval=0.0, seed=self.SEED)

    def spawn(self, ledger: Path | None = None):
        """Start a server on a fresh journal and wait for its first ping.

        Returns ``(process, client, journal_dir, setup_s)``; the socket is
        polled every 5 ms so the set-up time is not rounded up to the
        client's own 0.1 s retry step, and the time is divided by the
        host slowdown read right after the ping.
        """
        self._servers += 1
        rundir = self.workdir / f"server-{self._servers}"
        rundir.mkdir(parents=True)
        # A relative socket path: unix socket paths are limited to ~107
        # bytes and the checkout may live deep in the file system.
        sock = os.path.relpath(rundir / "s.sock")
        journal = str(rundir / "journal")
        args = ["--socket", sock, "--journal-dir", journal, "--round-interval", "0",
                "--seed", str(self.SEED)]
        if ledger is None:
            command = [sys.executable, "-m", "repro", "service", "run", *args]
        else:
            command = [sys.executable, str(HERE / "service_child.py"),
                       "--ledger", str(ledger), *args]
        begin = time.monotonic()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL)
        client = ServiceClient(sock)
        try:
            while True:
                try:
                    client.connect(retries=1, delay=0.0)
                    break
                except ConnectionError:
                    if proc.poll() is not None or time.monotonic() - begin > 60.0:
                        raise RuntimeError("service did not come up")
                    time.sleep(0.005)
            if not client.ping().get("ok"):
                raise RuntimeError("service ping failed")
        except BaseException:
            client.close()
            stop(proc)
            raise
        setup_s = time.monotonic() - begin
        return proc, client, journal, setup_s / read_slowdown()

    def setup_once(self) -> float:
        proc, client, _, setup_s = self.spawn()
        try:
            client.drain()
        finally:
            client.close()
            stop(proc)
        return setup_s

    def run(self, fraction: float = 1.0, ledger: Path | None = None) -> dict:
        stream = self.stream[: max(1, int(len(self.stream) * fraction))]
        proc, client, journal, setup_s = self.spawn(ledger)
        attempted = failed = 0
        budget = DEFAULT_BUDGET.to_dict()
        host = HostClock()
        try:
            for i in range(self.TENANTS):
                attempted += 1
                failed += not client.open(f"t{i:04d}", budget=budget).get("ok")
            clock = time.perf_counter
            host.start()
            for n, (tenant, job_id, runtime, procs) in enumerate(stream, 1):
                sent = clock()
                reply = client.submit(tenant, job_id, runtime, procs)
                host.op(clock() - sent)
                attempted += 1
                failed += not reply.get("ok") or reply.get("durable") is False
                if n % self.ROUNDS_EVERY == 0:
                    sent = clock()
                    done = client.round()
                    host.op(clock() - sent, "round")
                    attempted += 1
                    failed += not done.get("ok") or done.get("durable") is False
                host.poll()
            timing = host.stop()
            stats = client.stats()
            client.drain()
        finally:
            client.close()
            code = stop(proc)
        live = stats["state"]
        accepted = sum(t["accepted"] for t in live["tenants"].values())
        # One more operation: the stream as a whole.  Replaying the journal
        # costs as much as the stream's rounds did, so only the first two
        # servers of a run (the warm-up and the first repetition) prove
        # that the journal replays to the live state; the digest of that
        # state is then pinned and compared for every repetition.
        if self._servers <= 2:
            records, _ = read_journal(Path(journal) / JOURNAL_NAME)
            live_records = [r for r in records if r["kind"] != "drain"]
            replayed = ServiceState.replay(live_records, self.state_config(journal))
            failed += replayed.to_dict() != live
        attempted += 1
        failed += accepted != len(stream) or code != EX_DRAINED
        return {
            **timing,
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": failed,
            "digest": digest(live),
            "counters": {
                "submitted": len(stream),
                "accepted": accepted,
                "appended_seq": stats["journal"]["appended_seq"],
                "rounds": live["rounds"],
            },
        }

    def traced(self) -> dict:
        bare = self.run()
        ledger = self.workdir / f"spans-{self._servers + 1}.json"
        traced = self.run(ledger=ledger)
        spans = json.loads(ledger.read_text(encoding="utf-8"))
        tracer = SpanTracer()
        tracer.stats = spans["stats"]
        # Shares are of the client's stream wall: what a tenant waits for.
        wall = traced["wall_raw_s"]
        return {
            "reps": [bare, traced],
            "traced_wall_s": wall,
            "layers": tracer.layers(wall, spans["wrapper_cost"]),
            "wrapper_cost": spans["wrapper_cost"],
            "counters": spans["counters"],
            "ratios": {"traced_over_bare": traced["wall_s"] / bare["wall_s"]},
            "flush_s": spans["samples"]["service.journal.flush"],
        }


def stop(proc: subprocess.Popen) -> int:
    """Wait for a server to exit, killing it if it will not."""
    try:
        return proc.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


# -- the campaign -------------------------------------------------------------


class CampaignGrid:
    """The Fig. 7 comparison grid (60 fixed members + the portfolio on each
    of the four traces, k-NN predictor) at two trace seeds: 488 short
    cells on a fresh two-worker spawn pool per repetition.  An operation
    is one cell, timed by the worker that computed it (the campaign's
    own ``campaign.cell`` span).  Which CPU ran a cell is not known, so a
    cell is divided by the reading of both; ``run.py`` reports the mean
    cell, which that reading gets right, not the median, which it does
    not (see README.md)."""

    OP = "cell"
    PINNED = False
    HOURS = 0.5
    TRACE_SEEDS = (TRACE_SEED, TRACE_SEED + 1)
    WORKERS = 2

    def __init__(self, seed: int, scale: float, workdir: Path) -> None:
        self.seed = seed
        self.hours = self.HOURS * scale
        self.cells = self.grid(self.hours)

    def grid(self, hours: float) -> list:
        # The seed goes to the portfolio cells' Poor-set stream only: a
        # seeded submission order would move the expensive cells around
        # and, with them, when half the grid's results are in.
        kwargs = tuple(sorted(portfolio_kwargs(seed=self.seed).items()))
        cells = []
        for trace_seed in self.TRACE_SEEDS:
            scale = ExperimentScale(compare_duration=hours * HOUR,
                                    sweep_duration=hours * HOUR, seed=trace_seed)
            for cell in comparison_cells("knn", scale=scale,
                                         config=EngineConfig(audit=AuditConfig())):
                if cell.kind == "portfolio":
                    cell = dataclasses.replace(cell, scheduler_kwargs=kwargs)
                cells.append(cell)
        return cells

    def scale_info(self) -> dict:
        return {"cells": len(self.cells), "hours": self.hours,
                "trace_seeds": list(self.TRACE_SEEDS), "workers": self.WORKERS}

    def run(self, fraction: float = 1.0, workers: int | None = None,
            tracer: SpanTracer | None = None) -> dict:
        cells = self.cells if fraction == 1.0 else self.grid(self.hours * fraction)
        workers = self.WORKERS if workers is None else workers
        # The probes run here, as results arrive, next to busy workers.
        clock = HostClock(read_shared_slowdown)
        # The serial path memoises traces in-process; start it cold.
        clear_cache()
        campaign = Campaign(cells, workers=workers, fresh_pool=True,
                            profiler=SpanRecorder("campaign.cell", clock),
                            progress=lambda done, total, outcome: clock.poll())
        with tracer.installed() if tracer is not None else nullcontext():
            clock.start()
            outcomes = campaign.run()
            timing = clock.stop()
        ranked = sorted(outcomes, key=lambda o: (o.spec.trace_seed, o.spec.describe()))
        failed = sum(1 for o in outcomes if o.result.unfinished_jobs)
        selectors = [o.scheduler.selector for o in outcomes if o.scheduler is not None]
        return {
            **timing,
            "attempted": len(outcomes),
            "failed": failed,
            "digest": digest([result_digest(o.result) for o in ranked]),
            "counters": {
                "cells": len(outcomes),
                "sim_events": sum(o.result.sim_events for o in outcomes),
                "invocations": sum(s.invocations for s in selectors),
                "total_simulated": sum(s.total_simulated for s in selectors),
                "memo_hits": sum(s.memo_hits for s in selectors),
                "quarantined": sum(s.quarantined for s in selectors),
            },
        }

    def traced(self) -> dict:
        """The pool run, the ``workers=0`` single-threaded baseline, and
        that baseline traced (its cells run in this process, so every
        layer below the campaign is visible)."""
        parallel = self.run()
        serial = self.run(workers=0)
        cost = calibrate()
        counters = LayerCounters()
        tracer = SpanTracer(hooks=counters.hooks())
        traced = self.run(workers=0, tracer=tracer)
        cell_s = sum(parallel["op_s"])
        wall = traced["wall_raw_s"]
        return {
            "reps": [parallel, serial, traced],
            "traced_wall_s": wall,
            "layers": tracer.layers(wall, cost),
            "wrapper_cost": cost,
            "counters": counters.summary(),
            "ratios": {"traced_over_bare": traced["wall_s"] / serial["wall_s"]},
            "extra": {
                "campaign.cell.calls": len(parallel["op_s"]),
                "parallel.utilization": cell_s / (parallel["wall_s"] * self.WORKERS),
                "parallel.speedup_vs_serial": serial["wall_s"] / parallel["wall_s"],
            },
        }


WORKLOADS = {
    "portfolio-lpc": PortfolioLpc,
    "fixed-lpc": FixedLpc,
    "audited-hostile": AuditedHostile,
    "service-steady": ServiceSteady,
    "campaign-grid": CampaignGrid,
}


def timed_reps(workload, seconds: float) -> list[dict]:
    """Repetitions until *seconds* have been measured (at least MIN_REPS);
    a repetition that would overrun the budget is not started."""
    reps: list[dict] = []
    begin = time.perf_counter()
    while len(reps) < MAX_REPS:
        elapsed = time.perf_counter() - begin
        if len(reps) >= MIN_REPS and elapsed + statistics.median(
            r["wall_raw_s"] for r in reps
        ) > seconds:
            break
        rep = workload.run()
        # ru_maxrss only grows: read after every repetition, so the first
        # one's reading is free of the samples later repetitions keep.
        rep["rss_mb"] = peak_rss_mb()
        reps.append(rep)
    return reps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "full"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    source = Path(repro.__file__).resolve().parents[1]
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls = WORKLOADS[args.workload]
        if cls.PINNED:
            pin_to_one_cpu()
        workload = cls(args.seed, args.scale, args.workdir)
        process_setup = (time.monotonic() - args.spawned_at) / read_slowdown()
        # The service's set-up is its server's: spawn and recovery up to
        # the first ping, sampled once per server the run starts.
        server = isinstance(workload, ServiceSteady)
        out: dict = {"source": str(source), "scale": workload.scale_info(),
                     "op": workload.OP}
        if args.mode == "setup":
            out["setup_s"] = [workload.setup_once() if server else process_setup]
        else:
            out["warmup"] = workload.run(fraction=WARMUP_FRACTION)
            if args.trace:
                out["traced"] = workload.traced()
                out["reps"] = out["traced"].pop("reps")
            else:
                out["reps"] = timed_reps(workload, args.seconds)
            runs = [out["warmup"], *out["reps"]]
            out["setup_s"] = [r["setup_s"] for r in runs] if server else [process_setup]
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
