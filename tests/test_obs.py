"""Tests for the observability layer (repro.obs).

Covers the tracer's append/flush/resume-truncate lifecycle, the
profiler's aggregation and merge semantics, trace-file reading under
crash debris (torn final lines), the engine wiring (one round record per
scheduling round, Δ accounting, billing settlements), the
off-by-default bit-identity guarantee, and kill/resume trace
consistency.
"""

import importlib.util
import json
import pickle
import signal
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core.scheduler import FixedScheduler, PortfolioScheduler
from repro.durability import DurableRunner, RunInterrupted, SnapshotConfig
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.export import result_to_dict
from repro.obs import (
    TRACE_SCHEMA,
    Profiler,
    RunTracer,
    TraceConfig,
    TraceReadError,
    profiled,
    prometheus_text,
    read_trace,
    render_trace_report,
)
from repro.policies.combined import policy_by_name
from repro.workload.synthetic import DAS2_FS0, generate_trace

HOUR = 3_600.0

_spec = importlib.util.spec_from_file_location(
    "validate_prom",
    Path(__file__).resolve().parents[1] / "tools" / "validate_prom.py",
)
validate_prom = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_prom)


def make_engine(hours=6.0, seed=29, portfolio=True, **config_kwargs):
    jobs = generate_trace(DAS2_FS0, duration=hours * HOUR, seed=seed)
    if portfolio:
        scheduler = PortfolioScheduler(seed=7)
    else:
        scheduler = FixedScheduler(policy_by_name("ODA-FCFS-FirstFit"))
    return ClusterEngine(jobs, scheduler, config=EngineConfig(**config_kwargs))


class TestTracer:
    def test_emit_envelope_and_ring(self):
        tracer = RunTracer(TraceConfig(ring_size=3))
        for i in range(5):
            tracer.emit("round", float(i), round=i)
        assert tracer.records_emitted == 5
        assert tracer.counts == {"round": 5}
        assert [r["round"] for r in tracer.ring] == [2, 3, 4]  # bounded
        seqs = [r["seq"] for r in tracer.ring]
        assert seqs == [2, 3, 4]
        assert all(r["v"] == TRACE_SCHEMA for r in tracer.ring)

    def test_flush_appends_and_fsyncs(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path), flush_every=100))
        tracer.emit("vm", 1.0, vm=1)
        assert not path.exists()  # buffered
        tracer.flush()
        tracer.emit("vm", 2.0, vm=2)
        tracer.close()
        lines = path.read_text().splitlines()
        assert [json.loads(line)["t"] for line in lines] == [1.0, 2.0]

    def test_auto_flush_cadence(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path), flush_every=2))
        tracer.emit("vm", 1.0)
        assert not path.exists()
        tracer.emit("vm", 2.0)  # hits flush_every
        assert len(path.read_text().splitlines()) == 2

    def test_non_json_safe_record_fails_at_emit(self):
        tracer = RunTracer(TraceConfig(path="/dev/null"))
        with pytest.raises(TypeError):
            tracer.emit("round", 0.0, payload=object())

    def test_pickle_flushes_and_drops_pending(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path), flush_every=100))
        tracer.emit("round", 0.0, round=0)
        clone = pickle.loads(pickle.dumps(tracer))
        # Pickling forced the flush: the file holds the record and the
        # clone's flushed-prefix marker covers it.
        assert len(path.read_text().splitlines()) == 1
        assert clone._flushed_bytes == path.stat().st_size
        assert clone.records_emitted == 1

    def test_resume_truncate_drops_lost_segment(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RunTracer(TraceConfig(path=str(path)))
        tracer.emit("round", 0.0, round=0)
        tracer.flush()
        snapshot = pickle.dumps(tracer)
        # Post-snapshot segment that a crash will lose, plus a torn tail.
        tracer.emit("round", 1.0, round=1)
        tracer.flush()
        with open(path, "ab") as fh:
            fh.write(b'{"v": 1, "kind": "round", "torn')
        restored = pickle.loads(snapshot)
        restored.resume_truncate()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["round"] for r in records] == [0]
        # Re-emitting continues cleanly after the rewind.
        restored.emit("round", 1.0, round=1)
        restored.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["round"] for r in records] == [0, 1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(ring_size=0)
        with pytest.raises(ValueError):
            TraceConfig(flush_every=0)


class TestProfiler:
    def test_add_and_top(self):
        prof = Profiler()
        prof.add("a", 1.0)
        prof.add("a", 3.0)
        prof.add("b", 0.5)
        stats = prof.spans["a"]
        assert (stats.count, stats.total, stats.max) == (2, 4.0, 3.0)
        assert [name for name, _ in prof.top(1)] == ["a"]

    def test_span_context_manager_times_body(self):
        prof = Profiler()
        with prof.span("work"):
            pass
        assert prof.spans["work"].count == 1
        assert prof.spans["work"].total >= 0.0

    def test_profiled_decorator_noop_without_profiler(self):
        class Thing:
            profiler = None

            @profiled("thing.run")
            def run(self):
                return 42

        thing = Thing()
        assert thing.run() == 42
        thing.profiler = Profiler()
        assert thing.run() == 42
        assert thing.profiler.spans["thing.run"].count == 1

    def test_pickles_inside_snapshots(self):
        prof = Profiler()
        prof.add("a", 1.5)
        clone = pickle.loads(pickle.dumps(prof))
        assert clone.snapshot() == prof.snapshot()


class TestReadTrace:
    def write(self, path, lines):
        path.write_bytes(b"".join(lines))
        return path

    def test_torn_final_line_tolerated(self, tmp_path):
        path = self.write(
            tmp_path / "t.jsonl",
            [b'{"v": 1, "seq": 0, "kind": "round", "t": 0.0}\n',
             b'{"v": 1, "seq": 1, "kind": "ro'],
        )
        trace = read_trace(path)
        assert trace.torn_final_line
        assert trace.skipped_lines == 0
        assert len(trace.records) == 1

    def test_mid_file_garbage_counted(self, tmp_path):
        path = self.write(
            tmp_path / "t.jsonl",
            [b'{"v": 1, "seq": 0, "kind": "round", "t": 0.0}\n',
             b"not json at all\n",
             b'{"v": 1, "seq": 1, "kind": "round", "t": 1.0}\n'],
        )
        trace = read_trace(path)
        assert not trace.torn_final_line
        assert trace.skipped_lines == 1
        assert len(trace.records) == 2

    def test_newer_schema_raises(self, tmp_path):
        path = self.write(
            tmp_path / "t.jsonl",
            [json.dumps({"v": TRACE_SCHEMA + 1, "kind": "round",
                         "t": 0.0}).encode() + b"\n"],
        )
        with pytest.raises(TraceReadError, match="schema"):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceReadError):
            read_trace(tmp_path / "absent.jsonl")

    def test_report_renders_on_torn_file(self, tmp_path, capsys):
        path = self.write(
            tmp_path / "t.jsonl",
            [b'{"v": 1, "seq": 0, "kind": "round", "t": 0.0, "round": 0, '
             b'"queue": 1, "fleet": 2, "policy": "A"}\n',
             b'{"v": 1, "seq": 1, "kind": "ro'],
        )
        assert cli_main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "torn final line" in out


class TestEngineWiring:
    def test_one_round_record_per_scheduler_round(self, tmp_path):
        path = tmp_path / "run.jsonl"
        engine = make_engine(trace=TraceConfig(path=str(path)), profile=True)
        result = engine.run()
        trace = read_trace(path)
        rounds = trace.of_kind("round")
        assert len(rounds) == result.ticks > 0
        round_ids = [r["round"] for r in rounds]
        assert round_ids == list(range(result.ticks))  # unique, gapless
        # Every Algorithm 1 invocation left its Δ accounting in a record.
        selections = [r["selection"] for r in rounds if "selection" in r]
        assert len(selections) == result.portfolio_invocations
        # The default fast kernel answers some scores from shared runs.
        assert sum(sel["n_shared"] for sel in selections) > 0
        for sel in selections:
            assert sel["budget"] > 0
            assert sel["spent"] >= 0
            assert sel["n_simulated"] == len(sel["scores"])
            assert 0 <= sel["n_shared"] <= sel["n_simulated"]
            assert set(sel["sets"]) == {"smart", "stale", "poor"}
            for ps in sel["scores"]:
                assert {"policy", "score", "cost", "quarantined"} <= set(ps)

    def test_charges_and_lifecycle_reconcile(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = make_engine(trace=TraceConfig(path=str(path))).run()
        trace = read_trace(path)
        charged = sum(r["seconds"] for r in trace.of_kind("charge"))
        assert charged == pytest.approx(result.metrics.rv_seconds)
        leases = [r for r in trace.of_kind("vm") if r["event"] == "lease"]
        readies = [r for r in trace.of_kind("vm") if r["event"] == "ready"]
        assert len(leases) >= len(readies) > 0
        ends = trace.of_kind("run_end")
        assert len(ends) == 1
        assert ends[0]["unfinished"] == result.unfinished_jobs
        # The profile record only appears on profiled runs.
        assert trace.of_kind("profile") == []

    def test_profiler_spans_cover_hot_paths(self):
        engine = make_engine(profile=True)
        result = engine.run()
        assert result.profile is not None
        spans = result.profile["spans"]
        assert "kernel.dispatch.SCHEDULE_TICK" in spans
        assert "selector.select" in spans
        assert "selector.evaluate" in spans
        assert spans["selector.select"]["count"] == result.portfolio_invocations

    def test_result_summaries_and_report_render(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = make_engine(
            trace=TraceConfig(path=str(path)), profile=True
        ).run()
        assert result.trace["records"] == read_trace(path).records.__len__()
        report = render_trace_report(read_trace(path), top_spans=5)
        assert "Δ accounting" in report
        assert " shared), " in report
        assert "queue" in report and "fleet" in report
        assert "spans by total time" in report

    def test_off_is_bit_identical(self):
        instrumented = make_engine(trace=TraceConfig(), profile=True).run()
        plain = make_engine().run()
        assert plain.profile is None and plain.trace is None
        exported = result_to_dict(plain, include_records=True)
        assert "profile" not in exported and "trace" not in exported
        # Same simulation either way: instrumentation observes, never
        # steers.
        a = result_to_dict(instrumented, include_records=True)
        b = result_to_dict(plain, include_records=True)
        for summary in (a, b):
            summary.pop("profile", None)
            summary.pop("trace", None)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_prometheus_output_validates(self, tmp_path):
        result = make_engine(
            trace=TraceConfig(path=str(tmp_path / "t.jsonl")), profile=True
        ).run()
        text = prometheus_text(result)
        assert validate_prom.validate_text(text) == []
        assert "repro_span_seconds_total" in text
        assert 'repro_trace_records_total{kind="round"}' in text
        # And without live tracer/profiler objects (resume path): the
        # result's own summaries feed the exporter.
        plain = make_engine().run()
        assert validate_prom.validate_text(prometheus_text(plain)) == []


class TestKillResumeTrace:
    def snap_config(self, tmp_path):
        return SnapshotConfig(directory=tmp_path / "snaps",
                              interval_seconds=None, every_events=200)

    def test_killed_and_resumed_trace_matches_uninterrupted(self, tmp_path):
        ref_path = tmp_path / "ref.jsonl"
        make_engine(hours=24.0, trace=TraceConfig(path=str(ref_path))).run()
        ref_rounds = [
            (r["round"], r["policy"], r["queue"], r["fleet"])
            for r in read_trace(ref_path).of_kind("round")
        ]

        path = tmp_path / "killed.jsonl"
        runner = DurableRunner(
            make_engine(
                hours=24.0, trace=TraceConfig(path=str(path), flush_every=8)
            ),
            self.snap_config(tmp_path),
        )
        runner.on_snapshot = lambda info: (
            runner.request_stop(signal.SIGTERM) if info.sequence >= 2 else None
        )
        with pytest.raises(RunInterrupted):
            runner.run()
        # Simulate the SIGKILL aftermath: the dying process flushed
        # records past the snapshot and tore its final line mid-append.
        with open(path, "ab") as fh:
            fh.write(json.dumps({"v": 1, "seq": 10**6, "kind": "round",
                                 "t": 1e12, "round": 10**6}).encode() + b"\n")
            fh.write(b'{"v": 1, "seq": 1000001, "kind": "ro')

        resumed = DurableRunner.resume(self.snap_config(tmp_path))
        resumed.run()

        trace = read_trace(path)
        assert not trace.torn_final_line  # truncation removed the debris
        rounds = [
            (r["round"], r["policy"], r["queue"], r["fleet"])
            for r in trace.of_kind("round")
        ]
        round_ids = [r[0] for r in rounds]
        assert len(round_ids) == len(set(round_ids))  # no duplicated ids
        # Superset (here: exact match) of the uninterrupted run's rounds.
        assert set(rounds) >= set(ref_rounds)
        assert rounds == ref_rounds
        starts = trace.of_kind("run_start")
        assert [s["resumed"] for s in starts] == [False, True]
        assert len(trace.of_kind("run_end")) == 1

    def test_cli_kill_resume_trace_report(self, tmp_path, capsys):
        # End-to-end through the CLI: traced durable run interrupted at a
        # snapshot, resumed with --resume, then summarised.
        trace_path = tmp_path / "cli.jsonl"
        swf = tmp_path / "jobs.swf"
        from repro.workload.swf import write_swf

        jobs = generate_trace(DAS2_FS0, duration=4 * HOUR, seed=29)
        with open(swf, "w", encoding="utf-8") as fh:
            write_swf(jobs, fh)
        snap_dir = tmp_path / "snaps"
        common = ["--snapshot-dir", str(snap_dir),
                  "--snapshot-every-events", "150"]
        code = cli_main([
            "run", "--swf", str(swf), "--trace-out", str(trace_path),
            "--profile", *common,
        ])
        assert code == 0
        capsys.readouterr()
        assert cli_main(["trace-report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "policy switches" in out
        assert "spans by total time" in out
