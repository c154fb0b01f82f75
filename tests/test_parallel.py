"""Tests for the parallel execution subsystem (repro.parallel).

The contract under test is *equivalence*: parallelism may change when
cells are computed, never what they compute.

* a campaign fanned out over 4 workers is bit-identical to the serial
  run (and to a cache-hydrated re-run);
* a SIGKILLed worker is respawned, the lost cells retried, and the
  campaign still completes with identical output;
* the content-addressed cell cache survives corruption and reacts to
  every EngineConfig field (canonical-key regression).
"""

import dataclasses
import pickle

import pytest

from repro.experiments.cache import config_token
from repro.experiments.configs import ExperimentScale
from repro.experiments.engine import EngineConfig
from repro.experiments.export import result_to_dict
from repro.parallel import (
    Campaign,
    CampaignError,
    CellCache,
    CellSpec,
    comparison_cells,
)

# A deliberately tiny grid: one trace, ~1/50th of the default horizon.
TINY = ExperimentScale(compare_duration=1_728.0, sweep_duration=864.0, seed=42)


def tiny_cells(n_fixed: int = 5) -> list[CellSpec]:
    """A slice of the fig7 grid: n fixed-policy cells plus the portfolio."""
    from repro.workload.synthetic import TRACES

    cells = comparison_cells("knn", scale=TINY, traces=[TRACES[0]])
    return cells[:n_fixed] + [cells[-1]]


def _echo(value):
    """Module-level so the spawn-context workers can pickle it."""
    return value


def outcome_dicts(outcomes) -> list[dict]:
    """JSON-safe comparison form: full metrics plus per-job records.

    (``ExperimentResult`` carries nondeterministic wall-time telemetry,
    so dataclass equality is the wrong comparison.)"""
    return [result_to_dict(o.result, include_records=True) for o in outcomes]


class TestCampaignDeterminism:
    def test_workers4_bit_identical_to_serial(self, tmp_path):
        cells = tiny_cells()
        serial = Campaign(cells).run()
        parallel = Campaign(
            cells, workers=4, cell_cache=tmp_path / "cache", fresh_pool=True
        ).run()
        assert outcome_dicts(serial) == outcome_dicts(parallel)
        assert [o.spec for o in serial] == [o.spec for o in parallel]
        assert all(o.source == "ran" for o in parallel)

        # Third run hydrates everything from the disk cache, bit-identically.
        cached = Campaign(cells, cell_cache=tmp_path / "cache").run()
        assert all(o.source == "cache" for o in cached)
        assert outcome_dicts(cached) == outcome_dicts(serial)

    def test_progress_streams_every_cell(self):
        cells = tiny_cells(n_fixed=2)
        seen = []
        Campaign(cells, progress=lambda d, t, o: seen.append((d, t))).run()
        assert seen == [(i + 1, len(cells)) for i in range(len(cells))]

    def test_validation(self):
        with pytest.raises(ValueError):
            Campaign(tiny_cells(1), workers=-1)
        with pytest.raises(ValueError):
            Campaign(tiny_cells(1), retries=-1)


class TestWorkerDeath:
    def test_sigkilled_worker_is_retried_and_output_identical(
        self, tmp_path, monkeypatch
    ):
        cells = tiny_cells(n_fixed=3)
        serial = Campaign(cells).run()

        marker = tmp_path / "kill-once"
        monkeypatch.setenv("REPRO_TEST_KILL_ONCE", str(marker))
        survived = Campaign(cells, workers=2, fresh_pool=True).run()

        assert marker.exists(), "the crash-injection hook never fired"
        assert outcome_dicts(survived) == outcome_dicts(serial)

    def test_retry_budget_exhaustion_raises(self, monkeypatch):
        # A pool whose every submission dies: the campaign must stop after
        # the retry budget instead of resubmitting forever.
        import repro.parallel.campaign as campaign_mod
        from concurrent.futures import BrokenExecutor, Future

        calls = {"n": 0}

        class DeadPool:
            def submit(self, fn, *a, **k):
                calls["n"] += 1
                f = Future()
                f.set_exception(BrokenExecutor("worker died"))
                return f

            def reset(self):
                pass

            def shutdown(self):
                pass

        monkeypatch.setattr(campaign_mod, "WorkerPool", lambda workers: DeadPool())
        one_cell = tiny_cells(n_fixed=1)[:1]
        with pytest.raises(CampaignError):
            Campaign(one_cell, workers=2, fresh_pool=True, retries=1).run()
        # 1 initial attempt + 1 retry, then give up.
        assert calls["n"] == 2


class TestCellCache:
    def test_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path)
        key = CellCache.key_of(("some", "token"))
        assert cache.get(key) is None
        cache.put(key, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_deleted(self, tmp_path):
        cache = CellCache(tmp_path)
        key = CellCache.key_of("x")
        cache.put(key, [1, 2, 3])
        path = cache.path_of(key)

        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload bit: digest check must fail
        path.write_bytes(bytes(raw))
        assert cache.get(key) is None
        assert not path.exists()

        path.write_bytes(b"not a cache entry at all")
        assert cache.get(key) is None
        assert not path.exists()

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        import hashlib

        cache = CellCache(tmp_path)
        key = CellCache.key_of("y")
        blob = pickle.dumps("payload")[:-2]  # torn pickle, valid digest
        digest = hashlib.sha256(blob).hexdigest().encode("ascii")
        from repro.parallel.cellcache import _MAGIC

        cache.directory.mkdir(exist_ok=True)
        cache.path_of(key).write_bytes(_MAGIC + digest + b"\n" + blob)
        assert cache.get(key) is None

    def test_key_reacts_to_every_spec_dimension(self):
        base = tiny_cells(n_fixed=1)[0]
        variants = [
            dataclasses.replace(base, trace_seed=base.trace_seed + 1),
            dataclasses.replace(base, duration=base.duration * 2),
            dataclasses.replace(base, predictor="oracle"),
            dataclasses.replace(base, policy="ODB-FCFS-BestFit"),
            dataclasses.replace(
                base, config=dataclasses.replace(base.config, max_job_retries=3)
            ),
        ]
        keys = {CellCache.key_of(spec.token()) for spec in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CellSpec(kind="weird", trace="DAS2-fs0", duration=1.0,
                     trace_seed=0, predictor="knn")
        with pytest.raises(ValueError):
            CellSpec(kind="fixed", trace="DAS2-fs0", duration=1.0,
                     trace_seed=0, predictor="knn")  # no policy
        with pytest.raises(ValueError):
            CellSpec(kind="fixed", trace="no-such-trace", duration=1.0,
                     trace_seed=0, predictor="knn", policy="x")


class TestConfigToken:
    """Satellite: the canonical cache key must cover every config field."""

    def test_covers_every_engine_config_field(self):
        token = config_token(EngineConfig())
        assert token[0] == "EngineConfig"
        tokened = {name for name, _ in token[1:]}
        declared = {f.name for f in dataclasses.fields(EngineConfig)}
        # Reflection-based: a field added to EngineConfig tomorrow is
        # covered automatically, and this assertion documents that.
        assert tokened == declared

    def test_audit_only_difference_changes_token(self):
        from repro.audit import AuditConfig

        plain = EngineConfig()
        audited = EngineConfig(audit=AuditConfig(level="strict"))
        assert config_token(plain) != config_token(audited)

    def test_equal_configs_equal_tokens(self):
        assert config_token(EngineConfig()) == config_token(EngineConfig())


class TestPoolTeardownRaces:
    """Satellite: reset()/shutdown() must be idempotent and safe when the
    atexit hook, an explicit teardown, and a watchdog all race to tear
    the pool down — exactly one caller may join the executor."""

    def test_shutdown_is_idempotent(self):
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        assert pool.submit(_echo, 7).result(timeout=60.0) == 7
        pool.shutdown()
        pool.shutdown()  # second call finds the executor handed off
        assert pool._executor is None
        # The pool respawns on demand after a full shutdown.
        assert pool.submit(_echo, 8).result(timeout=60.0) == 8
        pool.shutdown()

    def test_concurrent_shutdown_single_join(self):
        import threading
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        assert pool.submit(_echo, 1).result(timeout=60.0) == 1
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def teardown():
            try:
                barrier.wait(timeout=30.0)
                pool.shutdown()
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=teardown) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert pool._executor is None

    def test_concurrent_reset_and_shutdown(self):
        import threading
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(1)
        assert pool.submit(_echo, 2).result(timeout=60.0) == 2
        errors: list[BaseException] = []
        barrier = threading.Barrier(4)

        def run(fn):
            try:
                barrier.wait(timeout=30.0)
                fn()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(fn,))
            for fn in (pool.reset, pool.shutdown, pool.reset, pool.shutdown)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert pool._executor is None

    def test_module_level_shutdown_pool_idempotent(self):
        from repro.parallel.pool import get_pool, shutdown_pool

        pool = get_pool(1)
        assert pool.submit(_echo, 3).result(timeout=60.0) == 3
        shutdown_pool()
        shutdown_pool()  # the atexit hook finding it already gone is fine
        assert get_pool(1) is not pool  # a fresh pool after teardown
        shutdown_pool()
