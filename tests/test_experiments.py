"""Tests for the experiment layer: cache, comparison driver, baselines,
and the figure drivers at miniature scale."""

import pytest

from repro.core.scheduler import RandomScheduler, RoundRobinScheduler
from repro.experiments.cache import (
    cached_fixed_run,
    cached_portfolio_run,
    cached_trace,
    clear_cache,
    make_predictor,
)
from repro.experiments.compare import compare_trace
from repro.experiments.configs import ExperimentScale, portfolio_kwargs
from repro.experiments.engine import ClusterEngine, EngineConfig
from repro.experiments.table1 import table1_rows
from repro.policies.combined import build_portfolio
from repro.predict.knn import KnnPredictor
from repro.predict.simple import OraclePredictor, UserEstimatePredictor
from repro.workload.synthetic import DAS2_FS0, KTH_SP2, generate_trace

TINY = ExperimentScale(compare_duration=4 * 3_600.0, sweep_duration=2 * 3_600.0, seed=5)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestCache:
    def test_trace_cached_by_identity(self):
        a = cached_trace(KTH_SP2, 3_600.0, 1)
        b = cached_trace(KTH_SP2, 3_600.0, 1)
        assert a is b

    def test_trace_seed_separates(self):
        a = cached_trace(KTH_SP2, 3_600.0, 1)
        b = cached_trace(KTH_SP2, 3_600.0, 2)
        assert a is not b

    def test_fixed_run_cached(self):
        p = build_portfolio()[0]
        a = cached_fixed_run(DAS2_FS0, 4 * 3_600.0, 5, p)
        b = cached_fixed_run(DAS2_FS0, 4 * 3_600.0, 5, p)
        assert a is b

    def test_portfolio_kwargs_distinguish_runs(self):
        a = cached_portfolio_run(
            DAS2_FS0, 2 * 3_600.0, 5, "oracle", **portfolio_kwargs()
        )
        b = cached_portfolio_run(
            DAS2_FS0, 2 * 3_600.0, 5, "oracle", **portfolio_kwargs(selection_period=4)
        )
        assert a is not b
        again = cached_portfolio_run(
            DAS2_FS0, 2 * 3_600.0, 5, "oracle", **portfolio_kwargs()
        )
        assert a is again

    def test_make_predictor(self):
        assert isinstance(make_predictor("oracle"), OraclePredictor)
        assert isinstance(make_predictor("knn"), KnnPredictor)
        assert isinstance(make_predictor("user"), UserEstimatePredictor)
        with pytest.raises(ValueError):
            make_predictor("psychic")


class TestCompare:
    def test_compare_trace_structure(self):
        cmp = compare_trace(DAS2_FS0, "oracle", TINY)
        assert cmp.trace == "DAS2-fs0"
        assert [cb.cluster for cb in cmp.clusters] == [
            "ODA", "ODB", "ODE", "ODM", "ODX",
        ]
        # every cluster winner actually belongs to its cluster
        for cb in cmp.clusters:
            assert cb.policy.provisioning.name == cb.cluster
        assert cmp.best_constituent().result.utility == max(
            cb.result.utility for cb in cmp.clusters
        )
        assert isinstance(cmp.improvement(), float)

    def test_portfolio_label(self):
        cmp = compare_trace(DAS2_FS0, "oracle", TINY)
        assert cmp.clusters[0].label == "ODA-*"


class TestScale:
    def test_env_scale_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "abc")
        with pytest.raises(ValueError):
            ExperimentScale.from_env()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "-1")
        with pytest.raises(ValueError):
            ExperimentScale.from_env()
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        s = ExperimentScale.from_env()
        assert s.compare_duration == pytest.approx(86_400.0)

    def test_portfolio_kwargs_defaults_and_overrides(self):
        kw = portfolio_kwargs()
        assert kw["time_constraint"] == 0.2
        assert kw["lam"] == 0.6
        kw2 = portfolio_kwargs(lam=0.3)
        assert kw2["lam"] == 0.3


class TestTable1Driver:
    def test_rows_shape(self):
        rows = table1_rows(duration=2 * 86_400.0, seed=3)
        assert len(rows) == 4
        assert all(set(r) >= {"Trace", "CPUs", "Jobs", "Load[%]"} for r in rows)


class TestBaselineSchedulers:
    def test_random_scheduler_runs(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * 3_600.0, seed=7)
        result = ClusterEngine(jobs, RandomScheduler(seed=1)).run()
        assert result.unfinished_jobs == 0
        assert result.scheduler_desc == "random(n=60)"

    def test_round_robin_cycles(self):
        jobs = generate_trace(DAS2_FS0, duration=4 * 3_600.0, seed=7)
        result = ClusterEngine(jobs, RoundRobinScheduler()).run()
        assert result.unfinished_jobs == 0

    def test_random_deterministic_per_seed(self):
        jobs = generate_trace(DAS2_FS0, duration=2 * 3_600.0, seed=7)
        a = ClusterEngine(jobs, RandomScheduler(seed=3)).run()
        b = ClusterEngine(jobs, RandomScheduler(seed=3)).run()
        assert a.metrics == b.metrics

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError):
            RandomScheduler(portfolio=[])
        with pytest.raises(ValueError):
            RoundRobinScheduler(portfolio=[])
