"""Tests for the high-level runner helpers."""

from repro.experiments import cache
from repro.experiments.cache import clear_cache, make_predictor
from repro.experiments.compare import compare_trace
from repro.experiments.configs import ExperimentScale
from repro.experiments.runner import run_fixed, run_portfolio
from repro.policies.combined import policy_by_name
from repro.predict.knn import KnnPredictor
from repro.workload.synthetic import DAS2_FS0, generate_trace


def small_trace():
    return generate_trace(DAS2_FS0, duration=3 * 3_600.0, seed=19)


class TestRunFixed:
    def test_returns_result(self):
        result = run_fixed(small_trace(), policy_by_name("ODM-UNICEF-FirstFit"))
        assert result.unfinished_jobs == 0
        assert result.scheduler_desc == "ODM-UNICEF-FirstFit"


class TestRunPortfolio:
    def test_returns_result_and_scheduler(self):
        result, scheduler = run_portfolio(small_trace(), seed=2)
        assert result.portfolio_invocations == scheduler.invocations > 0


class TestClusterGrid:
    """The best-per-cluster grid of Figs. 4/7/8 (:func:`compare_trace`)."""

    def test_fresh_predictor_per_run(self, monkeypatch):
        """Each of the 60 fixed runs and the portfolio run gets its own
        predictor, so k-NN history from one run cannot leak into the next."""
        created = []

        def factory(name):
            p = make_predictor(name)
            created.append(p)
            return p

        monkeypatch.setattr(cache, "make_predictor", factory)
        clear_cache()
        try:
            compare_trace(DAS2_FS0, "knn",
                          ExperimentScale(compare_duration=3_600.0, seed=19))
        finally:
            clear_cache()
        assert len(created) == 61
        assert len(set(map(id, created))) == 61
        assert all(isinstance(p, KnnPredictor) for p in created)
