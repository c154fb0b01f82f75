"""Unit tests for the reflection store."""

import pytest

from repro.core.reflection import ReflectionStore


def store_with_history() -> ReflectionStore:
    s = ReflectionStore()
    s.record_invocation(0.0, [("A", 10.0), ("B", 20.0)], applied="B")
    s.record_invocation(20.0, [("A", 30.0), ("C", 5.0)], applied="A")
    s.record_invocation(40.0, [("B", 50.0)], applied="B")
    return s


class TestRecording:
    def test_records_every_score(self):
        s = store_with_history()
        assert len(s.records) == 5

    def test_applied_flag_set_once(self):
        s = ReflectionStore()
        s.record_invocation(0.0, [("A", 1.0), ("A", 2.0)], applied="A")
        assert sum(1 for r in s.records if r.applied) == 1

    def test_applied_must_be_among_scores(self):
        s = ReflectionStore()
        with pytest.raises(ValueError):
            s.record_invocation(0.0, [("A", 1.0)], applied="Z")


class TestInvocationRatios:
    def test_applied_counts(self):
        assert store_with_history().applied_counts() == {"B": 2, "A": 1}

    def test_ratio_sums_to_one(self):
        ratios = store_with_history().invocation_ratio()
        assert sum(ratios.values()) == pytest.approx(1.0)
        assert ratios["B"] == pytest.approx(2 / 3)

    def test_empty_ratio(self):
        assert ReflectionStore().invocation_ratio() == {}

    def test_grouped_ratio(self):
        s = ReflectionStore()
        s.record_invocation(0.0, [("ODA-FCFS-BestFit", 1.0)], applied="ODA-FCFS-BestFit")
        s.record_invocation(1.0, [("ODA-LXF-BestFit", 1.0)], applied="ODA-LXF-BestFit")
        s.record_invocation(2.0, [("ODB-LXF-BestFit", 1.0)], applied="ODB-LXF-BestFit")
        assert s.grouped_ratio(1) == {"ODA": pytest.approx(2 / 3), "ODB": pytest.approx(1 / 3)}
        g2 = s.grouped_ratio(2)
        assert g2["ODA-FCFS"] == pytest.approx(1 / 3)

    def test_grouped_ratio_validation(self):
        with pytest.raises(ValueError):
            ReflectionStore().grouped_ratio(0)
