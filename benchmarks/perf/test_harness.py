"""Self-test of the perf harness: every workload at 1/20 scale.

    python -m pytest benchmarks/perf -q

Runs ``run.py`` untraced and traced over all five workloads, then checks
the output format, the span accounting and the correctness checks
themselves (a tampered pin must fail the run).
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CELL_WORKLOADS = ("portfolio-lpc", "fixed-lpc", "audited-hostile")


def load_run():
    spec = importlib.util.spec_from_file_location("perf_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def harness(tmp_path: Path, *args: str) -> tuple[dict, dict, list[str]]:
    """Run every workload at scale 0.05; return (last line, ledger, lines)."""
    ledger = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.05", "--seconds", "0",
         "--out", str(ledger), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(ledger.read_text()), lines[:-1]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return harness(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return harness(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.mark.parametrize("kind, fixture", [("end_to_end", "untraced"),
                                           ("per_layer", "traced")])
def test_every_metric_is_emitted_with_its_unit(kind, fixture, request):
    last, ledger, lines = request.getfixturevalue(fixture)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines}
    for workload in BENCH["workloads"]:
        name = workload["name"]
        emitted = last["metrics"][name]
        assert ledger["workloads"][name]["pinned"], f"{name} has no pin at scale 0.05"
        for metric in BENCH[kind]:
            assert emitted[metric["name"]]["unit"] == metric["unit"], (name, metric)
            assert printed[(name, metric["name"])] == metric["unit"], (name, metric)
            if kind == "end_to_end":
                assert emitted[metric["name"]]["value"] > 0, (name, metric)


def test_ledger_records_host_git_and_scale(untraced):
    _, ledger, _ = untraced
    assert ledger["schema"] == "repro-perf-ledger/1"
    assert ledger["host"]["cpus"] >= 1 and ledger["host"]["numpy"]
    assert set(ledger["git"]) == {"rev", "dirty"}
    assert ledger["seed"] == 42 and ledger["scale"] == 0.05
    for entry in ledger["workloads"].values():
        assert entry["scale"] and entry["error_rate"] == 0.0


@pytest.mark.parametrize("workload", CELL_WORKLOADS)
def test_self_times_cover_the_traced_wall(workload, traced):
    _, ledger, _ = traced
    entry = ledger["workloads"][workload]
    measured = sum(layer["raw_self_s"] for layer in entry["layers"].values())
    assert measured == pytest.approx(entry["traced_wall_s"], rel=0.05)
    for layer in entry["layers"].values():
        assert 0.0 <= layer["self_s"] <= layer["raw_self_s"] + 1e-12


def test_bypassed_layers_report_no_calls(traced):
    _, ledger, _ = traced
    fixed = ledger["workloads"]["fixed-lpc"]["layers"]
    assert fixed["online_sim.evaluate"]["calls"] == 0
    assert fixed["selection.select"]["calls"] == 0
    assert ledger["workloads"]["portfolio-lpc"]["layers"]["online_sim.evaluate"]["calls"] > 0
    assert ledger["workloads"]["audited-hostile"]["layers"]["audit.check_round"]["calls"] > 0


def test_a_tampered_pin_raises_error_rate():
    run = load_run()
    rep = {"digest": "d1", "attempted": 1, "failed": 0}
    child = {"warmup": {"digest": "w", "attempted": 1, "failed": 0},
             "reps": [dict(rep), dict(rep), dict(rep)]}
    honest = run.judge("fixed-lpc", 42, 0.05, child, {"fixed-lpc": {"42@0.05": "d1"}})
    assert honest["error_rate"] == 0.0 and honest["pinned"]
    tampered = run.judge("fixed-lpc", 42, 0.05, child, {"fixed-lpc": {"42@0.05": "xx"}})
    assert tampered["failed"] == 3 and tampered["error_rate"] > 0.0
    child["reps"][1]["digest"] = "d2"  # repetitions of one input must agree
    unpinned = run.judge("fixed-lpc", 7, 0.05, child, {})
    assert unpinned["failed"] == 1


def test_compare_verdicts():
    run = load_run()
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(parent, [v * 0.8 for v in parent], 0.1, True)[0] == "improved"
    assert run.verdict(parent, [v * 1.2 for v in parent], 0.1, True)[0] == "regressed"
    assert run.verdict(parent, [v * 1.05 for v in parent], 0.1, True)[0] == "no-worse"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.4, 0.9, 1.2, 0.6, 1.1]
    assert run.verdict(noisy, noisy, 0.1, True)[0] == "unresolved"
    assert run.verdict([0.0] * 10, [0.0] * 9 + [0.01], None, True)[0] == "regressed"
    # One parent failure does not excuse a change that fails every run.
    once = [0.01] + [0.0] * 9
    assert run.verdict(once, [0.01] * 10, None, True)[0] == "regressed"
    assert run.verdict(once, list(reversed(once)), None, True)[0] == "no-worse"
    # Too few pairs can never claim a gain.
    assert run.verdict(parent[:5], [v * 0.8 for v in parent[:5]], 0.1, True)[0] == "no-worse"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fixed-lpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
