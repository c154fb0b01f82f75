"""The perf harness: five workloads, end-to-end metrics, a traced per-layer
ledger, and digest-pinned correctness.

    python3 benchmarks/perf/run.py [--workload W] [--seed S] [--seconds T]
                                   [--trace 0|1] [--scale X] [--out LEDGER]
    python3 benchmarks/perf/run.py compare PARENT_DIR CHANGE_DIR

Run from anywhere; the program under test is the ``src/`` tree of the
checkout this file sits in.  Each workload runs in processes of its own
(``workloads.py``): four that only set up, for extra ``setup_s`` samples
(none in the traced pass), then the measured one.  Every metric is printed as
``workload metric value unit``; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer``
metrics with ``--trace 1``).  The full record goes to a JSON ledger.
The run exits non-zero when any output fails its check: a digest that
differs from its pin in ``pins.json`` or between repetitions, a failed
or non-durable service reply, an unfinished job, an audit violation.
See README.md for the metrics, the workloads and the compare protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCHEMA = "repro-perf-ledger/1"
DEFAULT_SEED = 42
#: Set-up-only processes per workload, on top of the measured one.
SETUP_SPAWNS = 4
#: Wall-clock budget of one workload, all of its processes included.
WORKLOAD_BUDGET_S = 170.0


# -- running a workload -------------------------------------------------------


def child_env(workdir: Path) -> dict:
    """The program's ``src/`` first on the path; temp files inside the
    checkout; no ``REPRO_*`` knob leaking in from the caller; a fixed hash
    seed, so dict and set layouts (and the timings they sway) repeat."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    tail = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + tail if tail else "")
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, mode: str, args, workdir: Path, tag: str,
          deadline: float) -> dict:
    """Run one workload process; return its JSON result.

    The process leads a session of its own, so when it overruns
    *deadline* the servers and pool workers it started die with it.
    """
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--scale", repr(args.scale), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--mode", mode,
        "--workdir", str(workdir / tag),
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(workdir),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} {mode} process overran its time budget")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} {mode} process exited {proc.returncode}")
    result = json.loads(lines[-1])
    if Path(result["source"]) != (ROOT / "src").resolve():
        raise RuntimeError(f"{workload} imported repro from {result['source']}")
    return result


def pin_key(seed: int, scale: float) -> str:
    return f"{seed}@{scale:g}"


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


def judge(workload: str, seed: int, scale: float, child: dict, pins: dict) -> dict:
    """Correctness of one measured run.

    Every operation the workload process checked itself counts.  A
    repetition whose output digest differs from the pin for (workload,
    seed, scale), or, without a pin, from the first repetition's
    (outputs are deterministic), counts one more failure.
    """
    expected = pins.get(workload, {}).get(pin_key(seed, scale))
    reps = child["reps"]
    reference = expected or reps[0]["digest"]
    attempted = failed = 0
    for rep in [child["warmup"], *reps]:
        mismatch = rep is not child["warmup"] and rep["digest"] != reference
        attempted += rep["attempted"]
        failed += min(rep["attempted"], rep["failed"] + mismatch)
    return {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "digests": [rep["digest"] for rep in reps],
        "pin": expected,
        "pinned": expected is not None,
    }


def percentiles(samples_s: list[float]) -> tuple[float, float, float, int]:
    """``(p50, p90, p99)`` in milliseconds, and the sample count."""
    ordered = sorted(samples_s)
    if not ordered:
        return 0.0, 0.0, 0.0, 0
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[49] * 1e3, cuts[89] * 1e3, cuts[98] * 1e3, len(ordered)


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, int]:
    """``(value, unit)`` per end-to-end metric, plus the per-workload
    latencies the ledger keeps beside them.

    Every time is in seconds at the host's nominal speed, as the workload
    process's ``HostClock`` and probes converted it; the median raw wall
    and the median slowdown the probes read ride along for the ledger.
    """
    reps = child["reps"]
    ops = [s for r in reps for s in r["op_s"]]
    op_p50, op_p90, op_p99, n_op = percentiles(ops)
    # A campaign cell is divided by a reading of every CPU, not of the one
    # it ran on: that gets the mean cell right but not the median.
    op_ms = statistics.fmean(ops) * 1e3 if child["op"] == "cell" else op_p50
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "op_ms": (op_ms, "ms"),
        "op_p50_ms": (op_p50, "ms"),
        "op_p90_ms": (op_p90, "ms"),
        "op_p99_ms": (op_p99, "ms"),
        "peak_rss_mb": (reps[0]["rss_mb"], "MB"),
        "wall_raw_s": (statistics.median(r["wall_raw_s"] for r in reps), "s"),
        "host_slowdown": (statistics.median(r["slowdown"] for r in reps), "ratio"),
    }
    if child["op"] == "round":
        metrics.update(round_p50_ms=metrics["op_p50_ms"], round_p99_ms=metrics["op_p99_ms"])
    elif child["op"] == "ack":  # the service times its rounds apart
        r50, _, r99, _ = percentiles([s for r in reps for s in r["round_s"]])
        metrics.update(ack_p50_ms=metrics["op_p50_ms"], ack_p99_ms=metrics["op_p99_ms"],
                       round_p50_ms=(r50, "ms"), round_p99_ms=(r99, "ms"))
    return metrics, n_op


def per_layer(child: dict) -> dict:
    """``(value, unit)`` per per-layer metric of a traced run."""
    traced = child["traced"]
    layers = traced["layers"]
    counters = traced["counters"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
        metrics[f"{name}.share"] = (layer["share"], "fraction")
    evaluate = layers["online_sim.evaluate"]
    busy = evaluate["total_s"]
    invocations = counters["invocations"]
    simulated = counters["total_simulated"]
    trace_bytes = max(r["counters"].get("trace_bytes", 0) for r in child["reps"])
    flush_p50, _, flush_p99, _ = percentiles(traced.get("flush_s", []))
    metrics.update({
        "online_sim.events_per_s": (counters["steps"] / busy if busy else 0.0, "1/s"),
        "online_sim.policies_per_s": (evaluate["calls"] / busy if busy else 0.0, "1/s"),
        "selection.evals_per_round": (simulated / invocations if invocations else 0.0, "count"),
        "selection.memo_hit_ratio": (counters["memo_hits"] / simulated if simulated else 0.0,
                                     "fraction"),
        "selection.quarantined": (counters["quarantined"], "count"),
        "obs.tracer.bytes": (trace_bytes, "bytes"),
        "ledger.wrapper_cost_ns": (traced["wrapper_cost"]["total_s"] * 1e9, "ns"),
        "ledger.traced_over_bare": (traced["ratios"]["traced_over_bare"], "ratio"),
        "ledger.unattributed_share": (
            max(0.0, 1.0 - sum(l["raw_self_s"] for l in layers.values())
                / traced["traced_wall_s"]), "fraction"),
        "obs.profiler.on_over_off": (
            traced["ratios"].get("profiler_on_over_off", 0.0), "ratio"),
        "service.journal.flush_p50_ms": (flush_p50, "ms"),
        "service.journal.flush_p99_ms": (flush_p99, "ms"),
        "campaign.cell.calls": (0, "count"),
        "parallel.utilization": (0.0, "fraction"),
        "parallel.speedup_vs_serial": (0.0, "ratio"),
    })
    for name, value in traced.get("extra", {}).items():
        metrics[name] = (value, metrics[name][1])
    return metrics


def run_workload(name: str, args, workdir: Path, pins: dict) -> dict:
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    # The traced pass reports no set-up time.
    setups = [spawn(name, "setup", args, workdir, f"setup-{i}", deadline)
              for i in range(0 if args.trace else SETUP_SPAWNS)]
    child = spawn(name, "full", args, workdir, "full", deadline)
    setup = [s for c in (*setups, child) for s in c["setup_s"]]
    verdict = judge(name, args.seed, args.scale, child, pins)
    entry = {
        "scale": child["scale"],
        **verdict,
        "setup_samples_s": setup,
        "wall_samples_s": [r["wall_s"] for r in child["reps"]],
        "counters": child["reps"][-1]["counters"],
    }
    if args.trace:
        metrics = per_layer(child)
        entry["layers"] = child["traced"]["layers"]
        entry["wrapper_cost"] = child["traced"]["wrapper_cost"]
        entry["traced_wall_s"] = child["traced"]["traced_wall_s"]
    else:
        metrics, n_op = end_to_end(child, setup)
        entry["op_samples"] = n_op
    metrics["error_rate"] = (verdict["error_rate"], "fraction")
    entry["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return entry


# -- the ledger ---------------------------------------------------------------


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None}
    def git(*argv: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"rev": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"rev": None, "dirty": None}


def host_state() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def write_ledger(path: Path, args, workloads: dict) -> None:
    ledger = {
        "schema": SCHEMA,
        "created_unix": time.time(),
        "host": host_state(),
        "git": git_state(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workloads": workloads,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")


# -- compare ------------------------------------------------------------------


def load_ledgers(directory: Path) -> list[dict]:
    ledgers = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(directory.glob("*.json"))]
    return [l for l in ledgers if l.get("schema") == SCHEMA and not l["traced"]]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], bound: float | None,
            lower_is_better: bool) -> tuple[str, int]:
    """One row of the pairs rule; returns ``(verdict, wins)``.

    improved: >= 10 pairs, the change wins >= 9/10 of them, and the
    medians differ by more than the parent's interquartile range.
    regressed: the change's median is worse by more than the bound.
    unresolved: the parent's own spread is wider than the bound (unless
    every change run beats every parent run).  Otherwise no-worse.
    ``bound=None`` is ``error_rate``: any rise in its mean over the runs
    regresses.
    """
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pairs = min(len(parent), len(change))
    mp, mc = statistics.median(parent), statistics.median(change)
    if bound is None:
        worse = statistics.fmean(change) > statistics.fmean(parent)
        return ("regressed" if worse else "no-worse"), wins
    gap = sign * (mp - mc)  # > 0: the change is better
    improved = pairs >= 10 and wins >= 0.9 * pairs and gap > iqr(parent)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if mp and iqr(parent) / abs(mp) > bound and not all_better:
        return "unresolved", wins
    if mp and -gap / abs(mp) > bound:
        return "regressed", wins
    return ("improved" if improved else "no-worse"), wins


def compare(parent_dir: Path, change_dir: Path) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["bound"], m["better"] == "lower")
               for m in bench["end_to_end"]]
    metrics.append(("error_rate", None, True))
    parents, changes = load_ledgers(parent_dir), load_ledgers(change_dir)
    if not parents or not changes:
        print("compare: no untraced ledgers in one of the directories", file=sys.stderr)
        return 2
    pairs = min(len(parents), len(changes))
    if pairs < 10:
        print(f"compare: {pairs} pairs; 'improved' needs at least 10", file=sys.stderr)
    regressed = False
    print(f"{'workload':16} {'metric':12} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'wins':>6}  verdict")
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        p_runs = [l["workloads"][workload] for l in parents if workload in l["workloads"]]
        c_runs = [l["workloads"][workload] for l in changes if workload in l["workloads"]]
        if not p_runs or not c_runs:
            continue
        for name, bound, lower in metrics:
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            row, wins = verdict(p, c, bound, lower)
            regressed |= row == "regressed"
            mp, mc = statistics.median(p), statistics.median(c)
            delta = f"{(mc - mp) / mp:+.1%}" if mp else "-"
            print(f"{workload:16} {name:12} {mp:12.6g} {mc:12.6g} {delta:>8} "
                  f"{wins:>3}/{min(len(p), len(c)):<2}  {row}")
        same_seed = [(p, c) for p, c in zip(parents, changes) if p["seed"] == c["seed"]
                     and p["scale"] == c["scale"]]
        differs = sum(
            1 for p, c in same_seed
            if workload in p["workloads"] and workload in c["workloads"]
            and p["workloads"][workload]["digests"][0] != c["workloads"][workload]["digests"][0]
        )
        if differs:
            print(f"{workload:16} outputs differ from the parent in {differs} "
                  f"same-seed pair(s)")
    return 1 if regressed else 0


# -- entry point --------------------------------------------------------------


def parse(argv: list[str], bench: dict) -> argparse.Namespace:
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the perf workloads (see README.md).")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured time per workload (at least 3 repetitions)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer pass instead of the timed one")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every workload's size (pins exist for 1 and 0.05)")
    parser.add_argument("--out", type=Path, default=ROOT / ".perf_work" / "ledger.json",
                        help="where to write the JSON ledger")
    args = parser.parse_args(argv)
    if args.scale <= 0 or args.seconds < 0:
        parser.error("--scale must be positive and --seconds non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        ns = parser.parse_args(argv[1:])
        return compare(ns.parent, ns.change)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse(argv, bench)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    pins = load_pins()
    base = ROOT / ".perf_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    results: dict[str, dict] = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, workdir, pins)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_ledger(args.out, args, results)

    summary = {}
    for name, entry in results.items():
        for metric, m in entry["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        summary[name] = {m["name"]: entry["metrics"][m["name"]] for m in wanted}
    attempted = sum(e["attempted"] for e in results.values())
    failed = sum(e["failed"] for e in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": summary[names[0]] if len(names) == 1 else summary,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
