"""Shared experiment configuration.

The paper simulates 9-24 *months* of trace per experiment; a laptop-scale
reproduction cannot, so every driver takes its horizon from
:class:`ExperimentScale` (default: two simulated days for the headline
comparison, one day for parameter sweeps).  ``REPRO_BENCH_SCALE`` scales
all durations (e.g. ``REPRO_BENCH_SCALE=0.25 pytest benchmarks/`` for a
quick pass, ``=4`` for a longer, more paper-like run).

The portfolio scheduler defaults follow the paper exactly: Δ = 200 ms
(each scored policy costs 10 ms, §6.5's instrumentation, which also
makes runs machine-independent), λ = 0.6, selection every 20 s tick.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExperimentScale", "DEFAULT_SCALE", "portfolio_kwargs"]

DAY = 86_400.0


def _env_scale() -> float:
    raw = os.environ.get("REPRO_BENCH_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE must be a number, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"REPRO_BENCH_SCALE must be positive, got {value}")
    return value


@dataclass(slots=True, frozen=True)
class ExperimentScale:
    """Horizons and seeds every figure driver shares."""

    compare_duration: float = 2 * DAY  # Figs. 4, 5, 7, 8
    sweep_duration: float = 1 * DAY  # Figs. 6, 9, 10
    seed: int = 42

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        s = _env_scale()
        return cls(compare_duration=2 * DAY * s, sweep_duration=1 * DAY * s)


DEFAULT_SCALE = ExperimentScale.from_env()


def portfolio_kwargs(**overrides: object) -> dict[str, object]:
    """The paper's portfolio-scheduler configuration, override-friendly."""
    kwargs: dict[str, object] = dict(
        time_constraint=0.2,
        lam=0.6,
        selection_period=1,
        seed=7,
    )
    kwargs.update(overrides)
    return kwargs
