"""Bounded job slowdown (Feitelson et al., JSSPP'04; paper §2).

Plain slowdown (response / runtime) explodes for very short jobs — a
10-second job waiting a minute has slowdown 7 — so the denominator is
floored at a bound, 10 s throughout the paper.
"""

from __future__ import annotations

from repro.workload.job import BOUNDED_SLOWDOWN_BOUND

__all__ = ["bounded_slowdown"]


def bounded_slowdown(
    wait: float, runtime: float, bound: float = BOUNDED_SLOWDOWN_BOUND
) -> float:
    """Bounded slowdown of a job that waited *wait* and ran *runtime* seconds.

    ``max(1, (wait + max(runtime, bound)) / max(runtime, bound))`` — never
    below 1 (a job cannot respond faster than it runs).
    """
    if wait < 0:
        raise ValueError(f"wait must be >= 0, got {wait}")
    if runtime < 0:
        raise ValueError(f"runtime must be >= 0, got {runtime}")
    if bound <= 0:
        raise ValueError(f"bound must be > 0, got {bound}")
    denom = max(runtime, bound)
    return max(1.0, (wait + denom) / denom)
