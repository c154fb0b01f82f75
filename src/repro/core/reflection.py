"""The reflection database (paper §2, Fig. 2).

The paper uses this store for the invocation-ratio analysis of Fig. 5
and leaves the reflection step itself as future work (§8), so the store
keeps what Fig. 5 reads: how many invocations each policy won.  Nothing
here feeds back into selection: a history-blended re-ranking lost
utility in all 16 cases of its ablation (DESIGN.md §7).  Every
invocation's per-policy scores are in the ``round`` records of a run
trace (``repro run --trace-out``).
"""

from __future__ import annotations

from collections import Counter

__all__ = ["ReflectionStore"]


class ReflectionStore:
    """Per-policy win counts over a run's portfolio invocations."""

    def __init__(self) -> None:
        self._applied_counts: Counter[str] = Counter()

    def record_win(self, policy_name: str) -> None:
        """Book one invocation won by *policy_name*."""
        self._applied_counts[policy_name] += 1

    # -- Fig. 5: invocation ratios ------------------------------------------

    def applied_counts(self) -> dict[str, int]:
        """How often each policy was selected for real scheduling."""
        return dict(self._applied_counts)

    def invocation_ratio(self) -> dict[str, float]:
        """Fraction of invocations each policy won (sums to 1)."""
        total = sum(self._applied_counts.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in self._applied_counts.items()}

    def grouped_ratio(self, parts: int) -> dict[str, float]:
        """Invocation ratio with policy names coarsened to their first
        *parts* dash-separated components (paper Fig. 5b uses 2, 5c uses 1).
        """
        if parts < 1:
            raise ValueError(f"parts must be >= 1, got {parts}")
        grouped: Counter[str] = Counter()
        for name, count in self._applied_counts.items():
            key = "-".join(name.split("-")[:parts])
            grouped[key] += count
        total = sum(grouped.values())
        return {k: v / total for k, v in grouped.items()} if total else {}
