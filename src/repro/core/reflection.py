"""The reflection database (paper §2, Fig. 2).

Every portfolio invocation stores which policies were simulated, their
utility scores, and which one was applied.  The paper uses this store for
the invocation-ratio analysis of Fig. 5 and leaves the reflection step
itself as future work (§8).  Nothing here feeds back into selection: a
history-blended re-ranking lost utility in all 16 cases of its ablation
(DESIGN.md §7).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

__all__ = ["SelectionRecord", "ReflectionStore"]


@dataclass(slots=True, frozen=True)
class SelectionRecord:
    """One simulated policy at one portfolio invocation."""

    time: float
    policy_name: str
    score: float
    applied: bool


class ReflectionStore:
    """Append-only store of selection history."""

    def __init__(self) -> None:
        self.records: list[SelectionRecord] = []
        self._applied_counts: Counter[str] = Counter()

    def record_invocation(
        self, time: float, scores: Iterable[tuple[str, float]], applied: str
    ) -> None:
        """Book one invocation: all (policy, score) pairs and the winner."""
        seen = False
        for name, score in scores:
            is_applied = name == applied and not seen
            if is_applied:
                seen = True
            self.records.append(
                SelectionRecord(
                    time=time, policy_name=name, score=score, applied=is_applied
                )
            )
        if not seen:
            raise ValueError(f"applied policy {applied!r} missing from scores")
        self._applied_counts[applied] += 1

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
