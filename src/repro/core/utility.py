"""The utility function (paper §2).

    U = κ · (RJ/RV)^α · (1/BSD)^β

κ scales the score (100 throughout the paper); α stresses resource
efficiency, β stresses job urgency.  α=0 reduces U to a pure-slowdown
objective, β=0 to a pure-cost objective; the paper's default is α=β=1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["UtilityFunction"]


@dataclass(slots=True, frozen=True)
class UtilityFunction:
    """Scores an outcome from (RJ, RV, average bounded slowdown).

    The utilization term RJ/RV is clamped to [0, 1]: discounted charges
    (reserved VMs in the engine, the online simulator's spot re-pricing)
    can make RV smaller than RJ, and unbounded cheap-capacity scores
    would otherwise dominate selection.
    """

    kappa: float = 100.0
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError(
                f"alpha/beta must be non-negative, got {self.alpha}/{self.beta}"
            )

    def __call__(self, rj_seconds: float, rv_seconds: float, bsd: float) -> float:
        """Utility of a schedule with the given totals.

        ``rv_seconds == 0`` (nothing charged) counts as perfect
        utilization; ``bsd`` is floored at 1.
        """
        if rj_seconds < 0 or rv_seconds < 0:
            raise ValueError("RJ and RV must be non-negative")
        if rv_seconds > 0:
            utilization = min(1.0, rj_seconds / rv_seconds)
        else:
            utilization = 1.0
        slow_term = 1.0 / max(bsd, 1.0)
        return self.kappa * utilization**self.alpha * slow_term**self.beta

    def describe(self) -> str:
        """Human-readable form for reports."""
        return f"U = {self.kappa:g}·(RJ/RV)^{self.alpha:g}·(1/BSD)^{self.beta:g}"
