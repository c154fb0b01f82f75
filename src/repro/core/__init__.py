"""The paper's primary contribution: the portfolio scheduler.

* :mod:`repro.core.utility` — the utility U = κ·(RJ/RV)^α·(1/BSD)^β,
* :mod:`repro.core.online_sim` — the online simulator scoring policies
  against the current queue and cloud profile (§3.3),
* :mod:`repro.core.selection` — time-constrained portfolio simulation,
  Algorithm 1 with the Smart/Stale/Poor sets (§4), charging the paper's
  10 ms per scored policy,
* :mod:`repro.core.scheduler` — the scheduler framework of Fig. 2,
* :mod:`repro.core.reflection` — the performance database, kept as the
  per-policy win counts Fig. 5 reads.

In Rice's algorithm-selection model (§2), A is
:func:`~repro.policies.combined.build_portfolio`, Y is
:mod:`repro.core.utility` and S is :mod:`repro.core.online_sim`;
:mod:`repro.core.quality` computes the exhaustive argmax.
"""

from repro.core.online_sim import OnlineSimulator, SimOutcome
from repro.core.reflection import ReflectionStore
from repro.core.scheduler import FixedScheduler, PortfolioScheduler, Scheduler
from repro.core.selection import PolicyScore, TimeConstrainedSelector
from repro.core.utility import UtilityFunction

__all__ = [
    "FixedScheduler",
    "OnlineSimulator",
    "PolicyScore",
    "PortfolioScheduler",
    "ReflectionStore",
    "Scheduler",
    "SimOutcome",
    "TimeConstrainedSelector",
    "UtilityFunction",
]
