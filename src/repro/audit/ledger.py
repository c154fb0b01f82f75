"""The append-only run ledger.

A compact, independent record of the two ground-truth streams every
reproduced figure ultimately derives from:

* **completions** — one entry per delivered ``JOB_FINISH`` event,
  captured at kernel dispatch time (*before* the engine's handler runs),
  so it does not depend on :class:`~repro.metrics.collector.MetricsCollector`
  doing its bookkeeping correctly;
* **charges** — one entry per booked VM charge, captured from the
  provider's billing call sites.

The :class:`~repro.audit.oracle.DifferentialOracle` recomputes RJ, RV,
BSD, and U from nothing but this ledger and compares them with the
collector's figures at finalize time.  Entries are plain tuples: a
months-long run appends millions of them, so they must stay small and
pickle fast (the ledger rides inside durability snapshots).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["CompletionEntry", "ChargeEntry", "RunLedger"]


class CompletionEntry(NamedTuple):
    """One job completion as the kernel delivered it."""

    job_id: int
    submit_time: float
    start_time: float
    finish_time: float
    runtime: float
    procs: int


class ChargeEntry(NamedTuple):
    """One booked VM charge (``kind``: terminate | preempt | straggler |
    reserved)."""

    vm_id: int
    lease_time: float
    end_time: float
    charged_seconds: float
    reserved: bool
    kind: str


class RunLedger:
    """Append-only lists of completions and charges, plus running totals."""

    def __init__(self) -> None:
        self.completions: list[CompletionEntry] = []
        self.charges: list[ChargeEntry] = []
        self.rv_total = 0.0

    def job_completed(self, entry: CompletionEntry) -> None:
        self.completions.append(entry)

    def vm_charged(self, entry: ChargeEntry) -> None:
        self.charges.append(entry)
        self.rv_total += entry.charged_seconds

    def __len__(self) -> int:
        return len(self.completions) + len(self.charges)
