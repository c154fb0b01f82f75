"""Algorithm 1 has no cost clock: it charges a fixed
:data:`~repro.core.selection.POLICY_COST` per scored policy.  This
module only keeps the name below importable."""

# benchmarks/perf/workloads.py imports this name; only a benchmark change may edit that file.
VirtualCostClock = None
