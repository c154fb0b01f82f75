#!/usr/bin/env python3
"""Run ``repro`` with every online-simulator evaluation on the reference loop.

    PYTHONPATH=src python tools/reference_run.py run <repro run args>

Takes the same command line as ``python -m repro``.  Before handing it
to :func:`repro.cli.main`, it replaces ``OnlineSimulator.evaluate_prepared``
with a method that calls ``_evaluate_reference``, so the fast kernel
never runs and no shared run answers a rider.  The fast kernel is held
bit-identical to that loop, so the export must equal a plain
``repro run``'s byte for byte; CI's ``kernel-smoke`` job diffs the two.
On exit it reports how many evaluations the reference loop made.
"""

from __future__ import annotations

import sys

from repro import cli
from repro.core.online_sim import OnlineSimulator


def main() -> int:
    reference = OnlineSimulator._evaluate_reference
    calls = 0

    def evaluate_prepared(self, prep, policy, riders=(), shared=None):
        nonlocal calls
        calls += 1
        return reference(self, prep, policy)

    OnlineSimulator.evaluate_prepared = evaluate_prepared
    try:
        return cli.main()
    finally:
        print(f"reference_run: {calls} evaluations on the reference loop",
              file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
