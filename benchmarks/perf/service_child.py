"""Serve ``repro service run`` with every layer wrapped (the traced pass).

    python benchmarks/perf/service_child.py --ledger SPANS.json <service run flags>

Installs the :mod:`layers` wrappers, serves until drained, then writes
the recorded spans, the journal fsync samples, the layer counters and
this process's wrapper cost to ``SPANS.json``, and exits
with the service's own exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from layers import LayerCounters, SpanTracer, calibrate


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", type=Path, required=True)
    args, service_args = parser.parse_known_args(argv)

    from repro.cli import main as repro_main

    counters = LayerCounters()
    tracer = SpanTracer(keep_samples=("service.journal.flush",),
                        hooks=counters.hooks())
    with tracer.installed():
        code = repro_main(["service", "run", *service_args])
    spans = {
        "stats": tracer.stats,
        "samples": tracer.samples,
        "counters": counters.summary(),
        "wrapper_cost": calibrate(),
    }
    args.ledger.write_text(json.dumps(spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
