"""Per-layer span tracing for the perf harness, from outside ``src/``.

:class:`SpanTracer` wraps the public functions of each layer at class
level (so bound methods captured later, such as the audit monitor's
``on_event`` hook, are wrapped too) and keeps a span stack: a layer's
``self_s`` is its wall time minus the time of the wrapped calls it made.

Wrapping costs time.  :func:`calibrate` measures that cost on a no-op
and splits it into the part a span sees of itself (``inner``) and the
part its caller sees (``outer``), so :meth:`SpanTracer.layers` can
subtract ``calls x inner`` from each layer and ``child_calls x outer``
from its parent.  Without the correction a layer called two million
times (the runtime predictor) would report mostly wrapper time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["LAYERS", "LayerCounters", "SpanTracer", "calibrate"]

# (layer, module, classes, methods).  ``methods`` of ``None`` means every
# public method the class defines; classes named with a trailing ``+``
# take every loaded subclass that defines the method, too.
LAYERS: tuple[tuple[str, str, tuple[str, ...], tuple[str, ...] | None], ...] = (
    ("engine.loop", "repro.experiments.engine", ("ClusterEngine",), ("start", "advance")),
    ("engine.step", "repro.sim.kernel", ("Simulator",), ("step",)),
    ("engine.finalize", "repro.experiments.engine", ("ClusterEngine",), ("finalize",)),
    ("scheduler.active_policy", "repro.core.scheduler",
     ("PortfolioScheduler", "FixedScheduler"), ("active_policy",)),
    ("selection.select", "repro.core.selection", ("TimeConstrainedSelector",), ("select",)),
    ("online_sim.prepare", "repro.core.online_sim", ("OnlineSimulator",), ("prepare",)),
    ("online_sim.evaluate", "repro.core.online_sim", ("OnlineSimulator",),
     ("evaluate_prepared", "evaluate")),
    ("cloud.profile_capture", "repro.cloud.profile", ("CloudProfile",), ("capture",)),
    ("cloud.provider", "repro.cloud.provider", ("CloudProvider",), None),
    ("cloud.spot", "repro.cloud.spot", ("SpotMarket",), None),
    ("predict.predict", "repro.predict.base", ("RuntimePredictor+",), ("predict",)),
    ("policies.new_vms", "repro.policies.combined", ("CombinedPolicy+",), ("new_vms",)),
    ("policies.allocate", "repro.policies.combined", ("CombinedPolicy+",), ("allocate",)),
    ("metrics.record", "repro.metrics.collector", ("MetricsCollector",), ("record_completion",)),
    ("audit.on_event", "repro.audit.monitor", ("InvariantMonitor",), ("on_event",)),
    ("audit.check_round", "repro.audit.monitor", ("InvariantMonitor",), ("check_round",)),
    ("audit.on_vm_charge", "repro.audit.monitor", ("InvariantMonitor",), ("on_vm_charge",)),
    ("audit.finalize", "repro.audit.monitor", ("InvariantMonitor",), ("finalize_audit",)),
    ("obs.tracer.emit", "repro.obs.tracer", ("RunTracer",), ("emit",)),
    ("obs.tracer.flush", "repro.obs.tracer", ("RunTracer",), ("flush",)),
    ("service.admit", "repro.service.state", ("ServiceState",), ("admit",)),
    ("service.apply", "repro.service.state", ("ServiceState",), ("apply",)),
    ("service.run_round", "repro.service.state", ("ServiceState",), ("run_round",)),
    ("service.journal.append", "repro.service.journal", ("ServiceJournal",), ("append",)),
    ("service.journal.flush", "repro.service.journal", ("ServiceJournal",), ("flush",)),
)

LAYER_NAMES: tuple[str, ...] = tuple(name for name, *_ in LAYERS)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _targets() -> list[tuple[str, type, str]]:
    """Every ``(layer, class, attribute)`` to wrap, resolved now."""
    # Loads the predictor and policy classes the walks below look for.
    importlib.import_module("repro")
    targets = []
    for layer, module_name, class_names, methods in LAYERS:
        module = importlib.import_module(module_name)
        for class_name in class_names:
            walk = class_name.endswith("+")
            base = getattr(module, class_name.rstrip("+"))
            for cls in _subclasses(base) if walk else [base]:
                names = methods
                if names is None:
                    names = tuple(
                        n for n, v in vars(cls).items()
                        if not n.startswith("_")
                        and (inspect.isfunction(v)
                             or isinstance(v, (classmethod, staticmethod)))
                    )
                for attr in names:
                    if attr in vars(cls):
                        targets.append((layer, cls, attr))
    return targets


class SpanTracer:
    """Span stack plus per-layer ``calls`` / ``total_s`` / ``self_s``.

    Layers named in ``keep_samples`` also keep every call's duration
    (the journal fsync latency percentiles come from these); ``hooks``
    see each call's owner and return value (see :class:`LayerCounters`).
    """

    def __init__(self, keep_samples: tuple[str, ...] = (),
                 hooks: dict[str, Callable] | None = None) -> None:
        # Per layer: [calls, total seconds, self seconds, direct child calls].
        self.stats: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {name: [] for name in keep_samples}
        #: Per layer, a callable given each call's first argument (the
        #: instance, for methods) and its return value.
        self.hooks = dict(hooks or {})
        # Per open span: [wrapped child seconds, wrapped child calls].
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
        stack = self._stack
        samples = self.samples.get(layer)
        hook = self.hooks.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            begin = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args[0], result)
                return result
            finally:
                elapsed = clock() - begin
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                stats[3] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                if samples is not None:
                    samples.append(elapsed)

        return spanned

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Wrap every layer's functions; restore the originals on exit."""
        saved = []
        try:
            for layer, cls, attr in _targets():
                raw = vars(cls)[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__)))
                elif isinstance(raw, staticmethod):
                    setattr(cls, attr, staticmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(layer, raw))
            yield self
        finally:
            for cls, attr, raw in reversed(saved):
                setattr(cls, attr, raw)

    def layers(self, wall: float, cost: dict | None = None) -> dict[str, dict]:
        """Per-layer summary with wrapper cost removed from ``self_s``.

        ``share`` is ``self_s / wall``; ``raw_self_s`` keeps the measured
        value.  Layers never called report zeros.
        """
        inner = cost["inner_s"] if cost else 0.0
        outer = cost["outer_s"] if cost else 0.0
        out = {}
        for name in LAYER_NAMES:
            calls, total, raw_self, child_calls = self.stats.get(name, (0, 0.0, 0.0, 0))
            own = max(0.0, raw_self - calls * inner - child_calls * outer)
            out[name] = {
                "calls": int(calls),
                "total_s": total,
                "raw_self_s": raw_self,
                "self_s": own,
                "share": own / wall if wall > 0 else 0.0,
            }
        return out


class LayerCounters:
    """Span hooks for the counters the program already keeps.

    Sums the online simulator's ``SimOutcome.steps`` and remembers every
    selector that ran, so its public ``invocations`` / ``total_simulated``
    / ``memo_hits`` / ``quarantined`` can be read after the run, even in a
    process (the service) whose selectors are not reachable otherwise.
    """

    def __init__(self) -> None:
        self.steps = 0
        self._selectors: dict[int, object] = {}

    def hooks(self) -> dict[str, Callable]:
        return {"online_sim.evaluate": self._evaluated,
                "selection.select": self._selected}

    def _evaluated(self, simulator, outcome) -> None:
        self.steps += outcome.steps

    def _selected(self, selector, outcome) -> None:
        self._selectors[id(selector)] = selector

    def summary(self) -> dict:
        selectors = self._selectors.values()
        return {
            "steps": self.steps,
            "invocations": sum(s.invocations for s in selectors),
            "total_simulated": sum(s.total_simulated for s in selectors),
            "memo_hits": sum(s.memo_hits for s in selectors),
            "quarantined": sum(s.quarantined for s in selectors),
        }


def _noop(x):
    return x


def calibrate(calls: int = 200_000, trials: int = 5) -> dict:
    """Per-call wrapper cost on a no-op, split into inner and outer parts.

    ``inner_s`` is what a wrapped call adds to its own span; ``outer_s``
    is the rest, which lands in the caller's span.  Each figure is the
    minimum over *trials* runs, the least-disturbed estimate.
    """
    empty_best = bare_best = wrapped_best = inner_best = float("inf")
    for _ in range(trials):
        begin = time.perf_counter()
        for i in range(calls):
            pass
        empty_best = min(empty_best, time.perf_counter() - begin)

        begin = time.perf_counter()
        for i in range(calls):
            _noop(i)
        bare_best = min(bare_best, time.perf_counter() - begin)

        tracer = SpanTracer()
        child = tracer.wrap("child", _noop)

        def loop():
            for i in range(calls):
                child(i)

        parent = tracer.wrap("parent", loop)
        begin = time.perf_counter()
        parent()
        wrapped_best = min(wrapped_best, time.perf_counter() - begin)
        inner_best = min(inner_best, tracer.stats["child"][2])
    # A span covers the call, not the loop step around it.
    bare_call = bare_best - empty_best
    total = max(0.0, (wrapped_best - bare_best) / calls)
    inner = min(total, max(0.0, (inner_best - bare_call) / calls))
    return {"total_s": total, "inner_s": inner, "outer_s": total - inner}
