"""Span recorder and the per-layer tracing of the benchmark.

The recorder keeps a stack of open spans.  When a span closes, its
duration minus the time its child spans covered is added to its
entry point's self time, so per-layer self times are exact for every
call even though only the first ``keep`` spans are stored for the
Chrome trace written at the end of a run.

:func:`traced_layers` wraps each layer's entry points at class level
(or, for ``make_workload``, in the harness module's namespace) for the
duration of a ``with`` block.  The simulator reaches these methods
through attribute lookup, so class-level wrappers see every call; the
wrappers are removed on exit, so untraced runs pay nothing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
import types
from typing import Callable, Dict, Iterator, List, Tuple

#: Layer -> entry points, as ``module:Class.method`` (``*`` = every
#: public method the class defines) or ``module:function``.  Layer names
#: follow the modules; the predictions of which end-to-end metric each
#: layer should move, on which workload, are in README.md.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("workloads", ("repro.harness.experiment:make_workload",)),
    ("harness", ("repro.harness.experiment:ExperimentRunner.run",)),
    ("engine", ("repro.sim.engine:Engine.run",)),
    (
        "pipeline",
        (
            "repro.sim.pipeline:TranslationStage.lookup",
            "repro.sim.pipeline:TranslationStage.next_access",
            "repro.sim.gpu:GpuNode.fill_translation",
        ),
    ),
    ("fastpath", ("repro.sim.fastpath:FastPath.round",)),
    (
        "uvm.fault_service",
        (
            "repro.uvm.fault_service:FaultService.submit",
            "repro.uvm.fault_service:FaultService.drain",
        ),
    ),
    (
        "uvm.driver",
        (
            "repro.uvm.driver:UvmDriver.handle_local_fault",
            "repro.uvm.driver:UvmDriver.service_fault_batch",
            "repro.uvm.driver:UvmDriver.handle_protection_fault",
            "repro.uvm.driver:UvmDriver.on_remote_access",
            "repro.uvm.driver:UvmDriver.gps_write",
        ),
    ),
    ("uvm.executor", ("repro.uvm.executor:MechanicExecutor.execute",)),
    ("uvm.migration", ("repro.uvm.migration:MigrationEngine.*",)),
    ("uvm.duplication", ("repro.uvm.duplication:DuplicationEngine.*",)),
    (
        "policies",
        (
            "repro.policies.base:PlacementPolicy.on_fault_observed",
            "repro.policies.base:PlacementPolicy.on_remote_access",
            "repro.policies.base:PlacementPolicy.on_interval",
            "repro.policies.base:PlacementPolicy.mechanic_for",
        ),
    ),
    (
        "timing",
        tuple(
            f"repro.sim.timing:TimingKernel.{charge}"
            for charge in (
                "transfer", "control_message", "local_access",
                "local_access_bulk", "remote_access", "host_access",
                "host_service", "pipeline_flush", "invalidation",
                "collapse_invalidation", "gps_broadcast",
            )
        ),
    ),
)

#: Entry points whose truthy returns are counted (a fast-path round
#: returns True when it batched at least one access).
COUNT_TRUE = frozenset({"FastPath.round"})

#: Spans stored for the Chrome trace; self times cover every span.
DEFAULT_KEEP = 50_000


class SpanRecorder:
    """Records nested spans and accumulates self time per span name."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep: int = DEFAULT_KEEP,
    ) -> None:
        self.clock = clock
        self.keep = keep
        #: Id shared by every span under one root span, that is, by
        #: every span of one (app, policy) simulation.
        self.sim_id = 0
        #: Kept spans: (span id, name, start, end, parent id, sim id).
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.true_returns: Dict[str, int] = {}
        self._next_id = 1
        #: Open spans: [span id, name, start, child seconds].
        self._stack: List[list] = []

    @property
    def total_spans(self) -> int:
        return self._next_id - 1

    def begin(self, name: str) -> None:
        if not self._stack:
            # A root span is one simulation (ExperimentRunner.run).
            self.sim_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        end = self.clock()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        self.calls[name] = self.calls.get(name, 0) + 1
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if span_id <= self.keep:
            self.spans.append(
                (span_id, name, start, end, parent, self.sim_id)
            )

    def chrome_trace(self) -> dict:
        """Kept spans as Chrome trace events, one track per simulation."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": sim,
                "args": {"span": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent, sim in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "spans_total": self.total_spans,
                "spans_kept": len(self.spans),
            },
        }

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def by_layer(per_name: Dict[str, float]) -> Dict[str, float]:
    """Sum per-span-name values (self time, calls) per layer."""
    owner = _entry_owner()
    totals = {layer: 0 for layer, _ in LAYERS}
    for name, value in per_name.items():
        totals[owner[name]] += value
    return totals


def _wrap(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    begin = recorder.begin
    end = recorder.end
    if name in COUNT_TRUE:
        true_returns = recorder.true_returns

        def traced(*args, **kwargs):
            begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if result:
                true_returns[name] = true_returns.get(name, 0) + 1
            return result

    else:

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def _targets(spec: str) -> Iterator[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for one entry-point spec."""
    module_name, _, path = spec.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        yield module, path, path
        return
    class_name, _, method = path.partition(".")
    base = getattr(module, class_name)
    # Subclasses override methods (every policy overrides the hooks),
    # so each class that defines the method gets its own wrapper.
    classes = [base]
    for cls in classes:
        classes.extend(cls.__subclasses__())
    for cls in classes:
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr == method or (method == "*" and not attr.startswith("_")):
                yield cls, attr, f"{base.__name__}.{attr}"


def _entry_owner() -> Dict[str, str]:
    """Span name -> layer."""
    owner: Dict[str, str] = {}
    for layer, specs in LAYERS:
        for spec in specs:
            for _, _, name in _targets(spec):
                owner[name] = layer
    return owner


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every entry point of :data:`LAYERS` while the block runs."""
    saved: List[Tuple[object, str, object]] = []
    try:
        for _, specs in LAYERS:
            for spec in specs:
                for owner, attr, name in _targets(spec):
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, _wrap(recorder, name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(
    recorders: List[Tuple[SpanRecorder, float]],
    accesses: int,
    faults: int,
    untraced_wall: float,
) -> Dict[str, float]:
    """Host-side per-layer metrics from ``(recorder, pass wall)`` pairs.

    Self times and shares are medians over the traced passes; counts
    come from the first one (every pass makes the same calls).
    """
    per_pass = [by_layer(recorder.self_s) for recorder, _ in recorders]
    first = recorders[0][0]
    calls = by_layer(first.calls)
    metrics: Dict[str, float] = {}
    for layer, _ in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            selfs[layer] for selfs in per_pass
        )
        metrics[f"{layer}.share"] = statistics.median(
            selfs[layer] / sum(selfs.values()) for selfs in per_pass
        )
        metrics[f"{layer}.calls"] = calls[layer]
    uvm = [layer for layer, _ in LAYERS if layer.startswith("uvm.")]
    metrics["uvm.share"] = sum(metrics[f"{layer}.share"] for layer in uvm)
    uvm_self = sum(metrics[f"{layer}.self_s"] for layer in uvm)
    metrics["uvm.us_per_fault"] = uvm_self / faults * 1e6 if faults else 0.0
    metrics["engine.ns_per_access"] = (
        metrics["engine.self_s"] / accesses * 1e9
    )
    rounds = first.calls.get("FastPath.round", 0)
    metrics["fastpath.commit_ratio"] = (
        first.true_returns.get("FastPath.round", 0) / rounds
        if rounds else 0.0
    )
    metrics["uvm.fault_service.drains"] = first.calls.get(
        "FaultService.drain", 0
    )
    metrics["trace.overhead"] = (
        statistics.median(wall for _, wall in recorders) / untraced_wall
    )
    return metrics
