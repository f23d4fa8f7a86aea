"""``repro.obs`` — first-class observability for the simulated engine.

Two complementary instruments, both fed by the engine rather than
ad-hoc state scattered across schedulers:

* :class:`Tracer` + :class:`TraceEvent` — a span model (job / stage /
  task / task-phase / CHOPPER spans) with a Chrome-trace JSON exporter
  keyed on simulated time; open the output in ``chrome://tracing`` or
  Perfetto. See ``docs/observability.md``.
* :class:`MetricsRegistry` — counters, gauges, and histograms (shuffle
  local/remote bytes, speculation launches/wins, task retries, cache
  hits, queue waits) with JSON snapshot export.

Every :class:`~repro.engine.context.AnalyticsContext` owns an
:class:`Observability` hub. The metrics registry is always on (an
increment is a float add); tracing costs nothing until a tracer is
attached via ``ctx.obs.set_tracer(Tracer())``, because spans are only
constructed when one is listening.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.diagnostics import (
    RunDiff,
    detect_stragglers,
    diff_runs,
    gini,
    model_drift,
    partition_skew,
)
from repro.obs.export import to_otlp, to_prometheus, validate_prometheus
from repro.obs.ledger import LEDGER_VERSION, LedgerCollector, RunLedger
from repro.obs.log import DEBUG, ERROR, INFO, WARNING, EventLog
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import ResourceProfiler
from repro.obs.trace import TraceEvent, Tracer, save_chrome_trace, to_chrome


class Observability:
    """Per-context hub bundling the metrics registry and the tracer.

    ``bus`` is the context's listener bus; an attached tracer is
    registered there, so spans fan out exactly like every other
    execution event. A shared registry (and tracer) may be injected so
    multi-run pipelines (``ChopperRunner``) aggregate across contexts.
    """

    def __init__(
        self,
        bus: Any,
        metrics: Optional[MetricsRegistry] = None,
        nodes: Optional[Dict[str, int]] = None,
    ) -> None:
        self._bus = bus
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.nodes = dict(nodes or {})
        self.tracer: Optional[Tracer] = None
        self._span_listeners: List[Any] = []
        self.log: Optional[EventLog] = None
        self.profiler: Optional[ResourceProfiler] = None

    @property
    def tracing(self) -> bool:
        return self.tracer is not None

    @property
    def emitting(self) -> bool:
        """Is anyone listening for spans (tracer or e.g. a ledger collector)?

        Span construction is skipped entirely when nothing listens, so
        the engine's hot paths stay free when unobserved.
        """
        return self.tracer is not None or bool(self._span_listeners)

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with None) a tracer to the listener bus."""
        if self.tracer is not None:
            self._bus.remove(self.tracer)
        self.tracer = tracer
        if tracer is not None:
            tracer.declare_nodes(self.nodes)
            self._bus.add(tracer)

    def set_log(self, log: Optional[EventLog]) -> None:
        """Attach (or detach, with None) a structured event log."""
        self.log = log

    def set_profiler(self, profiler: Optional["ResourceProfiler"]) -> None:
        """Attach (or detach, with None) a real-resource profiler."""
        self.profiler = profiler

    @property
    def logging(self) -> bool:
        return self.log is not None

    def log_event(self, level: str, logger: str, event: str, **fields: Any) -> None:
        """Emit one structured log record; no-op when no log is attached.

        Every call site sits on the driver's serial event path (or is
        replayed there by the task-effects sink), so attaching a log
        never perturbs — and is never perturbed by — execution order.
        """
        if self.log is not None:
            self.log.emit(level, logger, event, **fields)

    def add_span_listener(self, listener: Any) -> None:
        """Register a listener that wants spans even with no tracer.

        The listener joins the bus like any other (all callbacks fire);
        additionally its presence turns span emission on.
        """
        self._bus.add(listener)
        self._span_listeners.append(listener)

    def remove_span_listener(self, listener: Any) -> None:
        self._bus.remove(listener)
        self._span_listeners.remove(listener)

    def span(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        node: Optional[str] = None,
        key: Optional[Tuple] = None,
        **args: Any,
    ) -> None:
        """Emit one span through the listener bus; no-op when unobserved."""
        if not self.emitting:
            return
        self._bus.span(
            TraceEvent(
                name=name, cat=cat, start=start, end=end,
                node=node, key=key, args=args,
            )
        )


__all__ = [
    "Counter",
    "DEBUG",
    "ERROR",
    "EventLog",
    "Gauge",
    "Histogram",
    "INFO",
    "LEDGER_VERSION",
    "LedgerCollector",
    "MetricsRegistry",
    "Observability",
    "ResourceProfiler",
    "RunDiff",
    "RunLedger",
    "TraceEvent",
    "Tracer",
    "WARNING",
    "detect_stragglers",
    "diff_runs",
    "gini",
    "model_drift",
    "partition_skew",
    "save_chrome_trace",
    "to_chrome",
    "to_otlp",
    "to_prometheus",
    "validate_prometheus",
]
