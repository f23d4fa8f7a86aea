"""``repro.obs`` — first-class observability for the simulated engine.

Four sinks, fed by the engine through one hub rather than by ad-hoc
state scattered across schedulers: :class:`Tracer` (a span model with a
Chrome-trace exporter keyed on simulated time), :class:`MetricsRegistry`
(counters, gauges, histograms; JSON / Prometheus / OTLP export),
:class:`EventLog` (structured JSONL records) and :class:`LedgerCollector`
(one run's :class:`RunLedger` entry). :class:`ResourceProfiler` measures
the host, not the simulation.

Every :class:`~repro.engine.context.AnalyticsContext` owns an
:class:`Observability` hub, and the engine has two ways to tell it
something happened: ``ctx.obs.event(name, **fields)`` for every fact in
:mod:`repro.obs.catalogue`, and the listener bus's typed endings, which
the hub hears like any other listener. The registry is always on; a span
or a record is only built when a sink that wants it is attached. See
``docs/observability.md``.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import catalogue
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

# How an amount lands in each kind of instrument.
_VERBS = {"counter": "inc", "gauge": "set", "histogram": "observe"}

Fields = Dict[str, Any]


class Observability:
    """Per-context hub: routes what the engine reports to the attached sinks.

    ``bus`` is the context's listener bus (the hub joins it for the stage
    and job endings), ``clock`` its simulated clock, and ``deferred``
    returns the effects sink of a worker thread running a task body, or
    None on the driver thread. A shared registry (and tracer, log) may be
    injected so multi-run pipelines (``ChopperRunner``) aggregate across
    contexts. A bare ``Observability()`` meters into its own registry.
    """

    def __init__(
        self,
        bus: Any = None,
        metrics: Optional[MetricsRegistry] = None,
        nodes: Optional[Dict[str, int]] = None,
        clock: Callable[[], float] = lambda: 0.0,
        deferred: Callable[[], Any] = lambda: None,
    ) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.nodes = dict(nodes or {})
        self._clock = clock
        self._deferred = deferred
        self.tracer: Optional[Tracer] = None
        self.log: Optional[EventLog] = None
        self.profiler: Optional[ResourceProfiler] = None
        self._collectors: List[Any] = []
        # (instrument name, label value) -> how an amount lands in that
        # series: one dict probe per feed, the registry asked on first use.
        self._bumps: Dict[Tuple[str, Any], Callable[[float], None]] = {}
        # Fact name -> the steps that report it to what is attached now,
        # resolved from its catalogue row at first use; attaching or
        # detaching a sink forgets them.
        self._steps: Dict[str, Tuple[Callable[[Fields], None], ...]] = {}
        for fact in catalogue.FACTS.values():
            for feed in fact.feeds:
                if feed.eager:
                    self._bind(feed)
        if bus is not None:
            bus.add(self)

    def _bind(self, feed: catalogue.Feed, label: Any = None):
        """Get or create the series a feed lands in; remember its verb."""
        labels = {feed.label: label} if feed.label else {}
        series = getattr(self.metrics, feed.kind)(feed.name, **labels)
        bump = self._bumps[feed.name, label] = getattr(series, _VERBS[feed.kind])
        return bump

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with None) a tracer."""
        self.tracer = tracer
        self._steps.clear()
        if tracer is not None:
            tracer.declare_nodes(self.nodes)

    def set_log(self, log: Optional[EventLog]) -> None:
        """Attach (or detach, with None) an event log, stamped in simulated time."""
        self.log = log
        self._steps.clear()
        if log is not None:
            log.bind_clock(self._clock)

    def set_profiler(self, profiler: Optional["ResourceProfiler"]) -> None:
        """Attach (or detach, with None) a real-resource profiler."""
        self.profiler = profiler

    def subscribe(self, collector: Any) -> None:
        """Deliver to ``collector`` the instant spans (``on_span``) and the
        tallied outcomes (``on_attempt_ended``) of the facts reported."""
        self._collectors.append(collector)
        self._steps.clear()

    def unsubscribe(self, collector: Any) -> None:
        self._collectors.remove(collector)
        self._steps.clear()

    def event(self, name: str, **fields: Any) -> None:
        """Report one fact; its catalogue row says what it feeds.

        From a task body on a worker thread the fact is buffered in the
        attempt's effects and reported when they replay, so instruments,
        spans and records are only ever touched on the driver's serial
        event path, in serial order at any physical parallelism.
        """
        sink = self._deferred()
        if sink is not None:
            sink.ops.append(("event", name, fields))
            return
        steps = self._steps.get(name)
        if steps is None:
            steps = self._steps[name] = self._resolve(catalogue.FACTS[name])
        for step in steps:
            step(fields)

    def _resolve(self, fact: catalogue.Fact) -> Tuple[Callable[[Fields], None], ...]:
        """A fact's feeds, one step each, then its rendering if any sink
        is attached: a fact nothing observes costs its bumps alone."""
        steps = [self._feeder(feed) for feed in fact.feeds]
        if self.tracer is not None or self.log is not None or self._collectors:
            steps.append(functools.partial(self._render, fact))
        return tuple(steps)

    def _render(self, fact: catalogue.Fact, fields: Fields) -> None:
        """A fact's tally, span(s) and log record, to the sinks attached."""
        if fact.tally is not None:
            for collector in self._collectors:
                collector.on_attempt_ended(fields[fact.tally])
        if callable(fact.span):
            if self.tracer is not None:
                for span in fact.span(fields, self._clock()):
                    self.tracer.on_span(span)
        elif fact.span is not None and (self.tracer is not None or self._collectors):
            span = catalogue.instant(fact, fields, self._clock())
            if self.tracer is not None:
                self.tracer.on_span(span)
            for collector in self._collectors:
                collector.on_span(span)
        if fact.log is not None and self.log is not None:
            self.log.emit(
                *fact.log,
                **{k: v for k, v in fields.items() if k not in fact.span_only},
            )

    def _feeder(self, feed: catalogue.Feed) -> Callable[[Fields], None]:
        """How one feed lands: its amount (None: nothing) into its series.
        A series is created at its first amount, never earlier (the
        registry's series order is an artifact)."""
        amount = feed.amount
        if type(amount) is str:
            amount = operator.itemgetter(amount)
        bumps, bind, label = self._bumps, self._bind, feed.label

        def feed_series(fields: Fields) -> None:
            value = 1.0 if amount is None else amount(fields)
            if value is not None:
                at = fields[label] if label else None
                (bumps.get((feed.name, at)) or bind(feed, at))(value)

        return feed_series

    # -- listener-bus callbacks (duck-typed Listener) --------------------

    def on_task_end(self, task_metrics) -> None:
        """Nothing to render: ``attempt_ended`` and ``task_finished`` said it."""

    def on_stage_completed(self, stats) -> None:
        if self.tracer is not None:
            self.tracer.on_span(catalogue.stage_span(stats))
        if self.log is not None:
            self.log.emit(*catalogue.STAGE_COMPLETED, **catalogue.stage_record(stats))

    def on_job_end(self, stats) -> None:
        if self.tracer is not None:
            self.tracer.on_span(catalogue.job_span(stats))
        if self.log is not None:
            self.log.emit(*catalogue.JOB_FINISHED, **catalogue.job_record(stats))


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
