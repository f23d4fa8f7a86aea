"""Lightweight metrics registry: counters, gauges, and histograms.

The engine's time-series recorder (:mod:`repro.simul.metrics`) answers
"what did utilization look like over the run" — the paper's Figs. 11-14.
This registry answers the complementary operational question: "how much of
X happened, total" — shuffle bytes moved locally vs over the network,
speculative attempts launched and won, task retries, cache hits, queue
wait times. Every :class:`~repro.engine.context.AnalyticsContext` owns one
(always on; increments are plain float adds), and the CLI's ``--metrics``
flag dumps a JSON snapshot after the run.

Metric identity is ``(name, labels)``, Prometheus-style: the same name may
carry several label sets (``shuffle.remote_bytes{src=node-1}``,
``shuffle.remote_bytes{src=node-2}``) plus an unlabeled total series.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _check_finite(what: str, value: float) -> None:
    """Reject NaN/inf at the door: a single NaN observed into a counter or
    histogram poisons every downstream ``snapshot()`` comparison (NaN != NaN,
    so even ``diff-runs`` of two identical runs would flag)."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{what} must be finite, got {value}")


class Counter:
    """A monotonically increasing total (bytes, launches, retries)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter increments must be >= 0, got {amount}"
            )
        _check_finite("counter increments", amount)
        self.value += amount


class Gauge:
    """A value that moves both ways (queue depth, free cores)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        _check_finite("gauge values", value)
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        _check_finite("gauge increments", amount)
        self.value += amount


class Histogram:
    """Summary statistics of observed samples (queue waits, durations).

    Samples are retained up to ``retention_cap`` (default 100k), so exact
    quantiles are available below it — the straggler detector reads
    p50/p95/p99 via :meth:`quantile` instead of re-deriving them from
    buckets. Beyond the cap, observation switches to reservoir sampling
    (Vitter's Algorithm R) with an RNG seeded by the instrument name, so a
    long-lived registry (service mode) stays bounded and two runs that
    observe the same sequence keep byte-identical reservoirs. Quantiles
    over a capped histogram are an approximation of the full stream;
    ``count``/``sum``/``min``/``max``/``mean`` stay exact either way.
    """

    DEFAULT_RETENTION = 100_000

    __slots__ = (
        "count", "total", "min", "max",
        "_samples", "_sorted", "_cap", "_rng",
    )

    def __init__(self, name: str = "", retention_cap: Optional[int] = None) -> None:
        cap = self.DEFAULT_RETENTION if retention_cap is None else retention_cap
        if cap < 1:
            raise ConfigurationError(
                f"histogram retention cap must be >= 1, got {cap}"
            )
        self.count: int = 0
        self.total: float = 0.0
        self.min: float = math.inf
        self.max: float = -math.inf
        self._samples: list = []
        self._sorted: bool = True
        self._cap: int = cap
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        _check_finite("histogram observations", value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self._cap:
            if self._samples and value < self._samples[-1]:
                self._sorted = False
            self._samples.append(value)
            return
        # Reservoir (Algorithm R): keep the new sample with probability
        # cap/count, evicting a uniformly random resident. The RNG is
        # seeded by instrument name, so identical observation sequences
        # produce identical reservoirs.
        j = self._rng.randrange(self.count)
        if j < self._cap:
            self._samples[j] = value
            self._sorted = False

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Exact sample quantile by linear interpolation (q in [0, 1]).

        Returns 0.0 on an empty histogram, so callers can treat "no
        samples" and "all-zero samples" uniformly.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        samples = self._samples
        pos = q * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.quantile(0.5) if self.count else None,
            "p95": self.quantile(0.95) if self.count else None,
            "p99": self.quantile(0.99) if self.count else None,
        }

    def merge_samples(
        self,
        count: int,
        total: float,
        mn: float,
        mx: float,
        samples: List[float],
    ) -> None:
        """Fold another histogram's dumped state into this one.

        The shipped samples are re-observed in order (running this
        reservoir if we overflow). When the source itself was capped,
        ``count > len(samples)``: the exact count/sum/min/max of the
        unretained tail are folded in separately so the aggregate's
        non-quantile statistics stay exact.
        """
        for value in samples:
            self.observe(value)
        extra = count - len(samples)
        if extra > 0:
            shipped = 0.0
            for value in samples:
                shipped += value
            self.count += extra
            self.total += total - shipped
            if mn < self.min:
                self.min = mn
            if mx > self.max:
                self.max = mx


class MetricsRegistry:
    """Get-or-create registry of named, optionally labeled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[LabelKey, Counter]] = {}
        self._gauges: Dict[str, Dict[LabelKey, Gauge]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            series[key] = instrument = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        series = self._gauges.setdefault(name, {})
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            series[key] = instrument = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            series[key] = instrument = Histogram(name)
        return instrument

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        """Value of one counter series; with no labels and no unlabeled
        series registered, the sum over all label sets of ``name``.

        Note the ambiguity that makes the no-label lookup a trap: once an
        unlabeled series exists alongside labeled ones (the shuffle
        manager's totals do exactly this), ``counter_value(name)`` returns
        only the unlabeled series and silently ignores the labeled ones.
        Use :meth:`counter_total` when you mean "everything under this
        name".
        """
        series = self._counters.get(name, {})
        key = _label_key(labels)
        if key in series:
            return series[key].value
        if not labels:
            return sum(c.value for c in series.values())
        return 0.0

    def counter_total(self, name: str) -> float:
        """The grand total of ``name`` — the explicit, deterministic lookup.

        By registry convention labeled series *decompose* an unlabeled
        total (``shuffle.write_bytes{node=...}`` sums into the unlabeled
        ``shuffle.write_bytes``), so when an unlabeled series exists it is
        authoritative and summing every series would double-count. With no
        unlabeled series, the labeled series are summed in sorted
        label-set order — unlike ``counter_value(name)``, whose fallback
        sums in series *touch* order, a float-addition order that differs
        between serial and threaded runs.
        """
        series = self._counters.get(name, {})
        unlabeled = series.get(())
        if unlabeled is not None:
            return unlabeled.value
        total = 0.0
        for _key, instrument in sorted(series.items()):
            total += instrument.value
        return total

    def counter_labels(self, name: str) -> Dict[LabelKey, float]:
        """All (label set -> value) series of one counter name.

        Sorted by label set, so iteration order is independent of the
        order series were first touched (which differs between serial and
        threaded execution).
        """
        return {
            key: c.value
            for key, c in sorted(self._counters.get(name, {}).items())
        }

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable dump of every registered instrument.

        Names and label sets are sorted, so two runs that touched the
        same series — in any order, e.g. serial vs threaded task
        execution — produce byte-identical snapshots.
        """

        def render(series: Dict[str, Dict[LabelKey, Any]], value_of) -> dict:
            return {
                name: [
                    {"labels": dict(key), **value_of(instrument)}
                    for key, instrument in sorted(instruments.items())
                ]
                for name, instruments in sorted(series.items())
            }

        return {
            "counters": render(self._counters, lambda c: {"value": c.value}),
            "gauges": render(self._gauges, lambda g: {"value": g.value}),
            "histograms": render(self._histograms, lambda h: h.to_dict()),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    # ------------------------------------------------------------------
    # Cross-registry aggregation
    # ------------------------------------------------------------------

    def dump_state(self) -> dict:
        """A picklable, deterministic dump for cross-process shipping.

        Unlike :meth:`snapshot` this keeps raw histogram samples, so a
        worker registry can be folded into the driver's via
        :meth:`merge_state` without losing quantile fidelity.
        """
        return {
            "counters": {
                name: [
                    [list(key), c.value]
                    for key, c in sorted(series.items())
                ]
                for name, series in sorted(self._counters.items())
            },
            "gauges": {
                name: [
                    [list(key), g.value]
                    for key, g in sorted(series.items())
                ]
                for name, series in sorted(self._gauges.items())
            },
            "histograms": {
                name: [
                    [
                        list(key),
                        {
                            "count": h.count,
                            "total": h.total,
                            "min": h.min,
                            "max": h.max,
                            "samples": list(h._samples),
                        },
                    ]
                    for key, h in sorted(series.items())
                ]
                for name, series in sorted(self._histograms.items())
            },
        }

    def merge_state(
        self,
        state: dict,
        extra_labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Fold a :meth:`dump_state` blob into this registry.

        Counters add, gauges take the incoming value (last write wins),
        histograms re-observe the shipped samples. ``extra_labels`` (e.g.
        ``worker="w0"``) are appended to every incoming label set, which
        is how pool workers' series land distinguishable in the merged
        snapshot. Merge order is the dump's sorted order, so repeated
        merges of the same states are byte-identical.
        """
        extra = dict(extra_labels or {})
        for name, series in state.get("counters", {}).items():
            for key, value in series:
                labels = {**dict(key), **extra}
                self.counter(name, **labels).inc(value)
        for name, series in state.get("gauges", {}).items():
            for key, value in series:
                labels = {**dict(key), **extra}
                self.gauge(name, **labels).set(value)
        for name, series in state.get("histograms", {}).items():
            for key, dumped in series:
                labels = {**dict(key), **extra}
                self.histogram(name, **labels).merge_samples(
                    dumped["count"],
                    dumped["total"],
                    dumped["min"],
                    dumped["max"],
                    dumped["samples"],
                )
