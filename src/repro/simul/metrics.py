"""Time-series metric recording for the simulated cluster.

The paper's Figs. 11-14 plot dstat-style series — CPU %, memory %, packets
per second, disk transactions per second — sampled over the run. The
simulator produces the equivalent series from first principles:

* *interval* samples (``record_interval``): a quantity held over a span of
  simulated time, e.g. one busy core from task start to task end;
* *point* samples (``record_event``): an instantaneous quantity, e.g. the
  bytes of one shuffle fetch.

:meth:`MetricsRecorder.bucketize` folds samples into fixed-width buckets:
intervals contribute pro-rata (value x overlap / width gives a utilization
average), points contribute their value divided by the bucket width (a
rate).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError


@dataclass
class TimeSeries:
    """A bucketized metric series.

    Attributes:
        times: bucket-start timestamps (seconds).
        values: bucket values (utilization average or per-second rate).
    """

    times: np.ndarray
    values: np.ndarray

    def mean(self) -> float:
        return float(self.values.mean()) if self.values.size else 0.0

    def peak(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0

    def total(self, bucket_width: float) -> float:
        """Integral of the series (rate x width summed over buckets)."""
        return float(self.values.sum() * bucket_width)


@dataclass
class _IntervalSample:
    start: float
    end: float
    value: float


@dataclass
class MetricsRecorder:
    """Collects raw samples keyed by ``(series, node)`` during a run."""

    _intervals: Dict[Tuple[str, str], List[_IntervalSample]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _points: Dict[Tuple[str, str], List[Tuple[float, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    _horizon: float = 0.0

    def record_interval(
        self, series: str, node: str, start: float, end: float, value: float = 1.0
    ) -> None:
        """Record ``value`` held on ``node`` from ``start`` to ``end``."""
        if end < start:
            raise ConfigurationError(f"interval ends before it starts: {start}..{end}")
        self._intervals[(series, node)].append(_IntervalSample(start, end, value))
        self._horizon = max(self._horizon, end)

    def record_event(self, series: str, node: str, time: float, value: float) -> None:
        """Record an instantaneous ``value`` on ``node`` at ``time``."""
        self._points[(series, node)].append((time, value))
        self._horizon = max(self._horizon, time)

    def nodes(self, series: str) -> List[str]:
        found = {node for (s, node) in self._intervals if s == series}
        found |= {node for (s, node) in self._points if s == series}
        return sorted(found)

    def bucketize(
        self,
        series: str,
        bucket_width: float,
        node: Optional[str] = None,
        end: Optional[float] = None,
    ) -> TimeSeries:
        """Fold a series into fixed-width buckets.

        With ``node=None`` the samples of all nodes are averaged (interval
        series) or summed (point series are summed then rated), matching
        the paper's "average of the statistics collected from the six
        nodes" presentation.
        """
        if not bucket_width > 0:  # NaN fails too
            raise ConfigurationError("bucket_width must be positive")
        horizon = end if end is not None else self._horizon
        n_buckets = max(1, int(np.ceil(horizon / bucket_width)) if horizon > 0 else 1)
        times = np.arange(n_buckets) * bucket_width

        wanted_nodes = [node] if node is not None else self.nodes(series)
        if not wanted_nodes:
            return TimeSeries(times=times, values=np.zeros(n_buckets))

        acc = np.zeros(n_buckets)
        for nd in wanted_nodes:
            acc += self._node_values(series, nd, bucket_width, n_buckets)
        if node is None and len(wanted_nodes) > 1:
            acc /= len(wanted_nodes)
        return TimeSeries(times=times, values=acc)

    def _node_values(
        self, series: str, node: str, bucket_width: float, n_buckets: int
    ) -> np.ndarray:
        values = np.zeros(n_buckets)
        for sample in self._intervals.get((series, node), ()):
            self._spread_interval(values, sample, bucket_width)
        for time, value in self._points.get((series, node), ()):
            idx = min(int(time / bucket_width), n_buckets - 1)
            values[idx] += value / bucket_width
        return values

    @staticmethod
    def _spread_interval(
        values: np.ndarray, sample: _IntervalSample, bucket_width: float
    ) -> None:
        n_buckets = values.shape[0]
        first = min(int(sample.start / bucket_width), n_buckets - 1)
        last = min(int(sample.end / bucket_width), n_buckets - 1)
        for idx in range(first, last + 1):
            lo = idx * bucket_width
            hi = lo + bucket_width
            overlap = min(sample.end, hi) - max(sample.start, lo)
            if overlap > 0:
                values[idx] += sample.value * overlap / bucket_width

