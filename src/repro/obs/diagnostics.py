"""Analysis passes over run-ledger entries.

Two detectors plus a run-to-run regression check, all operating on the
plain-dict entries :class:`~repro.obs.ledger.RunLedger` stores — no live
context needed, so a run can be diagnosed long after it finished:

* :func:`partition_skew` — per stage, max/mean and Gini over the
  per-partition byte and record distributions (data-side skew) and over
  task durations (compute-side skew);
* :func:`detect_stragglers` — per stage, task-duration outliers against
  a quantile-derived threshold (default: tasks slower than 2x the
  median, provided they also clear the stage's p95);
* :func:`diff_runs` — wall-clock and shuffle-volume comparison of two
  entries with a regression threshold, for CI gating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.obs.metrics import Histogram, MetricsRegistry

# The failure/recovery counters every run maintains; their totals are a
# run's one-line health readout.
HEALTH_COUNTERS = (
    "scheduler.task_retries",
    "scheduler.fetch_failures",
    "scheduler.stage_resubmissions",
    "scheduler.nodes_lost",
    "scheduler.speculative_launches",
    "cache.hits",
    "cache.misses",
    "scan.partitions_pruned",
)


def counter_health(registry: MetricsRegistry) -> Dict[str, float]:
    """Totals of the failure/recovery counters, keyed by counter name.

    Goes through :meth:`MetricsRegistry.counter_total` — the
    unambiguous total — rather than ``counter_value``, whose
    sum-the-labels fallback double-counts registries that maintain both
    an unlabeled total and its labeled decomposition (as the shuffle
    manager's byte counters do).
    """
    return {name: registry.counter_total(name) for name in HEALTH_COUNTERS}


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative distribution (0 = uniform).

    Sorted-formula implementation: G = 2·Σ(i·xᵢ)/(n·Σx) − (n+1)/n with
    1-based ranks over ascending values. Degenerate inputs (empty,
    single, all-zero) read as perfectly uniform.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    total = sum(xs)
    if n < 2 or total <= 0:
        return 0.0
    weighted = sum(rank * x for rank, x in enumerate(xs, start=1))
    return 2.0 * weighted / (n * total) - (n + 1) / n


def max_mean(values: Sequence[float]) -> float:
    """Max/mean ratio (1.0 = perfectly balanced)."""
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean <= 0:
        return 1.0
    return max(values) / mean


@dataclass
class SkewFinding:
    """Skew measurements of one stage in one run."""

    stage_run_id: int
    name: str
    signature: str
    attempt: int
    metric: str  # "partition_bytes" | "task_input_bytes" | "task_duration"
    max_mean: float
    gini: float
    n: int
    flagged: bool


def partition_skew(
    entry: Dict[str, Any],
    max_mean_threshold: float = 2.0,
    gini_threshold: float = 0.4,
) -> List[SkewFinding]:
    """Skew findings for every stage of one ledger entry.

    A stage yields one finding per available distribution: the shuffle
    output's per-reduce-partition bytes (map stages), the per-task input
    bytes, and the per-task durations. ``flagged`` marks a distribution
    exceeding *either* threshold — max/mean catches a single hot
    partition, Gini catches broad imbalance that max/mean smooths over.
    """
    findings: List[SkewFinding] = []

    def add(stage: dict, metric: str, values: Sequence[float]) -> None:
        if len(values) < 2:
            return
        mm = max_mean(values)
        g = gini(values)
        findings.append(
            SkewFinding(
                stage_run_id=stage["stage_run_id"],
                name=stage["name"],
                signature=stage["signature"],
                attempt=stage.get("attempt", 0),
                metric=metric,
                max_mean=mm,
                gini=g,
                n=len(values),
                flagged=mm > max_mean_threshold or g > gini_threshold,
            )
        )

    for stage in entry.get("stages", []):
        add(stage, "partition_bytes", stage.get("output_partition_bytes") or [])
        tasks = stage.get("tasks", {})
        add(stage, "task_input_bytes", tasks.get("input_bytes") or [])
        add(stage, "task_duration", tasks.get("duration") or [])
    return findings


@dataclass
class StragglerFinding:
    """Task-duration outliers of one stage."""

    stage_run_id: int
    name: str
    signature: str
    attempt: int
    p50: float
    p95: float
    p99: float
    threshold: float
    outliers: List[Dict[str, Any]] = field(default_factory=list)


def detect_stragglers(
    entry: Dict[str, Any],
    multiplier: float = 2.0,
    min_tasks: int = 4,
) -> List[StragglerFinding]:
    """Stages with task-duration outliers (one finding per such stage).

    A task is a straggler when its duration exceeds both
    ``multiplier × p50`` and the stage's p95 — the double condition keeps
    tight distributions (where 2×median is still ordinary) quiet while
    catching genuine tail tasks. Stages with fewer than ``min_tasks``
    finished tasks are skipped; quantiles come from
    :meth:`repro.obs.metrics.Histogram.quantile`.

    Regardless of ``min_tasks``, stages with fewer than 3 tasks are
    never reported: with 1–2 samples the quantiles collapse onto the
    samples themselves and any spread reads as a "straggler", so a
    permissive caller (e.g. ``min_tasks=1``) would flag every 2-task
    stage whose halves differ.
    """
    findings: List[StragglerFinding] = []
    for stage in entry.get("stages", []):
        tasks = stage.get("tasks", {})
        durations = tasks.get("duration") or []
        if len(durations) < max(min_tasks, 3):
            continue
        hist = Histogram()
        for d in durations:
            hist.observe(d)
        p50 = hist.quantile(0.5)
        p95 = hist.quantile(0.95)
        threshold = multiplier * p50
        outliers = [
            {
                "task_index": tasks["index"][i],
                "node": tasks["node"][i],
                "duration": durations[i],
                "attempt": tasks["attempt"][i],
                "speculative": tasks["speculative"][i],
            }
            for i, d in enumerate(durations)
            if d > threshold and d > p95 and p50 > 0
        ]
        if outliers:
            findings.append(
                StragglerFinding(
                    stage_run_id=stage["stage_run_id"],
                    name=stage["name"],
                    signature=stage["signature"],
                    attempt=stage.get("attempt", 0),
                    p50=p50,
                    p95=p95,
                    p99=hist.quantile(0.99),
                    threshold=threshold,
                    outliers=sorted(
                        outliers, key=lambda o: -o["duration"]
                    ),
                )
            )
    return findings


@dataclass
class RunDiff:
    """Result of comparing two ledger entries for regressions."""

    run_a: str
    run_b: str
    wall_clock_a: float
    wall_clock_b: float
    time_delta: float  # fractional change of B vs A (+0.25 = 25% slower)
    shuffle_a: float
    shuffle_b: float
    shuffle_delta: float
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _total_shuffle(entry: Dict[str, Any]) -> float:
    shuffle = entry.get("shuffle", {})
    read = shuffle.get("local_bytes", 0.0) + shuffle.get("remote_bytes", 0.0)
    return max(read, shuffle.get("write_bytes", 0.0))


def diff_runs(
    entry_a: Dict[str, Any],
    entry_b: Dict[str, Any],
    time_threshold: float = 0.2,
    shuffle_threshold: Optional[float] = None,
) -> RunDiff:
    """Compare run B against baseline run A.

    A regression is a fractional increase beyond the threshold: wall
    clock against ``time_threshold``, total shuffle volume (max of read
    and write, the paper's metric) against ``shuffle_threshold`` (which
    defaults to the time threshold). Improvements never flag. A
    threshold that is negative or not finite (NaN would pass every
    pair) is a :class:`ConfigurationError`.
    """
    if shuffle_threshold is None:
        shuffle_threshold = time_threshold
    for name, value in (("time", time_threshold), ("shuffle", shuffle_threshold)):
        if not 0 <= value < math.inf:
            raise ConfigurationError(
                f"{name} threshold must be finite and >= 0, got {value}"
            )
    wall_a = entry_a.get("wall_clock", 0.0)
    wall_b = entry_b.get("wall_clock", 0.0)
    time_delta = (wall_b - wall_a) / wall_a if wall_a > 0 else 0.0
    shuffle_a = _total_shuffle(entry_a)
    shuffle_b = _total_shuffle(entry_b)
    shuffle_delta = (
        (shuffle_b - shuffle_a) / shuffle_a if shuffle_a > 0 else 0.0
    )
    regressions: List[str] = []
    if time_delta > time_threshold:
        regressions.append(
            f"wall clock regressed {time_delta * 100:.1f}% "
            f"({wall_a:.3f}s -> {wall_b:.3f}s, threshold "
            f"{time_threshold * 100:.0f}%)"
        )
    if shuffle_delta > shuffle_threshold:
        regressions.append(
            f"shuffle volume regressed {shuffle_delta * 100:.1f}% "
            f"({shuffle_a:.0f}B -> {shuffle_b:.0f}B, threshold "
            f"{shuffle_threshold * 100:.0f}%)"
        )
    return RunDiff(
        run_a=entry_a.get("run_id", "?"),
        run_b=entry_b.get("run_id", "?"),
        wall_clock_a=wall_a,
        wall_clock_b=wall_b,
        time_delta=time_delta,
        shuffle_a=shuffle_a,
        shuffle_b=shuffle_b,
        shuffle_delta=shuffle_delta,
        regressions=regressions,
    )
