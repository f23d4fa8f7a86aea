"""Execution instrumentation: task/stage/job metrics and a listener bus.

This is the engine's equivalent of Spark's ``SparkListener`` interface —
the surface CHOPPER's statistics collector plugs into. Every executed
stage produces a :class:`StageStats` carrying exactly what the paper's
workload DB stores: input size, partition scheme, execution time, and
shuffle read/write volumes (§III: "the observed information including the
input and intermediate data size, the number of stages, the number of
tasks per stage, and the resource utilization information").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class TaskMetrics:
    """Measurements of one executed task."""

    stage_run_id: int
    task_index: int
    node: str
    start: float
    end: float
    input_bytes: float = 0.0
    cache_read_bytes: float = 0.0
    compute_bytes: float = 0.0
    records_out: int = 0
    shuffle_read_local: float = 0.0
    shuffle_read_remote: float = 0.0
    shuffle_write: float = 0.0
    # Which retry of the logical task this was (0 = first run), and
    # whether it ran as a speculative backup copy.
    attempt: int = 0
    speculative: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def shuffle_read(self) -> float:
        return self.shuffle_read_local + self.shuffle_read_remote


@dataclass
class StageStats:
    """Measurements of one executed stage (one row of the workload DB)."""

    stage_run_id: int
    job_id: int
    signature: str
    name: str
    kind: str  # "shuffle_map" | "result"
    num_partitions: int
    partitioner_kind: Optional[str]
    submitted_at: float
    completed_at: float = 0.0
    input_bytes: float = 0.0
    shuffle_read_bytes: float = 0.0
    shuffle_write_bytes: float = 0.0
    tasks: List[TaskMetrics] = field(default_factory=list)
    # DAG metadata for CHOPPER's workload DB (Algorithm 3 needs the stage
    # dependency structure, join grouping, and user-fixed flags).
    parent_signatures: List[str] = field(default_factory=list)
    cogroup_sides: int = 0
    user_fixed: bool = False
    # Signatures of source RDDs in this stage's pipeline: stages sharing a
    # source share its partition granularity (Algorithm 3 source groups).
    source_signatures: List[str] = field(default_factory=list)
    # > 0: a partial re-run of the stage after a fetch failure (lineage
    # recovery), covering only the lost map partitions — not a clean
    # observation of the stage at its partition count.
    attempt: int = 0
    # Per-reduce-partition output bytes of a shuffle-map stage, filled at
    # completion from the shuffle manager; empty for result stages. The
    # data-side skew signal (task durations only show the compute side).
    output_partition_bytes: List[float] = field(default_factory=list)
    # AQE: physical task count after runtime re-planning (coalesce);
    # None when the stage ran its static layout. num_partitions always
    # stays the logical (original) partition count.
    adapted_num_partitions: Optional[int] = None
    # Partition pruning: source partitions skipped by this stage's scans
    # (zone maps / range layout). Pruned partitions never
    # appear in any task's lineage, so they are not in num_partitions.
    pruned_partitions: int = 0

    @property
    def duration(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def shuffle_bytes(self) -> float:
        """The paper's per-stage shuffle metric: max(read, write)."""
        return max(self.shuffle_read_bytes, self.shuffle_write_bytes)

    @property
    def remote_shuffle_read(self) -> float:
        """Bytes of shuffle input that crossed the network."""
        return sum(t.shuffle_read_remote for t in self.tasks)

    def skew(self) -> float:
        """Max/mean task duration — 1.0 means perfectly balanced."""
        if not self.tasks:
            return 1.0
        durations = [t.duration for t in self.tasks]
        mean = sum(durations) / len(durations)
        if mean <= 0:
            return 1.0
        return max(durations) / mean


@dataclass
class JobStats:
    """Measurements of one job (action) run."""

    job_id: int
    submitted_at: float
    completed_at: float = 0.0
    stages: List[StageStats] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.completed_at - self.submitted_at


class Listener:
    """Subscriber interface; override the callbacks you care about."""

    def on_task_end(self, task_metrics: TaskMetrics) -> None:
        pass

    def on_stage_completed(self, stage_stats: StageStats) -> None:
        pass

    def on_job_end(self, job_stats: JobStats) -> None:
        pass


class ListenerBus:
    """Synchronous fan-out of execution events to registered listeners."""

    def __init__(self) -> None:
        self._listeners: List[Listener] = []

    def add(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def remove(self, listener: Listener) -> None:
        self._listeners.remove(listener)

    def task_end(self, metrics: TaskMetrics) -> None:
        for listener in self._listeners:
            listener.on_task_end(metrics)

    def stage_completed(self, stats: StageStats) -> None:
        for listener in self._listeners:
            listener.on_stage_completed(stats)

    def job_end(self, stats: JobStats) -> None:
        for listener in self._listeners:
            listener.on_job_end(stats)
