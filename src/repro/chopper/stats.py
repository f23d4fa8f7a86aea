"""Statistics collector: CHOPPER's tap into the engine's listener bus.

The paper's collector "communicates with Spark to gather runtime
information and statistics" (§III). Here it subscribes to the engine's
listener bus and condenses every completed stage into a
:class:`StageObservation` — the row format the workload DB stores and the
models train on: input size ``D``, partition count ``P``, partitioner
kind, execution time, and shuffle volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.context import AnalyticsContext
from repro.engine.listener import Listener, StageStats


@dataclass(frozen=True)
class StageObservation:
    """One training sample for a stage's performance models."""

    signature: str
    kind: str
    partitioner_kind: Optional[str]
    input_bytes: float  # D
    num_partitions: int  # P
    duration: float  # t_exe
    shuffle_bytes: float  # s_shuffle (max of read/write, as in the paper)
    order: int  # position of the stage within the workload run
    parent_signatures: tuple = ()
    cogroup_sides: int = 0
    user_fixed: bool = False
    source_signatures: tuple = ()

    @classmethod
    def from_stage_stats(cls, stats: StageStats, order: int) -> "StageObservation":
        return cls(
            signature=stats.signature,
            kind=stats.kind,
            partitioner_kind=stats.partitioner_kind,
            input_bytes=stats.input_bytes,
            # AQE-re-planned stages ran their *adapted* physical task
            # count; that is the (duration, P) pair the offline model
            # should learn from, not the static plan it replaced.
            num_partitions=stats.adapted_num_partitions or stats.num_partitions,
            duration=stats.duration,
            shuffle_bytes=stats.shuffle_bytes,
            order=order,
            parent_signatures=tuple(stats.parent_signatures),
            cogroup_sides=stats.cogroup_sides,
            user_fixed=stats.user_fixed,
            source_signatures=tuple(stats.source_signatures),
        )


@dataclass
class RunRecord:
    """All observations of one workload run, plus the run's totals."""

    workload: str
    input_bytes: float
    observations: List[StageObservation] = field(default_factory=list)
    total_time: float = 0.0

    def observe(self, stats: StageStats) -> Optional[StageObservation]:
        """Append one completed stage; the only stats -> observation path.

        Returns None for a partial resubmission after a fetch failure
        (``attempt > 0``): only the lost map partitions re-ran, so its
        (D, P, t_exe) would mistrain the models. Every consumer (the
        collector, online adaptation, ledger replay) keeps clean,
        full-stage observations only.
        """
        if stats.attempt > 0:
            return None
        observation = StageObservation.from_stage_stats(
            stats, len(self.observations)
        )
        self.observations.append(observation)
        return observation

    @classmethod
    def from_ledger_entry(cls, entry: dict) -> "RunRecord":
        """Rebuild a run's record from its ledger entry.

        §III-B: "CHOPPER also remembers the statistics from the user
        workload execution in a production environment" — the ledger is
        that memory; :meth:`WorkloadDB.add_ledger` folds these records
        in to train from runs of other processes. Exact: the
        rebuilt record equals the one a live collector produced. Entries
        written before the DAG keys existed load with their defaults.
        """
        record = cls(
            workload=entry["workload"],
            input_bytes=entry["input_bytes"],
            total_time=entry["wall_clock"],
        )
        for row in entry["stages"]:
            record.observe(
                StageStats(
                    stage_run_id=row["stage_run_id"],
                    job_id=0,
                    signature=row["signature"],
                    name=row["name"],
                    kind=row["kind"],
                    num_partitions=row["num_partitions"],
                    partitioner_kind=row["partitioner"],
                    submitted_at=row["start"],
                    completed_at=row["end"],
                    input_bytes=row["input_bytes"],
                    shuffle_read_bytes=row["shuffle_read_bytes"],
                    shuffle_write_bytes=row["shuffle_write_bytes"],
                    parent_signatures=row.get("parent_signatures", []),
                    cogroup_sides=row.get("cogroup_sides", 0),
                    user_fixed=row.get("user_fixed", False),
                    source_signatures=row.get("source_signatures", []),
                    attempt=row["attempt"],
                    adapted_num_partitions=row.get("adapted_partitions"),
                )
            )
        return record


class StatisticsCollector(Listener):
    """Records stage completions for the duration of one workload run.

    Usage::

        collector = StatisticsCollector("kmeans", input_bytes=D)
        with collector.attached(ctx):
            workload.run(ctx)
        record = collector.finish(ctx)
    """

    def __init__(self, workload: str, input_bytes: float) -> None:
        self.record = RunRecord(workload=workload, input_bytes=input_bytes)
        self._started_at: Optional[float] = None
        self._ctx: Optional[AnalyticsContext] = None

    def on_stage_completed(self, stage_stats: StageStats) -> None:
        self.record.observe(stage_stats)

    def attach(self, ctx: AnalyticsContext) -> "StatisticsCollector":
        ctx.listener_bus.add(self)
        self._ctx = ctx
        self._started_at = ctx.now
        return self

    def finish(self, ctx: Optional[AnalyticsContext] = None) -> RunRecord:
        ctx = ctx or self._ctx
        assert ctx is not None, "finish() before attach()"
        ctx.listener_bus.remove(self)
        self.record.total_time = ctx.now - (self._started_at or 0.0)
        self._ctx = None
        return self.record

    def attached(self, ctx: AnalyticsContext) -> "_CollectorScope":
        return _CollectorScope(self, ctx)


class _CollectorScope:
    def __init__(self, collector: StatisticsCollector, ctx: AnalyticsContext) -> None:
        self.collector = collector
        self.ctx = ctx

    def __enter__(self) -> StatisticsCollector:
        return self.collector.attach(self.ctx)

    def __exit__(self, *exc) -> None:
        if self.collector._ctx is not None:
            self.collector.finish(self.ctx)
