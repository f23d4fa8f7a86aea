"""The catalogue: every fact the engine reports, and what each one feeds.

Engine and relational code says *what happened* through
``ctx.obs.event(name, **fields)``; the row under that name says what it
means to each surface: the log record it becomes, the instruments it
feeds, the span it renders as. Stage-run and job endings arrive typed on
the listener bus, and the functions at the bottom render them. No other
module spells a log level, a span category or an instrument name
(``tests/obs/test_catalogue.py`` keeps it so, and keeps
``docs/observability.md`` listing all of them).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, Iterator, Mapping, NamedTuple, Optional,
    Tuple, Union,
)

from repro.obs.log import DEBUG, ERROR, INFO, WARNING
from repro.obs.trace import TraceEvent

Fields = Dict[str, Any]

#: Every span category a trace can hold. The first four are driver-side
#: (``Tracer.scope`` / ``.phase``, the CHOPPER runner and optimizer).
SPAN_CATEGORIES = (
    "run", "chopper", "chopper.optimizer", "relational.plan",
    "job", "stage", "task", "task.phase", "chaos", "aqe", "spill",
)


class Feed(NamedTuple):
    """One instrument a fact feeds, and with what."""

    name: str
    # None counts one; a string names the field holding the amount; a
    # function derives it from the fields. An amount of None feeds nothing.
    amount: Union[None, str, Callable[[Fields], Optional[float]]] = None
    label: Optional[str] = None  # the field whose value labels the series
    kind: str = "counter"  # or "gauge" (set) / "histogram" (observe)
    eager: bool = False  # exists at zero from the hub's construction on


class Fact(NamedTuple):
    log: Optional[Tuple[str, str, str]] = None  # (level, logger, event)
    feeds: Tuple[Feed, ...] = ()
    # (name format, category) of a driver-side instant whose args are the
    # fields, or a function ``(fields, now)`` yielding a tracer's spans.
    span: Union[None, Tuple[str, str], Callable[..., Iterator[TraceEvent]]] = None
    rename: Mapping[str, Optional[str]] = {}  # field -> span arg (None: not one)
    span_only: FrozenSet[str] = frozenset()  # fields the record leaves out
    tally: Optional[str] = None  # the field whose values collectors count


def _with_total(name: str, label: str) -> Tuple[Feed, Feed]:
    """A byte amount into the unlabeled total, then its labeled series."""
    return Feed(name, "bytes", eager=True), Feed(name, "bytes", label)


def _outcome(outcome: str) -> Callable[[Fields], Optional[float]]:
    return lambda fields: 1.0 if fields["outcome"] == outcome else None


def _tasks_saved(fields: Fields) -> Optional[float]:
    return max(fields["original_partitions"] - fields["adapted_partitions"], 0) or None


# The cost-model components of a task, in the order they elapse.
_PHASES = ("overhead", "shuffle_fetch", "input_io", "compute", "shuffle_write")


def _attempt_spans(f: Fields, now: float) -> Iterator[TraceEvent]:
    """One task-attempt span, plus phase sub-spans under a winner's."""
    key = (f["stage_run"], f["partition"], f["attempt"], f["speculative"])
    args = {
        "stage_run_id": f["stage_run"],
        "stage": f["stage"],
        "partition": f["partition"],
        "attempt": f["attempt"],
        "speculative": f["speculative"],
        "outcome": f["outcome"],
    }
    metrics = f["metrics"]
    if metrics is not None:
        args.update(
            input_bytes=metrics.input_bytes,
            shuffle_read_local=metrics.shuffle_read_local,
            shuffle_read_remote=metrics.shuffle_read_remote,
            shuffle_write=metrics.shuffle_write,
        )
    node, start = f["node"], f["start"]
    yield TraceEvent(
        f"{f['stage']}[{f['partition']}]", "task", start, now, node, key, args
    )
    breakdown = f["breakdown"]
    if f["outcome"] != "ok" or breakdown is None or breakdown.total <= 0:
        return
    # Phase sub-spans share the task's lane (same key) and nest under
    # it; jitter scales every component proportionally.
    factor = f["duration"] / breakdown.total
    for phase in _PHASES:
        seconds = getattr(breakdown, phase) * factor
        if seconds > 0:
            name = phase.replace("_", "-")
            yield TraceEvent(name, "task.phase", start, start + seconds, node, key)
            start += seconds


# What a re-plan did to the partition sizes: shown on the span only.
_HISTOGRAMS = frozenset({"before", "after", "gini_before", "gini_after"})

FACTS: Dict[str, Fact] = {
    # -- context and driver ---------------------------------------------
    "cluster_sized": Fact(feeds=(Feed("cluster.total_cores", "cores", kind="gauge"),)),
    "measured_run": Fact(log=(INFO, "chopper", "measured_run")),
    # -- DAG scheduler --------------------------------------------------
    # The rewrite is free in simulated time; wall_ms is its real cost.
    "advisor_rewrite": Fact(
        span=("rewrite:{advisor}", "chopper"), rename={"advisor": None}
    ),
    "job_started": Fact(log=(INFO, "dag_scheduler", "job_started")),
    "stage_submitted": Fact(log=(INFO, "dag_scheduler", "stage_submitted")),
    "fetch_failure": Fact(
        log=(WARNING, "dag_scheduler", "fetch_failure"),
        feeds=(Feed("scheduler.fetch_failures", eager=True),),
        span=("fetch-failure", "chaos"), rename={"shuffle": "shuffle_id"},
    ),
    "stage_resubmitted": Fact(
        log=(WARNING, "dag_scheduler", "stage_resubmitted"),
        feeds=(Feed("scheduler.stage_resubmissions", eager=True),),
        span=("stage-resubmit", "chaos"), rename={"shuffle": "shuffle_id"},
    ),
    # -- task scheduler -------------------------------------------------
    "queue_depth": Fact(
        feeds=(Feed("scheduler.queue_depth", "depth", kind="gauge", eager=True),)
    ),
    # queue_wait is None for a speculative copy: its task never queued.
    "task_launched": Fact(feeds=(
        Feed("scheduler.tasks_launched", eager=True),
        Feed("scheduler.queue_wait_seconds", "queue_wait", kind="histogram", eager=True),
    )),
    "attempt_ended": Fact(
        feeds=(
            Feed("scheduler.tasks_completed", _outcome("ok"), eager=True),
            Feed("scheduler.node_lost_tasks", _outcome("node-lost"), eager=True),
            Feed("scheduler.tasks_failed", _outcome("failed"), eager=True),
        ),
        span=_attempt_spans, tally="outcome",
    ),
    "task_finished": Fact(log=(DEBUG, "task_scheduler", "task_finished")),
    "speculative_launch": Fact(
        log=(INFO, "task_scheduler", "speculative_launch"),
        feeds=(Feed("scheduler.speculative_launches", eager=True),),
    ),
    "speculative_win": Fact(feeds=(Feed("scheduler.speculative_wins", eager=True),)),
    "task_retry": Fact(
        log=(WARNING, "task_scheduler", "task_retry"),
        feeds=(Feed("scheduler.task_retries", eager=True),),
    ),
    # The record's ``node`` is the span's ``victim``: as a span's own node
    # it would put the marker on a worker lane, not the driver's chaos lane.
    "node_lost": Fact(
        log=(ERROR, "task_scheduler", "node_lost"),
        feeds=(Feed("scheduler.nodes_lost", eager=True),),
        span=("node-lost", "chaos"), rename={"node": "victim"},
    ),
    "node_recovered": Fact(
        log=(INFO, "task_scheduler", "node_recovered"),
        feeds=(Feed("scheduler.nodes_recovered", eager=True),),
        span=("node-recovered", "chaos"), rename={"node": "victim"},
    ),
    # -- executor -------------------------------------------------------
    "task_fetch_failed": Fact(
        log=(WARNING, "executor", "fetch_failure"),
        feeds=(Feed("executor.fetch_failures", label="node"),),
    ),
    "map_task_executed": Fact(
        log=(DEBUG, "executor", "task_executed"),
        feeds=(Feed("executor.map_tasks", label="node"),),
    ),
    "result_task_executed": Fact(
        log=(DEBUG, "executor", "task_executed"),
        feeds=(Feed("executor.result_tasks", label="node"),),
    ),
    "cache_read": Fact(feeds=(
        Feed("blockcache.hits", label="node"),
        Feed("blockcache.read_bytes", "bytes", "node"),
    )),
    "cache_remote_read": Fact(
        feeds=(Feed("blockcache.remote_read_bytes", "bytes", "src"),)
    ),
    # -- shuffle and spill ----------------------------------------------
    "shuffle_registered": Fact(log=(DEBUG, "shuffle", "shuffle_registered")),
    "map_outputs_lost": Fact(log=(WARNING, "shuffle", "map_outputs_lost")),
    "map_output_written": Fact(feeds=_with_total("shuffle.write_bytes", "node")),
    "shuffle_read_local": Fact(feeds=_with_total("shuffle.local_bytes", "node")),
    "shuffle_read_remote": Fact(feeds=_with_total("shuffle.remote_bytes", "src")),
    "block_spilled": Fact(
        log=(INFO, "spill", "block_spilled"),
        feeds=(Feed("shuffle.spilled_bytes", "bytes"), Feed("spill.events")),
        span=("spill", "spill"),
    ),
    # -- adaptive execution ---------------------------------------------
    "stage_replanned": Fact(
        log=(INFO, "aqe", "stage_replanned"),
        feeds=(
            Feed("aqe.stages_replanned"),
            Feed("aqe.partitions_coalesced", lambda f: f["coalesced"] or None),
            Feed("aqe.tasks_saved", _tasks_saved),
        ),
        span=("aqe-replan", "aqe"), span_only=_HISTOGRAMS | {"stage_id"},
    ),
    # -- relational layer -----------------------------------------------
    "partitions_pruned": Fact(
        log=(INFO, "optimizer", "partitions_pruned"),
        feeds=(Feed("scan.partitions_pruned", "pruned"),),
    ),
    "result_cache_hit": Fact(feeds=(Feed("cache.hits"),)),
    "result_cache_miss": Fact(feeds=(Feed("cache.misses"),)),
}


def instant(fact: Fact, fields: Fields, now: float) -> TraceEvent:
    """A fact's driver-side instant span: its fields, in the span's names."""
    name, cat = fact.span
    rename = fact.rename
    args = {
        rename.get(k, k): v for k, v in fields.items() if rename.get(k, k) is not None
    }
    return TraceEvent(name.format(**fields), cat, now, now, args=args)


# ----------------------------------------------------------------------
# Lifecycle endings, rendered from the listener bus's typed payloads
# ----------------------------------------------------------------------

STAGE_COMPLETED = (INFO, "dag_scheduler", "stage_completed")
JOB_FINISHED = (INFO, "dag_scheduler", "job_finished")


def stage_span(stats) -> TraceEvent:
    return TraceEvent(
        stats.name, "stage", stats.submitted_at, stats.completed_at,
        args={
            "stage_run_id": stats.stage_run_id,
            "kind": stats.kind,
            "P": stats.num_partitions,
            "partitioner": stats.partitioner_kind,
            "tasks": len(stats.tasks),
            "attempt": stats.attempt,
            "shuffle_read_bytes": stats.shuffle_read_bytes,
            "shuffle_write_bytes": stats.shuffle_write_bytes,
        },
    )


def stage_record(stats) -> Fields:
    return {
        "job": stats.job_id,
        "stage": stats.name,
        "stage_run": stats.stage_run_id,
        "kind": stats.kind,
        "tasks": len(stats.tasks),
        "duration": stats.duration,
        "shuffle_write_bytes": stats.shuffle_write_bytes,
    }


def job_span(stats) -> TraceEvent:
    return TraceEvent(
        f"job-{stats.job_id}", "job", stats.submitted_at, stats.completed_at,
        args={"job_id": stats.job_id, "stages": len(stats.stages)},
    )


def job_record(stats) -> Fields:
    return {
        "job": stats.job_id,
        "stages": len(stats.stages),
        "duration": stats.duration,
    }
