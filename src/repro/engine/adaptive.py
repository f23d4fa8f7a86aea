"""Adaptive query execution: runtime coalescing of the reduce side.

CHOPPER's Algorithm 2 fixes the partitioner scheme and count *before*
the job runs, from the cost model's predicted stage sizes. This module
is the runtime complement: once a map stage has materialized, the exact
per-partition shuffle sizes are known, and the DAG scheduler may re-plan
the not-yet-launched reduce side before submitting it by **coalescing**
contiguous runs of small reduce partitions into one physical task
targeting ``aqe_target_partition_bytes``, saving the per-task overhead
and dispatch stagger that dominate tiny partitions.

Everything here is a pure function of the measured size histogram and
the target partition size — given the same map outputs, a re-derived plan
is always identical, which is what keeps chaos-recovery runs and the
threads/procs execution modes bit-identical with AQE on.

Decision logic lives here (unit-testable on synthetic histograms), and so
does :func:`replan`, the one entry point the DAG scheduler calls before a
stage's first full launch. Nothing downstream knows about AQE: a plan is
a list of split tuples, what every task carries (the static layout is
one one-split tuple per split), and the task builder, the executor body
and the result filing are driven by the tuple alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.engine.stage import Stage
from repro.obs.diagnostics import gini

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.context import AnalyticsContext

__all__ = ["AdaptivePlan", "plan_partitions", "replan"]


@dataclass
class AdaptivePlan:
    """A re-planned reduce side: physical task layout + decision record.

    ``specs`` holds, per physical task, the original partition indices
    it computes: a contiguous run, one index for a partition left alone.
    """

    specs: List[Tuple[int, ...]]
    before_sizes: List[float]
    after_sizes: List[float]
    n_coalesced: int  # original partitions packed into multi-split tasks


def plan_partitions(
    sizes: Sequence[float], *, target_bytes: float
) -> Optional[AdaptivePlan]:
    """Derive the physical task layout for one reduce side.

    Returns ``None`` when the measured sizes ask for no change — every
    physical task would cover exactly one original partition.
    """
    n = len(sizes)
    if n < 2:
        return None
    specs: List[Tuple[int, ...]] = []
    after: List[float] = []
    n_coalesced = 0
    i = 0
    while i < n:
        j = i
        acc = float(sizes[i])
        while j + 1 < n and acc + sizes[j + 1] <= target_bytes:
            j += 1
            acc += float(sizes[j])
        if j > i:
            n_coalesced += j - i + 1
        specs.append(tuple(range(i, j + 1)))
        after.append(acc)
        i = j + 1
    if n_coalesced == 0:
        return None
    return AdaptivePlan(
        specs=specs,
        before_sizes=[float(s) for s in sizes],
        after_sizes=after,
        n_coalesced=n_coalesced,
    )


def replan(ctx: "AnalyticsContext", stage: Stage) -> Optional[AdaptivePlan]:
    """Derive a stage's adaptive plan from its measured shuffle inputs.

    Called on a stage's first full launch, once its parents have
    materialized. Returns None when the stage has no materialized shuffle
    inputs or the sizes ask for no change.
    """
    deps = stage.incoming_shuffle_deps()
    if not deps:
        return None
    manager = ctx.shuffle_manager
    for dep in deps:
        if not manager.is_registered(dep.shuffle_id):
            return None
        if manager.missing_map_ids(dep.shuffle_id):
            # Degraded shuffle (a kill landed between map completion
            # and this launch): fall back to plain tasks and let the
            # normal fetch-failure recovery handle it.
            return None
        if dep.num_reduce_partitions != stage.num_tasks:
            # Union-style stages where reduce partitions don't map
            # 1:1 onto task indices; nothing to re-plan safely.
            return None

    sizes = [0.0] * stage.num_tasks
    for dep in deps:
        for i, nbytes in enumerate(manager.partition_sizes(dep.shuffle_id)):
            sizes[i] += nbytes
    plan = plan_partitions(sizes, target_bytes=ctx.conf.aqe_target_partition_bytes)
    if plan is None:
        return None
    ctx.obs.event(
        "stage_replanned",
        stage=stage.name,
        stage_id=stage.stage_id,
        original_partitions=stage.num_tasks,
        adapted_partitions=len(plan.specs),
        coalesced=plan.n_coalesced,
        # What the re-plan did to the partition sizes (shown on its span).
        before=[round(b, 1) for b in plan.before_sizes],
        after=[round(a, 1) for a in plan.after_sizes],
        gini_before=round(gini(plan.before_sizes), 4),
        gini_after=round(gini(plan.after_sizes), 4),
    )
    return plan
