"""Span tracer for the traced phase, installed from outside the program.

The benchmark measures end-to-end metrics with nothing installed. In a
separate traced phase it wraps the public callables that form each
layer's boundary (``TARGETS``), runs the iteration again and records one
span per call: ``[name, start, end, parent]``. A layer's self time is its
span's duration minus the part its child spans cover, so self times sum
to the traced wall and a layer is never charged for the layers it calls.

Module-level functions are patched at every ``repro.*`` import site that
holds the same object (``from x import f`` creates one per importer);
methods are patched on their class. ``uninstall`` restores every site.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = "bench.iteration"

Counts = Dict[str, float]
CountFn = Callable[[Counts, tuple, Any], None]


class SpanTracer:
    """Spans and boundary counts of the traced iterations, in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counts: Counts = defaultdict(float)
        self._stack: List[int] = []

    def wrap(
        self, name: Optional[str], fn: Callable, count: Optional[CountFn] = None
    ) -> Callable:
        """``fn`` recording a span per call (``name`` None: counts only)."""
        spans, stack, counts, clock = (
            self.spans, self._stack, self.counts, time.perf_counter,
        )

        if name is None:
            assert count is not None

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, args, result)
                return result

            counted.__wrapped__ = fn
            return counted

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


class Layer(NamedTuple):
    calls: int
    total_s: float  # inclusive
    self_s: float  # minus the time covered by child spans


def aggregate(spans: Sequence[Sequence]) -> Dict[str, Layer]:
    """Per-name call count, inclusive time and self time of a span list."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for (name, start, end, _parent), child in zip(spans, covered):
        calls[name] += 1
        total[name] += end - start
        own[name] += (end - start) - child
    return {n: Layer(calls[n], total[n], own[n]) for n in calls}


# ----------------------------------------------------------------------
# Counts taken at the same boundaries as the spans
# ----------------------------------------------------------------------


def _count_source(counts: Counts, args: tuple, result: Any) -> None:
    counts["datagen.records"] += len(result)
    counts["source_tasks." + args[0].op_name] += 1


def _count_keys(counts: Counts, args: tuple, result: Any) -> None:
    counts["partitioner.keys"] += len(args[1])


def _count_map_output(counts: Counts, args: tuple, result: Any) -> None:
    counts["shuffle.blocks_written"] += len(args[4])
    counts["shuffle.bytes_virtual"] += result or 0.0


def _count_combine(counts: Counts, args: tuple, result: Any) -> None:
    if result is not None:  # None: the kernel declined, the caller folds
        counts["combine.records_in"] += len(args[-1])
        counts["combine.records_out"] += len(result)


def _count_cache_get(counts: Counts, args: tuple, result: Any) -> None:
    counts["storage.cache_misses" if result is None else "storage.cache_hits"] += 1


def _count_events(counts: Counts, args: tuple, result: Any) -> None:
    counts["simul.events"] += 1


def _count_tasks(counts: Counts, args: tuple, result: Any) -> None:
    counts["tasks"] += 1


def _count_stages(counts: Counts, args: tuple, result: Any) -> None:
    counts["stages"] += 1


def _count_rule_hits(counts: Counts, args: tuple, result: Any) -> None:
    counts["rules.hits"] += result[1].total_hits


# (span name or None for count-only, module, attribute path, counter)
Target = Tuple[Optional[str], str, str, Optional[CountFn]]

TARGETS: List[Target] = [
    ("workloads.datagen", "repro.engine.rdd", "SourceRDD.compute", _count_source),
    ("engine.executor", "repro.engine.executor", "TaskRunner.execute", None),
    ("engine.costmodel", "repro.engine.executor", "TaskRunner.price", None),
    ("engine.partitioner.partition_many", "repro.engine.partitioner",
     "HashPartitioner.partition_many", _count_keys),
    ("engine.partitioner.partition_many", "repro.engine.partitioner",
     "RangePartitioner.partition_many", _count_keys),
    ("engine.partitioner.range_sample", "repro.engine.context",
     "AnalyticsContext.sample_keys", None),
    ("engine.partitioner.range_sample", "repro.engine.partitioner",
     "RangePartitioner.from_sample", None),
    ("common.sizing", "repro.common.sizing", "estimate_partition_size", None),
    ("common.sizing", "repro.common.sizing", "estimate_sizes", None),
    ("common.sizing", "repro.common.sizing", "sizes_array", None),
    ("engine.shuffle.write", "repro.engine.shuffle",
     "ShuffleManager.put_map_output", _count_map_output),
    ("engine.shuffle.fetch", "repro.engine.shuffle", "ShuffleManager.fetch", None),
    ("engine.combine", "repro.engine.combine", "combine_numeric_add", _count_combine),
    ("engine.combine", "repro.engine.combine", "fold_batch", _count_combine),
    ("engine.combine", "repro.engine.combine", "group_ids", None),
    ("engine.storage.put", "repro.engine.storage", "BlockStore.put", None),
    ("engine.storage.get", "repro.engine.storage", "BlockStore.get", _count_cache_get),
    ("engine.storage.spill_write", "repro.engine.storage", "SpillManager.admit", None),
    ("engine.storage.spill_read", "repro.engine.storage", "SpillManager.fetch", None),
    ("simul.engine", "repro.simul.engine", "SimEngine.run", None),
    (None, "repro.simul.engine", "SimEngine.schedule_at", _count_events),
    ("engine.dag_scheduler", "repro.engine.dag_scheduler", "DAGScheduler.run_job", None),
    (None, "repro.engine.listener", "ListenerBus.task_end", _count_tasks),
    (None, "repro.engine.listener", "ListenerBus.stage_completed", _count_stages),
    ("relational.rules", "repro.relational.rules", "RuleRunner.optimize", _count_rule_hits),
    ("relational.table.lower", "repro.relational.table", "lower_plan", None),
    ("relational.stats", "repro.relational.stats", "collect_column_stats", None),
    ("relational.cache.lookup", "repro.relational.cache",
     "ResultCacheManager.lookup", None),
    ("relational.cache.flush", "repro.relational.cache",
     "ResultCacheManager.flush", None),
    ("chopper.runner.profile", "repro.chopper.runner", "ChopperRunner.profile", None),
    ("chopper.runner.train", "repro.chopper.runner", "ChopperRunner.train", None),
    ("chopper.runner.optimize", "repro.chopper.runner", "ChopperRunner.optimize", None),
    ("chopper.runner.compare", "repro.chopper.runner", "ChopperRunner.compare", None),
    ("chopper.model", "repro.chopper.model", "fit_models_by_partitioner", None),
    ("chopper.global_opt", "repro.chopper.global_opt", "get_global_par", None),
    ("chopper.advisor", "repro.chopper.advisor", "ChopperAdvisor.rewrite", None),
    ("chopper.advisor", "repro.chopper.advisor", "ProfilingAdvisor.rewrite", None),
    ("chopper.advisor", "repro.chopper.advisor", "FixedSchemeAdvisor.rewrite", None),
    ("chopper.stats", "repro.chopper.stats",
     "StatisticsCollector.on_stage_completed", None),
    ("engine.adaptive.replan", "repro.engine.adaptive", "plan_partitions", None),
]


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

Patch = Tuple[Any, str, Any]  # (namespace, attribute, original)


def import_all(package: str = "repro") -> None:
    """Import every submodule, so every import site exists before patching.

    A module first imported *after* install would bind the wrapper under
    ``from x import f`` and keep it after uninstall.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def install(
    tracer: SpanTracer,
    targets: Sequence[Target] = TARGETS,
    package: str = "repro",
) -> List[Patch]:
    """Wrap every target; returns the patch list ``uninstall`` needs."""
    import_all(package)
    patches: List[Patch] = []
    for name, module_name, path, count in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(tracer.wrap(name, original.__func__, count))
            else:
                wrapper = tracer.wrap(name, original, count)
            setattr(cls, attr, wrapper)
            patches.append((cls, attr, original))
            continue
        original = getattr(module, path)
        wrapper = tracer.wrap(name, original, count)
        for site in list(sys.modules.values()):
            site_name = getattr(site, "__name__", "")
            if site_name != package and not site_name.startswith(package + "."):
                continue
            for attr, value in list(vars(site).items()):
                if value is original:
                    setattr(site, attr, wrapper)
                    patches.append((site, attr, original))
    return patches


def uninstall(patches: Sequence[Patch]) -> None:
    for namespace, attr, original in reversed(patches):
        setattr(namespace, attr, original)
