"""Metric definitions: names, units, bounds, and how each is derived.

``GATED`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists (the harness
self-test checks the two agree). Layer metrics are per traced
iteration. ``_s`` values are *self* times unless the table below says
inclusive, so a layer is never charged for the layers it calls and the
rows of one workload add up to its traced wall.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from tracing import ROOT, Layer

# (name, unit, better, bound): bound = the share of the parent's median a
# later change may worsen the metric by.
#
# GATED is what BENCHMARK.json lists as end-to-end metrics, i.e. what the
# driver holds this and later changes to. The wall-clock metrics are not
# among them: on the shared VM this was written on, identical code measured
# twenty minutes apart differs by 20-30 % and ten consecutive runs spread
# by 8-31 % (README, "Noise"), wider than the widest bound the manifest
# allows, so a gate on them would reject changes at random. They are
# printed by run.py, judged by --compare (verdict "unresolved" when the
# spread is wider than the bound) and listed per-layer, without a bound.
TIMES: List[Tuple[str, str, str, float]] = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
]
GATED: List[Tuple[str, str, str, float]] = [
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]
BOUNDS = {name: (better, bound) for name, _unit, better, bound in TIMES + GATED}

# (name, unit, better, derivation): the derivation is
#   ("self", span)       self seconds of the span name(s)
#   ("total", span)      inclusive seconds (phases that *are* their children)
#   ("calls", span)      number of spans
#   ("count", key)       a count taken by a wrapper at the layer boundary
#   ("fact", key)        a count read from public engine state
#   ("extra", key)       set-up, probes and harness health (see child.py)
PER_LAYER: List[Tuple[str, str, str, Tuple[str, str]]] = [
    ("wall_s", "s", "lower", ("extra", "wall_s")),
    ("cpu_s", "s", "lower", ("extra", "cpu_s")),
    ("records_per_s", "1/s", "higher", ("extra", "records_per_s")),
    ("sim_s", "sim_s", "lower", ("extra", "sim_s")),
    ("sim_shuffle_gb", "GB", "lower", ("extra", "sim_shuffle_gb")),
    ("chopper.sim_improvement_pct", "%", "higher", ("fact", "improvement_pct")),
    ("workloads.datagen.self_s", "s", "lower", ("self", "workloads.datagen")),
    ("workloads.datagen.records", "count", "lower", ("count", "datagen.records")),
    ("workloads.datagen.cold_s", "s", "lower", ("extra", "datagen_cold_s")),
    ("engine.executor.task_self_s", "s", "lower", ("self", "engine.executor")),
    ("engine.executor.tasks", "count", "lower", ("calls", "engine.executor")),
    ("engine.partitioner.partition_many_s", "s", "lower",
     ("self", "engine.partitioner.partition_many")),
    ("engine.partitioner.keys", "count", "lower", ("count", "partitioner.keys")),
    ("engine.partitioner.range_sample_s", "s", "lower",
     ("total", "engine.partitioner.range_sample")),
    ("common.sizing.self_s", "s", "lower", ("self", "common.sizing")),
    ("common.sizing.calls", "count", "lower", ("calls", "common.sizing")),
    ("engine.shuffle.write_s", "s", "lower", ("self", "engine.shuffle.write")),
    ("engine.shuffle.fetch_s", "s", "lower", ("self", "engine.shuffle.fetch")),
    ("engine.shuffle.blocks_written", "count", "lower",
     ("count", "shuffle.blocks_written")),
    ("engine.shuffle.fetches", "count", "lower", ("calls", "engine.shuffle.fetch")),
    ("engine.shuffle.bytes_virtual", "B", "lower", ("count", "shuffle.bytes_virtual")),
    ("engine.combine.fold_s", "s", "lower", ("self", "engine.combine")),
    ("engine.combine.records_in", "count", "lower", ("count", "combine.records_in")),
    ("engine.combine.records_out", "count", "lower", ("count", "combine.records_out")),
    ("engine.storage.put_s", "s", "lower", ("self", "engine.storage.put")),
    ("engine.storage.get_s", "s", "lower", ("self", "engine.storage.get")),
    ("engine.storage.cache_hits", "count", "higher", ("count", "storage.cache_hits")),
    ("engine.storage.cache_misses", "count", "lower",
     ("count", "storage.cache_misses")),
    ("engine.storage.spill_write_s", "s", "lower",
     ("self", "engine.storage.spill_write")),
    ("engine.storage.spill_read_s", "s", "lower",
     ("self", "engine.storage.spill_read")),
    ("engine.storage.spill_events", "count", "lower", ("fact", "spill_events")),
    ("engine.storage.spilled_bytes", "B", "lower", ("fact", "spilled_bytes")),
    ("engine.storage.readbacks", "count", "lower", ("fact", "readbacks")),
    ("engine.storage.readbacks_per_spill", "ratio", "lower",
     ("extra", "readbacks_per_spill")),
    ("simul.engine.loop_self_s", "s", "lower", ("self", "simul.engine")),
    ("simul.engine.events", "count", "lower", ("count", "simul.events")),
    ("engine.task_scheduler.us_per_task", "us", "lower", ("extra", "us_per_task")),
    ("engine.dag_scheduler.self_s", "s", "lower", ("self", "engine.dag_scheduler")),
    ("engine.dag_scheduler.jobs", "count", "lower", ("calls", "engine.dag_scheduler")),
    ("engine.dag_scheduler.stages", "count", "lower", ("count", "stages")),
    ("engine.costmodel.price_s", "s", "lower", ("self", "engine.costmodel")),
    ("relational.rules.optimize_s", "s", "lower", ("self", "relational.rules")),
    ("relational.rules.rule_hits", "count", "higher", ("count", "rules.hits")),
    ("relational.table.lower_self_s", "s", "lower", ("self", "relational.table.lower")),
    ("relational.stats.collect_s", "s", "lower", ("self", "relational.stats")),
    ("relational.cache.lookup_s", "s", "lower", ("self", "relational.cache.lookup")),
    ("relational.cache.flush_s", "s", "lower", ("self", "relational.cache.flush")),
    ("relational.cache.hits", "count", "higher", ("fact", "hits")),
    ("relational.cache.misses", "count", "lower", ("fact", "misses")),
    ("scan.partitions_pruned", "count", "higher", ("fact", "pruned")),
    ("scan.partitions_scanned", "count", "lower", ("count", "source_tasks.orders")),
    ("relational.sim_warm_speedup_range", "ratio", "higher",
     ("fact", "warm_speedup_range")),
    ("chopper.runner.profile_s", "s", "lower", ("total", "chopper.runner.profile")),
    ("chopper.runner.train_s", "s", "lower", ("total", "chopper.runner.train")),
    ("chopper.runner.optimize_s", "s", "lower", ("total", "chopper.runner.optimize")),
    ("chopper.runner.compare_s", "s", "lower", ("total", "chopper.runner.compare")),
    ("chopper.runner.runs", "count", "lower", ("fact", "runs")),
    ("chopper.model.fit_s", "s", "lower", ("self", "chopper.model")),
    ("chopper.global_opt.search_s", "s", "lower", ("self", "chopper.global_opt")),
    ("chopper.advisor.rewrite_s", "s", "lower", ("self", "chopper.advisor")),
    ("chopper.stats.collect_s", "s", "lower", ("self", "chopper.stats")),
    ("chopper.parallel.jobs2_speedup", "ratio", "higher", ("extra", "jobs2_speedup")),
    ("chopper.parallel.dispatch", "count", "higher", ("extra", "jobs2_dispatch")),
    ("engine.shm.roundtrip_mb_per_s", "MB/s", "higher", ("extra", "shm_mb_per_s")),
    ("engine.effects.threads2_speedup", "ratio", "higher",
     ("extra", "threads2_speedup")),
    ("engine.batch.columnar_fused_speedup", "ratio", "higher",
     ("extra", "columnar_fused_speedup")),
    ("engine.adaptive.sim_speedup_skew", "ratio", "higher",
     ("extra", "aqe_sim_speedup")),
    ("engine.adaptive.replan_s", "s", "lower", ("extra", "aqe_replan_s")),
    ("obs.full_telemetry_overhead_pct", "%", "lower",
     ("extra", "telemetry_overhead_pct")),
    ("obs.events_emitted", "count", "lower", ("extra", "telemetry_events")),
    ("obs.trace_spans", "count", "lower", ("extra", "telemetry_spans")),
    ("bench.tracing_overhead_pct", "%", "lower", ("extra", "tracing_overhead_pct")),
    ("bench.layer_coverage_pct", "%", "higher", ("extra", "layer_coverage_pct")),
]


def layer_metrics(
    layers: Mapping[str, Layer],
    counts: Mapping[str, float],
    facts: Mapping[str, float],
    extras: Mapping[str, float],
    iterations: int,
) -> Dict[str, float]:
    """Every ``PER_LAYER`` value, per traced iteration.

    ``layers`` and ``counts`` cover ``iterations`` traced iterations;
    ``facts`` is one iteration's; ``extras`` are taken as they are. A
    metric whose layer the workload never enters reads 0.
    """
    none = Layer(0, 0.0, 0.0)
    extras = dict(extras)
    per_iter = 1.0 / max(1, iterations)
    root = layers.get(ROOT, none)
    if root.total_s > 0:
        extras["layer_coverage_pct"] = 100.0 * (1.0 - root.self_s / root.total_s)
    tasks = counts.get("tasks", 0.0)
    if tasks:
        extras["us_per_task"] = 1e6 * layers.get("simul.engine", none).self_s / tasks
    if facts.get("spill_events"):
        extras["readbacks_per_spill"] = facts["readbacks"] / facts["spill_events"]
    values: Dict[str, float] = {}
    for name, _unit, _better, (kind, key) in PER_LAYER:
        if kind == "self":
            values[name] = layers.get(key, none).self_s * per_iter
        elif kind == "total":
            values[name] = layers.get(key, none).total_s * per_iter
        elif kind == "calls":
            values[name] = layers.get(key, none).calls * per_iter
        elif kind == "count":
            values[name] = counts.get(key, 0.0) * per_iter
        elif kind == "fact":
            values[name] = float(facts.get(key, 0.0))
        else:
            values[name] = float(extras.get(key, 0.0))
    return values


def layer_table(
    layers: Mapping[str, Layer], iterations: int
) -> List[Tuple[str, int, float, float, float]]:
    """(span, calls, self seconds, self share, inclusive share) rows.

    Per traced iteration, shares of the traced wall, largest self first.
    """
    root = layers.get(ROOT)
    wall = root.total_s if root else 0.0
    per_iter = 1.0 / max(1, iterations)
    rows = [
        (name, round(layer.calls * per_iter), layer.self_s * per_iter,
         layer.self_s / wall if wall else 0.0,
         layer.total_s / wall if wall else 0.0)
        for name, layer in layers.items()
    ]
    return sorted(rows, key=lambda row: -row[2])
