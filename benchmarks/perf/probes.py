"""Probes: one paired run each, for the modes the timed phase leaves off.

None of these feed a gated metric (timed iterations are serial, list
format, telemetry off). They are the evidence later changes need to keep
or delete a mode, so each records which path actually ran and fails the
run if the mode it claims to measure never engaged or changed the output.
Each probe returns ``(extras, errors)``.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Dict, List, Tuple

from repro.chopper import ChopperRunner
from repro.chopper import parallel
from repro.chopper.workload_db import WorkloadDB
from repro.cluster.cluster import paper_cluster
from repro.engine import shm
from repro.engine.batch import RecordBatch
from repro.engine.context import AnalyticsContext, EngineConf
from repro.obs import EventLog, MetricsRegistry, ResourceProfiler, Tracer
from repro.workloads import ShuffleWordCountWorkload

import tracing
from workloads import KINDS, ChopperTune, KMeansIter, WordCountShuffle

Probe = Tuple[Dict[str, float], List[str]]

# Zipf-skewed shuffle at P far above the cluster's 112 cores: the static
# plan pays 2000 reduce-task overheads, AQE coalesces them.
AQE = dict(skew=1.9, parallelism=2000, scale=0.25, physical_records=20_000)
AQE_SMOKE = dict(skew=1.9, parallelism=400, scale=0.25, physical_records=2_000)
SHM_ROWS = 100_000


def _timed(fn: Callable):
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def wordcount_probes(bench: WordCountShuffle, digest: str, smoke: bool) -> Probe:
    extras: Dict[str, float] = {}
    errors: List[str] = []
    modes = {
        "threads2_speedup": EngineConf(physical_parallelism=2),
        "columnar_fused_speedup": EngineConf(
            record_format="columnar", operator_fusion=True
        ),
    }
    for key, conf in modes.items():
        # Each mode is paired with a default-mode run right before it.
        baseline = bench.iterate().wall_s
        payload, seconds = _timed(lambda: bench._run(conf))
        outcome = bench._check(payload)
        extras[key] = baseline / seconds
        if outcome.errors or outcome.digest != digest:
            errors.append(f"{key}: output differs from the default mode")

    sizes = AQE_SMOKE if smoke else AQE
    workload = ShuffleWordCountWorkload(
        physical_records=sizes["physical_records"], skew=sizes["skew"],
        seed=bench.seed,
    )
    sim: Dict[bool, float] = {}
    values = {}
    tracer = tracing.SpanTracer()
    replan = [t for t in tracing.TARGETS if t[0] == "engine.adaptive.replan"]
    for aqe in (False, True):
        ctx = AnalyticsContext(
            paper_cluster(),
            EngineConf(
                default_parallelism=sizes["parallelism"], adaptive_execution=aqe
            ),
        )
        patches = tracing.install(tracer, replan) if aqe else []
        try:
            values[aqe] = workload.run(ctx, scale=sizes["scale"]).value
            sim[aqe] = ctx.now
            adapted = sum(
                1 for s in ctx.stage_stats if s.adapted_num_partitions is not None
            )
        finally:
            tracing.uninstall(patches)
            ctx.close()
    layers = tracing.aggregate(tracer.spans)
    extras["aqe_sim_speedup"] = sim[False] / sim[True]
    extras["aqe_replan_s"] = sum(layer.total_s for layer in layers.values())
    if values[False] != values[True]:
        errors.append("aqe: output differs with adaptive execution on")
    if not adapted:
        errors.append("aqe: no stage was re-planned")
    return extras, errors


def kmeans_probes(bench: KMeansIter, digest: str, smoke: bool) -> Probe:
    """Every telemetry surface attached at once, against none."""
    log, tracer = EventLog(), Tracer()
    profiler = ResourceProfiler()

    def run():
        profiler.start()
        ctx = AnalyticsContext(
            paper_cluster(), bench.conf(),
            metrics_registry=MetricsRegistry(), event_log=log, profiler=profiler,
        )
        ctx.obs.set_tracer(tracer)
        try:
            return bench.workload.run(ctx)
        finally:
            ctx.close()
            profiler.stop()

    baseline = bench.iterate().wall_s
    result, seconds = _timed(run)
    extras = {
        "telemetry_overhead_pct": 100.0 * (seconds / baseline - 1.0),
        "telemetry_events": float(len(log.records)),
        "telemetry_spans": float(len(tracer.events)),
    }
    errors = []
    if bench._digest(result) != digest:
        errors.append("telemetry: output differs with telemetry attached")
    if not log.records or not tracer.events:
        errors.append("telemetry: a surface recorded nothing")
    return extras, errors


def chopper_probes(bench: ChopperTune, digest: str, smoke: bool) -> Probe:
    """``profile(jobs=2)`` against ``jobs=1`` on the smallest grid, and the
    shared-memory transport the pool would use."""
    grid = bench.p_grid[:1]

    def sweep(jobs: int):
        runner = ChopperRunner(bench.workload, db=WorkloadDB())
        runner.profile(p_grid=grid, kinds=KINDS, scales=bench.scales, jobs=jobs)
        return runner.db.observations(bench.workload.name)

    serial, serial_s = _timed(lambda: sweep(1))
    pooled, pooled_s = _timed(lambda: sweep(2))
    # Which path ran: the pool declines small sweeps and 1-core hosts.
    dispatch = parallel.last_dispatch
    extras = {
        "jobs2_speedup": serial_s / pooled_s,
        "jobs2_dispatch": 1.0 if dispatch.startswith("pool") else 0.0,
    }
    errors = []
    if serial != pooled:
        errors.append("jobs2: the sweep's observations differ from jobs=1")
    if not dispatch:
        errors.append("jobs2: run_specs never dispatched")

    rows = 2_000 if smoke else SHM_ROWS
    batch = RecordBatch.from_records([(i, float(i)) for i in range(rows)])
    nbytes = batch.keys.nbytes + batch.values.nbytes

    def roundtrip():
        payload = shm.encode_shared(batch)
        try:
            return shm.decode_shared(payload, copy=True).obj
        finally:
            if payload.segment is not None:
                shm.unlink_ref(payload.segment)

    copy, seconds = _timed(roundtrip)
    extras["shm_mb_per_s"] = nbytes / 1e6 / seconds
    if copy.to_records() != batch.to_records():
        errors.append("shm: round trip changed the batch")
    return extras, errors


PROBES = {
    "wordcount_shuffle": wordcount_probes,
    "kmeans_iter": kmeans_probes,
    "chopper_tune": chopper_probes,
}
