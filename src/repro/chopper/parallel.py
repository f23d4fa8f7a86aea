"""Process-pool fan-out for independent measured runs.

The profiling sweep (and ``compare``'s head-to-head pair) is a set of
completely independent simulations: each ``(scale, kind, P)`` test run
builds its own :class:`~repro.engine.context.AnalyticsContext` and never
reads another run's state. That makes them safe to farm out to worker
*processes* — each worker replays one measured run exactly as the serial
loop would have, returns the picklable :class:`RunRecord`, and the
driver merges the records into the workload DB **in the serial loop's
order**, so the DB contents (and every downstream model/optimizer
decision) are bit-identical to a serial sweep.

Payloads cross the process boundary through the zero-copy shared-memory
data plane (:mod:`repro.engine.shm`): the driver packs each chunk's
pickle stream and ndarray buffers into one segment and ships only the
segment name plus byte spans; workers attach and read the buffers in
place, then park their result chunk in a segment of their own (named by
the driver up front, so crashed workers cannot leak them).

Pool dispatch is not free — fork + segment setup + result merge costs
tens of milliseconds per chunk — so :func:`run_specs` falls back to the
in-process serial loop when it cannot win: single-core hosts, and sweeps
whose physical record batches are below :data:`SMALL_RUN_RECORDS`
(the ``procs4`` regression case). The fallback is byte-identical by
construction: it *is* the serial loop.

Run specs carry (workload, cluster factory, base conf, advisor spec)
rather than live objects with context references; advisors are rebuilt
worker-side from their constructor arguments. Anything unpicklable (a
lambda cluster factory, a custom workload) makes the caller fall back to
the serial path.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from functools import partial
from typing import Any, List, Optional, Sequence, Tuple

from repro.chopper.advisor import ChopperAdvisor, ProfilingAdvisor
from repro.chopper.stats import RunRecord, StatisticsCollector
from repro.engine import shm

# (workload, cluster_factory, base_conf, advisor_spec, scale, label,
#  copartition) where advisor_spec is None | ("profiling", kind, P) |
#  ("config", WorkloadConfig).
RunSpec = Tuple[Any, Any, Any, Optional[tuple], float, str, bool]

# (want metrics, want logs, want profile) — which telemetry each worker
# run should collect and ship back; None collects nothing.
Telemetry = Optional[Tuple[bool, bool, bool]]

# What measure_one returns: the telemetry blob is None unless requested,
# else {"metrics": registry dump, "logs": records, "profile": rollup}
# (each key present only when its flag was set), plus a "worker" slot
# label stamped in by run_specs for pool-dispatched runs.
RunResult = Tuple[str, RunRecord, Any, Optional[dict]]

# Sweeps whose largest run materializes fewer physical records than this
# run inline: pool dispatch overhead dwarfs the work being distributed.
SMALL_RUN_RECORDS = 25_000

# How the last run_specs call dispatched, for tests and diagnostics:
# "serial" (trivial), "inline-small", "inline-cores", "pool", or
# "pool-heterogeneous"; "+recovered" is appended when a broken pool made
# the remainder run inline.
last_dispatch: str = ""


def measure_one(spec: RunSpec, telemetry: Telemetry = None) -> RunResult:
    """Worker-side measured run (mirrors ChopperRunner._measured_run).

    Module-level so it pickles by reference. The worker's context runs
    fully serial (``physical_parallelism=1``) — the processes are the
    parallelism — which changes nothing: simulated results are proven
    identical across physical parallelism levels.

    When ``telemetry`` asks for it, the run meters into a fresh
    per-run registry / event log / profiler — exactly what the driver's
    serial loop does — and ships the picklable state back for the
    driver-side merge.
    """
    from repro.engine.context import AnalyticsContext

    (workload, cluster_factory, base_conf, advisor_spec, scale, label,
     copartition) = spec
    if advisor_spec is None:
        advisor = None
    elif advisor_spec[0] == "profiling":
        advisor = ProfilingAdvisor(
            advisor_spec[1], advisor_spec[2], override_fixed=True
        )
    else:
        advisor = ChopperAdvisor(advisor_spec[1])
    conf = replace(
        base_conf, copartition_scheduling=copartition, physical_parallelism=1
    )
    want_metrics, want_log, want_profile = telemetry or (False, False, False)
    run_registry = event_log = profiler = None
    if want_metrics or want_log or want_profile:
        from repro.obs import EventLog, MetricsRegistry, ResourceProfiler

        if want_metrics:
            run_registry = MetricsRegistry()
        if want_log:
            event_log = EventLog()
        if want_profile:
            profiler = ResourceProfiler()
            profiler.start()
    ctx = AnalyticsContext(
        cluster_factory(), conf,
        metrics_registry=run_registry,
        event_log=event_log,
        profiler=profiler,
    )
    if event_log is not None:
        # Same bind + boundary record as the driver's serial loop, so
        # merged logs differ from a serial sweep only in seq restamping
        # and the added "worker" field.
        event_log.bind(run=label)
        event_log.emit(
            "INFO", "chopper", "measured_run", label=label, scale=scale
        )
    if advisor is not None:
        ctx.set_advisor(advisor)
    collector = StatisticsCollector(workload.name, workload.virtual_bytes(scale))
    with collector.attached(ctx):
        result = workload.run(ctx, scale=scale)
    record = collector.record
    record.total_time = ctx.now
    ctx.close()
    tele: Optional[dict] = None
    if telemetry is not None:
        if profiler is not None:
            profiler.stop()
        tele = {}
        if run_registry is not None:
            tele["metrics"] = run_registry.dump_state()
        if event_log is not None:
            tele["logs"] = list(event_log.records)
        if profiler is not None:
            tele["profile"] = profiler.rollup()
    return label, record, result, tele


def picklable(*objects: Any) -> bool:
    """Can every object cross a process boundary?"""
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def measure_chunk(task: Tuple[shm.SharedPayload, str]) -> shm.SharedPayload:
    """Worker-side chunk runner for the shared-memory protocol.

    ``task`` is (payload handle, result segment name). The handle decodes
    — zero-copy where the chunk carries array buffers — to ``(header,
    variations, telemetry)``: ``header`` is the ``(workload,
    cluster_factory, base_conf)`` triple every spec of the sweep shares,
    packed once per chunk instead of once per spec, each variation is an
    ``(advisor_spec, scale, label, copartition)`` tail, and ``telemetry``
    is the per-run collection request threaded through unchanged. The
    results of the whole chunk come back as one shared segment (created
    under the driver-chosen ``out_name``), so a chunk of N runs costs
    one segment round trip, not N pipe payloads.
    """
    payload, out_name = task
    decoded = shm.decode_shared(payload)
    try:
        header, variations, telemetry = decoded.obj
        results = [
            measure_one(header + tail, telemetry) for tail in variations
        ]
    finally:
        decoded.close()
    return shm.encode_shared(results, name=out_name)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method when the platform offers it, else None.

    Forked workers inherit the driver's memoized datagen micro-blocks
    (copy-on-write), so running the first spec inline on the driver
    pre-warms every worker's block cache for free.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _inline_reason(specs: Sequence[RunSpec]) -> Optional[str]:
    """Why pool dispatch cannot win for this spec list, or None.

    The 0.86x ``procs4`` case: forking workers, round-tripping segments
    and double-running the scheduler loop costs more than the sweep
    itself when the per-run record batches are small — and buys nothing
    at all when the host only has one usable core.
    """
    if _usable_cores() <= 1:
        return "inline-cores"
    largest = 0
    for spec in specs:
        records = getattr(spec[0], "physical_records", None)
        if records is None:
            return None  # unknown size: give the pool the benefit
        largest = max(largest, int(records))
    if largest < SMALL_RUN_RECORDS:
        return "inline-small"
    return None


def _label_worker(res: RunResult, worker: str) -> RunResult:
    """Stamp the worker slot into a shipped telemetry blob (if any).

    Slots are deterministic (chunk index / round-robin position), so
    repeated sweeps produce byte-identical worker-labeled series even
    though OS scheduling of the actual processes is not deterministic.
    """
    if res[3] is not None:
        res[3]["worker"] = worker
    return res


def run_specs(
    specs: Sequence[RunSpec], jobs: int, telemetry: Telemetry = None
) -> List[RunResult]:
    """Run measured-run specs on a process pool; results in spec order.

    Sweeps (every spec sharing one ``(workload, cluster_factory,
    base_conf)`` header) use the shared-memory chunked protocol: the
    driver runs the first spec inline — warming the datagen block cache
    that forked workers then inherit — and parks the rest as round-robin
    chunks in shared segments, header packed once per chunk. Workers
    return their chunk's results through driver-named segments, which
    the driver copies out and unlinks. Heterogeneous spec lists fall
    back to one-task-per-spec ``pool.map``. Either way the returned list
    is in spec order, so callers merge records exactly as the serial
    loop would.

    Small sweeps and single-core hosts skip the pool entirely (see
    :func:`_inline_reason`), and a pool that breaks mid-flight (a killed
    worker) is swept clean and the unfinished specs re-run inline — the
    result is byte-identical in every case because each fallback *is*
    the serial loop.
    """
    global last_dispatch
    workers = max(1, min(jobs, len(specs)))
    if workers == 1 or len(specs) == 1:
        last_dispatch = "serial"
        return [measure_one(spec, telemetry) for spec in specs]
    reason = _inline_reason(specs)
    if reason is not None:
        last_dispatch = reason
        return [measure_one(spec, telemetry) for spec in specs]
    head = specs[0]
    shared = all(
        s[0] is head[0] and s[1] is head[1] and s[2] is head[2] for s in specs
    )
    if not shared:
        last_dispatch = "pool-heterogeneous"
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_fork_context()
            ) as pool:
                return [
                    _label_worker(res, f"w{i % workers}")
                    for i, res in enumerate(
                        pool.map(partial(measure_one, telemetry=telemetry), specs)
                    )
                ]
        except BrokenProcessPool:
            last_dispatch += "+recovered"
            # Inline re-runs happen on the driver, so no worker label.
            return [measure_one(spec, telemetry) for spec in specs]
    results: List[Optional[RunResult]] = [None] * len(specs)
    # Inline: pre-warms the block cache; runs on the driver (no label).
    results[0] = measure_one(head, telemetry)
    rest = list(range(1, len(specs)))
    workers = min(workers, len(rest))
    chunks = [rest[i::workers] for i in range(workers)]
    header = head[:3]
    last_dispatch = "pool"
    out_names = [shm.next_name(f"out{i}-") for i in range(len(chunks))]
    try:
        tasks = [
            (
                shm.encode_shared(
                    (header, [specs[j][3:] for j in chunk], telemetry)
                ),
                out_name,
            )
            for chunk, out_name in zip(chunks, out_names)
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=_fork_context()
            ) as pool:
                for slot, (chunk, out) in enumerate(
                    zip(chunks, pool.map(measure_chunk, tasks))
                ):
                    decoded = shm.decode_shared(out, copy=True)
                    for j, res in zip(chunk, decoded.obj):
                        results[j] = _label_worker(res, f"w{slot}")
                    if out.segment is not None:
                        shm.unlink_ref(out.segment)
        except BrokenProcessPool:
            last_dispatch += "+recovered"
            for j in rest:
                if results[j] is None:
                    results[j] = measure_one(specs[j], telemetry)
    finally:
        # Sweep every segment this fan-out may have created: the chunk
        # segments the driver owns, and any result segment a worker
        # parked before dying (driver-chosen names, so no reply needed).
        shm.cleanup_segments()
        for name in out_names:
            shm.unlink_ref(name)
    return results  # type: ignore[return-value]
