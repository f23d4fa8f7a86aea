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

What a run *is* lives in :func:`repro.chopper.runner.measured_run`; this
module only decides where it executes. Run specs carry (workload,
cluster factory, base conf, advisor spec) rather than live objects with
context references; anything unpicklable (a lambda cluster factory, a
custom workload) runs in-process too.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.chopper.runner import RunOutcome, RunSpec, measured_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing

    from repro.engine import shm

# What measured_run returns: the outcome and its telemetry blob, into
# which run_specs stamps a "worker" slot label for pool-dispatched runs.
RunResult = Tuple[RunOutcome, dict]

# Sweeps whose largest run materializes fewer physical records than this
# run inline: pool dispatch overhead dwarfs the work being distributed.
SMALL_RUN_RECORDS = 25_000

# How the last run_specs call dispatched, for tests and diagnostics:
# "serial" (one worker), "inline-small", "inline-cores",
# "inline-unpicklable", "pool", or "pool-heterogeneous"; "+recovered" is
# appended when a broken pool made the remainder run inline.
last_dispatch: str = ""


def worker_run(spec: RunSpec) -> RunResult:
    """:func:`measured_run` as a pool worker executes it.

    The worker's context runs fully serial (``physical_parallelism=1``)
    — the processes are the parallelism, and a forked worker must not
    submit to the driver's thread pool — which changes nothing:
    simulated results are proven identical across physical parallelism
    levels. The closed context stays behind: contexts hold live closures
    and never cross the process boundary.
    """
    outcome, blob = measured_run(
        spec._replace(conf=replace(spec.conf, physical_parallelism=1))
    )
    outcome.ctx = None
    return outcome, blob


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
    variations)``: ``header`` is the ``(workload, cluster_factory,
    base_conf)`` triple every spec of the sweep shares, packed once per
    chunk instead of once per spec, and each variation is an
    ``(advisor_spec, scale, label, sinks)`` tail. The results of the
    whole chunk come back as one shared segment (created under the
    driver-chosen ``out_name``), so a chunk of N runs costs one segment
    round trip, not N pipe payloads.
    """
    # The shared-memory data plane: only a pooled sweep uses it.
    from repro.engine import shm

    payload, out_name = task
    decoded = shm.decode_shared(payload)
    try:
        header, variations = decoded.obj
        results = [worker_run(RunSpec(*header, *tail)) for tail in variations]
    finally:
        decoded.close()
    return shm.encode_shared(results, name=out_name)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method when the platform offers it, else None.

    Forked workers inherit the driver's memoized datagen micro-blocks
    (copy-on-write), so running the first spec inline on the driver
    pre-warms every worker's block cache for free.
    """
    # Process start methods: only a sweep that takes the pool asks.
    import multiprocessing

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
    """Stamp the worker slot into a shipped telemetry blob.

    Slots are deterministic (chunk index / round-robin position), so
    repeated sweeps produce byte-identical worker-labeled series even
    though OS scheduling of the actual processes is not deterministic.
    """
    res[1]["worker"] = worker
    return res


def run_specs(specs: Iterable[RunSpec], jobs: int) -> Iterator[RunResult]:
    """Run measured-run specs on up to ``jobs`` processes, in spec order.

    One worker (``jobs=1``, or a single spec) is the serial loop: a
    generator that asks for each spec only when the run before it has
    been handed over, so the caller folds that run before the next one
    builds its context. Small sweeps, single-core hosts and unpicklable
    specs (see :func:`_inline_reason`) take the same loop, and a pool
    that breaks mid-flight (a killed worker) is swept clean and the
    unfinished specs re-run inline — the results are byte-identical in
    every case because each run is the same :func:`measured_run`.
    """
    global last_dispatch
    reason: Optional[str] = "serial"
    if jobs > 1:
        specs = list(specs)  # a pool is handed the whole list up front
        if len(specs) > 1:
            reason = _inline_reason(specs)
            if reason is None and not picklable(specs):
                reason = "inline-unpicklable"
    if reason is None:
        yield from _pool_specs(specs, min(jobs, len(specs)))
        return
    last_dispatch = reason
    for spec in specs:
        yield measured_run(spec)


def _pool_specs(specs: Sequence[RunSpec], workers: int) -> List[RunResult]:
    """Fan ``specs`` over a process pool; results in spec order.

    Sweeps (every spec sharing one ``(workload, cluster_factory,
    base_conf)`` header) use the shared-memory chunked protocol: the
    driver runs the first spec inline — warming the datagen block cache
    that forked workers then inherit — and parks the rest as round-robin
    chunks in shared segments, header packed once per chunk. Workers
    return their chunk's results through driver-named segments, which
    the driver copies out and unlinks. Heterogeneous spec lists fall
    back to one-task-per-spec ``pool.map``.
    """
    global last_dispatch
    # The process pool and its shared-memory data plane: only a pooled sweep.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    from repro.engine import shm

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
                    for i, res in enumerate(pool.map(worker_run, specs))
                ]
        except BrokenProcessPool:
            last_dispatch += "+recovered"
            # Inline re-runs happen on the driver, so no worker label.
            return [measured_run(spec) for spec in specs]
    results: List[Optional[RunResult]] = [None] * len(specs)
    # Inline: pre-warms the block cache; runs on the driver (no label).
    results[0] = measured_run(head)
    rest = list(range(1, len(specs)))
    workers = min(workers, len(rest))
    chunks = [rest[i::workers] for i in range(workers)]
    header = tuple(head[:3])
    last_dispatch = "pool"
    out_names = [shm.next_name(f"out{i}-") for i in range(len(chunks))]
    try:
        tasks = [
            (
                shm.encode_shared(
                    (header, [tuple(specs[j][3:]) for j in chunk])
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
                    results[j] = measured_run(specs[j])
    finally:
        # Sweep every segment this fan-out may have created: the chunk
        # segments the driver owns, and any result segment a worker
        # parked before dying (driver-chosen names, so no reply needed).
        shm.cleanup_segments()
        for name in out_names:
            shm.unlink_ref(name)
    return results  # type: ignore[return-value]
