"""Real-resource profiling: what a run costs the *host*, not the simulator.

Everything else in ``repro.obs`` is keyed on simulated time. This module
measures the physical side — wall clock vs ``thread_time`` CPU per task
body, ``tracemalloc`` allocation deltas and peaks, and ``gc`` collection
counts with pause timing via ``gc.callbacks`` — the memory-churn /
GC-dominance picture Awan et al. report for in-memory analytics.

Profiles are opt-in (``--profile``) and explicitly
**non-deterministic**: host timings vary run to run, so profile fields are
excluded from every identity comparison (``diff-runs`` thresholds, ledger
identity hashes). Attaching a profiler must never change simulated
results; probes only read clocks and allocator statistics.

Under threaded task execution (``physical_parallelism > 1``)
``thread_time`` stays per-task-accurate (it is per-thread CPU time), but
``tracemalloc`` statistics are process-global, so per-task allocation
deltas and peaks are attributions, not isolates — documented in
``docs/observability.md``.
"""

from __future__ import annotations

import gc
import threading
import time
import tracemalloc
from typing import Dict, Optional


class _TaskProbe:
    """Context manager bracketing one task body's host cost."""

    __slots__ = ("_profiler", "_stage", "_wall0", "_cpu0", "_alloc0")

    def __init__(self, profiler: "ResourceProfiler", stage: str) -> None:
        self._profiler = profiler
        self._stage = stage

    def __enter__(self) -> "_TaskProbe":
        self._alloc0 = tracemalloc.get_traced_memory()[0]
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._wall0
        cpu = time.thread_time() - self._cpu0
        current, peak = tracemalloc.get_traced_memory()
        alloc = current - self._alloc0
        self._profiler._record_task(self._stage, wall, cpu, alloc, peak)


class _NullProbe:
    """Stand-in when no profiler is attached; costs two no-op calls."""

    __slots__ = ()

    def __enter__(self) -> "_NullProbe":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_PROBE = _NullProbe()


class ResourceProfiler:
    """Sweep-scoped collector of host-resource samples.

    Lifecycle: ``start()`` once before the measured work (enables
    ``tracemalloc``, hooks ``gc.callbacks``, marks clocks), bracket task
    bodies with ``task_probe(stage)``, ``stop()`` after, then ``rollup()``
    for a JSON-ready summary aggregated per stage. Aggregation is
    lock-guarded because task bodies may run on pool threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: Dict[str, Dict[str, float]] = {}
        self._gc_collections = 0
        self._gc_pause_s = 0.0
        self._gc_max_pause_s = 0.0
        self._gc_t0: Optional[float] = None
        self._wall0: Optional[float] = None
        self._cpu0: Optional[float] = None
        self._wall_s = 0.0
        self._cpu_s = 0.0
        self._peak_bytes = 0
        self._running = False
        self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        gc.callbacks.append(self._on_gc)
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._wall_s += time.perf_counter() - (self._wall0 or 0.0)
        self._cpu_s += time.process_time() - (self._cpu0 or 0.0)
        self._peak_bytes = max(
            self._peak_bytes, tracemalloc.get_traced_memory()[1]
        )
        try:
            gc.callbacks.remove(self._on_gc)
        except ValueError:
            pass
        if self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def task_probe(self, stage: str):
        """A context manager timing one task body, attributed to ``stage``."""
        if not self._running:
            return NULL_PROBE
        return _TaskProbe(self, stage)

    def _record_task(
        self, stage: str, wall: float, cpu: float, alloc: int, peak: int
    ) -> None:
        with self._lock:
            agg = self._stages.get(stage)
            if agg is None:
                agg = self._stages[stage] = {
                    "tasks": 0,
                    "wall_s": 0.0,
                    "cpu_s": 0.0,
                    "alloc_bytes": 0,
                    "peak_bytes": 0,
                    "max_task_wall_s": 0.0,
                }
            agg["tasks"] += 1
            agg["wall_s"] += wall
            agg["cpu_s"] += cpu
            if alloc > 0:
                agg["alloc_bytes"] += alloc
            agg["peak_bytes"] = max(agg["peak_bytes"], peak)
            agg["max_task_wall_s"] = max(agg["max_task_wall_s"], wall)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        elif phase == "stop":
            if self._gc_t0 is not None:
                pause = time.perf_counter() - self._gc_t0
                self._gc_t0 = None
                with self._lock:
                    self._gc_collections += 1
                    self._gc_pause_s += pause
                    self._gc_max_pause_s = max(self._gc_max_pause_s, pause)

    # ------------------------------------------------------------------
    # Aggregation / merge
    # ------------------------------------------------------------------

    def merge(self, rolled: dict) -> None:
        """Fold another profiler's :meth:`rollup` (a pool worker's) in."""
        with self._lock:
            for stage, incoming in rolled.get("stages", {}).items():
                agg = self._stages.get(stage)
                if agg is None:
                    agg = self._stages[stage] = {
                        "tasks": 0,
                        "wall_s": 0.0,
                        "cpu_s": 0.0,
                        "alloc_bytes": 0,
                        "peak_bytes": 0,
                        "max_task_wall_s": 0.0,
                    }
                agg["tasks"] += incoming.get("tasks", 0)
                agg["wall_s"] += incoming.get("wall_s", 0.0)
                agg["cpu_s"] += incoming.get("cpu_s", 0.0)
                agg["alloc_bytes"] += incoming.get("alloc_bytes", 0)
                agg["peak_bytes"] = max(
                    agg["peak_bytes"], incoming.get("peak_bytes", 0)
                )
                agg["max_task_wall_s"] = max(
                    agg["max_task_wall_s"], incoming.get("max_task_wall_s", 0.0)
                )
            host = rolled.get("host", {})
            self._wall_s += host.get("wall_s", 0.0)
            self._cpu_s += host.get("cpu_s", 0.0)
            self._peak_bytes = max(
                self._peak_bytes, host.get("tracemalloc_peak_bytes", 0)
            )
            gc_part = host.get("gc", {})
            self._gc_collections += gc_part.get("collections", 0)
            self._gc_pause_s += gc_part.get("pause_s", 0.0)
            self._gc_max_pause_s = max(
                self._gc_max_pause_s, gc_part.get("max_pause_s", 0.0)
            )

    def rollup(self) -> dict:
        """A JSON-ready summary: per-stage aggregates plus host totals."""
        with self._lock:
            stages = {
                stage: {
                    "tasks": agg["tasks"],
                    "wall_s": agg["wall_s"],
                    "cpu_s": agg["cpu_s"],
                    "alloc_bytes": agg["alloc_bytes"],
                    "peak_bytes": agg["peak_bytes"],
                    "max_task_wall_s": agg["max_task_wall_s"],
                }
                for stage, agg in sorted(self._stages.items())
            }
            wall = self._wall_s
            cpu = self._cpu_s
            if self._running:
                wall += time.perf_counter() - (self._wall0 or 0.0)
                cpu += time.process_time() - (self._cpu0 or 0.0)
            peak = self._peak_bytes
            if tracemalloc.is_tracing():
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            return {
                "stages": stages,
                "host": {
                    "wall_s": wall,
                    "cpu_s": cpu,
                    "tracemalloc_peak_bytes": peak,
                    "gc": {
                        "collections": self._gc_collections,
                        "pause_s": self._gc_pause_s,
                        "max_pause_s": self._gc_max_pause_s,
                    },
                },
            }
