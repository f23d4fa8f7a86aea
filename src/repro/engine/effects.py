"""Deferred task side effects: the heart of deterministic task parallelism.

With ``EngineConf.physical_parallelism > 1`` the task scheduler executes
the bodies of concurrently-granted attempts on a thread pool. Running
task code concurrently is only sound if it cannot race on shared engine
state — so while a worker thread runs, every touch of shared state
(block-store reads/writes, shuffle fetches/puts, reported facts) is
*recorded* into the attempt's :class:`TaskEffects` instead of being
performed. The scheduler then **applies** each
attempt's effects on the driver thread in grant order — the exact order
serial execution would have produced — after validating that nothing
the thread read has changed underneath it. Invalid (or failed) attempts
are simply re-executed inline at their serial position, so the fallback
is always the bit-exact serial semantics.

The active sink is thread-local: worker threads see their own
:class:`TaskEffects`, the driver thread sees none and mutates state
directly (the unchanged serial path).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ThreadPoolExecutor

# Op tags recorded in TaskEffects.ops, replayed in order at apply time:
#   ("cache_get", key, block)        - validated: the key still maps to
#                                      the identical block (or None);
#                                      replayed as an LRU touch.
#   ("cache_get_own", key)           - read of the task's own deferred
#                                      put; replayed as an LRU touch.
#   ("cache_put", key, records, nbytes, node)
#   ("shuffle_read", shuffle_id, version)
#                                    - validated: the shuffle's version
#                                      counter is unchanged.
#   ("shuffle_put", shuffle_id, map_id, node, output)
#                                    - replayed via put_map_output; the
#                                      returned byte count feeds the
#                                      task's shuffle-write note.
#   ("zone_map", key, split, stats)  - zone-map statistics of one scanned
#                                      partition; replayed as a put into
#                                      ctx.zone_maps (idempotent: stats
#                                      are a pure function of the split).
#   ("event", name, fields)          - a fact the body reported through
#                                      ctx.obs.event; replayed as that
#                                      call, so series, spans and records
#                                      are touched in serial order.


class TaskEffects:
    """Recorded shared-state interactions of one deferred task attempt."""

    def __init__(self) -> None:
        self.ops: List[Tuple[Any, ...]] = []
        # Own deferred cache puts, visible to this task's later reads.
        self.cache_writes: Dict[Tuple[int, int], Any] = {}
        self.tctx: Any = None
        self.result: Any = None
        self.exception: Optional[BaseException] = None


class _Local(threading.local):
    # A class-level default: a thread that never activated a sink reads it
    # at attribute speed (a missing attribute costs a raised exception,
    # and every reported fact and store access asks).
    sink: Optional[TaskEffects] = None


_local = _Local()


def active() -> Optional[TaskEffects]:
    """The sink of the current thread, or None on the driver thread."""
    return _local.sink


def activate(effects: TaskEffects) -> None:
    _local.sink = effects


def deactivate() -> None:
    _local.sink = None


# One process-wide worker pool, shared by every context so that sweep
# drivers creating thousands of short-lived contexts don't churn
# threads. Grown (never shrunk) to the largest parallelism requested.
_pool: Optional[ThreadPoolExecutor] = None
_pool_size = 0


def worker_pool(workers: int) -> ThreadPoolExecutor:
    global _pool, _pool_size
    if _pool is None or _pool_size < workers:
        # The thread pool (it imports logging): physical_parallelism > 1 only.
        from concurrent.futures import ThreadPoolExecutor

        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-task"
        )
        _pool_size = workers
    return _pool
