"""Shuffle manager: map-output registry and reduce-side fetch accounting.

Map tasks partition their output by the shuffle dependency's partitioner
and register it here as **one** :class:`MapOutput` each: a container
stably sorted by reduce id plus a sparse bucket index in numpy arrays
(sort-based shuffle: one data file and one index per map task, no object
per (map, reduce) pair). Reduce tasks fetch their partition as slices of
those containers and get back the records plus a :class:`FetchStats`
describing how many bytes were local vs remote per source node — which
the cost model converts into fetch time and the metrics recorder into
network traffic.

Byte accounting uses *virtual* bytes (physical estimate x the writing
RDD's ``size_scale``) plus a per-non-empty-bucket header, so shuffle volume
reproduces the paper's Fig. 4 behaviour: for map-side-combined
aggregations the payload grows linearly with the map partition count.
Every total is a float left fold whose order is simulated behaviour; the
arrays change where the addends live, never the order they are added in.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import FetchFailure, ShuffleError
from repro.engine import effects
from repro.engine.batch import RecordBatch
from repro.engine.storage import SpillableBlock, SpillManager, SpillRef
from repro.obs import Observability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.dependencies import ShuffleDependency

# A records container: a list of (k, v) tuples or a columnar RecordBatch.
Records = Union[List, RecordBatch]


class MapOutput(SpillableBlock):
    """One map task's shuffle output, and the shuffle's spillable unit.

    Buckets the task's records by reduce id (the one map-side kernel):
    ``rids`` is one ``partition_many`` result and ``weights`` the
    per-record byte sizes, both in ``container`` order. The container is
    kept stably sorted by reduce id (uncopied if it already is) and three
    parallel arrays describe its non-empty buckets: ascending reduce ids
    ``rids``, ``len(rids) + 1`` container ``offsets``, per-bucket
    ``payload`` bytes. They are exactly the buckets of a per-record dict
    loop (``partition`` + ``+=``): records in arrival order, weights
    summed by ``np.add.at``'s unbuffered left fold, and ``order`` (how
    bucket bytes fold into the task's write total; None = ascending) the
    dict's insertion order. Registration spends ``order`` and fills in
    that total (``nbytes``) and ``node``. Under a memory budget the
    container may live in the spill file, one frame per bucket, so a
    reduce task reads back only its own bucket.
    """

    __slots__ = ("rids", "offsets", "payload", "order", "dtypes")

    def __init__(
        self, container: Records, rids: Sequence[int], weights: np.ndarray
    ) -> None:
        rid_arr = np.fromiter(rids, dtype=np.int32, count=len(rids))
        n = len(rid_arr)
        sums = np.zeros(int(rid_arr.max()) + 1 if n else 0, dtype=np.float64)
        np.add.at(sums, rid_arr, weights)
        positions = None
        if (rid_arr[1:] < rid_arr[:-1]).any():
            positions = np.argsort(rid_arr, kind="stable")
            rid_arr = rid_arr[positions]
            if isinstance(container, RecordBatch):
                container = container.take(positions)
            else:
                container = [container[i] for i in positions.tolist()]
        super().__init__(container, 0.0, "")
        starts = np.flatnonzero(np.concatenate(([n > 0], rid_arr[1:] != rid_arr[:-1])))
        self.rids = rid_arr[starts]
        self.offsets = np.append(starts, n).astype(np.int32)
        self.payload = sums[self.rids]
        # positions[start] is where a bucket's first record sat in the
        # task's output: ranking those recovers first-occurrence order.
        self.order = None if positions is None else np.argsort(positions[starts])
        self.dtypes = None  # a batch's two column dtypes, when both are arrays
        if isinstance(container, RecordBatch):
            columns = (container.keys, container.values)
            if all(isinstance(c, np.ndarray) for c in columns):
                self.dtypes = tuple(c.dtype for c in columns)

    def __len__(self) -> int:  # the number of non-empty buckets
        return len(self.rids)

    def span(self, start: int, stop: int) -> Tuple[Records, int, int]:
        """Where bucket ``[start, stop)`` lives: the resident container and
        the span itself, or a spilled bucket's frame, read back whole."""
        container = self._records
        if container is None:
            slot = np.searchsorted(self.offsets, start)
            at, end = self.frames[slot : slot + 2].tolist()
            frame = self.spill_source.fetch(SpillRef(at, end - at))
            return frame, 0, len(frame)
        return container, start, stop

    def _spans(self) -> List[Tuple[Records, int, int]]:
        offsets = self.offsets.tolist()
        return [self.span(*bounds) for bounds in zip(offsets, offsets[1:])]

    def _payloads(self) -> List[Records]:
        return [_cut(*span) for span in self._spans()]

    @property
    def records(self) -> Records:
        """Every record in bucket order: the container, or all its frames."""
        container = self._records
        if container is None:
            return _gather(self._spans(), self.dtypes)
        return container


def _cut(container: Records, start: int, stop: int) -> Records:
    """Records ``[start, stop)``: the container itself when it spans it
    whole, else a fresh list or column views."""
    if stop - start == len(container):
        return container
    if isinstance(container, RecordBatch):
        return container.slice(start, stop)
    return container[start:stop]


def _gather(spans: List[Tuple[Records, int, int]], dtypes: Optional[Tuple]) -> Records:
    """Merge one reduce partition's ``(container, start, stop)`` spans in
    map order (one span is served as :func:`_cut` serves it). ``dtypes``
    (see ``_ReduceIndex``): each column joins the spans' raw bytes (the
    speed path: ``np.concatenate`` of slices raised wordcount_shuffle's
    fetch_s from 0.146 to 0.249 s on 2 vCPUs), or concatenates slices
    where widths differ. Without it: one list of tuples, same order."""
    if len(spans) == 1:
        return _cut(*spans[0])
    if dtypes is None or not spans:
        return list(chain.from_iterable(
            c.to_records(a, b) if isinstance(c, RecordBatch) else c[a:b]
            for c, a, b in spans
        ))
    raws = [(batch.raw(), start, stop) for batch, start, stop in spans]
    columns = []
    for j, dtype in enumerate(dtypes):
        if dtype is None:
            cuts = [(c.keys, c.values)[j][a:b] for c, a, b in spans]
            columns.append(np.concatenate(cuts))
        else:
            w = dtype.itemsize
            joined = bytearray().join([raw[j][a * w : b * w] for raw, a, b in raws])
            columns.append(np.frombuffer(joined, dtype))
    return RecordBatch(*columns)


@dataclass
class FetchStats:
    """Accounting for one reduce task's shuffle read."""

    local_bytes: float = 0.0
    remote_bytes_by_src: Dict[str, float] = field(default_factory=dict)
    n_blocks: int = 0

    @property
    def remote_bytes(self) -> float:
        return sum(self.remote_bytes_by_src.values())

    @property
    def total_bytes(self) -> float:
        return self.local_bytes + self.remote_bytes


class _ReduceIndex:
    """Every registered bucket of one shuffle, grouped by reduce id.

    CSR over four parallel ``columns``: the map output a bucket belongs
    to, its ``[start, stop)`` span there, and its bytes (payload + header).
    A reduce id's rows are in map *registration* order, the order
    ``partition_sizes`` and ``map_output_nodes`` have always folded in.
    """

    __slots__ = ("indptr", "columns", "sizes", "dtypes")

    def __init__(
        self, outputs: Dict[int, MapOutput], num_reduces: int, header: float
    ) -> None:
        stored = list(outputs.values())
        none = np.empty(0, np.int32)  # keeps the dtype when nothing is registered
        rids = np.concatenate([none] + [o.rids for o in stored])
        nbytes = np.concatenate([np.empty(0)] + [o.payload for o in stored]) + header
        maps = np.repeat(np.array(list(outputs), np.int32), [len(o) for o in stored])
        starts = np.concatenate([none] + [o.offsets[:-1] for o in stored])
        stops = np.concatenate([none] + [o.offsets[1:] for o in stored])
        self.sizes = np.zeros(num_reduces, dtype=np.float64)
        np.add.at(self.sizes, rids, nbytes)  # a left fold per reduce id
        by_rid = np.argsort(rids, kind="stable")
        self.indptr = np.searchsorted(rids[by_rid], np.arange(num_reduces + 1))
        self.columns = (maps[by_rid], starts[by_rid], stops[by_rid], nbytes[by_rid])
        # Per column, the dtype every bucket shares (None: widths differ)
        # if all are array batches of one kind. Once per shuffle: a check
        # per fetch (hashing ~249 dtypes) costs what the byte join saves.
        self.dtypes: Optional[Tuple] = None
        found = {o.dtypes for o in stored if len(o)}
        if found and None not in found:
            columns = [set(c) for c in zip(*found)]
            if all(len({d.kind for d in c}) == 1 for c in columns):
                self.dtypes = tuple(c.pop() if len(c) == 1 else None for c in columns)

    def rows(self, reduce_id: int) -> Tuple[np.ndarray, ...]:
        """``(maps, starts, stops, nbytes)`` of one reduce partition's
        buckets (none for an id outside the shuffle: no bucket has it)."""
        lo = hi = 0
        if 0 <= reduce_id < len(self.sizes):
            lo, hi = self.indptr[reduce_id : reduce_id + 2].tolist()
        return tuple(column[lo:hi] for column in self.columns)


@dataclass
class _ShuffleState:
    num_maps: int
    num_reduces: int
    # Registered map outputs by map id, in registration order (a replaced
    # output keeps its place, a rebuilt one goes to the end).
    outputs: Dict[int, MapOutput] = field(default_factory=dict)
    bytes_written: float = 0.0
    # Map outputs discarded by a node loss: map_id -> the dead node.
    # Non-empty means fetches must fail until a resubmitted map stage
    # re-registers the lost partitions.
    lost: Dict[int, str] = field(default_factory=dict)
    # Bumped on every output mutation (put / invalidate). Deferred fetches
    # record the value they read and re-validate it at apply time.
    version: int = 0
    # Lazy per-reduce view of ``outputs``; None = stale (rebuilt on use).
    index: Optional[_ReduceIndex] = None
    # Kept so its callback fires when the dependency dies: then no RDD
    # can read the shuffle again, and ``release_dead`` drops it.
    dep: Optional[weakref.ref] = None


class ShuffleManager:
    """Registry of all shuffles of one context."""

    def __init__(
        self,
        block_header: float = 64.0,
        spill: Optional[SpillManager] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self._shuffles: Dict[int, _ShuffleState] = {}
        self.block_header = block_header
        self._spill = spill
        # The context's hub; on its own, a manager reports to a bare one.
        self._obs = obs if obs is not None else Observability()
        # Running count of lost map outputs across all shuffles, so the
        # task scheduler's "is any shuffle degraded?" gate is O(1).
        self._lost_blocks = 0
        # Ids of shuffles whose dependency died, appended by weakref
        # callbacks that hold this list, not the manager (no cycle).
        self._dead: List[int] = []

    def register(
        self,
        shuffle_id: int,
        num_maps: int,
        num_reduces: int,
        dep: Optional["ShuffleDependency"] = None,
    ) -> None:
        """Declare a shuffle's dimensions before its map stage runs.

        Re-registration with identical dimensions is a no-op, so a
        resubmitted map stage (lineage recovery) cannot orphan the
        surviving map outputs. Changing the dimensions of a live shuffle
        is an error — it would silently invalidate every stored block.
        A shuffle registered with its ``dep`` is released by the first
        :meth:`release_dead` after that dependency is garbage.
        """
        state = self._shuffles.get(shuffle_id)
        if state is not None:
            if (state.num_maps, state.num_reduces) == (num_maps, num_reduces):
                return
            raise ShuffleError(
                f"shuffle {shuffle_id} re-registered with different dimensions:"
                f" {state.num_maps}x{state.num_reduces} -> {num_maps}x{num_reduces}"
            )
        state = self._shuffles[shuffle_id] = _ShuffleState(num_maps, num_reduces)
        if dep is not None:
            dead = self._dead
            state.dep = weakref.ref(dep, lambda _ref: dead.append(shuffle_id))
        self._obs.event(
            "shuffle_registered", shuffle=shuffle_id, maps=num_maps, reduces=num_reduces
        )

    def is_registered(self, shuffle_id: int) -> bool:
        return shuffle_id in self._shuffles

    def put_map_output(
        self, shuffle_id: int, map_id: int, node: str, output: MapOutput
    ) -> Optional[float]:
        """Store one map task's output.

        Returns the total bytes written (payload + a header per non-empty
        bucket, folded in ``output.order``), which the caller charges as
        shuffle write — or None from a deferred attempt, whose write (and
        byte count) lands at apply time.
        """
        sink = effects.active()
        if sink is not None:
            sink.ops.append(("shuffle_put", shuffle_id, map_id, node, output))
            return None
        state = self._state(shuffle_id)
        if not 0 <= map_id < state.num_maps:
            raise ShuffleError(
                f"map id {map_id} out of range for shuffle {shuffle_id} "
                f"({state.num_maps} maps)"
            )
        rids = output.rids
        if len(rids) and not 0 <= rids[0] <= rids[-1] < state.num_reduces:
            raise ShuffleError(
                f"reduce id {rids[0] if rids[0] < 0 else rids[-1]} out of range "
                f"for shuffle {shuffle_id} ({state.num_reduces} reduces)"
            )
        nbytes = output.payload + self.block_header
        written = 0.0  # an explicit left fold, in float64
        for size in (nbytes if output.order is None else nbytes[output.order]).tolist():
            written += size
        previous = state.outputs.get(map_id)
        if previous is not None:
            # A re-executed (retried or speculative) map task replaces its
            # output; don't double-count the bytes.
            state.bytes_written -= previous.nbytes
            if self._spill is not None:
                self._spill.forget(previous)
        # Registered: the write total is known, its fold order is spent.
        output.nbytes, output.node, output.order = written, node, None
        state.outputs[map_id] = output
        if self._spill is not None and len(rids):
            self._spill.admit(output, ("shuffle", shuffle_id, map_id))
        state.bytes_written += written
        # A rebuilt output heals the shuffle for this map partition.
        if state.lost.pop(map_id, None) is not None:
            self._lost_blocks -= 1
        state.version += 1
        state.index = None
        if written:
            # Re-executed (retried / speculative) maps physically write
            # again, so the counter honestly includes the duplicate I/O
            # even though the registry replaces the output.
            self._obs.event("map_output_written", node=node, bytes=written)
        return written

    def _index(self, state: _ShuffleState) -> _ReduceIndex:
        index = state.index
        if index is None:
            # One pass, amortized over every reduce task of the stage;
            # racing attempt threads at worst build the same index twice.
            index = state.index = _ReduceIndex(
                state.outputs, state.num_reduces, self.block_header
            )
        return index

    def fetch(
        self, shuffle_id: int, reduce_id: int, dst_node: str
    ) -> Tuple[Records, FetchStats]:
        """Collect all records for ``reduce_id``, with byte accounting.

        A single contributing bucket is returned as served, which for a
        bucket spanning its whole map output is the stored container
        **itself, uncopied** — callers must treat fetched records as
        read-only and copy before mutating (``ShuffledRDD`` does for its
        sorting mode). Several buckets are merged by :func:`_gather`.

        Raises :class:`FetchFailure` when any of the shuffle's map
        outputs were discarded by a node loss — never silently serves a
        partial view of the data.
        """
        state = self._state(shuffle_id)
        sink = effects.active()
        if sink is not None:
            # Record the version this compound read is based on; the
            # apply phase rejects the attempt if the shuffle mutated
            # in between (the attempt then re-executes inline).
            sink.ops.append(("shuffle_read", shuffle_id, state.version))
        if state.lost:
            map_ids = sorted(state.lost)
            raise FetchFailure(shuffle_id, map_ids, state.lost[map_ids[0]])
        if len(state.outputs) < state.num_maps:
            raise ShuffleError(
                f"shuffle {shuffle_id}: fetch before all map outputs ready "
                f"({len(state.outputs)}/{state.num_maps})"
            )
        index = self._index(state)
        maps, starts, stops, nbytes = index.rows(reduce_id)
        # Serve (and account) in ascending map id, whatever order the map
        # tasks registered in.
        rows = np.argsort(maps)
        spans: List[Tuple[Records, int, int]] = []
        stats = FetchStats()
        for map_id, start, stop, size in zip(
            *(column[rows].tolist() for column in (maps, starts, stops, nbytes))
        ):
            output = state.outputs[map_id]
            spans.append(output.span(start, stop))
            if output.node == dst_node:
                stats.local_bytes += size
            else:
                stats.remote_bytes_by_src[output.node] = (
                    stats.remote_bytes_by_src.get(output.node, 0.0) + size
                )
        stats.n_blocks = len(spans)
        records = _gather(spans, index.dtypes)
        # From a worker thread these are buffered, the creation of the
        # labeled series included: it must not exist before the task's
        # apply turn (an invalidated attempt re-executes, and which series
        # a snapshot holds is visible).
        if stats.local_bytes:
            self._obs.event(
                "shuffle_read_local", node=dst_node, bytes=stats.local_bytes
            )
        for src, size in stats.remote_bytes_by_src.items():
            self._obs.event("shuffle_read_remote", src=src, bytes=size)
        return records, stats

    def map_output_nodes(self, shuffle_id: int, reduce_id: int) -> Dict[str, float]:
        """Bytes available per node for one reduce partition (for locality)."""
        state = self._state(shuffle_id)
        maps, _starts, _stops, nbytes = self._index(state).rows(reduce_id)
        by_node: Dict[str, float] = {}
        for map_id, size in zip(maps.tolist(), nbytes.tolist()):
            node = state.outputs[map_id].node
            by_node[node] = by_node.get(node, 0.0) + size
        return by_node

    def invalidate_node(self, node: str) -> Dict[int, List[int]]:
        """Discard every map output produced on ``node`` (executor loss).

        Returns ``{shuffle_id: [lost map ids]}``. The discarded bytes
        leave the registry totals (the physical write already happened
        and stays in the metrics counters); subsequent fetches raise
        :class:`FetchFailure` until a resubmitted map stage rebuilds the
        lost partitions.
        """
        lost: Dict[int, List[int]] = {}
        for shuffle_id, state in self._shuffles.items():
            gone = sorted(m for m, out in state.outputs.items() if out.node == node)
            for map_id in gone:
                output = state.outputs.pop(map_id)
                state.bytes_written -= output.nbytes
                if self._spill is not None:
                    # Spilled outputs go like resident ones: extents
                    # released, later reads recompute via lineage.
                    self._spill.forget(output)
                state.lost[map_id] = node
                self._lost_blocks += 1
            if gone:
                state.version += 1
                state.index = None
                lost[shuffle_id] = gone
        for shuffle_id in sorted(lost):
            self._obs.event(
                "map_outputs_lost",
                shuffle=shuffle_id, node=node, maps=len(lost[shuffle_id]),
            )
        return lost

    def has_lost_blocks(self) -> bool:
        """O(1): is any shuffle currently missing map outputs?"""
        return self._lost_blocks > 0

    def version(self, shuffle_id: int) -> int:
        """Mutation counter of one shuffle (deferred-fetch validation)."""
        return self._state(shuffle_id).version

    def missing_map_ids(self, shuffle_id: int) -> List[int]:
        """Map partitions lost to node failure and not yet rebuilt."""
        return sorted(self._state(shuffle_id).lost)

    def bytes_written(self, shuffle_id: int) -> float:
        return self._state(shuffle_id).bytes_written

    def num_reduces(self, shuffle_id: int) -> int:
        return self._state(shuffle_id).num_reduces

    def partition_sizes(self, shuffle_id: int) -> List[float]:
        """Bytes registered per reduce partition (index = reduce id).

        The data-side view of partition skew: how the map outputs actually
        distributed over the reduce partitions, including empty ones.
        """
        return self._index(self._state(shuffle_id)).sizes.tolist()

    def release_dead(self) -> List[int]:
        """Drop every shuffle whose dependency died; returns their ids.

        Called between jobs, so no fetch or :meth:`invalidate_node` is
        iterating the registry meanwhile.
        """
        released = sorted(self._dead)
        del self._dead[: len(released)]  # callbacks only ever append
        for shuffle_id in released:
            self._drop(self._shuffles.pop(shuffle_id))
        return released

    def clear(self) -> None:
        for state in self._shuffles.values():
            self._drop(state)
        self._shuffles.clear()
        self._dead.clear()

    def _drop(self, state: _ShuffleState) -> None:
        if self._spill is not None:
            for output in state.outputs.values():
                self._spill.forget(output)
        self._lost_blocks -= len(state.lost)

    def _state(self, shuffle_id: int) -> _ShuffleState:
        try:
            return self._shuffles[shuffle_id]
        except KeyError:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered") from None
