"""Shuffle manager: map-output registry and reduce-side fetch accounting.

Map tasks partition their output by the shuffle dependency's partitioner
and register per-reduce blocks here (records + virtual bytes + the node
that produced them). Reduce tasks fetch all blocks for their partition and
get back the records plus a :class:`FetchStats` describing how many bytes
were local vs remote per source node — which the cost model converts into
fetch time and the metrics recorder into network traffic.

Byte accounting uses *virtual* bytes (physical estimate x the writing
RDD's ``size_scale``) plus a per-non-empty-block header, so shuffle volume
reproduces the paper's Fig. 4 behaviour: for map-side-combined
aggregations the payload grows linearly with the map partition count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.common.errors import FetchFailure, ShuffleError
from repro.engine import effects
from repro.engine.batch import RecordBatch
from repro.engine.storage import SpillableBlock, SpillManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry

# A block payload: a list of (k, v) tuples or a columnar RecordBatch.
Records = Union[List, RecordBatch]


class ShuffleBlock(SpillableBlock):
    """One (map partition, reduce partition) output block.

    With a memory budget configured, the payload may physically live in
    the spill file; ``.records`` reads it back transparently and every
    virtual byte total is unaffected (see :mod:`repro.engine.storage`).
    """


def _gather(contributing: List[Records]) -> Records:
    """Merge the non-empty blocks of one reduce partition, in map order.

    One block returns the registered container itself (zero copy); a mix
    of batches and lists — possible when one map task's bucket resisted
    columnarization — degrades to a concatenated list, preserving the
    exact record order of the all-list path.
    """
    if not contributing:
        return []
    if len(contributing) == 1:
        return contributing[0]
    if all(isinstance(c, RecordBatch) for c in contributing):
        return RecordBatch.concat(contributing)
    out: List = []
    for c in contributing:
        out.extend(c.to_records() if isinstance(c, RecordBatch) else c)
    return out


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


@dataclass
class _ShuffleState:
    num_maps: int
    num_reduces: int
    # blocks[map_id][reduce_id] -> ShuffleBlock (only non-empty stored)
    blocks: Dict[int, Dict[int, ShuffleBlock]] = field(default_factory=dict)
    bytes_written: float = 0.0
    # Node that produced each registered map output (one per map task).
    map_nodes: Dict[int, str] = field(default_factory=dict)
    # Map outputs discarded by a node loss: map_id -> the dead node.
    # Non-empty means fetches must fail until a resubmitted map stage
    # re-registers the lost partitions.
    lost: Dict[int, str] = field(default_factory=dict)
    # Bumped on every block mutation (put / invalidate). Deferred fetches
    # record the value they read and re-validate it at apply time.
    version: int = 0
    # Lazy locality index: reduce_id -> {node: bytes}. None = stale,
    # rebuilt in one pass on the next map_output_nodes call.
    reduce_index: Optional[Dict[int, Dict[str, float]]] = None


class ShuffleManager:
    """Registry of all shuffles of one context."""

    def __init__(
        self,
        block_header: float = 64.0,
        metrics: Optional["MetricsRegistry"] = None,
        spill: Optional[SpillManager] = None,
        obs: Optional[Any] = None,
    ) -> None:
        self._shuffles: Dict[int, _ShuffleState] = {}
        self.block_header = block_header
        self._metrics = metrics
        self._spill = spill
        # Observability hub for structured logging; register() and
        # invalidate_node() are driver-serial call sites, so their log
        # records are deterministic.
        self._obs = obs
        # Running count of lost map outputs across all shuffles, so the
        # task scheduler's "is any shuffle degraded?" gate is O(1).
        self._lost_blocks = 0
        if metrics is not None:
            # Unlabeled totals, pre-registered so a snapshot always shows
            # them; per-node/per-source series appear alongside as moved.
            self._local_total = metrics.counter("shuffle.local_bytes")
            self._remote_total = metrics.counter("shuffle.remote_bytes")
            self._write_total = metrics.counter("shuffle.write_bytes")

    def register(self, shuffle_id: int, num_maps: int, num_reduces: int) -> None:
        """Declare a shuffle's dimensions before its map stage runs.

        Re-registration with identical dimensions is a no-op, so a
        resubmitted map stage (lineage recovery) cannot orphan the
        surviving map outputs. Changing the dimensions of a live shuffle
        is an error — it would silently invalidate every stored block.
        """
        state = self._shuffles.get(shuffle_id)
        if state is not None:
            if (state.num_maps, state.num_reduces) == (num_maps, num_reduces):
                return
            raise ShuffleError(
                f"shuffle {shuffle_id} re-registered with different dimensions:"
                f" {state.num_maps}x{state.num_reduces}"
                f" -> {num_maps}x{num_reduces}"
            )
        self._shuffles[shuffle_id] = _ShuffleState(num_maps, num_reduces)
        if self._obs is not None:
            self._obs.log_event(
                "DEBUG", "shuffle", "shuffle_registered",
                shuffle=shuffle_id, maps=num_maps, reduces=num_reduces,
            )

    def is_registered(self, shuffle_id: int) -> bool:
        return shuffle_id in self._shuffles

    def put_map_output(
        self,
        shuffle_id: int,
        map_id: int,
        node: str,
        partitioned: Dict[int, Tuple[Records, float]],
    ) -> Optional[float]:
        """Store one map task's output blocks.

        ``partitioned`` maps reduce partition id -> (records, payload
        bytes). Returns the total bytes written (payload + headers), which
        the caller charges as shuffle write — or None from a deferred
        attempt, whose write (and byte count) lands at apply time.
        """
        sink = effects.active()
        if sink is not None:
            sink.ops.append(("shuffle_put", shuffle_id, map_id, node, partitioned))
            return None
        state = self._state(shuffle_id)
        if not 0 <= map_id < state.num_maps:
            raise ShuffleError(
                f"map id {map_id} out of range for shuffle {shuffle_id} "
                f"({state.num_maps} maps)"
            )
        previous = state.blocks.get(map_id)
        if previous is not None:
            # A re-executed (retried or speculative) map task replaces its
            # output; don't double-count the bytes.
            state.bytes_written -= sum(b.nbytes for b in previous.values())
            if self._spill is not None:
                for b in previous.values():
                    self._spill.forget(b)
        blocks: Dict[int, ShuffleBlock] = {}
        written = 0.0
        for reduce_id, (records, payload) in partitioned.items():
            if not 0 <= reduce_id < state.num_reduces:
                raise ShuffleError(
                    f"reduce id {reduce_id} out of range for shuffle "
                    f"{shuffle_id} ({state.num_reduces} reduces)"
                )
            if not records:
                continue
            nbytes = payload + self.block_header
            block = ShuffleBlock(records=records, nbytes=nbytes, node=node)
            blocks[reduce_id] = block
            written += nbytes
            if self._spill is not None:
                self._spill.admit(block, ("shuffle", shuffle_id, map_id, reduce_id))
        state.blocks[map_id] = blocks
        state.bytes_written += written
        state.map_nodes[map_id] = node
        # A rebuilt output heals the shuffle for this map partition.
        if state.lost.pop(map_id, None) is not None:
            self._lost_blocks -= 1
        state.version += 1
        state.reduce_index = None
        if self._metrics is not None and written:
            # Re-executed (retried / speculative) maps physically write
            # again, so the counter honestly includes the duplicate I/O
            # even though the registry replaces the blocks.
            self._write_total.inc(written)
            self._metrics.counter("shuffle.write_bytes", node=node).inc(written)
        return written

    def fetch(
        self,
        shuffle_id: int,
        reduce_id: int,
        dst_node: str,
        map_range: Optional[Tuple[int, int]] = None,
    ) -> Tuple[Records, FetchStats]:
        """Collect all records for ``reduce_id``, with byte accounting.

        ``map_range`` restricts the fetch to the half-open ``[lo, hi)``
        slice of map outputs (AQE split sub-tasks); the completeness and
        lost-block checks still cover the whole shuffle, so a slice never
        serves a partial view either.

        When exactly one non-empty map block feeds the reduce partition
        (common at small map counts), its records container is returned
        **as-is, without copying** — callers must treat fetched records
        as read-only and copy before mutating (``ShuffledRDD`` already
        does for its sorting mode). Multiple blocks concatenate: list
        blocks by extend, columnar :class:`RecordBatch` blocks by
        column-wise ``np.concatenate``.

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
        if len(state.blocks) < state.num_maps:
            raise ShuffleError(
                f"shuffle {shuffle_id}: fetch before all map outputs ready "
                f"({len(state.blocks)}/{state.num_maps})"
            )
        contributing: List[Records] = []
        stats = FetchStats()
        map_ids = (
            range(state.num_maps)
            if map_range is None
            else range(max(0, map_range[0]), min(state.num_maps, map_range[1]))
        )
        for map_id in map_ids:
            block = state.blocks[map_id].get(reduce_id)
            if block is None:
                continue
            contributing.append(block.records)
            stats.n_blocks += 1
            if block.node == dst_node:
                stats.local_bytes += block.nbytes
            else:
                stats.remote_bytes_by_src[block.node] = (
                    stats.remote_bytes_by_src.get(block.node, 0.0) + block.nbytes
                )
        records = _gather(contributing)
        if self._metrics is not None:
            if sink is not None:
                # Buffer the increments in the serial order — including
                # the lazy creation of labeled counters, which must not
                # happen before the task's apply turn (counter creation
                # order is visible in metric snapshots).
                if stats.local_bytes:
                    sink.ops.append(("counter", self._local_total, stats.local_bytes))
                    sink.ops.append((
                        "metric", "shuffle.local_bytes",
                        (("node", dst_node),), stats.local_bytes,
                    ))
                for src, nbytes in stats.remote_bytes_by_src.items():
                    sink.ops.append(("counter", self._remote_total, nbytes))
                    sink.ops.append((
                        "metric", "shuffle.remote_bytes", (("src", src),), nbytes,
                    ))
            else:
                if stats.local_bytes:
                    self._local_total.inc(stats.local_bytes)
                    self._metrics.counter(
                        "shuffle.local_bytes", node=dst_node
                    ).inc(stats.local_bytes)
                for src, nbytes in stats.remote_bytes_by_src.items():
                    self._remote_total.inc(nbytes)
                    self._metrics.counter("shuffle.remote_bytes", src=src).inc(nbytes)
        return records, stats

    def map_output_nodes(self, shuffle_id: int, reduce_id: int) -> Dict[str, float]:
        """Bytes available per node for one reduce partition (for locality)."""
        state = self._state(shuffle_id)
        index = state.reduce_index
        if index is None:
            # Rebuild the whole per-reduce index in one pass over the
            # blocks, amortized over every reduce task of the stage (the
            # previous code rescanned all maps per call: O(maps x
            # reduces) per *stage submission* became quadratic in
            # reduces). For any one reduce id the nodes are visited in
            # the same map order as the per-call scan, so the float
            # totals are bit-identical.
            index = {}
            for blocks in state.blocks.values():
                for rid, block in blocks.items():
                    by_node = index.get(rid)
                    if by_node is None:
                        index[rid] = by_node = {}
                    by_node[block.node] = by_node.get(block.node, 0.0) + block.nbytes
            state.reduce_index = index
        return dict(index.get(reduce_id, ()))

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
            gone = sorted(
                map_id
                for map_id, host in state.map_nodes.items()
                if host == node
            )
            for map_id in gone:
                blocks = state.blocks.pop(map_id, {})
                state.bytes_written -= sum(b.nbytes for b in blocks.values())
                if self._spill is not None:
                    # A dead node's spilled blocks are dropped exactly
                    # like resident ones: extents released, later reads
                    # recompute via lineage.
                    for b in blocks.values():
                        self._spill.forget(b)
                del state.map_nodes[map_id]
                state.lost[map_id] = node
                self._lost_blocks += 1
            if gone:
                state.version += 1
                state.reduce_index = None
                lost[shuffle_id] = gone
        if lost and self._obs is not None:
            for shuffle_id in sorted(lost):
                self._obs.log_event(
                    "WARNING", "shuffle", "map_outputs_lost",
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
        state = self._state(shuffle_id)
        sizes = [0.0] * state.num_reduces
        for blocks in state.blocks.values():
            for reduce_id, block in blocks.items():
                sizes[reduce_id] += block.nbytes
        return sizes

    def block_sizes(self, shuffle_id: int, reduce_id: int) -> List[float]:
        """Bytes per map output feeding one reduce partition (index = map id).

        The histogram AQE slices a hot partition on: contiguous map
        ranges are packed to near-equal byte totals.
        """
        state = self._state(shuffle_id)
        sizes = [0.0] * state.num_maps
        for map_id, blocks in state.blocks.items():
            block = blocks.get(reduce_id)
            if block is not None:
                sizes[map_id] = block.nbytes
        return sizes

    def map_contents(self, shuffle_id: int) -> Dict[int, Tuple[str, List]]:
        """Every map output's records, flattened in ascending bucket order.

        Returns ``{map_id: (node, records)}`` for AQE rebucketting: the
        caller re-partitions each map's records under a new partitioner
        and writes them back via :meth:`put_map_output` (which handles
        replacement accounting, spill bookkeeping, and the version bump
        that invalidates concurrent deferred reads). Columnar blocks are
        flattened to record lists; ``put_map_output`` re-prices them.

        Refuses while any map output is lost — rebucketting a degraded
        shuffle would bake the loss into the new buckets.
        """
        state = self._state(shuffle_id)
        if state.lost:
            map_ids = sorted(state.lost)
            raise FetchFailure(shuffle_id, map_ids, state.lost[map_ids[0]])
        out: Dict[int, Tuple[str, List]] = {}
        for map_id in sorted(state.blocks):
            records: List = []
            blocks = state.blocks[map_id]
            for reduce_id in sorted(blocks):
                payload = blocks[reduce_id].records
                records.extend(
                    payload.to_records()
                    if isinstance(payload, RecordBatch)
                    else payload
                )
            out[map_id] = (state.map_nodes[map_id], records)
        return out

    def spilled_blocks(self) -> int:
        """How many registered shuffle blocks currently live on disk."""
        return sum(
            1
            for state in self._shuffles.values()
            for blocks in state.blocks.values()
            for block in blocks.values()
            if block.is_spilled
        )

    def clear(self) -> None:
        if self._spill is not None:
            for state in self._shuffles.values():
                for blocks in state.blocks.values():
                    for block in blocks.values():
                        self._spill.forget(block)
        self._shuffles.clear()
        self._lost_blocks = 0

    def _state(self, shuffle_id: int) -> _ShuffleState:
        try:
            return self._shuffles[shuffle_id]
        except KeyError:
            raise ShuffleError(f"shuffle {shuffle_id} was never registered") from None
