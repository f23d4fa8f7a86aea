"""Block storage: in-memory caches with a budgeted spill-to-disk layer.

Two tenants share this module:

* :class:`BlockStore` — the cluster-wide cache of materialized RDD
  partitions (``rdd.cache()``), tagged with the node that produced them
  and bounded per node in *virtual* bytes (``capacity_for``), evicting
  LRU past the bound exactly like Spark's storage memory. Eviction is
  simulation-visible: a later read misses and the lineage recomputes.
* :class:`SpillManager` — the *physical* side: a configurable memory
  budget (``EngineConf.memory_budget``, virtual bytes) over every block
  payload the engine holds — cached RDD partitions and shuffle blocks
  alike. Payloads past the budget are serialized to an append-only
  on-disk block file (``blocks.dat``: one extent per block, holding one
  frame per cached partition and one frame per reduce bucket of a map
  output) and read back transparently on access, a frame at a time.
  Spilling is **invisible to the
  simulation**: virtual byte accounting, LRU order, fetch stats, the
  simulated clock and every record are bit-identical with or without a
  budget — only where the payload bytes physically live changes. That
  is the step from "in-memory toy" to "survives inputs bigger than
  RAM" (cf. hybrid-hash operators that presume graceful spill).

Spill events are observable: every spilled block is reported as a
``block_spilled`` fact (see :mod:`repro.obs.catalogue`), which becomes a
span in the trace's spill lane, a byte and an event counter, a log
record, and the run ledger's spilled-bytes total.

Virtual byte totals per node feed the memory-utilization metric
(paper Fig. 12).
"""

from __future__ import annotations

import math
import os
import pickle
import shutil
import struct
import tempfile
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError, StorageError
from repro.engine import effects
from repro.obs import Observability

# The one block codec. A spilled block is one frame: a tag byte, then
# either the rows of an ndarray-row block (what KMeans/PCA cache) stacked
# into one contiguous array behind a dtype/shape header, or - for every
# other payload - its protocol-5 pickle.
_ARRAY, _PICKLE = b"A", b"P"
_HEAD = struct.Struct("<cBB")  # tag, len(dtype.str), ndim of the frame
_ALIGN = 16  # array data starts aligned within the frame


def _encode_block(records: Any) -> bytes:
    """One block's records as a frame (see :func:`_decode_block`)."""
    first = records[0] if type(records) is list and records else None
    if type(first) is np.ndarray:
        dtype, shape = first.dtype, first.shape
        # dtype.str must name the dtype exactly (structured ones do not).
        if not dtype.hasobject and np.dtype(dtype.str) == dtype and all(
            type(r) is np.ndarray and r.dtype == dtype and r.shape == shape
            for r in records
        ):
            frame = np.stack(records)
            descr = dtype.str.encode("ascii")
            head = (
                _HEAD.pack(_ARRAY, len(descr), frame.ndim) + descr
                + struct.pack(f"<{frame.ndim}Q", *frame.shape)
            )
            return head + bytes(-len(head) % _ALIGN) + frame.tobytes()
    return _PICKLE + pickle.dumps(records, protocol=5)


def _decode_block(buf: bytearray) -> Any:
    """The records of one frame, a fresh list on every call.

    The rows of an array frame are writeable C-contiguous views of
    ``buf``: one buffer per read-back instead of one per record. They
    share it as their ``.base``, which is safe because cached records
    are immutable by contract (``workloads/datagen._BLOCK_CACHE``).
    Raises on a header that does not describe ``len(buf)`` bytes.
    """
    tag = bytes(buf[:1])
    if tag == _PICKLE:
        return pickle.loads(memoryview(buf)[1:])
    if tag != _ARRAY:
        raise ValueError(f"unknown frame tag {tag!r}")
    _, descr_len, ndim = _HEAD.unpack_from(buf)
    dtype = np.dtype(bytes(buf[_HEAD.size:_HEAD.size + descr_len]).decode("ascii"))
    shape = struct.unpack_from(f"<{ndim}Q", buf, _HEAD.size + descr_len)
    start = -(-(_HEAD.size + descr_len + 8 * ndim) // _ALIGN) * _ALIGN
    count = math.prod(shape)
    if start + count * dtype.itemsize != len(buf):
        raise ValueError(f"frame header {dtype.str}{shape} does not fit its extent")
    frame = np.frombuffer(buf, dtype, count, start).reshape(shape)
    # Iterating a 1-D frame would yield scalars, not the 0-d rows spilled.
    return list(frame) if ndim > 1 else [frame[i, ...] for i in range(shape[0])]


@dataclass(frozen=True)
class SpillRef:
    """Where a spilled payload lives: a byte span in the block file."""

    offset: int
    length: int


class SpillableBlock:
    """A block whose payload may physically live on disk.

    ``records`` reads transparently: resident payloads return directly,
    spilled ones deserialize from the spill manager's block file on each
    access (spilled blocks are not re-admitted to memory — shuffle
    buckets are read once per reduce partition, so promotion would only
    churn the budget). All *virtual* accounting (``nbytes``, node
    tagging, LRU order) is untouched by spilling. A block spills as one
    extent (``spill``) tiled by one or more frames; ``frames`` holds their
    ``n + 1`` absolute file offsets, so one frame can be read on its own.
    """

    __slots__ = ("nbytes", "node", "_records", "spill", "spill_source", "frames")

    def __init__(self, records: Any, nbytes: float, node: str) -> None:
        self._records = records
        self.nbytes = nbytes
        self.node = node
        self.spill: Optional[SpillRef] = None
        self.spill_source: Optional["SpillManager"] = None
        self.frames: Optional[np.ndarray] = None

    def _payloads(self) -> Sequence[Any]:
        """What a spill writes, one frame each (resident blocks only)."""
        return (self._records,)

    @property
    def records(self) -> Any:
        records = self._records
        if records is None and self.spill is not None:
            assert self.spill_source is not None
            return self.spill_source.fetch(self.spill)
        return records

    @property
    def is_spilled(self) -> bool:
        return self.spill is not None and self._records is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "disk" if self.is_spilled else "mem"
        return (
            f"{type(self).__name__}(nbytes={self.nbytes!r}, "
            f"node={self.node!r}, {where})"
        )


class CachedBlock(SpillableBlock):
    """One cached RDD partition."""


class SpillManager:
    """Physical-memory budget with LRU spill to an on-disk block file.

    ``budget_bytes`` is in the engine's virtual byte units — the same
    units every shuffle/cache accounting uses — so "a memory budget of
    1/10th the input" means exactly that in the simulated world, while
    the spill I/O is physically real. Admission order doubles as the
    LRU order; reads of resident cached blocks refresh recency via
    :meth:`touch` (the block store already routes its LRU touches here),
    and admission past the budget spills from the cold end.

    All mutation happens on the driver thread (deferred task effects
    replay block puts serially), so spill decisions are deterministic
    across every physical-parallelism level. Reads (:meth:`fetch`) are
    lock-free ``os.pread`` calls — safe from worker threads.
    """

    def __init__(
        self,
        budget_bytes: float,
        directory: Optional[str] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if not budget_bytes > 0:  # NaN fails too
            raise ConfigurationError(
                f"memory budget must be > 0 bytes, got {budget_bytes}"
            )
        self.budget = float(budget_bytes)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self.directory = tempfile.mkdtemp(prefix="ctx-", dir=directory)
        else:
            self.directory = tempfile.mkdtemp(prefix="repro-spill-")
        self._data_path = os.path.join(self.directory, "blocks.dat")
        self._write_fh: Any = None
        self._read_fd: Optional[int] = None
        self._offset = 0
        self._closed = False
        # Resident blocks in admission/recency order, each mapped to the
        # key its spill label is built from (blocks hash by identity).
        self._resident: "OrderedDict[SpillableBlock, tuple]" = OrderedDict()
        self._resident_bytes = 0.0
        # The context's hub; on its own, a manager reports to a bare one.
        self._obs = obs if obs is not None else Observability()
        # Physical/virtual spill accounting (virtual side is
        # deterministic; disk-read counters are diagnostics).
        self.spill_events = 0
        self.spilled_bytes = 0.0  # cumulative virtual bytes spilled
        self.spilled_disk_bytes = 0  # cumulative physical bytes written
        self.live_spilled_bytes = 0.0  # virtual bytes currently on disk
        self.spill_reads = 0
        self.spill_read_disk_bytes = 0
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, self.directory, ignore_errors=True
        )

    # ------------------------------------------------------------------
    # Budget / admission
    # ------------------------------------------------------------------

    def admit(self, block: SpillableBlock, key: tuple) -> None:
        """Track a new resident payload; spill LRU past the budget.

        ``key`` names the block (``("cache", rdd, split)``); it is only
        joined into the ``cache:rdd:split`` label if the block spills.
        """
        self._resident[block] = key
        self._resident_bytes += block.nbytes
        while self._resident_bytes > self.budget and self._resident:
            self._spill_block(*self._resident.popitem(last=False))

    def touch(self, block: SpillableBlock) -> None:
        """Refresh a resident block's LRU recency (no-op once spilled)."""
        if block in self._resident:
            self._resident.move_to_end(block)

    def forget(self, block: SpillableBlock) -> None:
        """A block left its store (eviction / node loss / replacement).

        Resident payloads leave the budget; spilled ones release their
        index entry (the byte extent is reclaimed when the manager
        closes — the block file is append-only, like shuffle files).
        Idempotent, and accounting is clamped at zero either way.
        """
        if self._resident.pop(block, None) is not None:
            self._resident_bytes = max(0.0, self._resident_bytes - block.nbytes)
        if block.spill is not None:
            self.live_spilled_bytes = max(
                0.0, self.live_spilled_bytes - block.nbytes
            )
            block.spill = None
            block.spill_source = None
            block.frames = None

    # ------------------------------------------------------------------
    # Disk I/O
    # ------------------------------------------------------------------

    def _spill_block(self, block: SpillableBlock, key: tuple) -> None:
        frames = [_encode_block(payload) for payload in block._payloads()]
        blob = b"".join(frames)
        if self._write_fh is None:
            self._write_fh = open(self._data_path, "ab")
        offset = self._offset
        self._write_fh.write(blob)
        self._write_fh.flush()
        self._offset += len(blob)
        # Publish the disk location before dropping the resident payload
        # so a concurrent reader always sees one of the two (identical)
        # sources.
        block.spill_source = self
        block.frames = offset + np.cumsum([0] + [len(frame) for frame in frames])
        block.spill = SpillRef(offset=offset, length=len(blob))
        block._records = None
        self._resident_bytes = max(0.0, self._resident_bytes - block.nbytes)
        self.spill_events += 1
        self.spilled_bytes += block.nbytes
        self.spilled_disk_bytes += len(blob)
        self.live_spilled_bytes += block.nbytes
        # Spills only happen at effect-replay time (driver-serial), so the
        # report's position and timestamp are deterministic. The node
        # travels as ``src``: the span belongs to the trace's spill lane,
        # not to a worker core lane.
        self._obs.event(
            "block_spilled", src=block.node, bytes=block.nbytes,
            disk_bytes=len(blob), label=":".join(map(str, key)),
        )

    def fetch(self, ref: SpillRef) -> Any:
        """Deserialize one spilled payload (thread-safe positional read)."""
        if self._closed:
            raise StorageError("spill manager is closed")
        if self._read_fd is None:
            if self._write_fh is not None:
                self._write_fh.flush()
            self._read_fd = os.open(self._data_path, os.O_RDONLY)
        # Straight into the buffer the decoded rows will view: one copy
        # between the page cache and the task.
        buf = bytearray(ref.length)
        got = os.preadv(self._read_fd, [buf], ref.offset)
        if got != ref.length:
            raise StorageError(
                f"truncated spill read at {ref.offset}:"
                f" wanted {ref.length} bytes, got {got}"
            )
        self.spill_reads += 1
        self.spill_read_disk_bytes += got
        try:
            return _decode_block(buf)
        except Exception as exc:  # unpickling damaged bytes can raise anything
            raise StorageError(
                f"damaged spill block at {ref.offset}:{ref.length}: {exc!r}"
            ) from exc

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release file handles and delete the block directory."""
        if self._closed:
            return
        self._closed = True
        if self._write_fh is not None:
            self._write_fh.close()
            self._write_fh = None
        if self._read_fd is not None:
            os.close(self._read_fd)
            self._read_fd = None
        self._resident.clear()
        self._resident_bytes = 0.0
        self._finalizer.detach()
        shutil.rmtree(self.directory, ignore_errors=True)


class BlockStore:
    """Cluster-wide cache keyed by ``(rdd_id, partition_index)``.

    ``capacity_for(node) -> bytes`` bounds each node's cache; ``None``
    (the default) means unbounded. Eviction is LRU per node and never
    evicts to fit a block larger than the node's whole capacity — such a
    block is simply not cached (Spark drops it to recompute too).

    With a :class:`SpillManager` attached, cached payloads additionally
    count against the physical memory budget and may spill to disk —
    a spilled block is still a cache *hit* (its records read back
    transparently); only capacity eviction causes recomputes.
    """

    def __init__(
        self,
        capacity_for: Optional[Callable[[str], float]] = None,
        spill: Optional[SpillManager] = None,
    ) -> None:
        # Per-node LRU: node -> OrderedDict[(rdd_id, split) -> CachedBlock]
        self._by_node: Dict[str, OrderedDict] = {}
        self._index: Dict[Tuple[int, int], CachedBlock] = {}
        self._node_bytes: Dict[str, float] = {}
        self._capacity_for = capacity_for
        self._spill = spill
        self.evictions = 0

    def put(
        self, rdd_id: int, split: int, records: List, nbytes: float, node: str
    ) -> bool:
        """Insert a block, evicting LRU blocks on the node if needed.

        Returns False when the block exceeds the node's whole capacity
        and was not cached.
        """
        key = (rdd_id, split)
        capacity = (
            self._capacity_for(node) if self._capacity_for is not None else None
        )
        # Capacity check BEFORE touching any existing copy: a block too
        # big to ever fit must leave the previously cached version
        # intact, not drop it and then refuse the replacement.
        if capacity is not None and nbytes > capacity:
            return False
        sink = effects.active()
        if sink is not None:
            # Deferred attempt: buffer the insert; the scheduler replays
            # it at the task's serial position. The capacity rejection
            # above depends only on (node, nbytes), so deciding it here
            # matches serial exactly.
            block = CachedBlock(records=records, nbytes=nbytes, node=node)
            sink.cache_writes[key] = block
            sink.ops.append(("cache_put", key, records, nbytes, node))
            return True
        old = self._index.get(key)
        if old is not None:
            self._remove(key, old)
        if capacity is not None:
            lru = self._by_node.get(node)
            while (
                lru and self._node_bytes.get(node, 0.0) + nbytes > capacity
            ):
                evict_key, evict_block = next(iter(lru.items()))
                self._remove(evict_key, evict_block)
                self.evictions += 1
        block = CachedBlock(records=records, nbytes=nbytes, node=node)
        self._by_node.setdefault(node, OrderedDict())[key] = block
        self._index[key] = block
        self._node_bytes[node] = self._node_bytes.get(node, 0.0) + nbytes
        if self._spill is not None:
            self._spill.admit(block, ("cache", rdd_id, split))
        return True

    def get(self, rdd_id: int, split: int) -> Optional[CachedBlock]:
        key = (rdd_id, split)
        sink = effects.active()
        if sink is not None:
            own = sink.cache_writes.get(key)
            if own is not None:
                sink.ops.append(("cache_get_own", key))
                return own
            block = self._index.get(key)
            # Record the exact block seen (or the miss); the apply phase
            # re-validates the identity and replays the LRU touch.
            sink.ops.append(("cache_get", key, block))
            return block
        block = self._index.get(key)
        if block is not None:
            # Touch for LRU recency (cache LRU and spill LRU alike).
            lru = self._by_node[block.node]
            lru.move_to_end(key)
            if self._spill is not None:
                self._spill.touch(block)
        return block

    def peek(self, rdd_id: int, split: int) -> Optional[CachedBlock]:
        """Read without the LRU touch (effect validation)."""
        return self._index.get((rdd_id, split))

    def touch(self, rdd_id: int, split: int) -> None:
        """Replay the LRU-recency side effect of a deferred get."""
        key = (rdd_id, split)
        block = self._index.get(key)
        if block is not None:
            self._by_node[block.node].move_to_end(key)
            if self._spill is not None:
                self._spill.touch(block)

    def location(self, rdd_id: int, split: int) -> Optional[str]:
        block = self._index.get((rdd_id, split))
        return block.node if block else None

    def evict_rdd(self, rdd_id: int) -> int:
        """Drop all partitions of one RDD; returns the number evicted."""
        keys = [k for k in self._index if k[0] == rdd_id]
        for key in keys:
            self._remove(key, self._index[key])
        return len(keys)

    def evict_node(self, node: str) -> int:
        """Drop every block cached on ``node`` (executor loss).

        Returns the number of blocks dropped. Later reads of the dropped
        partitions miss and recompute through the lineage. Spilled
        blocks of the dead node are dropped exactly like resident ones —
        their disk extents are released and later reads recompute via
        lineage, never through a dead node's spill file.
        """
        keys = list(self._by_node.get(node, ()))
        for key in keys:
            # _remove drops the node's dict and byte total with its last
            # block, spilled or resident.
            self._remove(key, self._index[key])
        return len(keys)

    def total_bytes(self) -> float:
        return sum(self._node_bytes.values())

    def clear(self) -> None:
        if self._spill is not None:
            for block in self._index.values():
                self._spill.forget(block)
        self._by_node.clear()
        self._index.clear()
        self._node_bytes.clear()

    def _remove(self, key: Tuple[int, int], block: CachedBlock) -> None:
        self._index.pop(key, None)
        node_blocks = self._by_node.get(block.node)
        if node_blocks is not None:
            node_blocks.pop(key, None)
            if not node_blocks:
                # Drop empty per-node state so totals stay exactly 0.0
                # after full eviction instead of accumulating float
                # drift — including when the node's last blocks were
                # all on disk.
                del self._by_node[block.node]
                self._node_bytes.pop(block.node, None)
            else:
                remaining = self._node_bytes.get(block.node, 0.0) - block.nbytes
                self._node_bytes[block.node] = max(0.0, remaining)
        if self._spill is not None:
            self._spill.forget(block)


class ZoneMapStore:
    """Per-partition column statistics of versioned source tables.

    Keyed by ``(table, version, num_partitions)`` — the same triple the
    zone-map cache file keys its rows by — mapping each scanned split to
    its ``{column: ColumnStats}`` zone map. Sits beside the block store
    as run metadata: written via the deferred-effects path (or directly
    on the driver, or loaded from the cache file), read by the
    ``PrunePartitions`` rule and saved by the cache's flush at context
    close. Puts are idempotent because the statistics are a pure
    function of the split's records.
    """

    def __init__(self) -> None:
        self._maps: Dict[Tuple[str, str, int], Dict[int, Dict]] = {}

    def put(
        self, key: Tuple[str, str, int], split: int, stats: Dict
    ) -> None:
        self._maps.setdefault(key, {})[split] = stats

    def has(self, key: Tuple[str, str, int], split: int) -> bool:
        return split in self._maps.get(key, {})

    def get(self, key: Tuple[str, str, int]) -> Dict[int, Dict]:
        """All recorded splits of one table version (may be partial)."""
        return self._maps.get(key, {})

    def tables(self) -> List[Tuple[str, str, int]]:
        return sorted(self._maps)

    def clear(self) -> None:
        self._maps.clear()

    def summary(self) -> List[Dict]:
        """Ledger-friendly digest: coverage and columns per table."""
        out = []
        for (table, version, num_partitions) in self.tables():
            splits = self._maps[(table, version, num_partitions)]
            columns = sorted({c for s in splits.values() for c in s})
            out.append(
                {
                    "table": table,
                    "version": version,
                    "num_partitions": num_partitions,
                    "splits_covered": len(splits),
                    "columns": columns,
                }
            )
        return out
