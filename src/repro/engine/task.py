"""Tasks and the per-task measurement context.

A :class:`Task` is one unit of work of one stage: the partitions its
``splits`` name, which is one partition, as in Spark, unless AQE
coalesced the stage. The :class:`TaskContext` rides along while the
task's RDD pipeline materializes, accumulating the quantities the cost
model turns into a simulated duration: virtual bytes computed, source
bytes scanned, shuffle bytes read (local/remote, per source node) and
written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.stage import Stage


@dataclass
class TaskContext:
    """Accumulates the measurable side effects of one task's execution."""

    node: str
    task_index: int = -1
    probe: bool = False  # probe contexts (driver-side sampling) skip caching

    # Weighted virtual bytes of compute across the pipeline.
    compute_bytes: float = 0.0
    records_out: int = 0
    # Virtual output bytes of each RDD materialized so far in this task,
    # plus explicit input hints (shuffle fetch payloads). A pipeline
    # step's work is priced on max(input, output) bytes — an aggregating
    # step that collapses a big partition into one record still pays for
    # scanning the partition.
    rdd_bytes: Dict[int, float] = field(default_factory=dict)
    input_hints: Dict[int, float] = field(default_factory=dict)
    # Virtual bytes scanned from a source partition (disk input).
    input_bytes: float = 0.0
    # Largest single materialized partition in the pipeline (drives the
    # oversize penalty).
    max_partition_bytes: float = 0.0
    # Shuffle read accounting.
    shuffle_read_local: float = 0.0
    shuffle_read_remote_by_src: Dict[str, float] = field(default_factory=dict)
    shuffle_blocks_fetched: int = 0
    # Shuffle write accounting (map tasks).
    shuffle_write: float = 0.0
    # Bytes read from the block-store cache (local and remote).
    cache_read_bytes: float = 0.0
    cache_remote_by_src: Dict[str, float] = field(default_factory=dict)

    def note_compute(self, weighted_bytes: float, records: int, raw_bytes: float) -> None:
        self.compute_bytes += weighted_bytes
        self.records_out += records
        if raw_bytes > self.max_partition_bytes:
            self.max_partition_bytes = raw_bytes

    def note_input_hint(self, rdd_id: int, nbytes: float) -> None:
        """Declare extra input volume for one RDD (shuffle fetch payload)."""
        self.input_hints[rdd_id] = self.input_hints.get(rdd_id, 0.0) + nbytes

    def note_input(self, nbytes: float) -> None:
        self.input_bytes += nbytes

    def note_cache_read(self, nbytes: float, src_node: Optional[str] = None) -> None:
        """Record a cache hit; ``src_node`` set when the block is remote."""
        self.cache_read_bytes += nbytes
        if src_node is not None and src_node != self.node:
            self.cache_remote_by_src[src_node] = (
                self.cache_remote_by_src.get(src_node, 0.0) + nbytes
            )
        if nbytes > self.max_partition_bytes:
            self.max_partition_bytes = nbytes

    def note_shuffle_read(
        self, local_bytes: float, remote_by_src: Dict[str, float], n_blocks: int
    ) -> None:
        self.shuffle_read_local += local_bytes
        for src, nbytes in remote_by_src.items():
            self.shuffle_read_remote_by_src[src] = (
                self.shuffle_read_remote_by_src.get(src, 0.0) + nbytes
            )
        self.shuffle_blocks_fetched += n_blocks

    def note_shuffle_write(self, nbytes: float) -> None:
        self.shuffle_write += nbytes

    @property
    def shuffle_read_remote(self) -> float:
        return sum(self.shuffle_read_remote_by_src.values())


@dataclass
class Task:
    """One physical task of a stage."""

    stage: "Stage"
    # Physical task index: the split for static and recovery launches,
    # the position in the plan for AQE-re-planned ones.
    partition: int
    # Which original partitions the task computes: the one thing the
    # task body reads.
    splits: Tuple[int, ...]
    preferred_nodes: List[str] = field(default_factory=list)
    attempt: int = 0

    @property
    def label(self) -> str:
        return f"stage{self.stage.stage_id}-p{self.partition}a{self.attempt}"


def probe_context(node: str = "__driver__") -> TaskContext:
    """A throwaway context for driver-side physical evaluation.

    Used when CHOPPER needs real records outside the simulation — e.g.
    sampling keys to build a range partitioner. Nothing it observes is
    charged to the simulated clock directly (the caller adds an explicit
    sampling cost instead), and caching is disabled.
    """
    return TaskContext(node=node, probe=True)
