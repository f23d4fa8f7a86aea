"""Task cost model: virtual durations for real computations.

Every mechanism the paper attributes performance effects to is modelled as
an explicit term, so the optimum partition count per stage *emerges* and
CHOPPER has a real landscape to learn (Eq. 1-2 are fitted against times
this model produces):

* **per-task overhead** (`task_overhead`, driver dispatch + launch +
  deserialization): dominates when P is large — the paper's 2000-partition
  blow-up;
* **compute** proportional to virtual bytes processed, divided by the
  node's relative speed — heterogeneity and wave quantization (300 tasks
  over 136 cores = 3 waves) come from the event simulation on top;
* **big-partition penalty**: a superlinear factor once a partition
  outgrows `partition_knee` (GC pressure, cache misses, spilling) — too
  *few* partitions hurt, the paper's Fig. 3 low-P wall;
* **shuffle block latency** per fetched map-output block: reduce tasks
  touch `P_map` blocks each, so total stage cost grows with
  `P_map x P_reduce` — the paper's motivation for coalescing;
* **network transfer** of remote shuffle bytes at the pairwise link
  bandwidth (10 Gbps vs 1 Gbps nodes);
* **disk** throughput for input scans and shuffle writes.

All constants live in :class:`CostModelConfig` so benchmarks and ablations
can perturb them; defaults are calibrated so the paper-scale workloads
land in the right absolute ballpark (stage-0 of 21.8 GB KMeans in minutes,
iteration stages in seconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.cluster.node import NodeSpec
from repro.common.errors import ConfigurationError
from repro.common.units import MB


@dataclass
class CostModelConfig:
    """Tunable constants of the task cost model (times in seconds)."""

    # Fixed cost per task: driver serialization, launch, result handling.
    task_overhead: float = 0.25
    # Seconds of compute per virtual byte on a speed-1.0 core, multiplied
    # by each RDD's compute_factor. The default calibrates an in-memory
    # scan at ~10 MB/s per 2.0 GHz core; heavier steps declare a larger
    # compute_factor (e.g. ~15 for text parsing in the data generators).
    per_byte_compute: float = 1.0e-7
    # Seconds per (physical) record on a speed-1.0 core.
    per_record_compute: float = 1.0e-6
    # Partition size at which the superlinear penalty starts, and its
    # exponent: factor = 1 + (bytes / knee - 1) ** exponent for oversized
    # partitions.
    partition_knee: float = 96.0 * MB
    partition_penalty_exponent: float = 1.3
    # Serial per-task dispatch latency at the (single-threaded) driver:
    # task i of a stage becomes runnable i * interval after stage start.
    # This is Spark's driver bottleneck and the main reason thousands of
    # tiny tasks hurt (the paper's 2000-partition blow-up).
    driver_dispatch_interval: float = 0.008
    # Lognormal sigma of per-task duration jitter (GC pauses, OS noise).
    # Finer partitioning lets the pull scheduler absorb stragglers, which
    # is the classic reason moderate over-partitioning helps.
    jitter_sigma: float = 0.15
    # Memory-spill modeling: each concurrent task's working-set budget is
    # executor_memory * memory_fraction / cores; a partition exceeding it
    # spills, multiplying compute by 1 + spill_penalty * excess ratio.
    # At the paper cluster's 40 GB executors this never triggers for sane
    # partition counts — it prices pathological under-partitioning.
    memory_fraction: float = 0.6
    spill_penalty: float = 1.0
    # Latency per shuffle block fetched by a reduce task.
    shuffle_block_latency: float = 0.0015
    # Serialized bytes of header/metadata per non-empty shuffle block.
    shuffle_block_header: float = 64.0
    # Fraction of shuffle-write bytes that hits disk synchronously.
    shuffle_write_disk_fraction: float = 1.0
    # Disk transaction granularity (for the Fig. 14 metric).
    disk_transaction_bytes: float = 512.0 * 1024

    def __post_init__(self) -> None:
        # Each field is checked as its legal range, so NaN fails too. A
        # constant is finite: an infinite one makes every task endless.
        for name, value in vars(self).items():
            if name in ("memory_fraction", "shuffle_write_disk_fraction"):
                legal, rule = 0 <= value <= 1, "in [0, 1]"
            elif name in ("partition_knee", "partition_penalty_exponent", "disk_transaction_bytes"):
                legal, rule = 0 < value < math.inf, "> 0 and finite"
            else:
                legal, rule = 0 <= value < math.inf, ">= 0 and finite"
            if not legal:
                raise ConfigurationError(f"{name} must be {rule}, got {value!r}")


@dataclass
class TaskCostBreakdown:
    """Per-task cost components (seconds), summed into ``total``."""

    overhead: float = 0.0
    compute: float = 0.0
    input_io: float = 0.0
    shuffle_fetch: float = 0.0
    shuffle_write: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.overhead
            + self.compute
            + self.input_io
            + self.shuffle_fetch
            + self.shuffle_write
        )


class CostModel:
    """Computes virtual task durations from task metrics and node specs."""

    def __init__(self, config: CostModelConfig | None = None) -> None:
        self.config = config or CostModelConfig()

    def oversize_factor(self, partition_bytes: float) -> float:
        """Superlinear slowdown for partitions beyond the knee."""
        knee = self.config.partition_knee
        if partition_bytes <= knee:
            return 1.0
        excess = partition_bytes / knee - 1.0
        return 1.0 + excess ** self.config.partition_penalty_exponent

    def compute_time(
        self,
        node: NodeSpec,
        cost_bytes: float,
        records: float,
        partition_bytes: float,
    ) -> float:
        """Seconds of CPU for ``cost_bytes`` of weighted work on ``node``.

        ``cost_bytes`` is the sum over pipeline steps of (virtual output
        bytes x compute_factor); ``partition_bytes`` is the task's input
        partition size, which drives the oversize penalty.
        """
        base = (
            cost_bytes * self.config.per_byte_compute
            + records * self.config.per_record_compute
        )
        factor = self.oversize_factor(partition_bytes)
        factor *= self.spill_factor(node, partition_bytes)
        return base * factor / node.speed

    def spill_factor(self, node: NodeSpec, partition_bytes: float) -> float:
        """Slowdown when a task's working set exceeds its memory budget."""
        budget = (
            node.executor_memory * self.config.memory_fraction / node.cores
        )
        if budget <= 0 or partition_bytes <= budget:
            return 1.0
        return 1.0 + self.config.spill_penalty * (partition_bytes / budget - 1.0)

    def input_io_time(self, node: NodeSpec, input_bytes: float) -> float:
        """Disk scan time for reading a source partition."""
        if input_bytes <= 0:
            return 0.0
        return input_bytes / node.disk_bw

    def shuffle_fetch_time(
        self,
        node: NodeSpec,
        local_bytes: float,
        remote_bytes_by_src: Dict[str, float],
        n_blocks: int,
        bandwidth_fn,
    ) -> float:
        """Time to pull one reduce partition's blocks to ``node``.

        ``bandwidth_fn(src, dst)`` gives link bandwidth in bytes/second
        (see :class:`repro.cluster.topology.Topology`).
        """
        time = n_blocks * self.config.shuffle_block_latency
        for src, nbytes in remote_bytes_by_src.items():
            time += nbytes / bandwidth_fn(src, node.name)
        # Local blocks are read from the local shuffle files.
        time += local_bytes / node.disk_bw
        return time

    def shuffle_write_time(self, node: NodeSpec, write_bytes: float) -> float:
        """Time to spill map output to local shuffle files."""
        if write_bytes <= 0:
            return 0.0
        return (
            write_bytes * self.config.shuffle_write_disk_fraction / node.disk_bw
        )

    def disk_transactions(self, nbytes: float) -> float:
        """Number of disk transactions ``nbytes`` of IO corresponds to."""
        if nbytes <= 0:
            return 0.0
        return max(1.0, nbytes / self.config.disk_transaction_bytes)
