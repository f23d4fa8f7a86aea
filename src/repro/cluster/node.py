"""Per-node hardware description.

A :class:`NodeSpec` captures everything the cost model needs about a
machine: core count, relative compute speed, memory, NIC bandwidth, and
disk bandwidth. Heterogeneity (the paper's cluster mixes 32-core/10 Gbps
and 8-core/1 Gbps machines) enters the simulation purely through these
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.units import GB


@dataclass(frozen=True)
class NodeSpec:
    """Static hardware description of one cluster node.

    Attributes:
        name: unique node identifier (e.g. ``"A"``).
        cores: physical cores available to the executor.
        speed: relative per-core compute speed (1.0 = the paper's 2.0 GHz
            baseline); task compute time divides by this.
        memory: total RAM in bytes.
        net_bw: NIC bandwidth in bytes/second.
        disk_bw: sequential disk bandwidth in bytes/second.
        executor_memory: memory granted to the analytics executor in bytes
            (the paper gives every executor 40 GB regardless of node).
    """

    name: str
    cores: int
    speed: float
    memory: float
    net_bw: float
    disk_bw: float = 200.0 * 1024 * 1024
    executor_memory: float = 40.0 * GB

    def __post_init__(self) -> None:
        # Each guard tests the legal condition, so NaN fails it too.
        if not self.cores >= 1:
            raise ConfigurationError(f"node {self.name!r}: cores must be >= 1")
        if not self.speed > 0:
            raise ConfigurationError(f"node {self.name!r}: speed must be positive")
        if not (self.memory > 0 and self.net_bw > 0 and self.disk_bw > 0):
            raise ConfigurationError(
                f"node {self.name!r}: memory/net_bw/disk_bw must be positive"
            )
        if not self.executor_memory <= self.memory:
            raise ConfigurationError(
                f"node {self.name!r}: executor memory exceeds node memory"
            )
