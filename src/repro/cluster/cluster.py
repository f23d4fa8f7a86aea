"""Cluster assembly and the paper's testbed factory.

:func:`paper_cluster` reconstructs the 6-node heterogeneous cluster of
CHOPPER §II-B:

* nodes A, B, C — 32 cores @ 2.0 GHz (AMD), 64 GB RAM, 10 Gbps Ethernet;
* nodes D, E — 8 cores @ 2.3 GHz (Intel), 48 GB RAM, 1 Gbps Ethernet;
* node F — 8 cores @ 2.5 GHz (Intel), 64 GB RAM, 1 Gbps Ethernet, master.

F is the master; A-E are workers, each running one executor with 40 GB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster.node import NodeSpec
from repro.cluster.topology import Topology
from repro.common.errors import ConfigurationError
from repro.common.units import GB

GBPS: float = 1e9 / 8.0  # bytes/second per Gbps


@dataclass
class Cluster:
    """A set of worker nodes plus a master, wired by a :class:`Topology`."""

    workers: List[NodeSpec]
    master: NodeSpec
    topology: Topology = field(init=False)

    def __post_init__(self) -> None:
        if not self.workers:
            raise ConfigurationError("cluster needs at least one worker")
        self.topology = Topology(self.workers + [self.master])

    @property
    def total_cores(self) -> int:
        return sum(node.cores for node in self.workers)

    def worker(self, name: str) -> NodeSpec:
        for node in self.workers:
            if node.name == name:
                return node
        raise ConfigurationError(f"no worker named {name!r}")


def paper_cluster(executor_memory: float = 40.0 * GB) -> Cluster:
    """The CHOPPER paper's 6-node heterogeneous testbed (§II-B)."""
    big = dict(cores=32, speed=1.0, memory=64.0 * GB, net_bw=10.0 * GBPS)
    workers = [
        NodeSpec(name="A", executor_memory=executor_memory, **big),
        NodeSpec(name="B", executor_memory=executor_memory, **big),
        NodeSpec(name="C", executor_memory=executor_memory, **big),
        NodeSpec(
            name="D", cores=8, speed=2.3 / 2.0, memory=48.0 * GB,
            net_bw=1.0 * GBPS, executor_memory=executor_memory,
        ),
        NodeSpec(
            name="E", cores=8, speed=2.3 / 2.0, memory=48.0 * GB,
            net_bw=1.0 * GBPS, executor_memory=executor_memory,
        ),
    ]
    master = NodeSpec(
        name="F", cores=8, speed=2.5 / 2.0, memory=64.0 * GB,
        net_bw=1.0 * GBPS, executor_memory=1.0 * GB,
    )
    return Cluster(workers=workers, master=master)


def uniform_cluster(
    n_workers: int = 4,
    cores: int = 8,
    speed: float = 1.0,
    memory: float = 32.0 * GB,
    net_bw: float = 10.0 * GBPS,
    executor_memory: Optional[float] = None,
) -> Cluster:
    """A homogeneous cluster, handy for tests and controlled ablations."""
    if n_workers < 1:
        raise ConfigurationError("need at least one worker")
    exec_mem = executor_memory if executor_memory is not None else memory * 0.75
    workers = [
        NodeSpec(
            name=f"w{i}", cores=cores, speed=speed, memory=memory,
            net_bw=net_bw, executor_memory=exec_mem,
        )
        for i in range(n_workers)
    ]
    master = NodeSpec(
        name="master", cores=cores, speed=speed, memory=memory,
        net_bw=net_bw, executor_memory=1.0 * GB,
    )
    return Cluster(workers=workers, master=master)
