"""Network topology: pairwise bandwidth between nodes.

The model is endpoint-limited: the achievable bandwidth between two nodes
is the minimum of their NIC bandwidths (a 10 Gbps machine talking to a
1 Gbps machine moves data at 1 Gbps), which is exactly the asymmetry the
paper's testbed has. Loopback transfers use memory bandwidth and are
treated as effectively free relative to the network (a large constant).
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cluster.node import NodeSpec
from repro.common.errors import ConfigurationError

LOOPBACK_BW: float = 8.0 * 1024**3 * 4  # ~32 GB/s: same-node "transfer"


class Topology:
    """Pairwise bandwidth lookup over a set of nodes."""

    def __init__(self, nodes: Iterable[NodeSpec]) -> None:
        self._nodes: Dict[str, NodeSpec] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise ConfigurationError(f"duplicate node name {node.name!r}")
            self._nodes[node.name] = node

    def node(self, name: str) -> NodeSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def bandwidth(self, src: str, dst: str) -> float:
        """Bytes/second achievable from ``src`` to ``dst``."""
        if src == dst:
            return LOOPBACK_BW
        return min(self.node(src).net_bw, self.node(dst).net_bw)
