"""Tests for the cluster model and the paper's testbed factory."""

import pytest

from repro.cluster import NodeSpec, Topology, paper_cluster, uniform_cluster
from repro.cluster.cluster import GBPS
from repro.common.errors import ConfigurationError
from repro.common.units import GB


class TestNodeSpec:
    def test_valid(self):
        node = NodeSpec("x", cores=8, speed=1.0, memory=64 * GB, net_bw=GBPS)
        assert node.cores == 8

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cores=0, speed=1.0, memory=GB, net_bw=GBPS),
            dict(cores=4, speed=0.0, memory=GB, net_bw=GBPS),
            dict(cores=4, speed=1.0, memory=-1.0, net_bw=GBPS),
            dict(cores=4, speed=1.0, memory=GB, net_bw=0.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NodeSpec("bad", **kwargs)

    def test_executor_memory_bounded_by_node_memory(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(
                "big-exec", cores=4, speed=1.0, memory=GB,
                net_bw=GBPS, executor_memory=2 * GB,
            )


class TestTopology:
    def _nodes(self):
        return [
            NodeSpec("fast", cores=4, speed=1.0, memory=GB, net_bw=10 * GBPS,
                     executor_memory=GB / 2),
            NodeSpec("slow", cores=4, speed=1.0, memory=GB, net_bw=1 * GBPS,
                     executor_memory=GB / 2),
        ]

    def test_endpoint_limited_bandwidth(self):
        topo = Topology(self._nodes())
        assert topo.bandwidth("fast", "slow") == 1 * GBPS
        assert topo.bandwidth("slow", "fast") == 1 * GBPS

    def test_loopback_is_fast(self):
        topo = Topology(self._nodes())
        assert topo.bandwidth("fast", "fast") > 10 * GBPS

    def test_duplicate_names_rejected(self):
        nodes = self._nodes() + [
            NodeSpec("fast", cores=1, speed=1.0, memory=GB, net_bw=GBPS,
                     executor_memory=GB / 2)
        ]
        with pytest.raises(ConfigurationError):
            Topology(nodes)

    def test_unknown_node_rejected(self):
        topo = Topology(self._nodes())
        with pytest.raises(ConfigurationError):
            topo.bandwidth("fast", "ghost")


class TestPaperCluster:
    def test_six_nodes_section_2b(self):
        cluster = paper_cluster()
        assert [w.name for w in cluster.workers] == ["A", "B", "C", "D", "E"]
        assert cluster.master.name == "F"

    def test_core_inventory(self):
        cluster = paper_cluster()
        assert cluster.total_cores == 3 * 32 + 2 * 8
        assert cluster.worker("A").cores == 32
        assert cluster.worker("D").cores == 8

    def test_heterogeneous_network(self):
        topo = paper_cluster().topology
        assert topo.bandwidth("A", "B") == pytest.approx(10 * GBPS)
        assert topo.bandwidth("A", "D") == pytest.approx(1 * GBPS)

    def test_speed_ratios(self):
        cluster = paper_cluster()
        assert cluster.worker("A").speed == 1.0
        assert cluster.worker("D").speed == pytest.approx(2.3 / 2.0)
        assert cluster.master.speed == pytest.approx(2.5 / 2.0)

    def test_executor_memory_default_40gb(self):
        cluster = paper_cluster()
        assert cluster.worker("B").executor_memory == pytest.approx(40 * GB)


class TestUniformCluster:
    def test_shape(self):
        cluster = uniform_cluster(n_workers=3, cores=2)
        assert len(cluster.workers) == 3
        assert cluster.total_cores == 6

    def test_needs_workers(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster(n_workers=0)

    def test_unknown_worker(self):
        with pytest.raises(ConfigurationError):
            uniform_cluster().worker("nope")
