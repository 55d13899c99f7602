"""Topology: all-to-all NVLink plus per-GPU PCIe host links."""

import pytest

from repro.config import LatencyModel
from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.config import SystemConfig
from repro.interconnect.topology import Topology
from repro.sim.timing import TimingKernel


@pytest.fixture
def topology(latency: LatencyModel) -> Topology:
    return Topology(4, latency)


def flat_kernel(topology: Topology, latency: LatencyModel) -> TimingKernel:
    """The flat-mode timing kernel that charges ``topology``'s links."""
    config = SystemConfig(num_gpus=topology.num_gpus, latency=latency)
    return TimingKernel(config, topology)


class TestTopology:
    def test_gpu_pairs_share_one_link(self, topology):
        assert topology.link_between(0, 1) is topology.link_between(1, 0)

    def test_distinct_pairs_have_distinct_links(self, topology):
        assert topology.link_between(0, 1) is not topology.link_between(0, 2)

    def test_host_routes_over_pcie(self, topology):
        link = topology.link_between(2, HOST_NODE)
        assert link.name == "pcie-2"
        assert topology.link_between(HOST_NODE, 2) is link

    def test_pcie_slower_than_nvlink(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        nvlink = kernel.transfer(0, 1, 4096, now=0)
        pcie = kernel.transfer(0, HOST_NODE, 4096, now=0)
        assert pcie > nvlink

    def test_self_link_rejected(self, topology):
        with pytest.raises(ConfigError):
            topology.link_between(1, 1)

    def test_unknown_gpu_rejected(self, topology):
        with pytest.raises((ConfigError, IndexError, KeyError)):
            topology.link_between(0, 9)

    def test_traffic_totals(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        kernel.transfer(0, 1, 1000, now=0)
        kernel.transfer(2, HOST_NODE, 500, now=0)
        assert topology.total_nvlink_bytes() == 1000
        assert topology.total_pcie_bytes() == 500

    def test_single_gpu_topology_has_host_link(self, latency):
        topo = Topology(1, latency)
        kernel = flat_kernel(topo, latency)
        assert kernel.transfer(0, HOST_NODE, 100, now=0) > 0

    def test_rejects_zero_gpus(self, latency):
        with pytest.raises(ConfigError):
            Topology(0, latency)


class TestTopologyResources:
    """Link enumeration and contention roll-ups."""

    def test_links_enumerates_fabric_and_uplink(self, topology):
        names = {link.name for link in topology.links()}
        assert "nvlink-0-1" in names
        assert "pcie-0" in names
        assert "pcie-host" in names
        # 4 GPUs: C(4,2) NVLinks + 4 PCIe + the shared host uplink.
        assert len(topology.links()) == 6 + 4 + 1

    def test_host_uplink_not_routed_directly(self, topology):
        # link_between never returns the uplink; it is an additional
        # resource host transfers cross, not a routing destination.
        for gpu in range(4):
            assert topology.link_between(gpu, HOST_NODE) is not (
                topology.host_uplink
            )

    def test_wait_and_peak_rollups(self, topology):
        link = topology.link_between(0, 1)
        link.reserve_transfer(0, 4096)
        link.reserve_transfer(0, 4096)
        assert topology.total_wait_cycles() == link.wait_cycles
        assert topology.peak_occupancy() == link.peak_occupancy
        assert topology.total_wait_cycles() > 0

    def test_total_messages_counts_all_links(self, topology, latency):
        kernel = flat_kernel(topology, latency)
        kernel.transfer(0, 1, 100, now=0)
        kernel.control_message(2, HOST_NODE, now=0)
        assert topology.total_messages() == 2

    def test_single_gpu_rollups_empty(self, latency):
        topo = Topology(1, latency)
        assert topo.total_wait_cycles() == 0
        assert topo.peak_occupancy() == 0
