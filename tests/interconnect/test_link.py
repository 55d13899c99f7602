"""Link latency/bandwidth model and traffic accounting."""

import pytest

from repro.config import SystemConfig
from repro.interconnect.link import Link
from repro.interconnect.topology import Topology
from repro.sim.timing import TimingKernel


class TestLink:
    def test_transfer_cost_latency_plus_serialization(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.transfer_cost(100) == 110

    def test_serialization_rounds_up(self):
        link = Link("test", latency=0, bytes_per_cycle=3.0)
        assert link.transfer_cost(10) == 4

    def test_control_message_costs_latency_only(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.message_cost() == 100

    def test_traffic_accounting(self):
        link = Link("test", latency=1, bytes_per_cycle=1.0)
        link.record_transfer(50)
        link.record_transfer(30)
        link.record_message()
        assert link.bytes_transferred == 80
        assert link.messages == 3

    def test_reset_stats(self):
        link = Link("test", latency=1, bytes_per_cycle=1.0)
        link.record_transfer(10)
        link.reset_stats()
        assert link.bytes_transferred == 0
        assert link.messages == 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Link("bad", latency=-1, bytes_per_cycle=1.0)
        with pytest.raises(ValueError):
            Link("bad", latency=0, bytes_per_cycle=0.0)

    def test_rejects_negative_transfer(self):
        link = Link("test", latency=0, bytes_per_cycle=1.0)
        with pytest.raises(ValueError):
            link.record_transfer(-1)
        with pytest.raises(ValueError):
            link.transfer_cost(-1)


class TestLinkCostVsAccounting:
    """Pure cost queries never touch the traffic counters."""

    def test_transfer_cost_is_pure(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.transfer_cost(100) == 110
        assert link.transfer_cost(100) == 110
        assert link.bytes_transferred == 0
        assert link.messages == 0

    def test_message_cost_is_pure(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.message_cost() == 100
        assert link.messages == 0

    def test_record_transfer_accounts_without_cost(self):
        link = Link("test", latency=1, bytes_per_cycle=1.0)
        link.record_transfer(64)
        link.record_message()
        assert link.bytes_transferred == 64
        assert link.messages == 2

    def test_combined_path_equals_record_plus_cost(self):
        # The timing kernel's flat transfer is the combined path: it
        # charges the hop's cost and accounts like record_transfer.
        config = SystemConfig(num_gpus=2)
        topology = Topology(2, config.latency)
        kernel = TimingKernel(config, topology)
        link = topology.link_between(0, 1)
        split = Link(
            "b", latency=link.latency, bytes_per_cycle=link.bytes_per_cycle
        )
        cycles = kernel.transfer(0, 1, 4096, now=0)
        split.record_transfer(4096)
        assert cycles == split.transfer_cost(4096)
        assert link.bytes_transferred == split.bytes_transferred
        assert link.messages == split.messages


class TestLinkReservations:
    """Timestamped occupancy: the contended-mode primitives."""

    def test_idle_reserve_costs_flat_transfer(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.reserve_transfer(0, 100) == link.transfer_cost(100)

    def test_back_to_back_reservations_queue(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        link.reserve_transfer(0, 100)  # occupies wire until cycle 10
        cycles = link.reserve_transfer(0, 100)
        assert cycles == 10 + 100 + 10  # wait + latency + serialization
        assert link.wait_cycles == 10
        assert link.peak_occupancy == 10

    def test_late_arrival_does_not_wait(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        link.reserve_transfer(0, 100)
        assert link.reserve_transfer(50, 100) == link.transfer_cost(100)
        assert link.wait_cycles == 0

    def test_messages_wait_but_do_not_occupy(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        link.reserve_transfer(0, 100)
        horizon = link.busy_until
        assert link.reserve_message(0) == 10 + 100
        assert link.busy_until == horizon

    def test_access_returns_wait_only_and_occupies(self):
        link = Link("test", latency=100, bytes_per_cycle=10.0)
        assert link.reserve_access(0, 50) == 0
        assert link.busy_until == 5
        assert link.reserve_access(0, 50) == 5
        assert link.bytes_transferred == 0
        assert link.messages == 0

    def test_reset_stats_clears_occupancy_state(self):
        link = Link("test", latency=1, bytes_per_cycle=1.0)
        link.reserve_transfer(0, 10)
        link.reserve_transfer(0, 10)
        link.reset_stats()
        assert link.busy_until == 0
        assert link.wait_cycles == 0
        assert link.peak_occupancy == 0
