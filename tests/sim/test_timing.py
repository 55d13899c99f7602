"""The contended-resource timing kernel (repro.sim.timing)."""

from __future__ import annotations

import pytest

from repro.config import LatencyModel, SystemConfig
from repro.constants import HOST_NODE
from repro.errors import ConfigError
from repro.interconnect.routing import topology_spec
from repro.interconnect.topology import Topology
from repro.memsys.dram import DramChannel
from repro.policies import make_policy
from repro.sim.engine import simulate
from repro.sim.timing import (
    CACHE_LINE_BYTES,
    CONTENTION_ENV_VAR,
    AccessCosts,
    TimingKernel,
    contention_mode,
)
from repro.workloads import make_workload


def build_kernel(mode: str, num_gpus: int = 4):
    config = SystemConfig(num_gpus=num_gpus, contention=mode)
    topology = Topology(num_gpus, config.latency)
    return TimingKernel(config, topology), topology


class TestContentionMode:
    def test_config_default_is_none(self):
        assert contention_mode(SystemConfig()) == "none"

    def test_config_queued(self):
        config = SystemConfig(contention="queued")
        assert contention_mode(config) == "queued"

    def test_config_rejects_unknown_mode(self):
        with pytest.raises(ConfigError):
            SystemConfig(contention="chaotic")

    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv(CONTENTION_ENV_VAR, "queued")
        assert contention_mode(SystemConfig()) == "queued"
        monkeypatch.setenv(CONTENTION_ENV_VAR, "none")
        config = SystemConfig(contention="queued")
        assert contention_mode(config) == "none"

    def test_env_shorthand_one(self, monkeypatch):
        monkeypatch.setenv(CONTENTION_ENV_VAR, "1")
        assert contention_mode(SystemConfig()) == "queued"

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(CONTENTION_ENV_VAR, "yes")
        with pytest.raises(ConfigError):
            contention_mode(SystemConfig())


class TestDramChannel:
    def test_idle_reserve_is_free(self):
        channel = DramChannel("test", service_cycles=25)
        assert channel.reserve(100) == 0
        assert channel.busy_until == 125

    def test_busy_reserve_waits(self):
        channel = DramChannel("test", service_cycles=25)
        channel.reserve(0)
        assert channel.reserve(10) == 15
        assert channel.wait_cycles == 15
        assert channel.peak_occupancy == 15
        assert channel.accesses == 2

    def test_reset_stats(self):
        channel = DramChannel("test", service_cycles=25)
        channel.reserve(0)
        channel.reserve(0)
        channel.reset_stats()
        assert channel.accesses == 0
        assert channel.wait_cycles == 0
        assert channel.busy_until == 0

    def test_rejects_nonpositive_service(self):
        with pytest.raises(ValueError):
            DramChannel("bad", service_cycles=0)


class TestFlatModeIdentity:
    """``contention="none"`` reproduces the classic flat charges."""

    def test_transfer_matches_topology_cost(self):
        kernel, topology = build_kernel("none")
        flat = topology.link_between(0, 1).transfer_cost(4096)
        assert kernel.transfer(0, 1, 4096, now=12345) == flat
        # ``now`` is ignored: same price at any timestamp.
        assert kernel.transfer(0, 1, 4096, now=0) == flat

    def test_transfer_still_accounts_traffic(self):
        kernel, topology = build_kernel("none")
        kernel.transfer(0, 1, 4096, now=0)
        assert topology.link_between(0, 1).bytes_transferred == 4096

    def test_accesses_match_cost_table(self):
        kernel, _ = build_kernel("none")
        costs = AccessCosts.from_latency(LatencyModel())
        assert kernel.local_access(0, now=0) == costs.local_access
        cycles, penalty = kernel.remote_access(0, 1, False, now=0)
        assert (cycles, penalty) == (
            costs.remote_access[False],
            costs.remote_penalty[False],
        )
        cycles, penalty = kernel.host_access(0, True, now=0)
        assert (cycles, penalty) == (
            costs.host_access[True],
            costs.host_penalty[True],
        )

    def test_host_service_matches_classic_formula(self):
        kernel, topology = build_kernel("none")
        latency = LatencyModel()
        expected = topology.link_between(
            0, HOST_NODE
        ).message_cost() + int(latency.host_fault_service * 0.5)
        assert kernel.host_service(0, now=0, scale=0.5) == expected

    def test_fixed_charges(self):
        kernel, _ = build_kernel("none")
        latency = LatencyModel()
        assert kernel.pipeline_flush(1.0) == latency.pipeline_flush
        assert kernel.invalidation(3, 1.0) == (
            3 * latency.invalidation_per_gpu
        )
        # Single-hop fabric: each subscriber costs the flat constant.
        assert kernel.gps_broadcast(0, [1, 2, 3]) == (
            3 * latency.gps_store_broadcast
        )
        assert kernel.collapse_invalidation(0, 1, 1.0) == (
            kernel.invalidation(1, 1.0)
        )

    def test_invalidation_per_unit_matches_batched(self):
        # collapse charges per loser; migrate charges the batch — the
        # two forms must agree for any flush scale.
        kernel, _ = build_kernel("none")
        for scale in (1.0, 0.5, 0.3):
            batched = kernel.invalidation(3, scale)
            summed = sum(kernel.invalidation(1, scale) for _ in range(3))
            assert batched == summed

    def test_no_resource_state_mutates(self):
        kernel, topology = build_kernel("none")
        kernel.transfer(0, 1, 4096, now=0)
        kernel.remote_access(0, 1, False, now=0)
        kernel.host_access(0, False, now=0)
        assert topology.total_wait_cycles() == 0
        assert all(link.busy_until == 0 for link in topology.links())
        assert kernel.dram_wait_cycles() == 0


class TestFlatChargeTable:
    """Flat charges are memoized per route and still account per call.

    The kernel computes a route's transfer, control-message and
    host-service charge on first use; every call must still cost the
    hop-by-hop sum and raise each hop's traffic counters exactly once.
    """

    SHAPES = [
        (4, "all-to-all"),
        (8, "nvswitch:4"),
        (8, "ring"),
        (8, "multi-node:2"),
    ]

    @staticmethod
    def kernel_for(num_gpus: int, topology: str):
        config = SystemConfig(num_gpus=num_gpus, topology=topology)
        fabric = Topology(
            num_gpus, config.latency, spec=topology_spec(config)
        )
        return TimingKernel(config, fabric), fabric

    @staticmethod
    def snapshot(fabric):
        return {
            link.name: (link.bytes_transferred, link.messages)
            for link in fabric.links()
        }

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}-{s[1]}")
    @pytest.mark.parametrize("size", [4096, 1000])
    def test_transfer_equals_hop_sum_and_accounts_once(self, shape, size):
        kernel, fabric = self.kernel_for(*shape)
        num_gpus = shape[0]
        pairs = [(0, num_gpus - 1), (num_gpus - 1, 0)]
        pairs += [(0, HOST_NODE), (HOST_NODE, num_gpus - 1)]
        for src, dst in pairs:
            hops = fabric.route(src, dst).hops
            expected = sum(hop.transfer_cost(size) for hop in hops)
            for _ in range(2):  # the second call hits the table
                before = self.snapshot(fabric)
                assert kernel.transfer(src, dst, size, now=7) == expected
                after = self.snapshot(fabric)
                for link in fabric.links():
                    on_route = sum(hop is link for hop in hops)
                    was_bytes, was_messages = before[link.name]
                    assert after[link.name] == (
                        was_bytes + on_route * size,
                        was_messages + on_route,
                    ), (src, dst, link.name)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}-{s[1]}")
    def test_messages_equal_hop_sum_and_account_once(self, shape):
        kernel, fabric = self.kernel_for(*shape)
        num_gpus = shape[0]
        service = int(kernel.latency.host_fault_service * 0.5)
        for src, dst in [(0, num_gpus - 1), (num_gpus - 1, HOST_NODE)]:
            hops = fabric.route(src, dst).hops
            expected = sum(hop.message_cost() for hop in hops)
            for _ in range(2):
                before = self.snapshot(fabric)
                assert kernel.control_message(src, dst, now=3) == expected
                if dst == HOST_NODE:
                    assert kernel.host_service(
                        src, now=3, scale=0.5
                    ) == expected + service
                after = self.snapshot(fabric)
                calls = 2 if dst == HOST_NODE else 1
                for link in fabric.links():
                    on_route = sum(hop is link for hop in hops)
                    was_bytes, was_messages = before[link.name]
                    assert after[link.name] == (
                        was_bytes, was_messages + calls * on_route
                    ), (src, dst, link.name)

    def test_bad_arguments_fail_on_every_call(self):
        kernel, _ = self.kernel_for(4, "all-to-all")
        for _ in range(2):
            with pytest.raises(ValueError):
                kernel.transfer(0, 1, -1, now=0)
            with pytest.raises(ConfigError):
                kernel.transfer(1, 1, 4096, now=0)
            with pytest.raises(ConfigError):
                kernel.control_message(2, 2, now=0)


class TestQueuedMode:
    def test_transfer_queues_behind_earlier_transfer(self):
        kernel, topology = build_kernel("queued")
        flat = kernel.transfer_cost(0, 1, 4096)
        first = kernel.transfer(0, 1, 4096, now=0)
        second = kernel.transfer(0, 1, 4096, now=0)
        assert first == flat
        assert second > flat
        assert topology.link_between(0, 1).wait_cycles > 0

    def test_host_transfers_share_the_uplink(self):
        kernel, topology = build_kernel("queued")
        # Different GPUs, different PCIe links — but the same root
        # port, so the second transfer queues on the shared uplink.
        flat = kernel.transfer_cost(HOST_NODE, 0, 4096)
        assert kernel.transfer(HOST_NODE, 0, 4096, now=0) == flat
        assert kernel.transfer(HOST_NODE, 1, 4096, now=0) > flat
        assert topology.host_uplink.wait_cycles > 0

    def test_remote_access_queues_on_owner_channel(self):
        kernel, _ = build_kernel("queued")
        first, _ = kernel.remote_access(0, 1, False, now=0)
        second, _ = kernel.remote_access(2, 1, False, now=0)
        # Two GPUs hitting GPU 1's DRAM at the same instant: the
        # second pays the first's channel service time.
        assert second > first
        assert kernel.channels[1].wait_cycles > 0

    def test_access_reservations_do_not_inflate_traffic(self):
        kernel, topology = build_kernel("queued")
        kernel.remote_access(0, 1, False, now=0)
        link = topology.link_between(0, 1)
        assert link.bytes_transferred == 0
        assert link.messages == 0
        assert link.busy_until > 0

    def test_cache_line_occupancy_is_modest(self):
        kernel, topology = build_kernel("queued")
        kernel.remote_access(0, 1, False, now=0)
        link = topology.link_between(0, 1)
        assert link.busy_until <= link.serialization_cycles(
            CACHE_LINE_BYTES
        )

    def test_dram_stats_rollups(self):
        kernel, _ = build_kernel("queued")
        kernel.local_access(0, now=0)
        kernel.local_access(0, now=0)
        assert kernel.dram_accesses() == 2
        assert kernel.dram_wait_cycles() > 0
        assert kernel.dram_peak_occupancy() > 0
        assert len(kernel.dram_channels()) == 5  # 4 GPUs + host


class TestEndToEndContention:
    """Acceptance: queued mode changes timing, none mode does not."""

    def run(self, mode: str):
        config = SystemConfig(num_gpus=4, contention=mode)
        trace = make_workload("fir", num_gpus=4, scale=0.05)
        return simulate(config, trace, make_policy("grit"))

    def test_none_and_queued_agree_on_behaviour(self):
        flat = self.run("none")
        queued = self.run("queued")
        # Contention reprices time; it must not change what happened.
        assert (
            flat.counters.migrations == queued.counters.migrations
        )
        assert flat.counters.accesses == queued.counters.accesses

    def test_queued_reports_nonzero_link_waits(self):
        result = self.run("queued")
        assert result.details["contention"] == "queued"
        assert result.details["link_wait_cycles"] > 0
        assert result.total_cycles > self.run("none").total_cycles

    def test_none_reports_zero_waits(self):
        result = self.run("none")
        assert result.details["contention"] == "none"
        assert result.details["link_wait_cycles"] == 0
        assert result.details["dram_wait_cycles"] == 0


class TestContentionScaleMatrix:
    """None-vs-queued invariants across scale-out fabric shapes.

    Unlike the 4-GPU all-to-all acceptance above, multi-hop fabrics
    change per-GPU pacing enough that queued mode can legitimately
    steer policies to different migration decisions — so the sweep
    asserts the invariants that must hold at every shape (accesses
    conserved, flat waits zero, queued waits positive, determinism)
    rather than full behavioural equality.
    """

    SHAPES = [
        (4, "all-to-all"),
        (4, "ring"),
        (8, "nvswitch:4"),
        (8, "ring"),
        (8, "multi-node:2"),
        (16, "nvswitch:4"),
        (16, "multi-node:4"),
    ]

    def run(self, mode: str, num_gpus: int, topology: str):
        config = SystemConfig(
            num_gpus=num_gpus, topology=topology, contention=mode
        )
        trace = make_workload("fir", num_gpus=num_gpus, scale=0.05)
        return simulate(config, trace, make_policy("grit"))

    @pytest.mark.parametrize("num_gpus,topology", SHAPES)
    def test_contention_reprices_without_losing_accesses(
        self, num_gpus, topology
    ):
        flat = self.run("none", num_gpus, topology)
        queued = self.run("queued", num_gpus, topology)
        # Every access is still replayed exactly once.
        assert flat.counters.accesses == queued.counters.accesses
        assert flat.details["link_wait_cycles"] == 0
        assert flat.details["switch_wait_cycles"] == 0
        assert flat.details["dram_wait_cycles"] == 0
        assert queued.details["link_wait_cycles"] > 0
        assert queued.total_cycles > flat.total_cycles

    @pytest.mark.parametrize(
        "num_gpus,topology", [(8, "nvswitch:4"), (16, "nvswitch:8")]
    )
    def test_switched_fabrics_report_port_waits(
        self, num_gpus, topology
    ):
        queued = self.run("queued", num_gpus, topology)
        assert queued.details["switch_wait_cycles"] > 0
        # Port/trunk waits are part of, not extra to, link waits.
        assert (
            queued.details["link_wait_cycles"]
            >= queued.details["switch_wait_cycles"]
        )

    def test_queued_scale_out_runs_are_deterministic(self):
        first = self.run("queued", 8, "nvswitch:4")
        second = self.run("queued", 8, "nvswitch:4")
        assert first.total_cycles == second.total_cycles
        assert first.counters.as_dict() == second.counters.as_dict()
        assert first.details == second.details
