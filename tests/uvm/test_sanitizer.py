"""The machine-state sanitizer: clean runs pass, corruption is caught."""

import pytest

from repro.config import SystemConfig
from repro.constants import HOST_NODE, GroupBits
from repro.errors import SanitizerError
from repro.policies import available_policies, make_policy
from repro.sim import simulate
from repro.uvm.driver import UvmDriver
from repro.uvm.machine import MachineState
from repro.uvm.sanitizer import (
    SANITIZE_ENV_VAR,
    MachineSanitizer,
    sanitizer_enabled,
)
from repro.workloads import make_workload


def _machine(num_gpus=4, sanitize=False):
    config = SystemConfig(num_gpus=num_gpus, sanitize=sanitize)
    return MachineState.build(config, footprint_pages=128)


class TestEnablement:
    def test_off_by_default(self):
        assert not sanitizer_enabled(SystemConfig())

    def test_config_flag(self):
        assert sanitizer_enabled(SystemConfig(sanitize=True))

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        assert sanitizer_enabled(SystemConfig())
        monkeypatch.setenv(SANITIZE_ENV_VAR, "0")
        assert not sanitizer_enabled(SystemConfig())

    def test_driver_installs_hooks_only_when_enabled(self):
        off = UvmDriver(_machine(), make_policy("on_touch"))
        assert off.sanitizer is None
        on = UvmDriver(_machine(sanitize=True), make_policy("on_touch"))
        assert on.sanitizer is not None

    def test_gps_and_ideal_opt_out_of_replica_protection(self):
        for name in ("gps", "ideal"):
            driver = UvmDriver(_machine(sanitize=True), make_policy(name))
            assert driver.sanitizer.allow_writable_replicas


@pytest.mark.parametrize(
    "policy_name",
    ["on_touch", "access_counter", "duplication", "first_touch",
     "grit", "griffin", "gps", "ideal"],
)
class TestSanitizedSimulations:
    def test_short_simulation_passes(self, policy_name):
        config = SystemConfig(num_gpus=4, sanitize=True)
        trace = make_workload("st", num_gpus=4, scale=0.03)
        result = simulate(config, trace, make_policy(policy_name))
        assert result.total_cycles > 0

    def test_sanitizer_does_not_change_results(self, policy_name):
        trace = make_workload("fir", num_gpus=4, scale=0.03)
        plain = simulate(
            SystemConfig(num_gpus=4),
            trace,
            make_policy(policy_name),
        )
        checked = simulate(
            SystemConfig(num_gpus=4, sanitize=True),
            make_workload("fir", num_gpus=4, scale=0.03),
            make_policy(policy_name),
        )
        assert checked.total_cycles == plain.total_cycles
        assert (
            checked.counters.total_faults == plain.counters.total_faults
        )


class TestInvariantViolations:
    def test_clean_machine_has_no_violations(self):
        machine = _machine()
        assert machine.check_invariants() == []

    def test_owner_listed_as_own_replica(self):
        machine = _machine()
        page = machine.central_pt.get(5)
        page.owner = 0
        page.replicas.add(0)
        violations = machine.check_invariants()
        assert any("own replica" in v for v in violations)

    def test_replicas_without_gpu_owner(self):
        machine = _machine()
        page = machine.central_pt.get(5)
        page.owner = HOST_NODE
        page.replicas.add(1)
        violations = machine.check_invariants()
        assert any("without a GPU owner" in v for v in violations)

    def test_translation_to_node_without_a_copy(self):
        machine = _machine()
        page = machine.central_pt.get(7)
        page.owner = 0
        machine.gpus[1].page_table.map(7, 2, writable=False)
        violations = machine.check_invariants()
        assert any("holds no copy" in v for v in violations)

    def test_stale_host_mapping_is_legal(self):
        # Counter-tracked pages map to system memory and keep that
        # mapping across later migrations (documented deviation).
        machine = _machine()
        page = machine.central_pt.get(7)
        page.owner = 0
        machine.gpus[0].page_table.map(7, 0, writable=True)
        machine.gpus[0].dram.install(7)
        machine.gpus[1].page_table.map(7, HOST_NODE, writable=True)
        assert machine.check_invariants() == []

    def test_writable_mapping_while_replicas_exist(self):
        machine = _machine()
        page = machine.central_pt.get(9)
        page.owner = 0
        page.replicas.add(1)
        for gpu in (0, 1):
            machine.gpus[gpu].dram.install(9)
        machine.gpus[0].page_table.map(9, 0, writable=True)
        violations = machine.check_invariants()
        assert any("writes must fault" in v for v in violations)
        assert machine.check_invariants(allow_writable_replicas=True) == []

    def test_tlb_entry_without_a_pte(self):
        # A shootdown that skipped a GPU holding a cached translation
        # leaves a TLB entry behind its removed PTE.
        machine = _machine()
        page = machine.central_pt.get(13)
        page.owner = 0
        machine.gpus[0].dram.install(13)
        gpu = machine.gpus[0]
        gpu.page_table.map(13, 0, writable=True)
        gpu.fill_translation(13, gpu.page_table.lookup(13))
        assert machine.check_invariants() == []
        gpu.page_table.invalidate(13)
        violations = machine.check_invariants()
        assert any("L1 TLB caches vpn 13" in v for v in violations)
        assert any("L2 TLB caches vpn 13" in v for v in violations)
        with pytest.raises(SanitizerError, match="no local PTE"):
            MachineSanitizer(machine).check("stale shootdown")

    def test_dram_frame_without_holding_the_page(self):
        machine = _machine()
        page = machine.central_pt.get(11)
        page.owner = 0
        machine.gpus[2].dram.install(11)
        violations = machine.check_invariants()
        assert any("DRAM frame holds vpn 11" in v for v in violations)

    def test_misaligned_group_marker(self):
        machine = _machine()
        page = machine.central_pt.get(3)
        page.group = GroupBits.GROUP_8  # base must be 8-aligned
        violations = machine.check_invariants()
        assert any("not aligned" in v for v in violations)

    def test_nested_group_markers(self):
        machine = _machine()
        machine.central_pt.get(0).group = GroupBits.GROUP_64
        machine.central_pt.get(8).group = GroupBits.GROUP_8
        violations = machine.check_invariants()
        assert any("nested inside" in v for v in violations)

    def test_access_counter_at_threshold(self):
        machine = _machine()
        threshold = machine.access_counters.threshold
        machine.access_counters._groups[0] = {1: threshold}
        violations = machine.check_invariants()
        assert any("threshold" in v for v in violations)


class TestDriverIntegration:
    def test_corrupted_state_raises_from_driver_operation(self):
        machine = _machine(sanitize=True)
        driver = UvmDriver(machine, make_policy("on_touch"))
        driver.handle_local_fault(0, 1, False)  # clean op passes
        page = machine.central_pt.get(1)
        page.replicas.add(page.owner)  # corrupt: owner is its own replica
        with pytest.raises(SanitizerError) as excinfo:
            driver.handle_local_fault(2, 3, False)
        message = str(excinfo.value)
        assert "handle_local_fault(2, 3, False)" in message
        assert "own replica" in message

    def test_environment_variable_arms_the_driver(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
        driver = UvmDriver(_machine(), make_policy("on_touch"))
        assert driver.sanitizer is not None
        driver.handle_local_fault(0, 1, False)
        assert driver.sanitizer.checks_run >= 1

    def test_check_names_the_operation(self):
        machine = _machine()
        sanitizer = MachineSanitizer(machine)
        machine.central_pt.get(5).owner = 99  # not a node
        with pytest.raises(SanitizerError) as excinfo:
            sanitizer.check("poke(5)")
        assert "after poke(5)" in str(excinfo.value)
        assert "not a node" in str(excinfo.value)


#: The shootdown shortcut fires most on 8 GPUs under queued batching.
SCALE_OUT = {
    "num_gpus": 8,
    "topology": "nvswitch",
    "contention": "queued",
    "fault_batch_size": 16,
}


@pytest.mark.parametrize("changes", [{}, SCALE_OUT], ids=["4gpu", "8gpu"])
@pytest.mark.parametrize("policy_name", available_policies())
def test_every_policy_keeps_tlbs_coherent(policy_name, changes):
    config = SystemConfig(**{"num_gpus": 4, "sanitize": True, **changes})
    trace = make_workload("bfs", num_gpus=config.num_gpus, scale=0.05)
    result = simulate(config, trace, make_policy(policy_name))
    assert result.total_cycles > 0
