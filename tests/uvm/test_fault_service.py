"""Fault buffer, fault service, and mechanic-executor unit tests."""

import pytest

from repro.config import SystemConfig
from repro.constants import FaultKind
from repro.errors import PolicyError, SimulationError
from repro.policies import make_policy
from repro.policies.base import Mechanic
from repro.uvm.driver import UvmDriver
from repro.sim.engine import Engine
from repro.uvm.executor import MechanicExecutor
from repro.uvm.fault_service import FaultService
from repro.uvm.faults import FaultBuffer, FaultEvent
from repro.uvm.machine import MachineState
from repro.workloads import make_workload


def _event(gpu=0, vpn=7, is_write=False, cycle=100):
    return FaultEvent(
        FaultKind.LOCAL_PAGE_FAULT, gpu, vpn, is_write, cycle
    )


class TestFaultEvent:
    def test_merge_keeps_earliest_and_ors_writes(self):
        read = _event(is_write=False, cycle=100)
        write = _event(is_write=True, cycle=200)
        merged = read.merged_with(write)
        assert merged.is_write
        assert merged.cycle == 100
        # Read-into-write adds nothing: the original is returned.
        assert write.merged_with(read) is write

    def test_merge_rejects_different_pages(self):
        with pytest.raises(SimulationError):
            _event(vpn=7).merged_with(_event(vpn=8))
        with pytest.raises(SimulationError):
            _event(gpu=0).merged_with(_event(gpu=1))


class TestFaultBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            FaultBuffer(capacity=0)

    def test_deposit_until_full_then_overflow(self):
        buffer = FaultBuffer(capacity=2)
        buffer.deposit(_event(vpn=1))
        assert not buffer.full
        buffer.deposit(_event(vpn=2))
        assert buffer.full
        with pytest.raises(SimulationError):
            buffer.deposit(_event(vpn=3))

    def test_drain_returns_arrival_order_and_empties(self):
        buffer = FaultBuffer(capacity=3)
        for vpn in (5, 3, 9):
            buffer.deposit(_event(vpn=vpn))
        drained = buffer.drain()
        assert [e.vpn for e in drained] == [5, 3, 9]
        assert len(buffer) == 0
        assert buffer.drain() == []


def _driver(batch_size=1, policy_name="on_touch", num_gpus=2):
    config = SystemConfig(num_gpus=num_gpus, fault_batch_size=batch_size)
    machine = MachineState.build(config, footprint_pages=64)
    policy = make_policy(policy_name)
    return UvmDriver(machine, policy)


class TestFaultService:
    def test_inline_mode_services_immediately(self):
        # Inline faults go to the driver directly; nothing parks.
        driver = _driver(batch_size=1)
        service = driver.fault_service
        assert service.inline
        cycles = driver.handle_local_fault(0, 3, False, now=0)
        assert cycles > 0
        assert driver.machine.counters.local_page_faults == 1
        assert driver.machine.counters.fault_batches == 0
        assert service.pending(0) == 0

    def test_inline_engine_never_parks(self, monkeypatch):
        # The engine hands inline faults to the driver instance (so
        # the sanitizer and tracer wrappers run), never to submit.
        def refuse(*args, **kwargs):
            raise AssertionError("inline fault parked")

        monkeypatch.setattr(FaultService, "submit", refuse)
        served = []
        engine = Engine(
            SystemConfig(),
            make_workload("bfs", num_gpus=4, scale=0.05),
            make_policy("on_touch"),
        )
        handle = engine.driver.handle_local_fault

        def counting(gpu, vpn, *args, **kwargs):
            served.append(vpn)
            return handle(gpu, vpn, *args, **kwargs)

        engine.driver.handle_local_fault = counting
        result = engine.run()
        assert len(served) == result.counters.local_page_faults > 0

    def test_batched_mode_parks_until_drain(self):
        driver = _driver(batch_size=2)
        service = driver.fault_service
        assert not service.inline
        assert service.submit(0, 3, False, now=0) is None
        assert service.pending(0) == 1
        assert not service.should_drain(0)
        assert driver.machine.counters.local_page_faults == 0
        assert service.submit(0, 4, True, now=10) is None
        assert service.should_drain(0)
        cycles, records = service.drain(0)
        assert cycles > 0
        assert [e.vpn for e in records] == [3, 4]
        counters = driver.machine.counters
        assert counters.local_page_faults == 2
        assert counters.fault_batches == 1
        assert counters.coalesced_faults == 0
        assert service.pending(0) == 0

    def test_duplicate_deposits_coalesce_to_one_fault(self):
        driver = _driver(batch_size=3)
        service = driver.fault_service
        service.submit(0, 5, False, now=0)
        service.submit(0, 5, True, now=4)
        service.submit(0, 5, False, now=8)
        cycles, records = service.drain(0)
        assert len(records) == 3  # replay list keeps duplicates
        counters = driver.machine.counters
        assert counters.local_page_faults == 1
        assert counters.coalesced_faults == 2
        # The coalesced service honored the write deposit.
        pte = driver.machine.gpus[0].page_table.lookup(5)
        assert pte is not None and pte.writable
        assert cycles > 0

    def test_buffers_are_per_gpu(self):
        driver = _driver(batch_size=4)
        service = driver.fault_service
        service.submit(0, 1, False, now=0)
        service.submit(1, 2, False, now=0)
        assert service.pending(0) == 1
        assert service.pending(1) == 1
        service.drain(0)
        assert service.pending(0) == 0
        assert service.pending(1) == 1

    def test_empty_drain_is_free(self):
        driver = _driver(batch_size=4)
        cycles, records = driver.fault_service.drain(0)
        assert (cycles, records) == (0, [])
        assert driver.machine.counters.fault_batches == 0


class TestMechanicExecutor:
    def test_defaults_cover_every_mechanic(self):
        driver = _driver()
        assert driver.mechanics.registered() == frozenset(Mechanic)

    def test_unregistered_mechanic_raises(self):
        executor = MechanicExecutor(driver=None)
        executor.handlers.clear()
        with pytest.raises(PolicyError):
            executor.execute(Mechanic.ON_TOUCH, 0, None, False)

    def test_fault_entry_points_raise_for_unregistered_mechanic(self):
        # The driver's fault entry points index the table directly;
        # a mechanic removed after construction still fails loudly.
        driver = _driver()
        del driver.mechanics.handlers[Mechanic.ON_TOUCH]
        with pytest.raises(PolicyError, match="ON_TOUCH"):
            driver.handle_local_fault(0, 3, False)
        batched = _driver(batch_size=2)
        del batched.mechanics.handlers[Mechanic.ON_TOUCH]
        with pytest.raises(PolicyError, match="ON_TOUCH"):
            batched.service_fault_batch(0, [_event(vpn=3)])

    def test_driver_rejects_policy_missing_an_executor(self):
        config = SystemConfig(num_gpus=2)
        machine = MachineState.build(config, footprint_pages=16)
        policy = make_policy("on_touch")

        class Unsatisfiable(type(policy)):
            def register_mechanics(self, executor):
                del executor.handlers[Mechanic.ON_TOUCH]

        with pytest.raises(PolicyError, match="on_touch"):
            UvmDriver(machine, Unsatisfiable())

    def test_policy_can_swap_an_executor(self):
        config = SystemConfig(num_gpus=2)
        machine = MachineState.build(config, footprint_pages=16)
        policy = make_policy("on_touch")
        calls = []

        def counting(driver, gpu, page, is_write, now):
            calls.append(page.vpn)
            return 0

        original = policy.register_mechanics

        def register(executor):
            original(executor)
            executor.register(Mechanic.ON_TOUCH, counting)

        policy.register_mechanics = register
        driver = UvmDriver(machine, policy)
        driver.handle_local_fault(0, 9, False)
        assert calls == [9]
