"""MachineState construction and shared invalidation helper."""

from repro.config import SystemConfig
from repro.constants import Scheme
from repro.uvm.machine import MachineState


class TestMachineBuild:
    def test_builds_per_gpu_structures(self):
        machine = MachineState.build(SystemConfig(num_gpus=4), 1000)
        assert len(machine.gpus) == 4
        assert machine.footprint_pages == 1000
        # 70% of 1000 pages split across 4 GPUs.
        assert machine.gpus[0].dram.capacity == 175

    def test_initial_scheme_threads_to_central_pt(self):
        machine = MachineState.build(
            SystemConfig(), 100, initial_scheme=Scheme.DUPLICATION
        )
        assert machine.central_pt.get(5).scheme is Scheme.DUPLICATION

    def test_invalidate_everywhere_counts_mapped_gpus(self):
        machine = MachineState.build(SystemConfig(num_gpus=3), 100)
        machine.gpus[0].page_table.map(7, 0, writable=True)
        machine.gpus[2].page_table.map(7, 0, writable=True)
        assert machine.invalidate_everywhere(7) == 2
        for gpu in machine.gpus:
            assert gpu.page_table.lookup(7) is None

    def test_invalidate_everywhere_clears_tlbs(self):
        machine = MachineState.build(SystemConfig(num_gpus=2), 100)
        gpu = machine.gpus[0]
        gpu.page_table.map(7, 0, writable=True)
        gpu.fill_translation(7, gpu.page_table.lookup(7))
        machine.invalidate_everywhere(7)
        entry, _, missed = gpu.tlbs.lookup(7)
        assert entry is None and missed
