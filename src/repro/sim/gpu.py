"""Per-GPU architectural state: clock, TLBs, walker, DRAM, page table."""

from __future__ import annotations

from repro.config import SystemConfig
from repro.memsys.dram import DramDirectory
from repro.memsys.page_table import LocalPageTable, LocalPTE
from repro.memsys.tlb import TLBHierarchy
from repro.memsys.walker import PageTableWalker


class GpuNode:
    """One GPU of the multi-GPU system."""

    def __init__(
        self, gpu_id: int, config: SystemConfig, dram_frames: int
    ) -> None:
        self.gpu_id = gpu_id
        self.clock = 0
        self.tlbs = TLBHierarchy(config.l1_tlb, config.l2_tlb)
        self.walker = PageTableWalker(config.walker)
        self.page_table = LocalPageTable(gpu_id)
        self.dram = DramDirectory(
            gpu_id, dram_frames, policy=config.eviction_policy
        )

    def invalidate_translation(self, vpn: int) -> bool:
        """Drop PTE + TLB entries for ``vpn``; True if the PTE existed."""
        had_pte = self.page_table.invalidate(vpn)
        if had_pte:
            # A TLB entry implies a PTE (the sanitizer's TLB coherence
            # check), so only a GPU that had one needs a shootdown.
            # The per-GPU shootdown loops (invalidate_everywhere, the
            # eviction path) apply the same rule inline.
            self.tlbs.invalidate(vpn)
        return had_pte

    def fill_translation(self, vpn: int, pte: LocalPTE) -> None:
        """Install a translation into the TLB hierarchy.

        Called at the pipeline's stage boundaries: after a page-table
        walk, after a fault resolution (inline or batch replay), and
        after a protection-fault collapse rewrites the PTE.  Both
        levels are filled, L2 first.
        """
        tlbs = self.tlbs
        tlbs.l2.insert(vpn, pte)
        tlbs.l1.insert(vpn, pte)

    def flush_pipeline_and_tlbs(self) -> None:
        """Drain in-flight work and flush TLBs (migration/collapse)."""
        self.tlbs.flush()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GpuNode(id={self.gpu_id}, clock={self.clock})"
