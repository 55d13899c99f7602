"""Page duplication and write-collapse mechanics (Section II-B3).

Duplication replicates a page into a reading GPU's memory so later reads
are local; every copy's translation is read-only while replicas exist.
A write then raises a page protection fault and the UVM driver performs
a *write collapse*: every other holder drains its pipeline, flushes
TLBs/caches, invalidates the PTE, and drops its copy; the writer ends up
as the sole (writable) owner.  GPS reuses the replication half with
write-broadcast instead of collapse.
"""

from __future__ import annotations

from repro.constants import HOST_NODE, LatencyCategory
from repro.stats.events import EventKind
from repro.memsys.page import PageInfo
from repro.uvm.machine import MachineState
from repro.uvm.migration import MigrationEngine


class DuplicationEngine:
    """Replicates pages and collapses replicas on writes."""

    def __init__(
        self, machine: MachineState, migration: MigrationEngine
    ) -> None:
        self.machine = machine
        self.migration = migration

    def duplicate(
        self,
        page: PageInfo,
        dest: int,
        writable_replica: bool = False,
        flush_scale: float = 1.0,
        now: int = 0,
    ) -> int:
        """Copy ``page`` into ``dest``'s memory as a read replica.

        ``writable_replica`` is GPS semantics: subscribers keep writable
        mappings because stores are broadcast rather than collapsed.
        """
        m = self.machine
        if page.is_local_to(dest):
            m.gpus[dest].page_table.map(
                page.vpn,
                dest,
                writable=writable_replica
                or (page.owner == dest and not page.replicas),
            )
            return 0
        if page.owner == HOST_NODE:
            # Nothing to replicate yet: first touch places the page.
            return self.migration.place_from_host(
                page,
                dest,
                LatencyCategory.PAGE_DUPLICATION,
                flush_scale,
                now=now,
            )
        src = page.owner
        cycles = m.kernel.transfer(src, dest, m.config.page_size, now)
        eviction = m.gpus[dest].dram.install(page.vpn, False)
        if eviction is not None:
            cycles += self.migration.handle_eviction(
                dest, eviction, flush_scale, now + cycles
            )
        page.replicas.add(dest)
        m.gpus[dest].page_table.map(page.vpn, dest, writable=writable_replica)
        if not writable_replica:
            self._downgrade_writable_mappings(page)
        m.counters.duplications += 1
        m.breakdown.charge(LatencyCategory.PAGE_DUPLICATION, cycles)
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.DUPLICATION, page.vpn, dest, cycles=cycles
            )
        return cycles

    def _downgrade_writable_mappings(self, page: PageInfo) -> None:
        """Make every translation of the page read-only so writes fault.

        The owner's local mapping is the common case, but GPUs that
        mapped the page remotely (to the owner's copy) before it entered
        duplication hold writable translations too; leaving any of them
        writable would let a store bypass the protection fault and
        silently diverge the replicas.
        """
        m = self.machine
        for gpu in m.gpus:
            pte = gpu.page_table.lookup(page.vpn)
            if pte is not None and pte.writable:
                pte.writable = False
                # The cached TLB copy may still claim write permission.
                gpu.tlbs.invalidate(page.vpn)

    def collapse_to_writer(
        self,
        page: PageInfo,
        writer: int,
        flush_scale: float = 1.0,
        charge: bool = True,
        now: int = 0,
    ) -> int:
        """Resolve a write to a duplicated page: writer becomes sole owner.

        Covers both the protection-fault path (writer already holds a
        read-only copy) and a faulting write by a GPU with no copy (the
        data is transferred as part of the collapse).
        """
        m = self.machine
        kernel = m.kernel
        cycles = 0
        writer_has_copy = page.is_local_to(writer)
        # Every other holder drains, flushes, and drops its copy.
        losers = page.holders() - {writer}
        for loser in sorted(losers):
            flush = kernel.pipeline_flush(flush_scale)
            m.gpus[loser].flush_pipeline_and_tlbs()
            m.gpus[loser].clock += flush
            m.gpus[loser].invalidate_translation(page.vpn)
            m.gpus[loser].dram.release(page.vpn)
            cycles += flush + kernel.collapse_invalidation(
                writer, loser, flush_scale
            )
        if not writer_has_copy:
            src = page.owner if page.owner != HOST_NODE else HOST_NODE
            cycles += kernel.transfer(
                src, writer, m.config.page_size, now + cycles
            )
            eviction = m.gpus[writer].dram.install(page.vpn, True)
            if eviction is not None:
                cycles += self.migration.handle_eviction(
                    writer, eviction, flush_scale, now + cycles
                )
        page.replicas.clear()
        page.owner = writer
        page.dirty = True
        page.ever_written = True
        m.gpus[writer].dram.mark_dirty(page.vpn)
        m.gpus[writer].page_table.map(page.vpn, writer, writable=True)
        # The writer's own TLBs may cache the stale read-only entry.
        m.gpus[writer].tlbs.invalidate(page.vpn)
        m.counters.write_collapses += 1
        if charge:
            m.breakdown.charge(LatencyCategory.WRITE_COLLAPSE, cycles)
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.WRITE_COLLAPSE,
                page.vpn,
                writer,
                detail=len(losers),
                cycles=cycles,
            )
        return cycles

    def drop_replicas(self, page: PageInfo, flush_scale: float = 1.0) -> int:
        """Remove all replicas of a page that is leaving duplication.

        Used when GRIT resets a page's scheme away from duplication
        (Section V-F): the UVM driver removes the replicas and
        invalidates the corresponding PTEs/TLBs for consistency.
        """
        m = self.machine
        cycles = 0
        for replica in sorted(page.replicas):
            m.gpus[replica].invalidate_translation(page.vpn)
            m.gpus[replica].dram.release(page.vpn)
            cycles += m.kernel.invalidation(1, flush_scale)
        page.replicas.clear()
        if page.owner != HOST_NODE:
            owner_pte = m.gpus[page.owner].page_table.lookup(page.vpn)
            if owner_pte is not None and not owner_pte.writable:
                owner_pte.writable = True
                m.gpus[page.owner].tlbs.invalidate(page.vpn)
        return cycles
