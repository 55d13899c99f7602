"""Page placement / migration / eviction mechanics (Section II-B1).

Migration follows the paper's sequence: flush the owning GPU's pipeline,
caches, and TLBs; broadcast translation invalidations; move the page;
re-map at the destination.  Placement (first touch from the host) is the
PCIe variant of the same flow without a GPU-side flush.  Evictions model
oversubscription: installing into a full DRAM pops the LRU frame, which
may demote a page back to the host (with a dirty write-back) or drop a
replica.
"""

from __future__ import annotations

from repro.constants import HOST_NODE, LatencyCategory
from repro.stats.events import EventKind
from repro.memsys.dram import EvictionResult
from repro.memsys.page import PageInfo
from repro.uvm.machine import MachineState


class MigrationEngine:
    """Moves authoritative page copies between nodes."""

    def __init__(self, machine: MachineState) -> None:
        self.machine = machine

    def place_from_host(
        self,
        page: PageInfo,
        dest: int,
        category: LatencyCategory,
        flush_scale: float = 1.0,
        writable: bool = True,
        now: int = 0,
        is_write: bool = False,
    ) -> int:
        """First touch: move the page from host memory to ``dest``.

        ``writable=False`` is duplication's copy-on-write placement: a
        read fault maps the page read-only so the first write raises a
        protection fault and upgrades through the UVM driver.
        ``is_write`` marks a placement for a faulting write: the page
        has been written and its new frame holds modified data.
        """
        m = self.machine
        vpn = page.vpn
        cycles = m.kernel.transfer(HOST_NODE, dest, m.config.page_size, now)
        node = m.gpus[dest]
        eviction = node.dram.install(vpn, False)
        if eviction is not None:
            cycles += self.handle_eviction(
                dest, eviction, flush_scale, now + cycles
            )
        page.owner = dest
        page.dirty = False
        node.page_table.map(vpn, dest, writable=writable)
        m.breakdown.charge(category, cycles)
        if is_write:
            page.ever_written = True
            node.dram.mark_dirty(vpn)
        return cycles

    def migrate(
        self,
        page: PageInfo,
        dest: int,
        category: LatencyCategory = LatencyCategory.PAGE_MIGRATION,
        flush_scale: float = 1.0,
        now: int = 0,
    ) -> int:
        """Move the authoritative copy of ``page`` to GPU ``dest``.

        A host-resident page moves like a first-touch placement; a
        GPU-resident one first flushes its owner and invalidates every
        stale translation.
        """
        m = self.machine
        vpn = page.vpn
        source = page.owner
        node = m.gpus[dest]
        if source == dest:
            # Already local; just (re-)establish the mapping.
            node.page_table.map(vpn, dest, writable=not page.replicas)
            return 0
        kernel = m.kernel
        cycles = 0
        dirty = False
        if source != HOST_NODE:
            owner = m.gpus[source]
            # 1. Drain the owning GPU's pipeline and flush caches/TLBs.
            # The requester waits for it and the owner loses the time
            # too.
            flush = kernel.pipeline_flush(flush_scale)
            owner.flush_pipeline_and_tlbs()
            owner.clock += flush
            cycles += flush
            # 2. Invalidate every stale translation (remote mappings
            # point at the old owner; replicas are dropped as part of
            # the move).
            for replica in sorted(page.replicas):
                m.gpus[replica].dram.release(vpn)
            page.replicas.clear()
            invalidated = m.invalidate_everywhere(vpn)
            cycles += kernel.invalidation(invalidated, flush_scale)
            owner.dram.release(vpn)
            dirty = page.dirty
        # 3. Transfer the page and install it at the destination.
        cycles += kernel.transfer(
            source, dest, m.config.page_size, now + cycles
        )
        eviction = node.dram.install(vpn, dirty)
        if eviction is not None:
            cycles += self.handle_eviction(
                dest, eviction, flush_scale, now + cycles
            )
        page.owner = dest
        page.dirty = dirty
        node.page_table.map(vpn, dest, writable=True)
        m.counters.migrations += 1
        if source != HOST_NODE:
            m.access_counters.reset_group(vpn)
        m.breakdown.charge(category, cycles)
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.MIGRATION, vpn, source, detail=dest, cycles=cycles
            )
        return cycles

    def handle_eviction(
        self,
        gpu: int,
        eviction: EvictionResult,
        flush_scale: float = 1.0,
        now: int = 0,
    ) -> int:
        """Demote a page ``gpu``'s DRAM evicted; returns stall cycles.

        Every mechanic that claims a frame (``DramDirectory.install``)
        passes the eviction it caused here.  The cycles are *not*
        charged to the breakdown; the calling mechanic charges its
        full cost once under its own category.
        """
        m = self.machine
        victim = m.central_pt.peek(eviction.evicted_vpn)
        m.counters.evictions += 1
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.EVICTION, eviction.evicted_vpn, gpu
            )
        cycles = 0
        if victim is None:
            return cycles
        if victim.owner == gpu:
            # Shoot down only the translations that point at the evicted
            # frame (the owner's own mapping and any remote mappings).
            # Replica holders' self-mappings reference their own frames
            # and stay valid — under GPS that keeps them writable.
            vpn = victim.vpn
            invalidated = 0
            for node in m.gpus:
                entries = node.page_table.entries
                pte = entries.get(vpn)
                if pte is not None and pte.location == gpu:
                    del entries[vpn]
                    node.tlbs.invalidate(vpn)
                    invalidated += 1
            cycles += m.kernel.invalidation(invalidated, flush_scale)
            if victim.replicas:
                # Another GPU already holds the data; promote it to
                # owner instead of falling back to the host.
                new_owner = min(victim.replicas)
                victim.replicas.discard(new_owner)
                victim.owner = new_owner
                promoted = m.gpus[new_owner].page_table.lookup(victim.vpn)
                if promoted is None:
                    m.gpus[new_owner].page_table.map(
                        victim.vpn,
                        new_owner,
                        writable=not victim.replicas,
                    )
                elif not victim.replicas and not promoted.writable:
                    # Sole holder now: write permission comes back.
                    promoted.writable = True
                    m.gpus[new_owner].tlbs.invalidate(victim.vpn)
            else:
                victim.owner = HOST_NODE
                if eviction.was_dirty:
                    cycles += m.kernel.transfer(
                        gpu, HOST_NODE, m.config.page_size, now + cycles
                    )
                victim.dirty = False
            m.access_counters.reset_group(victim.vpn)
        elif gpu in victim.replicas:
            victim.replicas.discard(gpu)
            m.gpus[gpu].invalidate_translation(victim.vpn)
            if not victim.replicas and victim.owner != HOST_NODE:
                # Last replica gone: the owner's mapping can be writable
                # again (no more copies to keep coherent).
                owner_pte = m.gpus[victim.owner].page_table.lookup(victim.vpn)
                if owner_pte is not None:
                    owner_pte.writable = True
                    m.gpus[victim.owner].tlbs.invalidate(victim.vpn)
        return cycles
