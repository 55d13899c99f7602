"""The UVM driver: centralized fault handling (Figure 16).

Every local page fault and page protection fault travels over PCIe to
the host, where the driver walks the centralized page table, consults
the placement policy (step 2-4 of Figure 16 for GRIT), and resolves the
fault with the mechanic the page's scheme demands.  Mechanic selection
goes through the :class:`~repro.uvm.executor.MechanicExecutor` dispatch
registry (on-touch migration, remote mapping with access counters,
duplication / write collapse, plus the comparator policies' first-touch
pinning, GPS publish-subscribe, and the Ideal bound).

Faults arrive through two entry points: :meth:`handle_local_fault`
services one fault synchronously (the classic inline path, called by
the engine directly), and :meth:`service_fault_batch` drains one GPU's
replayable fault buffer — one amortized host-service charge per batch,
duplicate (gpu, vpn) entries coalesced — which is how real drivers win
back fault-service latency.  The
:class:`~repro.uvm.fault_service.FaultService` built by the driver
parks faults and drains its buffers when ``fault_batch_size > 1``.
Both entry points call the mechanic's executor straight from the
registry's table.
"""

from __future__ import annotations

import functools

from typing import Sequence

from repro.constants import (
    HOST_NODE,
    FaultKind,
    LatencyCategory,
)
from repro.errors import PolicyError
from repro.stats.events import EventKind
from repro.memsys.page import PageInfo
from repro.policies.base import Mechanic, PlacementPolicy
from repro.uvm.duplication import DuplicationEngine
from repro.uvm.executor import MechanicExecutor
from repro.uvm.fault_service import FaultService
from repro.uvm.faults import FaultEvent
from repro.uvm.machine import MachineState
from repro.uvm.migration import MigrationEngine
from repro.uvm.sanitizer import MachineSanitizer, sanitizer_enabled

#: Driver entry points the sanitizer sweeps after (each one is a
#: complete UVM operation; internals may be transiently inconsistent).
#: These are the stage boundaries of the fault pipeline: inline fault
#: service, batched fault service, and the remote-access/GPS/prefetch
#: side doors.
_SANITIZED_OPERATIONS = (
    "handle_local_fault",
    "handle_protection_fault",
    "service_fault_batch",
    "on_remote_access",
    "gps_write",
    "prefetch_page",
)

#: Driver entry points recorded as spans when a tracer is installed
#: (same complete-operation boundaries the sanitizer uses).
_TRACED_OPERATIONS = _SANITIZED_OPERATIONS


class UvmDriver:
    """Host-side memory manager tying mechanics to the active policy."""

    def __init__(self, machine: MachineState, policy: PlacementPolicy) -> None:
        self.machine = machine
        self.policy = policy
        self.migration = MigrationEngine(machine)
        self.duplication = DuplicationEngine(machine, self.migration)
        self.mechanics = MechanicExecutor(self)
        policy.register_mechanics(self.mechanics)
        # The fault entry points call executors straight from the
        # table (an unregistered mechanic raises PolicyError).
        self._handlers = self.mechanics.handlers
        missing = policy.mechanics - self.mechanics.registered()
        if missing:
            names = ", ".join(sorted(m.name for m in missing))
            raise PolicyError(
                f"policy {policy.name!r} declares mechanics with no "
                f"registered executor: {names}"
            )
        self.fault_service = FaultService(
            self, batch_size=machine.config.fault_batch_size
        )
        self.sanitizer: MachineSanitizer | None = None
        if sanitizer_enabled(machine.config):
            self.sanitizer = MachineSanitizer(
                machine,
                allow_writable_replicas=(
                    not policy.enforces_replica_protection
                ),
            )
            self._install_sanitizer_hooks()
        if machine.tracer is not None:
            self._install_trace_hooks()
        policy.bind(machine)

    def _install_sanitizer_hooks(self) -> None:
        """Wrap every public entry point with a post-operation sweep.

        Instance-level wrapping keeps the fast path free of checks when
        the sanitizer is off (no per-call flag test at all).
        """
        for name in _SANITIZED_OPERATIONS:
            setattr(self, name, self._sanitized(getattr(self, name), name))

    def _sanitized(self, operation, name: str):
        sanitizer = self.sanitizer

        @functools.wraps(operation)
        def wrapper(*args, **kwargs):
            result = operation(*args, **kwargs)
            described = ", ".join(
                [*map(repr, args)]
                + [f"{key}={value!r}" for key, value in kwargs.items()]
            )
            sanitizer.check(f"{name}({described})")
            return result

        return wrapper

    def _install_trace_hooks(self) -> None:
        """Wrap every public entry point with span recording.

        Same instance-level wrapping as the sanitizer: with no tracer
        installed the fast path does not even test a flag.  Installed
        after the sanitizer hooks so a span covers the operation plus
        its consistency sweep.
        """
        for name in _TRACED_OPERATIONS:
            setattr(self, name, self._traced(getattr(self, name), name))

    def _traced(self, operation, name: str):
        tracer = self.machine.tracer
        gpus = self.machine.gpus

        @functools.wraps(operation)
        def wrapper(gpu, target, *args, **kwargs):
            tracer.op_begin(name, gpu, gpus[gpu].clock)
            result = operation(gpu, target, *args, **kwargs)
            # prefetch_page returns bool (a subclass of int); only true
            # cycle counts become span durations.
            duration = result if type(result) is int else 0
            # Per-page operations carry the vpn; batch operations (the
            # target is the fault sequence) carry the batch size.
            if isinstance(target, int):
                tracer.op_end(duration, vpn=target)
            else:
                tracer.op_end(duration, faults=len(target))
            return result

        return wrapper

    # ------------------------------------------------------------------
    # fault entry points
    # ------------------------------------------------------------------

    def handle_local_fault(
        self,
        gpu: int,
        vpn: int,
        is_write: bool,
        now: int = 0,
        page: PageInfo | None = None,
    ) -> int:
        """Resolve a local page fault; returns cycles the access stalls.

        ``page`` lets the inline path reuse the central-page-table
        entry the translation stage already fetched for the scheme
        tally (pages are stable, in-place-mutated objects, so the
        stage's entry is the driver's entry); without it the driver
        consults the central table itself.
        """
        m = self.machine
        policy = self.policy
        if page is None:
            page = m.central_pt.get(vpn)
        mechanic = policy.mechanic_for(page)
        if mechanic is Mechanic.IDEAL:
            return self._handlers[mechanic](self, gpu, page, is_write, now)
        m.counters.record_fault(FaultKind.LOCAL_PAGE_FAULT, gpu)
        # host_service, inlined on the hottest entry point.
        cycles = m.kernel.host_service(
            gpu, now, policy.fault_service_scale
        )
        m.breakdown.charge(LatencyCategory.HOST, cycles)
        cycles += self._observe_fault(
            gpu, vpn, FaultKind.LOCAL_PAGE_FAULT, is_write
        )
        # The policy hook may have rewritten the page's scheme bits
        # (GRIT's PA path), so the mechanic is re-read after it runs.
        cycles += self._handlers[policy.mechanic_for(page)](
            self, gpu, page, is_write, now + cycles
        )
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.LOCAL_FAULT, vpn, gpu, detail=int(is_write),
                cycles=cycles,
            )
        return cycles

    def service_fault_batch(
        self, gpu: int, batch: Sequence[FaultEvent], now: int = 0
    ) -> int:
        """Drain one GPU's fault buffer as a single driver batch.

        Duplicate (gpu, vpn) deposits coalesce into one serviced fault
        (a write anywhere in the batch services as a write), and the
        PCIe round trip plus UVM software service time is charged once
        for the whole batch — the amortization real drivers get from
        batched buffer drains.  Returns the total stall cycles.
        """
        m = self.machine
        coalesced: dict[int, FaultEvent] = {}
        for record in batch:
            prior = coalesced.get(record.vpn)
            if prior is None:
                coalesced[record.vpn] = record
            else:
                coalesced[record.vpn] = prior.merged_with(record)
                m.counters.coalesced_faults += 1
        m.counters.fault_batches += 1
        policy = self.policy
        handlers = self._handlers
        cycles = self.host_service(gpu, now)
        for record in coalesced.values():
            page = m.central_pt.get(record.vpn)
            mechanic = policy.mechanic_for(page)
            if mechanic is Mechanic.IDEAL:
                cycles += handlers[mechanic](
                    self, gpu, page, record.is_write, now + cycles
                )
                continue
            m.counters.record_fault(FaultKind.LOCAL_PAGE_FAULT, gpu)
            fault_cycles = self._observe_fault(
                gpu, record.vpn, FaultKind.LOCAL_PAGE_FAULT, record.is_write
            )
            # Re-read after the policy hook: it may rewrite scheme bits.
            fault_cycles += handlers[policy.mechanic_for(page)](
                self, gpu, page, record.is_write, now + cycles + fault_cycles
            )
            cycles += fault_cycles
            if m.event_log is not None:
                m.event_log.emit(
                    EventKind.LOCAL_FAULT,
                    record.vpn,
                    gpu,
                    detail=int(record.is_write),
                    cycles=fault_cycles,
                )
        return cycles

    def handle_protection_fault(
        self, gpu: int, vpn: int, now: int = 0
    ) -> int:
        """Resolve a write that hit a read-only (duplicated) translation."""
        m = self.machine
        m.counters.record_fault(FaultKind.PAGE_PROTECTION_FAULT, gpu)
        page = m.central_pt.get(vpn)
        cycles = self.host_service(gpu, now)
        cycles += self._observe_fault(
            gpu, vpn, FaultKind.PAGE_PROTECTION_FAULT, True
        )
        cycles += self.duplication.collapse_to_writer(
            page,
            gpu,
            flush_scale=self.policy.flush_scale,
            now=now + cycles,
        )
        if m.event_log is not None:
            m.event_log.emit(
                EventKind.PROTECTION_FAULT, vpn, gpu, cycles=cycles
            )
        return cycles

    def on_remote_access(self, gpu: int, vpn: int, now: int = 0) -> int:
        """Account one remote data access; may fire a counter migration."""
        m = self.machine
        m.counters.remote_accesses += 1
        self.policy.on_remote_access(gpu, vpn)
        page = m.central_pt.get(vpn)
        if self.policy.mechanic_for(page) is not Mechanic.ACCESS_COUNTER:
            return 0
        if not m.access_counters.record_remote_access(gpu, vpn):
            return 0
        # Threshold reached: the driver broadcasts invalidations and
        # migrates the page toward the counting GPU (Section II-B2).
        cycles = self.host_service(gpu, now)
        cycles += self.migration.migrate(
            page,
            gpu,
            flush_scale=self.policy.flush_scale,
            now=now + cycles,
        )
        return cycles

    def gps_write(self, gpu: int, vpn: int) -> int:
        """GPS store to a subscribed page: broadcast to all subscribers."""
        m = self.machine
        page = m.central_pt.get(vpn)
        page.dirty = True
        page.ever_written = True
        subscribers = page.holders() - {gpu}
        if not subscribers:
            return 0
        cycles = m.kernel.gps_broadcast(gpu, sorted(subscribers))
        m.breakdown.charge(LatencyCategory.REMOTE_ACCESS, cycles)
        return cycles

    def prefetch_page(self, gpu: int, vpn: int, now: int = 0) -> bool:
        """Background prefetch of an un-placed page toward ``gpu``.

        Only pages still resident on the host are prefetched (pulling a
        page out from under another GPU would be a migration, which the
        tree prefetcher does not do).  Background transfers charge no
        stall cycles but do consume frames and link bandwidth.
        """
        m = self.machine
        if vpn >= m.footprint_pages:
            return False
        page = m.central_pt.get(vpn)
        if page.owner != HOST_NODE:
            return False
        # The pull is free to the faulting stream but still consumes
        # link occupancy, so in queued mode foreground transfers queue
        # behind it.
        m.kernel.transfer(HOST_NODE, gpu, m.config.page_size, now)
        eviction = m.gpus[gpu].dram.install(vpn, False)
        if eviction is not None:
            self.migration.handle_eviction(gpu, eviction, now=now)
        page.owner = gpu
        m.gpus[gpu].page_table.map(vpn, gpu, writable=True)
        m.counters.prefetches += 1
        if m.event_log is not None:
            m.event_log.emit(EventKind.PREFETCH, vpn, gpu)
        return True

    # ------------------------------------------------------------------
    # shared charges (used by the executors and the entry points)
    # ------------------------------------------------------------------

    def host_service(self, gpu: int, now: int = 0) -> int:
        """PCIe hop plus UVM software service time, charged to Host."""
        m = self.machine
        cycles = m.kernel.host_service(
            gpu, now, self.policy.fault_service_scale
        )
        m.breakdown.charge(LatencyCategory.HOST, cycles)
        return cycles

    def charge_collapse(self, page: PageInfo) -> int:
        """Drop a page's replicas, charging the invalidation latency."""
        cycles = self.duplication.drop_replicas(
            page, flush_scale=self.policy.flush_scale
        )
        self.machine.breakdown.charge(LatencyCategory.WRITE_COLLAPSE, cycles)
        return cycles

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _observe_fault(
        self, gpu: int, vpn: int, kind: FaultKind, is_write: bool
    ) -> int:
        """Run the policy's fault hook (GRIT's PA path) and apply any
        scheme-transition consistency work it requests."""
        observation = self.policy.on_fault_observed(gpu, vpn, kind, is_write)
        cycles = observation.extra_latency
        if cycles:
            self.machine.breakdown.charge(LatencyCategory.HOST, cycles)
        for changed_vpn in observation.collapse_charged:
            page = self.machine.central_pt.get(changed_vpn)
            cycles += self.charge_collapse(page)
        for changed_vpn in observation.collapse_background:
            page = self.machine.central_pt.get(changed_vpn)
            # Neighbor-propagated transitions happen in the background;
            # consistency work is done but not charged to this fault.
            self.duplication.drop_replicas(
                page, flush_scale=self.policy.flush_scale
            )
        return cycles
