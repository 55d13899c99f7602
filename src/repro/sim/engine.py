"""The trace-driven multi-GPU simulation engine.

Each GPU replays its access stream against its own clock; the engine
always advances the GPU that is furthest behind, which interleaves the
streams the way concurrent execution would.  Each access is probed in
its GPU's L1 TLB once.  A *steady* access (L1 hit on a local page it
may access) is priced inline or batched by the fast path (see
``repro.sim.fastpath``); every other access runs the staged
fault-service pipeline (see ``repro.sim.pipeline``): translation
(L1 TLB -> L2 TLB -> page-table walk), fault buffering, batched fault
service, then a data access charged by where the page actually lives.
With ``fault_batch_size == 1`` (the default) faults are serviced
inline at the faulting access, by the UVM driver directly — the
classic simulator, bit-for-bit.
With a larger batch size the faulting access parks in the GPU's
replayable fault buffer while the stream keeps issuing (the other
warps of a real GPU); a full buffer drains as one batch through the
UVM driver and the parked accesses are then replayed.
"""

from __future__ import annotations

import heapq

from typing import TYPE_CHECKING

from repro.config import SystemConfig
from repro.constants import HOST_NODE, LatencyCategory
from repro.errors import SimulationError
from repro.memsys.address import AddressSpace
from repro.obs.run import RunObservation, observe_enabled
from repro.obs.tracer import ENGINE_TRACK
from repro.policies.base import PlacementPolicy
from repro.sim.fastpath import FastPath, fast_path_enabled
from repro.sim.pipeline import CURSOR_CHUNK, TranslationStage
from repro.sim.result import SimulationResult
from repro.stats.timeline import IntervalTimeline
from repro.uvm.driver import UvmDriver
from repro.uvm.machine import MachineState
from repro.workloads.base import WorkloadTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memsys.page_table import LocalPTE
    from repro.prefetch.tree import TreePrefetcher
    from repro.sim.gpu import GpuNode
    from repro.stats.events import EventLog

#: Run-ahead bound when the scheduled GPU is the only one left.
_NO_RIVAL = (float("inf"), 0)


class Engine:
    """Runs one workload trace under one placement policy."""

    def __init__(
        self,
        config: SystemConfig,
        trace: WorkloadTrace,
        policy: PlacementPolicy,
        prefetcher: "TreePrefetcher | None" = None,
        timeline: IntervalTimeline | None = None,
        event_log: "EventLog | None" = None,
        observation: RunObservation | None = None,
    ) -> None:
        if trace.num_gpus != config.num_gpus:
            raise SimulationError(
                f"trace built for {trace.num_gpus} GPUs, config has "
                f"{config.num_gpus}"
            )
        self.config = config
        self.trace = trace
        self.policy = policy
        self.prefetcher = prefetcher
        self.timeline = timeline
        self.address_space = AddressSpace(config.page_size)
        footprint = max(
            1,
            -(
                -trace.footprint_pages
                // self.address_space.base_pages_per_page
            ),
        )
        self.machine = MachineState.build(
            config, footprint, initial_scheme=policy.initial_scheme()
        )
        self.machine.event_log = event_log
        # Observability binds before the driver is built so the driver
        # sees the tracer and wraps its entry points.
        self.observation = observation
        if self.observation is None and observe_enabled(config):
            self.observation = RunObservation()
        if self.observation is not None:
            self.observation.bind(self.machine, policy)
        self.driver = UvmDriver(self.machine, policy)
        self.fault_service = self.driver.fault_service
        #: True when every fault is serviced at the faulting access.
        self.inline = self.fault_service.inline
        self.stage = TranslationStage(
            self.machine, trace, self.address_space
        )
        self.costs = self.machine.kernel.costs
        # The vectorized steady-state fast path (repro.sim.fastpath):
        # off under contention="queued", where every access is an
        # order-sensitive reservation against live link/DRAM state.
        self.fastpath: FastPath | None = None
        if fast_path_enabled(config) and not self.machine.kernel.queued:
            self.fastpath = FastPath(self)
        if prefetcher is not None:
            prefetcher.bind(self.driver)

    def run(self) -> SimulationResult:
        """Replay the whole trace; returns the aggregated result."""
        machine = self.machine
        counters = machine.counters
        policy = self.policy
        issue_gap = self.config.issue_gap
        interval = policy.interval_cycles
        next_interval = interval if interval else None
        timeline = self.timeline
        observation = self.observation
        obs_next = (
            observation.sample_interval if observation is not None else None
        )

        gpus = machine.gpus
        l1s = [gpu.tlbs.l1 for gpu in gpus]
        kernel = machine.kernel
        l1_latency = self.config.l1_tlb.lookup_latency
        gps_writes = policy.gps_semantics
        stage = self.stage
        cursors = stage.cursors
        fold_shift = stage.fold_shift
        service = self.fault_service
        inline = self.inline
        fastpath = self.fastpath
        # Yield gate of the fast path: after an unpaid round (one that
        # committed no more accesses than the GPUs it planned) the next
        # ``hold`` steady accesses are priced inline without a round;
        # ``backoff`` doubles per unpaid round and a paid round resets
        # it, so batching runs only while it commits.
        hold = 0
        backoff = 1
        # Scheduling heap: always advance the GPU that is furthest
        # behind, ties broken by lowest id — (clock, gpu_id) tuples
        # order exactly like the old min()-over-list selection without
        # the O(n) scan and list surgery per access.
        heap = [
            (gpus[g].clock, g)
            for g in range(len(cursors))
            if len(cursors[g])
        ]
        heapq.heapify(heap)

        while heap:
            now, gpu_id = heap[0]
            node = gpus[gpu_id]
            if now != node.clock:
                # Stale entry: a hook or drain advanced this GPU's
                # clock behind the heap's back (clocks only grow, so
                # the refreshed entry re-sorts correctly).
                heapq.heapreplace(heap, (node.clock, gpu_id))
                continue
            # Run-ahead: this GPU keeps replaying while it sorts before
            # the heap's next-smallest entry (a child of the root).  A
            # stale entry lags its GPU's clock, so it can only end a
            # run early; the order is exactly the heap's.
            rival = min(heap[1:3], default=_NO_RIVAL)
            cursor = cursors[gpu_id]
            l1 = l1s[gpu_id]
            dram = node.dram
            while True:
                boundary = False
                if next_interval is not None and now >= next_interval:
                    boundary = True
                    policy.on_interval(now)
                    if observation is not None:
                        observation.tracer.instant(
                            "policy_interval", ENGINE_TRACK, now
                        )
                    # Realign instead of stepping one interval: a drain
                    # that jumped the clock past several boundaries
                    # fires the hook once (skipped boundaries coalesce)
                    # and the next boundary is the first after ``now``,
                    # the catch-up rule the observation sampler uses.
                    next_interval = (now // interval + 1) * interval
                if obs_next is not None and now >= obs_next:
                    boundary = True
                    observation.sample(now)
                    obs_next = (
                        now // observation.sample_interval + 1
                    ) * observation.sample_interval
                if boundary and fastpath is not None:
                    # The hooks may have moved mappings the fast
                    # path's cached verifications rely on.
                    fastpath.invalidate(gpu_id)
                # Peek only if a fast round may batch this access.  No
                # round on a boundary iteration: the hook may have moved
                # clocks, and this access replays with the pre-hook
                # ``now`` like the classic loop.
                may_round = fastpath is not None and not boundary
                if may_round and not hold:
                    base_vpn, is_write = cursor.peek()
                    vpn = base_vpn >> fold_shift
                    consumed = False
                else:
                    base_vpn, vpn, is_write = stage.next_access(gpu_id)
                    consumed = True
                # The one L1 probe of this access, shared by the
                # steady test, the fast round and the scalar pipeline.
                entry = l1.peek(vpn)
                steady = (
                    entry is not None
                    and entry.location == gpu_id
                    and (not is_write or (entry.writable and not gps_writes))
                )
                if steady and may_round:
                    # Yield gate (see above): price inline while held.
                    if hold:
                        hold -= 1
                    else:
                        heap[0] = (now, gpu_id)
                        planned = len(heap)
                        committed = fastpath.round(
                            heap, next_interval, obs_next
                        )
                        if committed > planned:
                            backoff = 1
                        else:
                            hold = backoff
                            backoff = min(backoff * 2, CURSOR_CHUNK)
                        if committed:
                            # The round rebuilt the heap.
                            break
                if not consumed:
                    stage.next_access(gpu_id)
                if timeline is not None:
                    timeline.record(now, gpu_id, base_vpn, is_write)
                counters.record_access(is_write)
                if steady:
                    # Inline steady hit: exactly what the pipeline
                    # charges an L1 hit on a local page it may access.
                    if fastpath is not None:
                        fastpath.forget(gpu_id)
                    l1.record_hit(vpn)
                    cycles = l1_latency + kernel.local_access(
                        gpu_id, now + l1_latency
                    )
                    if is_write:
                        dram.mark_dirty(vpn)
                    else:
                        dram.touch(vpn)
                    node.clock = now + cycles + issue_gap
                else:
                    if fastpath is not None:
                        # Scalar accesses can fault, fill, migrate, or
                        # evict — anything the fast path verified
                        # against may change, so flag its cached
                        # verifications for revalidation.
                        fastpath.invalidate(gpu_id)
                    cycles, parked = self._service_access(
                        gpu_id, node, vpn, is_write, now, entry
                    )
                    node.clock = now + cycles + issue_gap
                    if parked and service.should_drain(gpu_id):
                        node.clock += self._drain_faults(
                            gpu_id, node, node.clock
                        )
                if cursor.exhausted:
                    heapq.heappop(heap)
                    # End of stream: nothing left to overlap parked
                    # faults with, so flush this GPU's partial batch.
                    if not inline and service.pending(gpu_id):
                        if fastpath is not None:
                            fastpath.invalidate(gpu_id)
                        node.clock += self._drain_faults(
                            gpu_id, node, node.clock
                        )
                    break
                now = node.clock
                if (now, gpu_id) > rival:
                    heapq.heapreplace(heap, (now, gpu_id))
                    break

        return self._build_result()

    def _service_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        now: int,
        l1_entry: "LocalPTE | None",
    ) -> tuple[int, bool]:
        """Stages 1-2 of one access; returns ``(cycles, parked)``.

        ``l1_entry`` is the access's L1 probe.  ``parked`` is True
        when the access deposited a fault into the GPU's buffer and
        its remainder (TLB fill, protection check, data access) is
        deferred to the post-drain replay.
        """
        pte, cycles, page = self.stage.lookup(node, vpn, now, l1_entry)
        if page is not None:
            # Both TLBs missed: fault if unmapped, then refill.
            if pte is None:
                if not self.inline:
                    self.fault_service.submit(gpu_id, vpn, is_write, now)
                    return cycles, True
                # Inline service: straight to the driver, through the
                # instance so sanitizer and tracer wrappers still run.
                # The stage's central-page-table entry is reused.
                cycles += self.driver.handle_local_fault(
                    gpu_id, vpn, is_write, now, page=page
                )
                pte = node.page_table.entries.get(vpn)
                if pte is None:
                    raise SimulationError(
                        f"fault on vpn {vpn} left GPU {gpu_id} unmapped"
                    )
                if self.prefetcher is not None:
                    self.prefetcher.on_install(gpu_id, vpn, now + cycles)
            node.fill_translation(vpn, pte)
        cycles += self._finish_access(
            gpu_id, node, vpn, is_write, pte, now + cycles
        )
        return cycles, False

    def _drain_faults(self, gpu_id: int, node: "GpuNode", now: int) -> int:
        """Stage 3 + replay: drain one GPU's buffer, finish accesses."""
        cycles, records = self.fault_service.drain(gpu_id, now)
        for event in records:
            cycles += self._replay_access(
                gpu_id, node, event.vpn, event.is_write, now + cycles
            )
        return cycles

    def _replay_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        now: int,
    ) -> int:
        """Finish one parked access after its batch was serviced."""
        cycles = 0
        pte = node.page_table.lookup(vpn)
        if pte is None:
            # A later fault in the same batch evicted this page while
            # being serviced; re-fault it inline.
            cycles += self.driver.handle_local_fault(
                gpu_id, vpn, is_write, now=now
            )
            pte = node.page_table.lookup(vpn)
            if pte is None:
                raise SimulationError(
                    f"fault on vpn {vpn} left GPU {gpu_id} unmapped"
                )
        if self.prefetcher is not None:
            self.prefetcher.on_install(gpu_id, vpn, now + cycles)
        node.fill_translation(vpn, pte)
        return cycles + self._finish_access(
            gpu_id, node, vpn, is_write, pte, now + cycles
        )

    def _finish_access(
        self,
        gpu_id: int,
        node: "GpuNode",
        vpn: int,
        is_write: bool,
        pte: "LocalPTE",
        now: int,
    ) -> int:
        """Stage 4: protection check plus the data access itself.

        ``now`` is the simulated cycle the access reaches the data
        path; the timing kernel prices the access against the routed
        link and DRAM channel occupancy at that instant (a no-op in
        the default flat mode).
        """
        driver = self.driver
        cycles = 0
        if is_write and not pte.writable:
            cycles += driver.handle_protection_fault(gpu_id, vpn, now=now)
            pte = node.page_table.lookup(vpn)
            if pte is None or not pte.writable:
                raise SimulationError(
                    f"collapse on vpn {vpn} left GPU {gpu_id} unwritable"
                )
            node.fill_translation(vpn, pte)
        # Data access: local DRAM, a peer GPU over NVLink, or host
        # memory over PCIe (counter-tracked pages before migration).
        kernel = self.machine.kernel
        breakdown = self.machine.breakdown
        location = pte.location
        if location == gpu_id:
            cycles += kernel.local_access(gpu_id, now + cycles)
            if is_write:
                node.dram.mark_dirty(vpn)
            else:
                node.dram.touch(vpn)
        elif location == HOST_NODE:
            access, penalty = kernel.host_access(
                gpu_id, is_write, now + cycles
            )
            cycles += access
            breakdown.charge(LatencyCategory.REMOTE_ACCESS, penalty)
            cycles += driver.on_remote_access(
                gpu_id, vpn, now=now + cycles
            )
        else:
            access, penalty = kernel.remote_access(
                gpu_id, location, is_write, now + cycles
            )
            cycles += access
            breakdown.charge(LatencyCategory.REMOTE_ACCESS, penalty)
            if is_write:
                self.machine.gpus[location].dram.mark_dirty(vpn)
            cycles += driver.on_remote_access(
                gpu_id, vpn, now=now + cycles
            )
        if self.policy.gps_semantics and is_write:
            cycles += driver.gps_write(gpu_id, vpn)
        return cycles

    def _build_result(self) -> SimulationResult:
        machine = self.machine
        l1_hits = sum(gpu.tlbs.l1.hits for gpu in machine.gpus)
        l1_misses = sum(gpu.tlbs.l1.misses for gpu in machine.gpus)
        l2_hits = sum(gpu.tlbs.l2.hits for gpu in machine.gpus)
        details: dict[str, object] = {
            "nvlink_bytes": machine.topology.total_nvlink_bytes(),
            "pcie_bytes": machine.topology.total_pcie_bytes(),
            "contention": machine.kernel.mode,
            "topology": machine.topology.spec.describe(),
            "link_wait_cycles": machine.topology.total_wait_cycles(),
            "switch_wait_cycles": machine.topology.switch_wait_cycles(),
            "dram_wait_cycles": machine.kernel.dram_wait_cycles(),
            "policy_description": self.policy.describe(),
            "l1_tlb_hit_rate": (
                l1_hits / (l1_hits + l1_misses) if l1_hits + l1_misses else 0.0
            ),
            "l2_tlb_hit_rate": (
                l2_hits / l1_misses if l1_misses else 0.0
            ),
            "page_walks": sum(gpu.walker.walks for gpu in machine.gpus),
            "walk_cache_hit_rate": self._walk_cache_hit_rate(),
        }
        per_gpu_evictions = [gpu.dram.evictions for gpu in machine.gpus]
        details["per_gpu_evictions"] = per_gpu_evictions
        machine.counters.evictions = sum(per_gpu_evictions)
        details["footprint_pages"] = machine.footprint_pages
        details["fault_imbalance"] = machine.counters.fault_imbalance()
        total_cycles = max(gpu.clock for gpu in machine.gpus)
        if machine.event_log is not None:
            details["dropped_events"] = machine.event_log.dropped
        if self.observation is not None:
            self.observation.finalize(total_cycles)
        return SimulationResult(
            workload=self.trace.name,
            policy=self.policy.name,
            total_cycles=total_cycles,
            per_gpu_cycles=[gpu.clock for gpu in machine.gpus],
            counters=machine.counters,
            breakdown=machine.breakdown,
            num_gpus=self.config.num_gpus,
            page_size=self.config.page_size,
            details=details,
        )

    def _walk_cache_hit_rate(self) -> float:
        hits = sum(gpu.walker.walk_cache.hits for gpu in self.machine.gpus)
        misses = sum(
            gpu.walker.walk_cache.misses for gpu in self.machine.gpus
        )
        return hits / (hits + misses) if hits + misses else 0.0


def simulate(
    config: SystemConfig,
    trace: WorkloadTrace,
    policy: PlacementPolicy,
    prefetcher: "TreePrefetcher | None" = None,
    timeline: IntervalTimeline | None = None,
    event_log: "EventLog | None" = None,
    observation: RunObservation | None = None,
) -> SimulationResult:
    """Convenience wrapper: build an :class:`Engine` and run it."""
    engine = Engine(
        config,
        trace,
        policy,
        prefetcher=prefetcher,
        timeline=timeline,
        event_log=event_log,
        observation=observation,
    )
    return engine.run()
