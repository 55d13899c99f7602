"""System configuration for the trace-driven multi-GPU simulator.

The defaults reproduce Table I of the paper:

====================  =====================================================
Module                Configuration
====================  =====================================================
Compute Unit          1.0 GHz, 64 per GPU
L1 TLB                32 entries, 32-way (fully associative), 1-cycle
L2 TLB                512 entries, 16-way, 10-cycle, shared, LRU
Page table walk       8 shared walkers, 100-cycle latency per level
Page walk cache       128 entries shared across walkers
Page walk queue       64 entries
Access counter        threshold 256 at 64 KB granularity
DRAM                  70% of the application's memory footprint
Inter-GPU network     300 GB/s NVLink-v2
CPU-GPU network       32 GB/s PCIe-v4
====================  =====================================================

All latencies are expressed in 1 GHz core cycles (1 cycle == 1 ns).
Latencies that Table I does not pin down (fault service, flush, transfer
setup) are modeling choices documented on each field; their absolute
values shift absolute runtimes but the reproduction only relies on their
ordering (local << remote << fault << migration/collapse), which holds
across the plausible range (see tests/sim/test_sensitivity.py).
"""

from __future__ import annotations

import dataclasses
import math

from repro.constants import (
    ACCESS_COUNTER_GROUP_BYTES,
    ACCESS_COUNTER_THRESHOLD,
    DEFAULT_FAULT_THRESHOLD,
    PAGE_SIZE_4K,
    EvictionPolicy,
)
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class TLBConfig:
    """Geometry of one set-associative TLB level."""

    entries: int
    ways: int
    lookup_latency: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.ways <= 0:
            raise ConfigError("TLB entries and ways must be positive")
        if self.entries % self.ways != 0:
            raise ConfigError(
                f"TLB entries ({self.entries}) must be a multiple of "
                f"ways ({self.ways})"
            )
        if self.lookup_latency < 0:
            raise ConfigError("TLB lookup latency must be non-negative")

    @property
    def sets(self) -> int:
        """Number of sets (entries / ways)."""
        return self.entries // self.ways


@dataclasses.dataclass(frozen=True)
class WalkerConfig:
    """Page-table walker pool shared by a GPU's GMMU."""

    walkers: int = 8
    walk_queue_entries: int = 64
    walk_cache_entries: int = 128
    latency_per_level: int = 100
    levels: int = 4

    def __post_init__(self) -> None:
        if self.walkers <= 0:
            raise ConfigError("need at least one page-table walker")
        if self.walk_queue_entries <= 0:
            raise ConfigError("walk queue needs at least one entry")
        if self.levels <= 0:
            raise ConfigError("page table must have at least one level")
        if self.latency_per_level < 0:
            raise ConfigError("walk latency must be non-negative")

    @property
    def full_walk_latency(self) -> int:
        """Latency of a walk that misses the page-walk cache entirely."""
        return self.latency_per_level * self.levels

    @property
    def cached_walk_latency(self) -> int:
        """Latency when the walk cache covers all but the leaf level."""
        return self.latency_per_level


@dataclasses.dataclass(frozen=True)
class LatencyModel:
    """Cycle costs charged by the engine for each event class.

    ``*_fixed`` values are per-event setup/latency charges; transfers add
    a serialization component derived from the link bandwidths.
    """

    #: Local GPU DRAM access (row hit averaged with misses).
    local_dram_access: int = 200
    #: Effective round-trip of a cache-line access to a remote GPU's
    #: DRAM over NVLink, including the translation/coherence serialization
    #: a far access cannot overlap.
    remote_dram_access: int = 1200
    #: Effective round-trip of a cache-line access to host memory over
    #: PCIe (counter-based migration leaves first-touched pages in
    #: system memory until the counter threshold fires, so these are the
    #: paper's "remote-access" overhead for under-threshold pages).
    host_remote_access: int = 2400
    #: MLP divisor for *far* accesses (NVLink peers and host memory):
    #: inter-device links sustain far fewer outstanding requests than
    #: the local DRAM path, so less of their latency is hidden.
    far_access_mlp: int = 2
    #: Fixed NVLink hop latency (request/response handshake).
    nvlink_latency: int = 700
    #: NVLink-v2 bandwidth in bytes/cycle (300 GB/s at 1 GHz).
    nvlink_bytes_per_cycle: float = 300.0
    #: Fixed PCIe round-trip latency (fault message to the UVM driver).
    pcie_latency: int = 1000
    #: PCIe-v4 bandwidth in bytes/cycle (32 GB/s at 1 GHz).
    pcie_bytes_per_cycle: float = 32.0
    #: UVM driver software fault-service time (interrupt, central page
    #: table walk, bookkeeping).  Real UVM services faults in tens of
    #: microseconds amortized over traces with thousands of accesses per
    #: page; our traces carry tens of accesses per page, so the fault
    #: cost is scaled to preserve the fault-to-access cost *ratio* the
    #: schemes trade off against (see DESIGN.md section 5).
    host_fault_service: int = 4_000
    #: Draining in-flight instructions and flushing caches/TLBs of one GPU
    #: before a migration or collapse (Section II-B1).
    pipeline_flush: int = 800
    #: Invalidating one GPU's PTE + TLB entries (shootdown + ack).
    invalidation_per_gpu: int = 600
    #: Memory-level-parallelism divisor applied to *data* access latency:
    #: massively threaded GPUs overlap ordinary loads/stores, but fault
    #: handling serializes the faulting warp.
    data_access_mlp: int = 8
    #: Extra latency per fault for a PA-Table access when no PA-Cache is
    #: present (memory access plus bandwidth contention; Section V-C).
    pa_table_memory_access: int = 800
    #: PA-Cache lookup cost; hidden under the page-table walk, charged
    #: only on the rare path where the walk would finish first.
    pa_cache_lookup: int = 4
    #: Fraction of flush/invalidation cost remaining when ACUD
    #: (asynchronous compute-unit draining, from Griffin) is enabled.
    acud_discount: float = 0.3
    #: Fraction of host fault-service cost remaining when Trans-FW's
    #: remote translation forwarding short-circuits the fault.
    transfw_discount: float = 0.75
    #: Per-subscriber cost of a GPS fine-grained store broadcast.
    gps_store_broadcast: int = 60

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, (int, float)) and value < 0:
                raise ConfigError(f"latency field {field.name} must be >= 0")
        if self.data_access_mlp < 1:
            raise ConfigError("data_access_mlp must be >= 1")
        if self.far_access_mlp < 1:
            raise ConfigError("far_access_mlp must be >= 1")
        if not 0.0 <= self.acud_discount <= 1.0:
            raise ConfigError("acud_discount must be within [0, 1]")
        if not 0.0 <= self.transfw_discount <= 1.0:
            raise ConfigError("transfw_discount must be within [0, 1]")

    def page_transfer_nvlink(self, page_size: int) -> int:
        """Cycles to move one page between GPUs over NVLink."""
        return self.nvlink_latency + math.ceil(
            page_size / self.nvlink_bytes_per_cycle
        )

    def page_transfer_pcie(self, page_size: int) -> int:
        """Cycles to move one page between host and GPU over PCIe."""
        return self.pcie_latency + math.ceil(
            page_size / self.pcie_bytes_per_cycle
        )

    def scaled_data_access(self, latency: int) -> int:
        """Apply the local MLP divisor to an ordinary data access."""
        return max(1, latency // self.data_access_mlp)

    def scaled_remote_access(self) -> int:
        """Effective per-access cost of a peer-GPU (NVLink) access."""
        return max(1, self.remote_dram_access // self.far_access_mlp)

    def scaled_host_remote_access(self) -> int:
        """Effective per-access cost of a host-remote (PCIe) access."""
        return max(1, self.host_remote_access // self.far_access_mlp)


@dataclasses.dataclass(frozen=True)
class GritConfig:
    """Knobs of the GRIT mechanism itself (Section V)."""

    #: Local + protection faults needed to trigger a scheme change.
    fault_threshold: int = DEFAULT_FAULT_THRESHOLD
    #: PA-Cache geometry (64 entries, 4-way in the paper).
    pa_cache_entries: int = 64
    pa_cache_ways: int = 4
    #: Enable the hardware PA-Cache in front of the PA-Table.
    use_pa_cache: bool = True
    #: Enable Neighboring-Aware Prediction (group promotion/propagation).
    use_neighbor_prediction: bool = True
    #: Maximum group size in pages (512 == one 2 MB page-table page).
    max_group_pages: int = 512

    def __post_init__(self) -> None:
        if self.fault_threshold < 1:
            raise ConfigError("fault threshold must be >= 1")
        if self.pa_cache_entries <= 0 or self.pa_cache_ways <= 0:
            raise ConfigError("PA-Cache geometry must be positive")
        if self.pa_cache_entries % self.pa_cache_ways != 0:
            raise ConfigError("PA-Cache entries must be a multiple of ways")
        if self.max_group_pages not in (1, 8, 64, 512):
            raise ConfigError("max_group_pages must be one of 1/8/64/512")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """Complete multi-GPU system configuration (Table I defaults)."""

    num_gpus: int = 4
    page_size: int = PAGE_SIZE_4K
    #: GPU memory sized to this fraction of the application footprint,
    #: split evenly across GPUs, to model oversubscription (Table I).
    dram_footprint_fraction: float = 0.70
    l1_tlb: TLBConfig = TLBConfig(entries=32, ways=32, lookup_latency=1)
    l2_tlb: TLBConfig = TLBConfig(entries=512, ways=16, lookup_latency=10)
    walker: WalkerConfig = WalkerConfig()
    latency: LatencyModel = LatencyModel()
    grit: GritConfig = GritConfig()
    access_counter_threshold: int = ACCESS_COUNTER_THRESHOLD
    access_counter_group_bytes: int = ACCESS_COUNTER_GROUP_BYTES
    #: DRAM victim selection under oversubscription (Table I runs LRU).
    eviction_policy: EvictionPolicy = EvictionPolicy.LRU
    #: Cycles between successive memory operations of one GPU stream;
    #: stands in for the compute between memory instructions.
    issue_gap: int = 4
    #: Local page faults the UVM driver services per batch.  At the
    #: default of 1 every fault is serviced inline at the faulting
    #: access, reproducing the classic simulator bit-for-bit.  Larger
    #: values model the real driver's replayable fault buffer: faults
    #: park per-GPU while other warps keep issuing, then drain as one
    #: batch that pays a single host round trip and coalesces
    #: duplicate (gpu, vpn) entries (see docs/architecture.md).
    fault_batch_size: int = 1
    #: Validate UVM machine-state invariants after every driver
    #: operation (see repro.uvm.sanitizer).  Slow; debugging only.  The
    #: ``GRIT_SANITIZE=1`` environment variable enables it globally.
    sanitize: bool = False
    #: Record spans, metrics, and events while simulating (see
    #: repro.obs).  Off by default with zero fast-path cost.  The
    #: ``GRIT_TRACE=1`` environment variable enables it globally.
    observe: bool = False
    #: Interconnect/DRAM contention mode of the timing kernel (see
    #: repro.sim.timing).  ``"none"`` charges the flat latency-model
    #: costs (bit-for-bit the classic simulator); ``"queued"`` makes
    #: every link and DRAM channel a contended resource with
    #: ``busy_until`` occupancy and queueing delay.  The
    #: ``GRIT_CONTENTION=queued`` environment variable overrides it
    #: globally.
    contention: str = "none"
    #: Interconnect fabric shape (see repro.interconnect.routing).
    #: ``"all-to-all"`` is the paper's 4-GPU DGX-style mesh (bit-for-
    #: bit the classic simulator); ``"nvswitch[:group_size]"``,
    #: ``"ring"``, and ``"multi-node[:nodes]"`` are scale-out shapes
    #: where GPU pairs route over multiple contended hops.  The
    #: ``GRIT_TOPOLOGY`` environment variable overrides it globally.
    topology: str = "all-to-all"
    #: Batched rounds of the engine's steady-state fast path (see
    #: repro.sim.fastpath).  When on, runs of accesses that all hit
    #: already-resident, already-translated local pages are priced in
    #: one bulk step while the rounds commit enough to pay for their
    #: scans — bit-for-bit identical results, much faster replay of
    #: long runs.  Off, each such access is still priced inline.
    #: Automatically disabled under ``contention="queued"``
    #: (reservations are order-sensitive).  The ``GRIT_FAST_PATH=0/1``
    #: environment variable overrides it globally.
    fast_path: bool = True

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigError("need at least one GPU")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError("page size must be a positive power of two")
        if not 0.0 < self.dram_footprint_fraction <= 1.0:
            raise ConfigError("dram_footprint_fraction must be in (0, 1]")
        if self.access_counter_threshold < 1:
            raise ConfigError("access counter threshold must be >= 1")
        if self.access_counter_group_bytes < PAGE_SIZE_4K:
            raise ConfigError(
                "access counter group must be at least one 4 KB page"
            )
        if self.issue_gap < 0:
            raise ConfigError("issue_gap must be non-negative")
        if self.fault_batch_size < 1:
            raise ConfigError("fault_batch_size must be >= 1")
        if self.contention not in ("none", "queued"):
            raise ConfigError(
                f"contention must be 'none' or 'queued', "
                f"got {self.contention!r}"
            )
        # Deferred import: the interconnect package imports this
        # module at load time.
        from repro.interconnect.routing import TopologySpec

        TopologySpec.parse(self.topology, self.num_gpus)

    @property
    def pages_per_counter_group(self) -> int:
        """4 KB pages covered by one access-counter group (16 for 64 KB)."""
        return max(1, self.access_counter_group_bytes // self.page_size)

    def dram_frames_per_gpu(self, footprint_pages: int) -> int:
        """Per-GPU frame budget for an application footprint.

        Table I sizes total GPU DRAM to 70% of the footprint; the budget
        is split evenly across GPUs and never drops below one frame.
        """
        if footprint_pages <= 0:
            raise ConfigError("footprint must be positive")
        total = int(footprint_pages * self.dram_footprint_fraction)
        return max(1, total // self.num_gpus)

    def replace(self, **changes: object) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """Flatten to JSON-friendly types (for stamping result records)."""
        data = dataclasses.asdict(self)
        data["eviction_policy"] = self.eviction_policy.value
        return data


#: Ready-made Table I configuration (4 GPUs, 4 KB pages).
BASELINE_CONFIG = SystemConfig()
