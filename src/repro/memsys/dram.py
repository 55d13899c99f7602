"""Per-GPU DRAM directory: frame budget, residency, and eviction.

Table I sizes GPU memory to 70% of the application's footprint, so
placement schemes that keep many copies (duplication, GPS) run out of
frames and evict — the oversubscription behaviour Sections II-B3 and
VI-C2 lean on.  The directory tracks which VPNs occupy frames and picks
victims (LRU by default, FIFO and seeded-random available for the
replacement-policy ablation); the engine charges the transfer/write-back
costs.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import NamedTuple

from repro.constants import EvictionPolicy


class EvictionResult(NamedTuple):
    """Outcome of making room for one page (immutable)."""

    evicted_vpn: int
    was_dirty: bool


class DramDirectory:
    """Tracks page residency in one GPU's DRAM."""

    def __init__(
        self,
        gpu_id: int,
        capacity_frames: int,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        seed: int = 0,
    ) -> None:
        if capacity_frames < 1:
            raise ValueError("DRAM needs at least one frame")
        self.gpu_id = gpu_id
        self.capacity = capacity_frames
        self.policy = policy
        self._rng = random.Random(seed + gpu_id)
        self._resident: OrderedDict[int, bool] = OrderedDict()
        self.evictions = 0
        self.installs = 0

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._resident

    @property
    def full(self) -> bool:
        """True when every frame is occupied."""
        return len(self._resident) >= self.capacity

    def touch(self, vpn: int) -> None:
        """Record a data access so LRU ordering tracks recency."""
        if self.policy is EvictionPolicy.LRU and vpn in self._resident:
            self._resident.move_to_end(vpn)

    def mark_dirty(self, vpn: int) -> None:
        """Flag a resident page as modified (write-back on eviction)."""
        if vpn in self._resident:
            self._resident[vpn] = True
            if self.policy is EvictionPolicy.LRU:
                self._resident.move_to_end(vpn)

    def install(self, vpn: int, dirty: bool = False) -> EvictionResult | None:
        """Place a page in a frame, evicting a victim if needed.

        Returns the eviction performed to make room, or None if there
        was a free frame (or the page was already resident).
        """
        self.installs += 1
        if vpn in self._resident:
            self._resident[vpn] = self._resident[vpn] or dirty
            if self.policy is EvictionPolicy.LRU:
                self._resident.move_to_end(vpn)
            return None
        evicted = None
        if len(self._resident) >= self.capacity:
            victim_vpn = self._pick_victim()
            victim_dirty = self._resident.pop(victim_vpn)
            self.evictions += 1
            evicted = EvictionResult(victim_vpn, victim_dirty)
        self._resident[vpn] = dirty
        return evicted

    def _pick_victim(self) -> int:
        """Choose the frame to free per the configured policy.

        LRU and FIFO both take the OrderedDict's head (LRU refreshes
        order on touch, FIFO never does, so the head is the right
        victim for both); RANDOM picks uniformly.
        """
        if self.policy is EvictionPolicy.RANDOM:
            return self._rng.choice(list(self._resident))
        return next(iter(self._resident))

    def release(self, vpn: int) -> bool:
        """Free a frame (page migrated away or replica collapsed)."""
        return self._resident.pop(vpn, None) is not None

    def resident_vpns(self) -> list[int]:
        """VPNs currently occupying frames."""
        return list(self._resident)


class DramChannel:
    """One node's DRAM channel as a contended timing resource.

    The directory above answers *where* pages live; the channel answers
    *when* the memory can serve another request.  Each reservation
    queues behind the channel's ``busy_until`` horizon and then holds
    it for one service period, so concurrent remote readers of the same
    node's memory observe queueing delay instead of the flat
    latency-model cost.  Used only by the timing kernel
    (:mod:`repro.sim.timing`) in ``contention="queued"`` mode; in the
    default flat mode the channel is never consulted.
    """

    def __init__(self, name: str, service_cycles: int) -> None:
        if service_cycles < 1:
            raise ValueError("DRAM service time must be >= 1 cycle")
        self.name = name
        #: Effective cycles one access occupies the channel (the local
        #: DRAM latency after the MLP divisor — the already-overlapped
        #: per-request service the flat model charges).
        self.service_cycles = service_cycles
        self.busy_until = 0
        #: Accesses that reserved the channel.
        self.accesses = 0
        #: Cumulative cycles accesses spent queued behind earlier ones.
        self.wait_cycles = 0
        #: Largest backlog (``busy_until - now``) any access observed
        #: on arrival.
        self.peak_occupancy = 0

    def reserve(self, now: int) -> int:
        """Reserve one access arriving at ``now``; returns its wait."""
        self.accesses += 1
        wait = self.busy_until - now
        if wait <= 0:
            wait = 0
        else:
            self.wait_cycles += wait
            if wait > self.peak_occupancy:
                self.peak_occupancy = wait
        self.busy_until = now + wait + self.service_cycles
        return wait

    def reset_stats(self) -> None:
        """Zero the occupancy state and contention counters."""
        self.busy_until = 0
        self.accesses = 0
        self.wait_cycles = 0
        self.peak_occupancy = 0
