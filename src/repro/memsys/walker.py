"""GMMU page-table walker with a shared page-walk cache.

Table I configures 8 shared walkers, a 100-cycle latency per page-table
level, a 128-entry page-walk cache, and a 64-entry walk queue.  In the
trace-driven engine each GPU processes one access at a time, so walker
*throughput* contention shows up as queueing latency: we model it as an
additive penalty when many walks are outstanding within a short window,
and the walk cache as skipping the upper levels of the radix walk on a
hit (a standard PWC idealization).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.config import WalkerConfig


class PageWalkCache:
    """LRU cache over upper-level page-table nodes, keyed by PT page.

    A hit means the upper ``levels - 1`` levels are cached and only the
    leaf level must be fetched; a miss walks the full radix depth.  The
    key is the VPN's page-table-page index (VPN / 512 for 8-byte PTEs in
    a 4 KB PT page), which is how consecutive pages share PWC entries.
    """

    #: 4 KB page-table page holds 512 8-byte entries.
    ENTRIES_PER_PT_PAGE = 512

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._entries: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def probe(self, vpn: int) -> bool:
        """Look up (and on miss, install) the PT page covering ``vpn``."""
        key = vpn // self.ENTRIES_PER_PT_PAGE
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = None
        return False

    def __len__(self) -> int:
        return len(self._entries)


class PageTableWalker:
    """Latency model for local page-table walks of one GPU."""

    def __init__(self, config: WalkerConfig) -> None:
        self.config = config
        self.walk_cache = PageWalkCache(config.walk_cache_entries)
        self.walks = 0
        #: Sliding window of recent walk "slots" used to model queueing
        #: behind the 8 shared walkers.
        self._recent_walks = 0
        self._window_anchor = 0
        #: Walk latencies on a walk-cache hit (leaf only) and miss.
        self._cached_latency = config.cached_walk_latency
        self._full_latency = config.full_walk_latency
        #: Window width (cycles) over which concurrent walks contend.
        self._window = self._full_latency

    def walk(self, vpn: int, now: int) -> int:
        """Return the latency of a local page-table walk started at ``now``."""
        self.walks += 1
        if self.walk_cache.probe(vpn):
            latency = self._cached_latency
        else:
            latency = self._full_latency
        # Queueing delay when walks pile up faster than walkers drain.
        if now - self._window_anchor > self._window:
            self._window_anchor = now
            self._recent_walks = 0
        self._recent_walks += 1
        overflow = self._recent_walks - self.config.walkers
        if overflow <= 0:
            return latency
        # Each excess walk waits behind one walker's leaf fetch.
        latency += overflow * self.config.latency_per_level
        beyond_queue = overflow - self.config.walk_queue_entries
        if beyond_queue > 0:
            # The 64-entry walk queue is full too: late arrivals stall
            # until a whole walk drains, not just a leaf fetch.
            latency += beyond_queue * self._full_latency
        return latency
