"""Set-associative TLB models with LRU replacement.

Geometry follows Table I: a 32-entry fully-associative L1 TLB (1-cycle
lookup) and a 512-entry 16-way L2 TLB (10-cycle lookup) shared by the
GPU's compute units.  Entries cache the *local* page-table translation,
so a TLB hit still distinguishes local from remote data locations and
read-only duplicate mappings (writes to those raise protection faults
even on a TLB hit).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List

from repro.config import TLBConfig
from repro.memsys.page_table import LocalPTE


class SetAssociativeTLB:
    """One TLB level: per-set LRU over :class:`LocalPTE` payloads."""

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._sets: List[OrderedDict[int, LocalPTE]] = [
            OrderedDict() for _ in range(config.sets)
        ]
        self._set_mask = config.sets - 1
        self.hits = 0
        self.misses = 0

    def lookup(self, vpn: int) -> LocalPTE | None:
        """Probe the TLB; promotes the entry to MRU on a hit."""
        entries = self._sets[vpn & self._set_mask]
        entry = entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(vpn)
        self.hits += 1
        return entry

    def peek(self, vpn: int) -> LocalPTE | None:
        """Probe without touching LRU order or hit/miss counters.

        The engine probes each access with this once and accounts the
        result afterwards (:meth:`record_hit`, or
        :meth:`TLBHierarchy.translate`).  The steady-state fast
        path uses it to *verify* that a run of accesses would hit
        before committing to batch pricing; the statistical effects of
        the verified hits are applied afterwards in bulk (``hits`` bump
        plus :meth:`promote` per unique page).
        """
        return self._sets[vpn & self._set_mask].get(vpn)

    def record_hit(self, vpn: int) -> None:
        """Account one hit on an entry already found with :meth:`peek`.

        Together with ``peek`` this is exactly :meth:`lookup` on a hit:
        the engine probes each access once and reuses the entry.
        """
        self._sets[vpn & self._set_mask].move_to_end(vpn)
        self.hits += 1

    def promote(self, vpn: int) -> None:
        """MRU-promote an entry known to be resident (bulk fast path).

        Raises ``KeyError`` when the entry is absent — callers must
        have verified residency with :meth:`peek` first.
        """
        self._sets[vpn & self._set_mask].move_to_end(vpn)

    def insert(self, vpn: int, pte: LocalPTE) -> None:
        """Fill an entry, evicting the set's LRU victim if full."""
        entries = self._sets[vpn & self._set_mask]
        if vpn in entries:
            entries.move_to_end(vpn)
            entries[vpn] = pte
            return
        if len(entries) >= self.config.ways:
            entries.popitem(last=False)
        entries[vpn] = pte

    def invalidate(self, vpn: int) -> bool:
        """Shootdown of one translation; True if it was cached."""
        return self._sets[vpn & self._set_mask].pop(vpn, None) is not None

    def flush(self) -> None:
        """Full flush (pipeline drain during migration/collapse)."""
        for entries in self._sets:
            if entries:
                entries.clear()

    def cached_vpns(self) -> Iterator[int]:
        """Every VPN with a cached translation (sanitizer sweeps)."""
        for entries in self._sets:
            yield from entries

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)


class TLBHierarchy:
    """L1 + L2 TLB pair for one GPU with combined lookup accounting."""

    def __init__(self, l1: TLBConfig, l2: TLBConfig) -> None:
        self.l1 = SetAssociativeTLB(l1)
        self.l2 = SetAssociativeTLB(l2)
        # Both levels' sets (cleared in place, never replaced), so a
        # full flush is one loop.
        self._all_sets = [*self.l1._sets, *self.l2._sets]

    def lookup(self, vpn: int) -> tuple[LocalPTE | None, int, bool]:
        """Probe L1 then L2.

        Returns ``(pte, latency, l2_missed)`` where ``pte`` is None on a
        full miss and ``l2_missed`` flags that a page-table walk is
        needed (the event Figure 19 buckets scheme usage by).
        """
        pte, latency = self.translate(vpn, self.l1.peek(vpn))
        return pte, latency, pte is None

    def translate(
        self, vpn: int, l1_entry: LocalPTE | None
    ) -> tuple[LocalPTE | None, int]:
        """The two-level lookup, given the L1 entry a caller peeked.

        Returns ``(pte, latency)``; ``pte`` is None when both levels
        missed and a page-table walk is needed.  The engine probes the
        L1 once per access to decide whether it is steady; this
        finishes the lookup from that probe, so a hit or miss is
        still counted exactly once.
        """
        l1 = self.l1
        latency = l1.config.lookup_latency
        if l1_entry is not None:
            l1.record_hit(vpn)
            return l1_entry, latency
        l1.misses += 1
        pte = self.l2.lookup(vpn)
        if pte is not None:
            l1.insert(vpn, pte)
        return pte, latency + self.l2.config.lookup_latency

    def invalidate(self, vpn: int) -> None:
        """Shootdown of one translation in both levels."""
        l1 = self.l1
        l2 = self.l2
        l1._sets[vpn & l1._set_mask].pop(vpn, None)
        l2._sets[vpn & l2._set_mask].pop(vpn, None)

    def flush(self) -> None:
        """Full flush of both levels."""
        for entries in self._all_sets:
            if entries:
                entries.clear()
