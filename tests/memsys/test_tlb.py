"""TLB models: set mapping, LRU, invalidation, two-level lookup."""

from repro.config import TLBConfig
from repro.memsys.page_table import LocalPTE
from repro.memsys.tlb import SetAssociativeTLB, TLBHierarchy


def pte(location: int = 0, writable: bool = True) -> LocalPTE:
    return LocalPTE(location=location, writable=writable)


class TestSetAssociativeTLB:
    def make(self, entries=8, ways=2, latency=1):
        return SetAssociativeTLB(
            TLBConfig(entries=entries, ways=ways, lookup_latency=latency)
        )

    def test_miss_then_hit(self):
        tlb = self.make()
        assert tlb.lookup(5) is None
        tlb.insert(5, pte())
        assert tlb.lookup(5) is not None
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction_within_set(self):
        tlb = self.make(entries=8, ways=2)  # 4 sets
        # VPNs 0, 4, 8 all map to set 0; ways=2 so inserting 8 evicts 0.
        tlb.insert(0, pte())
        tlb.insert(4, pte())
        tlb.insert(8, pte())
        assert tlb.lookup(0) is None
        assert tlb.lookup(4) is not None
        assert tlb.lookup(8) is not None

    def test_hit_refreshes_lru_order(self):
        tlb = self.make(entries=8, ways=2)
        tlb.insert(0, pte())
        tlb.insert(4, pte())
        tlb.lookup(0)  # 0 becomes MRU, 4 becomes LRU
        tlb.insert(8, pte())
        assert tlb.lookup(0) is not None
        assert tlb.lookup(4) is None

    def test_different_sets_do_not_interfere(self):
        tlb = self.make(entries=8, ways=2)
        for vpn in range(4):  # one per set
            tlb.insert(vpn, pte())
        for vpn in range(4):
            assert tlb.lookup(vpn) is not None

    def test_invalidate(self):
        tlb = self.make()
        tlb.insert(3, pte())
        assert tlb.invalidate(3)
        assert not tlb.invalidate(3)
        assert tlb.lookup(3) is None

    def test_flush_empties_everything(self):
        tlb = self.make()
        for vpn in range(8):
            tlb.insert(vpn, pte())
        tlb.flush()
        assert len(tlb) == 0

    def test_reinsert_updates_payload(self):
        tlb = self.make()
        tlb.insert(1, pte(location=0))
        tlb.insert(1, pte(location=3))
        assert tlb.lookup(1).location == 3

    def test_capacity_bounded(self):
        tlb = self.make(entries=8, ways=2)
        for vpn in range(100):
            tlb.insert(vpn, pte())
        assert len(tlb) <= 8


def fill(tlbs: TLBHierarchy, vpn: int, entry: LocalPTE) -> None:
    """Install a translation in both levels, L2 first (the order of
    ``GpuNode.fill_translation``)."""
    tlbs.l2.insert(vpn, entry)
    tlbs.l1.insert(vpn, entry)


class TestTLBHierarchy:
    def make(self):
        return TLBHierarchy(
            TLBConfig(entries=2, ways=2, lookup_latency=1),
            TLBConfig(entries=8, ways=4, lookup_latency=10),
        )

    def test_full_miss_reports_l2_missed(self):
        tlbs = self.make()
        entry, latency, l2_missed = tlbs.lookup(9)
        assert entry is None
        assert l2_missed
        assert latency == 11  # L1 + L2 probe cost

    def test_l1_hit_is_cheap(self):
        tlbs = self.make()
        fill(tlbs, 9, pte())
        entry, latency, l2_missed = tlbs.lookup(9)
        assert entry is not None
        assert not l2_missed
        assert latency == 1

    def test_l2_hit_promotes_to_l1(self):
        tlbs = self.make()
        fill(tlbs, 1, pte())
        fill(tlbs, 3, pte())
        fill(tlbs, 5, pte())  # L1 (2 entries) can't hold all three
        victim = next(
            vpn for vpn in (1, 3, 5) if tlbs.l1.lookup(vpn) is None
        )
        entry, latency, l2_missed = tlbs.lookup(victim)
        assert entry is not None and not l2_missed
        assert latency == 11
        assert tlbs.l1.lookup(victim) is not None

    def test_invalidate_hits_both_levels(self):
        tlbs = self.make()
        fill(tlbs, 2, pte())
        tlbs.invalidate(2)
        entry, _, l2_missed = tlbs.lookup(2)
        assert entry is None and l2_missed

    def test_flush_hits_both_levels(self):
        tlbs = self.make()
        fill(tlbs, 2, pte())
        tlbs.flush()
        assert len(tlbs.l1) == 0
        assert len(tlbs.l2) == 0
