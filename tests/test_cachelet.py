"""Unit tests for the ESP cachelets (isolation, promotion, sizing)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cachelet, CacheletPair
from repro.memory.cache import SetAssocCache
from repro.memory.cachelet import CacheletStats


class TestCachelet:
    def test_miss_then_hit(self):
        cachelet = Cachelet(512, 12)
        assert cachelet.access(10) is False
        assert cachelet.access(10) is True
        assert cachelet.stats.accesses == 2
        assert cachelet.stats.misses == 1

    def test_capacity_bounded(self):
        cachelet = Cachelet(512, 12)  # 8 blocks
        for block in range(20):
            cachelet.access(block)
        assert len(cachelet.resident_blocks()) <= 8

    def test_dirty_eviction_counted(self):
        cachelet = Cachelet(128, 2)  # 2 blocks, single set
        cachelet.access(1, is_store=True)
        cachelet.access(2)
        cachelet.access(3)  # evicts dirty block 1
        assert cachelet.stats.dirty_evictions == 1

    def test_clean_eviction_not_counted(self):
        cachelet = Cachelet(128, 2)
        cachelet.access(1)
        cachelet.access(2)
        cachelet.access(3)
        assert cachelet.stats.dirty_evictions == 0

    def test_unbounded_mode(self):
        cachelet = Cachelet(64, 1, unbounded=True)
        for block in range(100):
            cachelet.access(block)
        assert len(cachelet.resident_blocks()) == 100
        assert cachelet.access(0) is True  # nothing ever evicted

    def test_clear_keeps_counters(self):
        cachelet = Cachelet(512, 12)
        cachelet.access(1, is_store=True)
        cachelet.clear()
        assert not cachelet.contains(1)
        assert cachelet.stats.accesses == 1

    def test_absorb(self):
        a = Cachelet(512, 12)
        b = Cachelet(512, 12)
        b.access(5, is_store=True)
        b.access(6)
        a.absorb(b)
        assert a.contains(5)
        assert a.contains(6)


class TestCacheletPair:
    def test_modes_are_isolated(self):
        pair = CacheletPair((512, 128), 12)
        pair[0].access(10)
        assert not pair[1].contains(10)

    def test_promotion_migrates_deeper_contents(self):
        pair = CacheletPair((512, 128), 12)
        pair[1].access(42)
        pair.promote()
        assert pair[0].contains(42)
        assert not pair[1].contains(42)

    def test_promotion_keeps_stale_shallow_contents(self):
        # hardware keeps old ESP-1 lines around until LRU evicts them
        pair = CacheletPair((512, 128), 12)
        pair[0].access(10)
        pair[1].access(42)
        pair.promote()
        assert pair[0].contains(10)
        assert pair[0].contains(42)

    def test_single_mode_promotion_clears(self):
        pair = CacheletPair((512,), 12)
        pair[0].access(10)
        pair.promote()
        assert not pair[0].contains(10)

    def test_deep_chain_promotion(self):
        pair = CacheletPair((512, 256, 128), 12)
        pair[2].access(99)
        pair.promote()
        assert pair[1].contains(99)
        pair.promote()
        assert pair[0].contains(99)

    def test_len(self):
        assert len(CacheletPair((512, 128))) == 2


# -- the inlined access path against the SetAssocCache reference ---------------

def _reference_access(cache, stats, dirty, block, is_store):
    """What Cachelet.access does through SetAssocCache.lookup + fill."""
    stats.accesses += 1
    hit = cache.lookup(block)
    if not hit:
        stats.misses += 1
        victim = cache.fill(block)
        if victim is not None and victim in dirty:
            dirty.discard(victim)
            stats.dirty_evictions += 1
    if is_store:
        dirty.add(block)
    return hit


@given(st.sampled_from([64, 128, 512, 1024]),
       st.integers(min_value=1, max_value=4),
       st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                          st.booleans()), max_size=300))
@settings(max_examples=80, deadline=None)
def test_access_matches_lookup_and_fill(size, assoc, accesses):
    cachelet = Cachelet(size, assoc)
    cache = SetAssocCache(size, assoc)
    stats = CacheletStats()
    dirty: set[int] = set()
    for block, is_store in accesses:
        assert cachelet.access(block, is_store) == \
            _reference_access(cache, stats, dirty, block, is_store)
    assert cachelet.stats == stats
    assert cachelet._cache.stats == cache.stats
    assert cachelet.resident_blocks() == cache.resident_blocks()
    assert cachelet._dirty == dirty
