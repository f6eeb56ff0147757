"""Unit tests for the memory hierarchy and prefetch-timeliness tracking."""

import pytest

from repro.memory import MemoryHierarchy
from repro.sim.config import MemoryConfig


@pytest.fixture
def hier():
    return MemoryHierarchy(MemoryConfig())


class TestDemandPath:
    def test_cold_access_is_llc_miss(self, hier):
        res = hier.access_i(100, cycle=0)
        assert res.llc_miss
        assert not res.l1_hit
        assert res.latency == hier.mem_latency

    def test_second_access_hits_l1(self, hier):
        hier.access_i(100, 0)
        res = hier.access_i(100, 1)
        assert res.l1_hit
        assert res.latency == 0

    def test_l2_hit_after_l1_eviction(self, hier):
        hier.access_d(100, 0)
        # evict block 100 from L1-D (2-way, 256 sets): same set needs 2 more
        hier.access_d(100 + 256, 1)
        hier.access_d(100 + 512, 2)
        res = hier.access_d(100, 3)
        assert not res.l1_hit
        assert not res.llc_miss
        assert res.latency == hier.l2_latency

    def test_sides_are_independent(self, hier):
        hier.access_i(100, 0)
        res = hier.access_d(100, 1)
        # same block number on the D side misses L1-D but hits the shared L2
        assert not res.l1_hit
        assert res.latency == hier.l2_latency

    def test_latencies_follow_config(self):
        hier = MemoryHierarchy(MemoryConfig(dram_latency=200))
        assert hier.mem_latency == 200 + hier.l2_latency


class TestPrefetchTimeliness:
    def test_timely_prefetch_full_cover(self, hier):
        hier.prefetch("i", 50, cycle=0)
        res = hier.access_i(50, cycle=hier.mem_latency + 1)
        assert res.prefetched
        assert res.latency == 0
        assert not res.llc_miss
        assert hier.prefetch_stats("i").useful == 1

    def test_late_prefetch_partial_cover(self, hier):
        hier.prefetch("d", 50, cycle=0)
        res = hier.access_d(50, cycle=10)
        assert res.prefetched
        assert res.latency == hier.mem_latency - 10
        assert hier.prefetch_stats("d").late == 1

    def test_prefetch_of_l2_resident_block(self, hier):
        hier.access_d(50, 0)  # now in L1+L2
        hier.l1d.invalidate(50)
        assert hier.prefetch("d", 50, cycle=100)
        res = hier.access_d(50, cycle=100 + hier.l2_latency)
        assert res.prefetched
        assert res.latency == 0

    def test_prefetch_redundant_when_in_l1(self, hier):
        hier.access_i(50, 0)
        assert hier.prefetch("i", 50, cycle=1) is False
        assert hier.prefetch_stats("i").issued == 0

    def test_consumed_prefetch_fills_l1(self, hier):
        hier.prefetch("i", 50, cycle=0)
        hier.access_i(50, cycle=500)
        res = hier.access_i(50, cycle=501)
        assert res.l1_hit

    def test_duplicate_issue_keeps_earlier_ready(self, hier):
        hier.prefetch("i", 50, cycle=0)
        hier.prefetch("i", 50, cycle=1000)  # later duplicate
        res = hier.access_i(50, cycle=hier.mem_latency)
        assert res.latency == 0  # the cycle-0 issue won

    def test_issue_counted_once_per_block(self, hier):
        hier.prefetch("i", 50, cycle=0)
        hier.prefetch("i", 50, cycle=1)
        assert hier.prefetch_stats("i").issued == 1

    def test_pending_capacity_eviction(self):
        hier = MemoryHierarchy()
        hier._pending["i"].capacity = 4
        for block in range(6):
            hier.prefetch("i", 1000 + block, cycle=0)
        stats = hier.prefetch_stats("i")
        assert stats.issued == 6
        assert stats.useless == 2


class TestSidePaths:
    def test_fetch_into_installs_immediately(self, hier):
        hier.fetch_into("i", 77)
        res = hier.access_i(77, 0)
        assert res.l1_hit

    def test_residency_latency_levels(self, hier):
        assert hier.residency_latency("i", 99) == hier.mem_latency
        hier.l2.fill(99)
        assert hier.residency_latency("i", 99) == hier.l2_latency
        hier.l1i.fill(99)
        assert hier.residency_latency("i", 99) == 0

    def test_residency_latency_no_side_effects(self, hier):
        hier.residency_latency("d", 99)
        assert not hier.l2.contains(99)
        assert hier.l1d.stats.accesses == 0
