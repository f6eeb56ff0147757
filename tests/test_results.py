"""Tests for the statistics containers."""

import pytest

from repro.sim.results import EnergyBreakdown, EspStats, SimResult


class TestDerivedMetrics:
    def test_ipc(self):
        r = SimResult(instructions=1000, cycles=2000.0)
        assert r.ipc == 0.5

    def test_ipc_zero_cycles(self):
        assert SimResult().ipc == 0.0

    def test_mpki(self):
        r = SimResult(instructions=10_000, l1i_misses=150)
        assert r.l1i_mpki == 15.0
        assert SimResult().l1i_mpki == 0.0

    def test_miss_rate(self):
        r = SimResult(l1d_accesses=400, l1d_misses=20)
        assert r.l1d_miss_rate == 0.05
        assert SimResult().l1d_miss_rate == 0.0

    def test_branch_rate(self):
        r = SimResult(branches=200, branch_mispredicts=20)
        assert r.branch_misprediction_rate == 0.1
        assert SimResult().branch_misprediction_rate == 0.0

    def test_extra_instruction_fraction(self):
        r = SimResult(instructions=1000)
        r.esp.pre_instructions = [150, 50]
        assert r.extra_instruction_fraction == 0.2
        assert SimResult().extra_instruction_fraction == 0.0

    def test_speedup_and_improvement(self):
        base = SimResult(cycles=2000.0)
        fast = SimResult(cycles=1000.0)
        assert fast.speedup_over(base) == 2.0
        assert fast.improvement_over(base) == pytest.approx(100.0)
        assert SimResult(cycles=0.0).speedup_over(base) == 0.0

    def test_rate_properties_guard_degenerate_divisions(self):
        """Regression: every rate property returns 0.0 — not
        ZeroDivisionError — on an empty result."""
        r = SimResult()
        assert r.ipc == 0.0
        assert r.l1i_mpki == 0.0
        assert r.l1d_miss_rate == 0.0
        assert r.branch_misprediction_rate == 0.0
        assert r.extra_instruction_fraction == 0.0
        assert r.speedup_over(SimResult()) == 0.0


class TestSerialization:
    def test_roundtrip(self):
        r = SimResult(app="x", config="y", instructions=123, cycles=456.0,
                      l1i_misses=7)
        r.esp.pre_instructions = [10, 20]
        r.esp.hinted_events = 3
        r.energy = EnergyBreakdown(static=1.0, dynamic_core=2.0)
        back = SimResult.from_dict(r.to_dict())
        assert back.app == "x"
        assert back.instructions == 123
        assert back.esp.pre_instructions == [10, 20]
        assert back.esp.hinted_events == 3
        assert back.energy.static == 1.0
        assert back.energy.total == pytest.approx(3.0)

    def test_to_dict_json_serialisable(self):
        import json

        json.dumps(SimResult().to_dict())


class TestEspStats:
    def test_total_pre_instructions(self):
        stats = EspStats(pre_instructions=[5, 7])
        assert stats.total_pre_instructions == 12
        assert EspStats().total_pre_instructions == 0


class TestEnergyBreakdown:
    def test_total(self):
        e = EnergyBreakdown(static=1, dynamic_core=2, dynamic_caches=3,
                            dynamic_wrongpath=4, dynamic_esp=5)
        assert e.total == 15
