"""Ablations of ESP's design choices beyond the paper's figures.

The paper fixes several design constants with brief justifications: two
jump-ahead modes (Section 3.1), a 190-instruction prefetch lead and the
70-instruction looper head start (Section 3.6), and the Figure 8 list
budgets. These benchmarks sweep each choice to show the sensitivity around
the chosen point.
"""

import dataclasses

import pytest

from repro.sim import presets
from repro.sim.config import EspConfig
from repro.sim.sweep import ParameterSweep, esp_knob

APPS = ("amazon", "bing", "pixlr")


def sweep_gains(runner, vary, values, knob):
    """HMean improvement (%) over the baseline per value of one ESP+NL
    knob, the whole sweep run as one batch."""
    sweep = ParameterSweep(presets.esp_nl(), vary, values, knob=knob)
    return {point.value: point.hmean_improvement
            for point in sweep.run(runner, APPS).points}


def depth_config(depth: int) -> EspConfig:
    return dataclasses.replace(
        presets.esp_nl().esp, depth=depth,
        i_cachelet_bytes=(5632,) + (512,) * (depth - 1),
        d_cachelet_bytes=(5632,) + (512,) * (depth - 1),
        i_list_bytes=(499,) + (68,) * (depth - 1),
        d_list_bytes=(510,) + (57,) * (depth - 1),
        b_list_dir_bytes=(566,) + (80,) * (depth - 1),
        b_list_tgt_bytes=(41,) + (6,) * (depth - 1))


class TestJumpAheadDepth:
    """Section 3.1 / 6.6: two jump-ahead modes capture nearly everything."""

    def test_depth_sweep(self, benchmark, runner):
        def sweep():
            return sweep_gains(
                runner, lambda cfg, depth: cfg.replace(
                    esp=depth_config(depth)), (1, 2, 4), "depth")

        gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print(f"\njump-ahead depth sweep (improvement %): {gains}")
        # a second mode helps over a single one
        assert gains[2] >= gains[1] - 0.5
        # going beyond two modes buys almost nothing (the paper's point)
        assert abs(gains[4] - gains[2]) < 3.0


class TestPrefetchLead:
    """Section 3.6: prefetches issue 190 instructions ahead of use."""

    def test_lead_sweep(self, benchmark, runner):
        def sweep():
            return sweep_gains(runner, esp_knob("prefetch_lead"),
                               (20, 190, 1500), "prefetch_lead")

        gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print(f"\nprefetch-lead sweep (improvement %): {gains}")
        # a too-short lead cannot cover memory latency
        assert gains[190] > gains[20] - 1.0
        # the chosen point is competitive with a much longer lead
        assert gains[190] > gains[1500] - 3.0


class TestListCapacity:
    """Figure 8's list budgets vs halved and doubled provisioning."""

    def test_capacity_sweep(self, benchmark, runner):
        def scaled(cfg, factor):
            esp = cfg.esp
            return cfg.replace(esp=dataclasses.replace(
                esp,
                i_list_bytes=tuple(int(b * factor)
                                   for b in esp.i_list_bytes),
                d_list_bytes=tuple(int(b * factor)
                                   for b in esp.d_list_bytes),
                b_list_dir_bytes=tuple(int(b * factor)
                                       for b in esp.b_list_dir_bytes),
                b_list_tgt_bytes=tuple(max(2, int(b * factor))
                                       for b in esp.b_list_tgt_bytes)))

        def sweep():
            return sweep_gains(runner, scaled, (0.5, 1.0, 2.0),
                               "list_capacity")

        gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print(f"\nlist-capacity sweep (improvement %): {gains}")
        # capacity is a real constraint: bigger lists never hurt much
        assert gains[2.0] >= gains[0.5] - 1.0
        # the paper's budget captures most of the doubled budget's benefit
        assert gains[1.0] > gains[0.5] - 2.0


class TestLooperHeadstart:
    """Section 3.6: the looper's ~70 queue-management instructions let
    prefetching start before the event does."""

    def test_headstart_matters_for_event_starts(self, benchmark, runner):
        def sweep():
            gains = sweep_gains(runner, esp_knob("looper_headstart"),
                                (70, 0), "looper_headstart")
            return {"with": gains[70], "without": gains[0]}

        gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print(f"\nlooper head-start (improvement %): {gains}")
        # the head start can only help; it mainly covers the event's very
        # first fetches, so the effect is real but modest
        assert gains["with"] >= gains["without"] - 1.0


@pytest.mark.parametrize("mode", ["min_stall"])
class TestStallThreshold:
    """Sensitivity to the minimum-stall trigger threshold."""

    def test_threshold_sweep(self, benchmark, runner, mode):
        def sweep():
            return sweep_gains(runner, esp_knob("min_stall_cycles"),
                               (20, 60), "min_stall_cycles")

        gains = benchmark.pedantic(sweep, rounds=1, iterations=1)
        print(f"\nmin-stall-threshold sweep (improvement %): {gains}")
        # jumping on shorter stalls should not be dramatically worse
        assert abs(gains[20] - gains[60]) < 6.0
