"""Ablation — DRAM bandwidth sensitivity.

The headline results are latency-only (standard for trace-driven studies).
Figure 7 lists a 12.8 GB/s memory system (~8 cycles per 64 B line at
1.66 GHz); this ablation re-runs the key comparison with the bus modelled
to confirm ESP's advantage is not an artefact of free bandwidth — ESP
issues *fewer, more accurate* prefetches than runahead pre-executes, so a
finite bus should hurt it less.
"""

from repro.sim import presets
from repro.sim.config import MemoryConfig
from repro.sim.sweep import ParameterSweep

APPS = ("amazon", "bing", "pixlr")
METERED = MemoryConfig(dram_line_transfer_cycles=8)


def test_bandwidth_sensitivity(benchmark, runner):
    def sweep():
        out = {}
        for label, memory in (("latency-only", MemoryConfig()),
                              ("12.8 GB/s bus", METERED)):
            base = presets.baseline().replace(memory=memory)
            points = ParameterSweep(
                base, lambda _cfg, name: presets.by_name(name).replace(
                    memory=memory),
                ("esp_nl", "runahead_nl"), baseline=base,
                knob="preset").run(runner, APPS).points
            out[label] = {point.value: point.hmean_improvement
                          for point in points}
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nbandwidth ablation (improvement %): {results}")
    free = results["latency-only"]
    metered = results["12.8 GB/s bus"]
    # ESP's advantage survives a finite memory bus
    assert metered["esp_nl"] > 0
    assert metered["esp_nl"] > 0.6 * free["esp_nl"]
    # and ESP still beats runahead when bandwidth is accounted for
    assert metered["esp_nl"] > metered["runahead_nl"] - 1.0
