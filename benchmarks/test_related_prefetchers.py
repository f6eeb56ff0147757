"""Section 7 — comparison against EFetch and PIF.

Paper: "Compared to a recent instruction prefetcher, EFetch, ESP incurs 3x
less hardware overhead and attains 6% higher performance. Compared to PIF,
ESP incurs 15x less hardware overhead and attains 10% higher performance."
"""

from repro.energy import esp_area_budget
from repro.prefetch import EfetchPrefetcher, PifPrefetcher
from repro.sim import presets
from repro.sim.sweep import ParameterSweep

APPS = ("amazon", "bing", "cnn", "pixlr")
PREFETCHERS = {"EFetch": presets.efetch, "PIF": presets.pif,
               "ESP + NL": presets.esp_nl}


def test_related_prefetcher_comparison(benchmark, runner):
    def compare():
        sweep = ParameterSweep(
            presets.baseline(), lambda _cfg, label: PREFETCHERS[label](),
            list(PREFETCHERS), knob="prefetcher")
        return {point.value: point.hmean_improvement
                for point in sweep.run(runner, APPS).points}

    gains = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nSection 7 comparison (improvement % over no prefetching): "
          f"{gains}")
    # ESP outperforms both related instruction prefetchers
    assert gains["ESP + NL"] > gains["EFetch"]
    assert gains["ESP + NL"] > gains["PIF"]
    # and EFetch (designed for event-driven code) beats generic PIF here
    assert gains["EFetch"] > gains["PIF"]


def test_hardware_overhead_ratios():
    """ESP's storage is a small fraction of either prefetcher's."""
    esp_bytes = sum(budget.total for budget in esp_area_budget())
    efetch_bytes = EfetchPrefetcher().hardware_bytes()
    pif_bytes = PifPrefetcher().hardware_bytes()
    # paper: 3x and 15x less hardware than EFetch and PIF respectively
    assert 2.0 < efetch_bytes / esp_bytes < 5.0
    assert 10.0 < pif_bytes / esp_bytes < 25.0
