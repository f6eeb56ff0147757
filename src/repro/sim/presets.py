"""Named machine configurations used by the paper's figures.

Each function returns a :class:`~repro.sim.config.SimConfig`. The names match
the legend strings used in the paper so the benchmark harnesses read like the
figures themselves:

* Figure 9 — ``baseline``, ``nl``, ``nl_s``, ``runahead``, ``runahead_nl``,
  ``esp``, ``esp_nl``.
* Figure 10 — ``naive_esp``, ``naive_esp_nl``, ``esp_i_nl``, ``esp_ib_nl``,
  ``esp_ibd_nl`` (the last equals ``esp_nl``).
* Figure 11a — ``nl_i``, ``esp_i``, ``esp_i_nl_i``, ``ideal_esp_i_nl_i``.
* Figure 11b — ``nl_d``, ``runahead_d``, ``runahead_d_nl_d``, ``esp_d``,
  ``esp_d_nl_d``, ``ideal_esp_d_nl_d``.
* Figure 12 — ``bp_*`` design points.
* Figure 3 — ``perfect_*``.

:data:`repro.sim.figures.FIGURE_PRESETS` lists the presets each figure
simulates.
"""

from __future__ import annotations

from repro.sim.config import (
    EspBpMode,
    EspConfig,
    PerfectConfig,
    PrefetchConfig,
    RunaheadConfig,
    SimConfig,
)

# ---------------------------------------------------------------------------
# Building blocks

_NL_BOTH = PrefetchConfig(next_line_i=True, next_line_d=True)
_NL_I = PrefetchConfig(next_line_i=True)
_NL_D = PrefetchConfig(next_line_d=True)
_NL_S = PrefetchConfig(next_line_i=True, next_line_d=True, stride=True)
_NO_PF = PrefetchConfig()


def _esp(**changes) -> EspConfig:
    return EspConfig(enabled=True, **changes)


# ---------------------------------------------------------------------------
# Figure 9: ESP vs next-line vs runahead

def baseline() -> SimConfig:
    """Baseline core with no prefetching (the normalisation point)."""
    return SimConfig(name="baseline", prefetch=_NO_PF)


def nl() -> SimConfig:
    """Next-line instruction + data (DCU) prefetching."""
    return SimConfig(name="NL", prefetch=_NL_BOTH)


def nl_s() -> SimConfig:
    """Next-line plus 256-entry stride data prefetching (the paper's
    reference baseline: "Intel's data prefetchers (next-line and stride")."""
    return SimConfig(name="NL + S", prefetch=_NL_S)


def runahead() -> SimConfig:
    """Runahead execution without any baseline prefetcher."""
    return SimConfig(name="Runahead", prefetch=_NO_PF,
                     runahead=RunaheadConfig(enabled=True))


def runahead_nl() -> SimConfig:
    """Runahead combined with next-line prefetching."""
    return SimConfig(name="Runahead + NL", prefetch=_NL_BOTH,
                     runahead=RunaheadConfig(enabled=True))


def esp() -> SimConfig:
    """Full ESP (I, D and B lists) without any baseline prefetcher."""
    return SimConfig(name="ESP", prefetch=_NO_PF, esp=_esp())


def esp_nl() -> SimConfig:
    """Full ESP combined with next-line prefetching (the headline design)."""
    return SimConfig(name="ESP + NL", prefetch=_NL_BOTH, esp=_esp())


# ---------------------------------------------------------------------------
# Figure 10: sources of performance

def naive_esp() -> SimConfig:
    """Naive ESP: pre-execution fetches into L1/L2, no cachelets or lists."""
    return SimConfig(name="Naive ESP", prefetch=_NO_PF,
                     esp=_esp(naive=True, bp_mode=EspBpMode.NAIVE))


def naive_esp_nl() -> SimConfig:
    """Naive ESP combined with next-line prefetching."""
    return SimConfig(name="Naive ESP + NL", prefetch=_NL_BOTH,
                     esp=_esp(naive=True, bp_mode=EspBpMode.NAIVE))


def esp_i_nl() -> SimConfig:
    """ESP consuming only the I-list (instruction prefetching)."""
    return SimConfig(name="ESP-I + NL", prefetch=_NL_BOTH,
                     esp=_esp(use_d_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def esp_ib_nl() -> SimConfig:
    """ESP consuming the I-list and B-lists."""
    return SimConfig(name="ESP-I,B + NL", prefetch=_NL_BOTH,
                     esp=_esp(use_d_list=False))


def esp_ibd_nl() -> SimConfig:
    """ESP consuming all three lists; identical hardware to ``esp_nl``."""
    cfg = esp_nl()
    return cfg.replace(name="ESP-I,B,D + NL")


# ---------------------------------------------------------------------------
# Figure 11a: instruction-side study (I-prefetchers only)

def nl_i() -> SimConfig:
    """Next-line instruction prefetching only."""
    return SimConfig(name="NL-I", prefetch=_NL_I)


def esp_i() -> SimConfig:
    """ESP consuming only the I-list, no baseline prefetcher."""
    return SimConfig(name="ESP-I", prefetch=_NO_PF,
                     esp=_esp(use_d_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def esp_i_nl_i() -> SimConfig:
    """ESP I-list plus next-line instruction prefetching."""
    return SimConfig(name="ESP-I + NL-I", prefetch=_NL_I,
                     esp=_esp(use_d_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def ideal_esp_i_nl_i() -> SimConfig:
    """Infinite I-cachelet and I-list with perfectly timely prefetches."""
    return SimConfig(name="ideal ESP-I + NL-I", prefetch=_NL_I,
                     esp=_esp(ideal=True, use_d_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


# ---------------------------------------------------------------------------
# Figure 11b: data-side study (D-prefetchers only)

def nl_d() -> SimConfig:
    """Next-line (DCU) data prefetching only."""
    return SimConfig(name="NL-D", prefetch=_NL_D)


def runahead_d() -> SimConfig:
    """Runahead that only warms the data cache (no I-side, no BP updates)."""
    return SimConfig(name="Runahead-D", prefetch=_NO_PF,
                     runahead=RunaheadConfig(enabled=True, d_only=True))


def runahead_d_nl_d() -> SimConfig:
    """Runahead-D combined with next-line data prefetch."""
    return SimConfig(name="Runahead-D + NL-D", prefetch=_NL_D,
                     runahead=RunaheadConfig(enabled=True, d_only=True))


def esp_d() -> SimConfig:
    """ESP consuming only the D-list, no baseline prefetcher."""
    return SimConfig(name="ESP-D", prefetch=_NO_PF,
                     esp=_esp(use_i_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def esp_d_nl_d() -> SimConfig:
    """ESP D-list plus next-line data prefetching."""
    return SimConfig(name="ESP-D + NL-D", prefetch=_NL_D,
                     esp=_esp(use_i_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def ideal_esp_d_nl_d() -> SimConfig:
    """Unbounded-D-cachelet/list ESP with timely prefetches."""
    return SimConfig(name="ideal ESP-D + NL-D", prefetch=_NL_D,
                     esp=_esp(ideal=True, use_i_list=False, use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


# ---------------------------------------------------------------------------
# Figure 12: branch-predictor design space (all on ESP + NL hardware)

def bp_base() -> SimConfig:
    """Figure 12's baseline: the NL machine, relabelled."""
    return nl().replace(name="bp base")


def bp_no_extra_hw() -> SimConfig:
    """Pre-execution naively shares PIR and tables ("no extra H/W")."""
    return SimConfig(name="no extra H/W", prefetch=_NL_BOTH,
                     esp=_esp(use_b_list=False, bp_mode=EspBpMode.NAIVE))


def bp_separate_context() -> SimConfig:
    """Replicated PIR, shared tables, no B-list."""
    return SimConfig(name="separate context", prefetch=_NL_BOTH,
                     esp=_esp(use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_CONTEXT))


def bp_separate_tables() -> SimConfig:
    """Fully replicated predictor per ESP mode."""
    return SimConfig(name="separate context and tables", prefetch=_NL_BOTH,
                     esp=_esp(use_b_list=False,
                              bp_mode=EspBpMode.SEPARATE_TABLES))


def bp_esp() -> SimConfig:
    """The ESP design: separate context + B-list training."""
    return esp_nl().replace(name="separate context + B-list (ESP)")


# ---------------------------------------------------------------------------
# Section 7: related-work instruction prefetchers

def efetch() -> SimConfig:
    """EFetch call-context instruction prefetcher plus the NL-D baseline
    (the paper's EFetch comparison runs against no-prefetch; combining with
    the data-side baseline mirrors how ESP is reported)."""
    return SimConfig(name="EFetch",
                     prefetch=PrefetchConfig(efetch=True, next_line_d=True))


def pif() -> SimConfig:
    """PIF temporal-stream instruction prefetcher plus the NL-D baseline."""
    return SimConfig(name="PIF",
                     prefetch=PrefetchConfig(pif=True, next_line_d=True))


# ---------------------------------------------------------------------------
# Figure 3: performance potential

def perfect_l1d() -> SimConfig:
    """All data accesses hit L1-D (Figure 3)."""
    return SimConfig(name="perfect L1D-cache", prefetch=_NL_BOTH,
                     perfect=PerfectConfig(l1d=True))


def perfect_branch() -> SimConfig:
    """All branches predicted correctly (Figure 3)."""
    return SimConfig(name="perfect Branch Predictor", prefetch=_NL_BOTH,
                     perfect=PerfectConfig(branch=True))


def perfect_l1i() -> SimConfig:
    """All instruction fetches hit L1-I (Figure 3)."""
    return SimConfig(name="perfect L1I-cache", prefetch=_NL_BOTH,
                     perfect=PerfectConfig(l1i=True))


def perfect_all() -> SimConfig:
    """Perfect caches and branch prediction (Figure 3)."""
    return SimConfig(name="perfect All", prefetch=_NL_BOTH,
                     perfect=PerfectConfig(l1i=True, l1d=True, branch=True))


def potential_baseline() -> SimConfig:
    """The machine Figure 3 normalises against (baseline prefetchers on)."""
    return nl().replace(name="potential baseline")


# ---------------------------------------------------------------------------

def preset_names() -> list[str]:
    """Names of every preset constructor defined in this module."""
    import types

    names = []
    for name, value in globals().items():
        if name.startswith("_") or name in ("by_name", "preset_names"):
            continue
        if isinstance(value, types.FunctionType) and \
                value.__module__ == __name__:
            names.append(name)
    return names


def by_name(name: str) -> SimConfig:
    """Look up a preset constructor by its function name."""
    if name not in preset_names():
        raise KeyError(f"unknown preset {name!r}")
    return globals()[name]()
