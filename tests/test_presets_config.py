"""Tests for configuration validation and the named presets."""

import pytest

from repro.sim import figures, presets
from repro.sim.config import (
    CacheConfig,
    CoreConfig,
    EspBpMode,
    EspConfig,
    SimConfig,
)

ALL_PRESETS = presets.preset_names()


class TestConfigValidation:
    def test_core_invalid(self):
        with pytest.raises(ValueError):
            CoreConfig(width=0)

    def test_cache_geometry_must_divide(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, assoc=3)

    def test_cache_num_sets(self):
        assert CacheConfig(32 * 1024, 2).num_sets == 256

    def test_esp_depth_validation(self):
        with pytest.raises(ValueError):
            EspConfig(enabled=True, depth=0)

    def test_esp_capacity_tuples_must_cover_depth(self):
        with pytest.raises(ValueError):
            EspConfig(enabled=True, depth=3)

    def test_esp_naive_skips_capacity_check(self):
        EspConfig(enabled=True, depth=3, naive=True)  # no error

    def test_rob_hide_cycles(self):
        assert CoreConfig().rob_hide_cycles == 24

    def test_replace(self):
        cfg = SimConfig()
        renamed = cfg.replace(name="other")
        assert renamed.name == "other"
        assert cfg.name == "baseline"


class TestCacheKeys:
    def test_key_ignores_name(self):
        a = SimConfig(name="a")
        b = SimConfig(name="b")
        assert a.cache_key() == b.cache_key()

    def test_key_differs_on_hardware(self):
        assert SimConfig().cache_key() != presets.esp_nl().cache_key()

    def test_key_stable(self):
        assert SimConfig().cache_key() == SimConfig().cache_key()


class TestPresets:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_constructible(self, name):
        cfg = presets.by_name(name)
        assert isinstance(cfg, SimConfig)
        assert cfg.name

    def test_by_name_unknown(self):
        with pytest.raises(KeyError):
            presets.by_name("no_such_preset")

    def test_by_name_non_preset(self):
        with pytest.raises(KeyError):
            presets.by_name("SimConfig")

    def test_figure_lists_resolve(self):
        for group in figures.FIGURE_PRESETS.values():
            for name in group:
                presets.by_name(name)

    def test_esp_nl_shape(self):
        cfg = presets.esp_nl()
        assert cfg.esp.enabled
        assert cfg.prefetch.next_line_i and cfg.prefetch.next_line_d
        assert cfg.esp.bp_mode is EspBpMode.BLIST

    def test_fig10_ablations(self):
        assert not presets.esp_i_nl().esp.use_d_list
        assert not presets.esp_i_nl().esp.use_b_list
        assert not presets.esp_ib_nl().esp.use_d_list
        assert presets.esp_ib_nl().esp.use_b_list
        assert presets.esp_ibd_nl().esp.use_d_list

    def test_naive_esp_has_no_lists(self):
        assert presets.naive_esp().esp.naive

    def test_ideal_variants(self):
        assert presets.ideal_esp_i_nl_i().esp.ideal
        assert presets.ideal_esp_d_nl_d().esp.ideal

    def test_runahead_d_only(self):
        assert presets.runahead_d().runahead.d_only
        assert not presets.runahead().runahead.d_only

    def test_perfect_flags(self):
        assert presets.perfect_all().perfect.any
        assert presets.perfect_l1i().perfect.l1i
        assert not presets.perfect_l1i().perfect.l1d
        assert not presets.baseline().perfect.any

    def test_esp_alone_has_no_prefetchers(self):
        cfg = presets.esp()
        assert not cfg.prefetch.next_line_i
        assert not cfg.prefetch.next_line_d
