"""Tests for binary trace serialisation."""

import io

import pytest

from repro.isa.tracefile import (
    _FOOTER_LEN,
    FOOTER_MAGIC,
    TraceIntegrityError,
    _read_varint,
    _write_varint,
    dump_trace,
    encode_trace,
    load_trace,
    parse_trace,
)
from repro.workloads import Event, EventTrace


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 31,
                                       2 ** 45])
    def test_roundtrip(self, value):
        buffer = io.BytesIO()
        _write_varint(buffer, value)
        buffer.seek(0)
        assert _read_varint(buffer) == value

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _write_varint(io.BytesIO(), -1)

    def test_truncated_raises(self):
        with pytest.raises(EOFError):
            _read_varint(io.BytesIO(b"\x80"))

    def test_small_values_one_byte(self):
        buffer = io.BytesIO()
        _write_varint(buffer, 42)
        assert len(buffer.getvalue()) == 1


class TestTraceRoundtrip:
    def test_full_roundtrip(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        size = dump_trace(trace, path)
        assert size == path.stat().st_size

        loaded = load_trace(path, profile=tiny_app)
        assert len(loaded) == len(trace)
        assert loaded.app_name == tiny_app.name
        for k in range(len(trace)):
            original = trace.event(k)
            restored = loaded.event(k)
            assert restored.true_stream == original.true_stream
            assert restored.handler_fid == original.handler_fid
            assert restored.diverged == original.diverged
            if original.diverged:
                assert restored.spec_stream == original.spec_stream
            else:
                assert restored.spec_stream is restored.true_stream

    def test_looper_streams_regenerate(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        assert loaded.looper_stream(2) == trace.looper_stream(2)

    def test_loaded_trace_simulates(self, tiny_app, tmp_path):
        from repro.sim import presets
        from repro.sim.simulator import Simulator

        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        loaded = load_trace(path, profile=tiny_app)
        direct = Simulator(trace, presets.esp_nl()).run()
        replayed = Simulator(loaded, presets.esp_nl()).run()
        assert replayed.cycles == direct.cycles
        assert replayed.instructions == direct.instructions

    def test_compactness(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        size = dump_trace(trace, path)
        total_instructions = sum(len(trace.event(k))
                                 for k in range(len(trace)))
        # bytes per instruction: ~1.9 for the compressed columns, against
        # ~4.7 for the version-3 varints
        assert size / total_instructions < 3

    def test_decodes_straight_into_packed_columns(self):
        """A recorded event is its packed streams — equal to the walker's
        packing column for column (blocks and bool flags included) — and
        builds no ``Instruction`` objects until something asks."""
        from repro.workloads import get_app

        # two of this trace's three events diverge under speculation
        trace = EventTrace(get_app("pixlr"), scale=0.25, seed=2)
        loaded = parse_trace(encode_trace(trace))
        assert any(trace.event(k).diverged for k in range(len(trace)))
        for k in range(len(trace)):
            original = trace.event(k)
            restored = loaded.event(k)
            assert isinstance(restored, Event)
            for ours, theirs in ((restored.packed_true(),
                                  original.packed_true()),
                                 (restored.packed_spec(),
                                  original.packed_spec())):
                assert ours == theirs
                assert ours.block == theirs.block
                assert all(type(taken) is bool for taken in ours.taken)
            assert (restored.packed_spec() is restored.packed_true()) \
                == (not original.diverged)
            assert restored._true_stream is None
            assert len(restored) == len(original)

    def test_image_handed_in_is_shared(self, tiny_app):
        trace = EventTrace(tiny_app)
        loaded = parse_trace(encode_trace(trace), profile=tiny_app,
                             image=trace.image)
        assert loaded.image is trace.image
        rebuilt = parse_trace(encode_trace(trace), profile=tiny_app)
        assert rebuilt.packed_looper_stream(1) \
            == trace.packed_looper_stream(1)

    def test_damaged_column_block_raises(self, tiny_trace):
        """Past the footer check, a column block that does not inflate to
        its instruction count raises rather than decoding."""
        from repro.isa.tracefile import _decode_columns, _encode_columns

        packed = tiny_trace.event(0).packed_true()
        block = _encode_columns(packed)
        assert _decode_columns(block, len(packed)) == packed
        damaged = bytearray(block)
        damaged[len(damaged) // 2] ^= 0xFF
        for bad_block, count in ((bytes(damaged), len(packed)),
                                 (block, len(packed) + 1)):
            with pytest.raises(ValueError):
                _decode_columns(bad_block, count)

    @pytest.mark.parametrize("recorded", [False, True])
    def test_event_index_out_of_range_raises(self, tiny_app, recorded):
        """Both traces reject an index outside ``range(len(trace))``,
        negative ones included, and cache nothing for it."""
        trace = EventTrace(tiny_app)
        if recorded:
            trace = parse_trace(encode_trace(trace), profile=tiny_app)
        last = trace.event(len(trace) - 1)
        for bad in (-1, -len(trace), len(trace)):
            with pytest.raises(IndexError):
                trace.event(bad)
        assert list(trace._cache) == [len(trace) - 1]
        assert trace.event(len(trace) - 1) is last
        assert last.index == len(trace) - 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.espt"
        path.write_bytes(b"NOPE rest")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bogus.espt"
        path.write_bytes(b"ESPT\x63")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_truncated_file(self, tiny_app, tmp_path):
        trace = EventTrace(tiny_app)
        path = tmp_path / "trace.espt"
        dump_trace(trace, path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises((EOFError, ValueError)):
            load_trace(path)


def _events(loaded):
    return [(loaded.event(k).true_stream, loaded.event(k).spec_stream)
            for k in range(len(loaded))]


class TestTraceIntegrity:
    """The CRC32 footer: corruption anywhere is detected — a load either
    raises or decodes streams identical to the original, never wrong
    data."""

    @pytest.fixture(scope="class")
    def recorded(self, tiny_app, tmp_path_factory):
        trace = EventTrace(tiny_app)
        path = tmp_path_factory.mktemp("traces") / "trace.espt"
        dump_trace(trace, path)
        return trace, path, path.read_bytes()

    def test_footer_present(self, recorded):
        _, _, payload = recorded
        assert payload[-_FOOTER_LEN:-4] == FOOTER_MAGIC

    def test_zero_length_file(self, tmp_path):
        path = tmp_path / "empty.espt"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.parametrize("region", ["header", "varint_index", "stream",
                                        "footer"])
    def test_bit_flip_every_region_detected(self, tiny_app, recorded,
                                            tmp_path, region):
        """Flipping a bit in any byte region either raises on load or
        leaves the decoded streams bit-identical (a flip of the version
        byte to the legacy value changes no payload bytes)."""
        trace, path, payload = recorded
        spans = {
            "header": range(0, 12),
            "varint_index": range(12, 24),
            "stream": range(24, len(payload) - _FOOTER_LEN),
            "footer": range(len(payload) - _FOOTER_LEN, len(payload)),
        }[region]
        reference = None
        step = max(1, len(spans) // 64)  # sample long regions
        for at in list(spans)[::step]:
            for bit in (0x01, 0x80):
                corrupt = bytearray(payload)
                corrupt[at] ^= bit
                target = tmp_path / "corrupt.espt"
                target.write_bytes(bytes(corrupt))
                try:
                    loaded = load_trace(target, profile=tiny_app)
                except (ValueError, EOFError, KeyError):
                    continue  # detected: ValueError covers the CRC error
                if reference is None:
                    reference = _events(load_trace(path, profile=tiny_app))
                assert _events(loaded) == reference, \
                    f"silent wrong decode at byte {at} bit {bit:#x}"

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_truncation_everywhere_detected(self, tiny_app, recorded,
                                            tmp_path, keep_fraction):
        _, _, payload = recorded
        cut = int(len(payload) * keep_fraction)
        path = tmp_path / "truncated.espt"
        path.write_bytes(payload[:cut])
        with pytest.raises((ValueError, EOFError)):
            load_trace(path, profile=tiny_app)

    def test_appended_garbage_detected(self, tiny_app, recorded, tmp_path):
        _, _, payload = recorded
        path = tmp_path / "padded.espt"
        path.write_bytes(payload + b"\x00garbage")
        with pytest.raises(TraceIntegrityError):
            load_trace(path, profile=tiny_app)

