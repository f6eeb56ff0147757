"""Binary event-trace serialisation.

The paper's methodology records instruction traces once (SniperSim's
trace-recording front end on Chromium) and replays them across machine
configurations. This module gives the reproduction the same workflow:
export a generated :class:`~repro.workloads.EventTrace`'s streams to a
compact binary file, and replay them later — or on another machine —
without regenerating. It also provides a stable interchange format for
regression-testing the generator, and backs the experiment harness's
record-once/simulate-many trace cache: every configuration the harness
simulates reads its events from the recording.

Format (little-endian, magic ``ESPT``, version 4):

* header: magic, version, app-name length + UTF-8 bytes, workload seed,
  event count
* per event: handler id (varint), diverged flag, true-stream instruction
  count, spec-stream instruction count (0 ⇒ shares the true stream),
  true-stream byte length, spec-stream byte length, then the streams
* per stream of ``n`` instructions: one zlib-compressed block holding the
  :class:`~repro.isa.stream.PackedStream` columns back to back — ``n``
  flag bytes (kind | taken << 4), ``n`` signed 64-bit PC deltas (the
  first from 0), ``n`` unsigned 64-bit data addresses and ``n`` unsigned
  64-bit branch targets
* footer: magic ``ESPF`` plus the CRC32 of every preceding byte,
  little-endian

The columns are what the simulator's packed loop reads, so decoding an
event is a decompression plus a few C-level conversions
(``array.frombytes``, ``itertools.accumulate`` for the PCs, ``bytes
.translate`` for the flags) straight into ``PackedStream`` tuples, with no
``Instruction`` objects on the way: a decoded event is the same
:class:`~repro.workloads.generator.Event` a generated trace hands out,
which unpacks the object form only when something asks for it. The
per-stream byte lengths let :func:`load_trace` index every event in one
O(events) skip-scan; a loaded trace holds the compressed bytes (~2 B per
instruction) and decodes events on demand into the small LRU window that
:class:`~repro.workloads.generator.TraceBase` gives every trace.

The footer makes corruption *detectable* instead of latent: a bit-flip
or truncation anywhere in the file raises :class:`TraceIntegrityError`
on load (the harness quarantines the file and regenerates) rather than
decoding to wrong instruction streams.

Only version 4 loads; a file of any other version raises ``ValueError``
(the harness names its cache files ``-v4.espt``, so it regenerates an
older recording rather than opening it).
"""

from __future__ import annotations

import io
import os
import sys
import zlib
from array import array
from itertools import accumulate, chain, repeat
from operator import or_, rshift, sub, truth
from pathlib import Path
from typing import BinaryIO

from repro.isa.instructions import BLOCK_SHIFT
from repro.isa.stream import PackedStream
from repro.workloads.generator import Event, TraceBase

MAGIC = b"ESPT"
VERSION = 4

FOOTER_MAGIC = b"ESPF"
_FOOTER_LEN = len(FOOTER_MAGIC) + 4


class TraceIntegrityError(ValueError):
    """A trace file failed its CRC32 footer verification."""

_TAKEN_FLAG = 0x10

#: zlib level of the column blocks: level 1 already shrinks a block
#: ~15x (pixlr: 25 to 1.6 B per instruction); level 6 saves a further
#: fifth of the bytes for almost twice the compression time
_ZLIB_LEVEL = 1
#: bytes per instruction of a decompressed column block
_ROW_BYTES = 1 + 8 + 8 + 8
_TAKEN_BITS = (0, _TAKEN_FLAG)
_KIND_OF_FLAGS = bytes(flags & 0x0F for flags in range(256))
_TAKEN_OF_FLAGS = bytes(flags >> 4 & 1 for flags in range(256))
_BIG_ENDIAN = sys.byteorder == "big"


def _write_varint(out: BinaryIO, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes((byte | 0x80,)))
        else:
            out.write(bytes((byte,)))
            return


def _read_varint(data: BinaryIO) -> int:
    shift = 0
    value = 0
    while True:
        raw = data.read(1)
        if not raw:
            raise EOFError("truncated varint")
        byte = raw[0]
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value
        shift += 7


# -- version 4: packed columns -------------------------------------------------

def _encode_columns(packed: PackedStream) -> bytes:
    """One stream's column block (see the module docstring)."""
    pcs = packed.pc
    flags = bytes(map(or_, packed.kind,
                      map(_TAKEN_BITS.__getitem__, packed.taken)))
    columns = (array("q", map(sub, pcs, chain((0,), pcs))),
               array("Q", packed.addr), array("Q", packed.target))
    if _BIG_ENDIAN:
        for column in columns:
            column.byteswap()
    return zlib.compress(
        b"".join((flags, *(column.tobytes() for column in columns))),
        _ZLIB_LEVEL)


def _column(typecode: str, raw: memoryview, start: int,
            count: int) -> array:
    column = array(typecode)
    column.frombytes(raw[start:start + 8 * count])
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _decode_columns(block, count: int) -> PackedStream:
    """Decode a column block of ``count`` instructions into a
    :class:`PackedStream`."""
    try:
        raw = memoryview(zlib.decompress(block))
    except zlib.error as exc:
        raise ValueError(f"corrupt stream block: {exc}") from exc
    if len(raw) != _ROW_BYTES * count:
        raise ValueError("stream block does not match its instruction count")
    flags = raw[:count].tobytes()
    pcs = tuple(accumulate(_column("q", raw, count, count)))
    return PackedStream(
        pcs, tuple(flags.translate(_KIND_OF_FLAGS)),
        tuple(_column("Q", raw, 9 * count, count)),
        tuple(map(truth, flags.translate(_TAKEN_OF_FLAGS))),
        tuple(_column("Q", raw, 17 * count, count)),
        tuple(map(rshift, pcs, repeat(BLOCK_SHIFT))))


# -- writing ------------------------------------------------------------------

def encode_trace(trace) -> bytes:
    """The complete file contents (footer included) recording every event
    of ``trace`` — an :class:`~repro.workloads.EventTrace` or any trace
    whose events offer ``packed_true()``, ``packed_spec()`` and
    ``diverged``."""
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    _write_varint(buffer, VERSION)
    name = trace.profile.name.encode()
    _write_varint(buffer, len(name))
    buffer.write(name)
    _write_varint(buffer, getattr(trace, "seed", 0))
    _write_varint(buffer, len(trace))
    for index in range(len(trace)):
        event = trace.event(index)
        true_packed = event.packed_true()
        spec_packed = event.packed_spec()
        diverged = event.diverged
        _write_varint(buffer, event.handler_fid)
        buffer.write(b"\x01" if diverged else b"\x00")
        _write_varint(buffer, len(true_packed))
        _write_varint(buffer, len(spec_packed) if diverged else 0)
        true_payload = _encode_columns(true_packed)
        spec_payload = _encode_columns(spec_packed) if diverged else b""
        _write_varint(buffer, len(true_payload))
        _write_varint(buffer, len(spec_payload))
        buffer.write(true_payload)
        buffer.write(spec_payload)
    payload = buffer.getvalue()
    return payload + FOOTER_MAGIC + zlib.crc32(payload).to_bytes(4, "little")


def dump_trace(trace, path: Path | str) -> int:
    """Serialise every event of ``trace`` (see :func:`encode_trace`) to
    ``path``. Returns bytes written.

    The file is written to a temporary sibling and moved into place, so
    concurrent writers of the same path (parallel experiment workers that
    raced past each other's existence check) each land a complete file
    and readers never observe a partial one. A CRC32 footer over the
    whole payload lets :func:`load_trace` detect any later corruption.
    """
    payload = encode_trace(trace)
    path = Path(path)
    tmp = path.parent / (path.name + f".{os.getpid()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)
    return len(payload)


# -- reading ------------------------------------------------------------------

class _EventIndex:
    """Byte-offset record for one serialised event."""

    __slots__ = ("handler_fid", "true_count", "spec_count",
                 "true_offset", "true_length", "spec_offset",
                 "spec_length")

    def __init__(self, handler_fid: int, true_count: int, spec_count: int,
                 true_offset: int, true_length: int, spec_offset: int,
                 spec_length: int) -> None:
        self.handler_fid = handler_fid
        self.true_count = true_count
        self.spec_count = spec_count
        self.true_offset = true_offset
        self.true_length = true_length
        self.spec_offset = spec_offset
        self.spec_length = spec_length


class LoadedTrace(TraceBase):
    """A deserialised trace, API-compatible with the simulator's needs
    (``event(k)``, ``looper_stream(k)``, ``packed_looper_stream(k)``,
    ``handler_fid(k)``, ``__len__``).

    Events decode lazily from the file bytes into the
    :class:`~repro.workloads.generator.TraceBase` LRU window of
    :class:`~repro.workloads.generator.Event` objects, the same class a
    generated trace hands out. The looper streams and the code image
    regenerate deterministically from the profile and the recorded seed;
    ``image`` may hand in the code image when the caller already built it
    (the harness records a trace it just generated).
    """

    # bound here too, so a per-class wrapper (the ``isa.decode`` span of
    # bench/tracer.py) tells a decode from a walk
    event = TraceBase.event

    def __init__(self, app_name: str, seed: int, data: bytes,
                 index: list[_EventIndex], profile=None,
                 image=None) -> None:
        super().__init__()
        self.app_name = app_name
        self.seed = seed
        self._data = memoryview(data)
        self._index = index
        if profile is None:
            from repro.workloads import get_app

            profile = get_app(app_name)
        self.profile = profile
        if image is None:
            from repro.workloads.codebase import build_code_image

            image = build_code_image(profile.code, seed=profile.seed ^ seed)
        self.image = image

    def __len__(self) -> int:
        return len(self._index)

    def _materialize(self, index: int) -> Event:
        rec = self._index[index]
        data = self._data
        true_packed = _decode_columns(
            data[rec.true_offset:rec.true_offset + rec.true_length],
            rec.true_count)
        if rec.spec_count:
            spec_packed = _decode_columns(
                data[rec.spec_offset:rec.spec_offset + rec.spec_length],
                rec.spec_count)
        else:
            spec_packed = true_packed
        return Event(index, rec.handler_fid, true_packed, spec_packed)

    def handler_fid(self, index: int) -> int:
        return self._index[index].handler_fid

    def instructions(self) -> int:
        """Instructions of every recorded event's true stream, read from
        the index without decoding anything."""
        return sum(rec.true_count for rec in self._index)


def parse_trace(payload: bytes, profile=None, image=None) -> LoadedTrace:
    """A :class:`LoadedTrace` over ``payload``, the bytes of a file
    written by :func:`dump_trace` (or returned by :func:`encode_trace`).

    Builds the event index in one skip-scan; stream decoding happens
    lazily per event. ``profile`` supplies the
    :class:`~repro.workloads.AppProfile` when the trace's app name is not
    one of the built-in registry entries; ``image`` supplies the code
    image when the caller already has it.

    The CRC32 footer is verified before any decoding — truncation or
    bit-flips raise :class:`TraceIntegrityError`. A version other than
    :data:`VERSION` raises ``ValueError``.
    """
    data = io.BytesIO(payload)
    if data.read(4) != MAGIC:
        raise ValueError("not an ESP trace file")
    version = _read_varint(data)
    if version != VERSION:
        raise ValueError(f"unsupported trace version {version}")
    if len(payload) < data.tell() + _FOOTER_LEN:
        raise TraceIntegrityError("trace footer missing (truncated?)")
    if payload[-_FOOTER_LEN:-4] != FOOTER_MAGIC:
        raise TraceIntegrityError(
            "trace footer magic missing (truncated or overwritten)")
    stored = int.from_bytes(payload[-4:], "little")
    actual = zlib.crc32(memoryview(payload)[:-_FOOTER_LEN])
    if stored != actual:
        raise TraceIntegrityError(
            f"trace checksum mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}")
    body_end = len(payload) - _FOOTER_LEN
    name = data.read(_read_varint(data)).decode()
    seed = _read_varint(data)
    n_events = _read_varint(data)
    index: list[_EventIndex] = []
    for _ in range(n_events):
        handler = _read_varint(data)
        flag = data.read(1)
        if len(flag) != 1:
            raise EOFError("truncated event header")
        diverged = flag == b"\x01"
        true_count = _read_varint(data)
        spec_count = _read_varint(data)
        true_length = _read_varint(data)
        spec_length = _read_varint(data)
        true_offset = data.tell()
        spec_offset = true_offset + true_length
        end = spec_offset + spec_length
        if end > body_end:
            raise EOFError("truncated stream data")
        if diverged != bool(spec_count):
            raise ValueError("inconsistent divergence flag")
        index.append(_EventIndex(handler, true_count, spec_count,
                                 true_offset, true_length, spec_offset,
                                 spec_length))
        data.seek(end)
    return LoadedTrace(name, seed, payload, index, profile=profile,
                       image=image)


def load_trace(path: Path | str, profile=None, image=None) -> LoadedTrace:
    """Deserialise the trace file at ``path`` (see :func:`parse_trace`)."""
    return parse_trace(Path(path).read_bytes(), profile=profile, image=image)
