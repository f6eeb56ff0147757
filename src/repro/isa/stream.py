"""Instruction-stream representations and helpers.

:class:`PackedStream` is the simulator's hot-path representation: a
struct-of-arrays packing of a stream (parallel tuples for pc / kind /
addr / taken / target, plus the precomputed I-cache block of each pc).
Iterating parallel tuples with integer indices is measurably faster in
CPython than walking ``list[Instruction]`` with attribute lookups. Every
stream is born packed: the event walker and the looper append straight to
the columns and the ``.espt`` codec decodes into them, and an event holds
its packing for its lifetime, so every configuration simulated against the
same trace shares it. ``Instruction`` lists exist only for the object-loop
test oracle and tests (:meth:`PackedStream.to_instructions`,
:meth:`PackedStream.from_instructions`).

The remaining helpers are analysis utilities over either form, used by
tests, ``repro inspect``, the working-set study (Figure 13), and the
workload calibration tools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.isa.instructions import (
    BLOCK_SHIFT,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    Instruction,
    is_branch_kind,
    is_memory_kind,
)


class PackedStream:
    """A struct-of-arrays packing of an instruction stream.

    The five per-instruction fields live in parallel tuples; ``block`` is
    ``pc >> BLOCK_SHIFT`` precomputed so the fetch path of the simulator's
    hot loop reads one tuple element instead of shifting every pc. Tuples
    (not lists) so a packing can be shared freely between simulators.
    """

    __slots__ = ("pc", "kind", "addr", "taken", "target", "block")

    def __init__(self, pc: Sequence[int] = (), kind: Sequence[int] = (),
                 addr: Sequence[int] = (), taken: Sequence[bool] = (),
                 target: Sequence[int] = (),
                 block: Sequence[int] | None = None) -> None:
        self.pc = tuple(pc)
        self.kind = tuple(kind)
        self.addr = tuple(addr)
        self.taken = tuple(taken)
        self.target = tuple(target)
        self.block = tuple(block) if block is not None \
            else tuple(p >> BLOCK_SHIFT for p in self.pc)
        n = len(self.pc)
        if not (len(self.kind) == len(self.addr) == len(self.taken)
                == len(self.target) == len(self.block) == n):
            raise ValueError("packed arrays must have equal lengths")

    @classmethod
    def from_instructions(cls, stream: Iterable[Instruction]
                          ) -> "PackedStream":
        """Pack ``stream`` in one pass."""
        pcs: list[int] = []
        kinds: list[int] = []
        addrs: list[int] = []
        takens: list[bool] = []
        targets: list[int] = []
        blocks: list[int] = []
        add_pc = pcs.append
        add_kind = kinds.append
        add_addr = addrs.append
        add_taken = takens.append
        add_target = targets.append
        add_block = blocks.append
        for inst in stream:
            pc = inst.pc
            add_pc(pc)
            add_kind(inst.kind)
            add_addr(inst.addr)
            add_taken(inst.taken)
            add_target(inst.target)
            add_block(pc >> BLOCK_SHIFT)
        return cls(pcs, kinds, addrs, takens, targets, blocks)

    def __len__(self) -> int:
        return len(self.pc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedStream):
            return NotImplemented
        return (self.pc == other.pc and self.kind == other.kind
                and self.addr == other.addr and self.taken == other.taken
                and self.target == other.target)

    def __hash__(self) -> int:
        return hash((self.pc, self.kind, self.addr, self.taken,
                     self.target))

    def instruction(self, index: int) -> Instruction:
        """Unpack one instruction (for tests and debugging)."""
        return Instruction(self.pc[index], self.kind[index],
                           addr=self.addr[index], taken=self.taken[index],
                           target=self.target[index])

    def to_instructions(self) -> list[Instruction]:
        """Unpack back to the object representation."""
        return [self.instruction(i) for i in range(len(self.pc))]

    def concat(self, other: "PackedStream") -> "PackedStream":
        """A new packing of this stream followed by ``other``."""
        return PackedStream(self.pc + other.pc, self.kind + other.kind,
                            self.addr + other.addr,
                            self.taken + other.taken,
                            self.target + other.target,
                            self.block + other.block)


@dataclass
class StreamStats:
    """Aggregate statistics of an instruction stream."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    conditional_branches: int = 0
    taken_branches: int = 0
    i_blocks: set = field(default_factory=set)
    d_blocks: set = field(default_factory=set)

    @property
    def i_footprint_bytes(self) -> int:
        """Instruction footprint in bytes (distinct 64 B blocks)."""
        return len(self.i_blocks) * 64

    @property
    def d_footprint_bytes(self) -> int:
        """Data footprint in bytes (distinct 64 B blocks)."""
        return len(self.d_blocks) * 64


def _packed(stream: PackedStream | Iterable[Instruction]) -> PackedStream:
    return stream if isinstance(stream, PackedStream) \
        else PackedStream.from_instructions(stream)


def summarize_stream(stream: PackedStream | Iterable[Instruction]
                     ) -> StreamStats:
    """Compute :class:`StreamStats` over ``stream``, read column-wise
    (an ``Instruction`` iterable is packed first)."""
    packed = _packed(stream)
    kinds = packed.kind
    return StreamStats(
        instructions=len(packed),
        loads=kinds.count(KIND_LOAD),
        stores=kinds.count(KIND_STORE),
        branches=sum(1 for kind in kinds if is_branch_kind(kind)),
        conditional_branches=kinds.count(KIND_BRANCH),
        taken_branches=sum(1 for kind, taken in zip(kinds, packed.taken)
                           if taken and is_branch_kind(kind)),
        i_blocks=set(packed.block),
        d_blocks=_data_blocks(packed))


def _data_blocks(packed: PackedStream) -> set[int]:
    return {addr >> BLOCK_SHIFT for kind, addr in zip(packed.kind,
                                                      packed.addr)
            if is_memory_kind(kind)}


def stream_footprint(stream: PackedStream | Iterable[Instruction]
                     ) -> tuple[int, int]:
    """Return ``(i_blocks, d_blocks)`` — distinct block counts of a stream
    (packed or not)."""
    packed = _packed(stream)
    return len(set(packed.block)), len(_data_blocks(packed))
