"""ESP's compressed hardware hint lists (Sections 4.2 and 4.3).

Three list families record what an event's pre-execution touched:

* **I-list / D-list** (:class:`CompressedAddressList`) — cache-block
  addresses, delta-encoded: each entry holds an 8-bit block offset from the
  previous entry, a 3-bit count of contiguous following blocks, a 7-bit
  retired-instruction-count offset, and a large-offset escape bit; an
  out-of-range delta consumes two additional entries carrying the full
  26-bit block address. One entry is therefore 19 bits.
* **B-List-Direction** (:class:`BranchDirectionList`) — 4-bit PC offset (in
  instructions) from the previous entry, 1 direction bit, 1 indirect bit;
  the first two entries of every thirty carry the instruction count.
  Out-of-range PC offsets consume two extra entries.
* **B-List-Target** (:class:`BranchTargetList`) — for taken indirect
  branches: a 16-bit target offset plus an in-range bit; out-of-range
  targets consume two extra entries.

Capacity is accounted in *bits* against the byte budgets of Figure 8
(499 B / 68 B for the I-lists, etc.). When a list fills, recording stops for
that pre-execution — the conservative reading of the paper's fixed-size
circular queues, since replay must preserve oldest-first order.

Decoded entries keep the semantic payload ``(block, run, icount)`` /
``(pc, taken, indirect, icount)``; the encoding is modelled through the bit
accounting, which is what determines how deep into an event the hints reach.
"""

from __future__ import annotations

from dataclasses import dataclass

_ADDR_ENTRY_BITS = 8 + 3 + 7 + 1  # 19 bits
_DIR_ENTRY_BITS = 4 + 1 + 1  # 6 bits
_TGT_ENTRY_BITS = 16 + 1  # 17 bits
#: every 30 direction entries, the first two carry the instruction count
_DIR_ICOUNT_PERIOD = 30


@dataclass
class AddressEntry:
    """A decoded I/D-list entry: ``run + 1`` contiguous blocks starting at
    ``block``, first accessed ``icount`` instructions into the event."""

    block: int
    run: int
    icount: int


class CompressedAddressList:
    """The I-list / D-list. ``capacity_bytes <= 0`` means unbounded
    (the "ideal ESP" configurations)."""

    MAX_RUN = 7  # 3-bit contiguous-block count
    MAX_BLOCK_DELTA = 127  # signed 8-bit offset from the previous entry
    MAX_ICOUNT_DELTA = 127  # 7-bit instruction-count offset

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bits = capacity_bytes * 8 if capacity_bytes > 0 else 0
        self.unbounded = capacity_bytes <= 0
        self.bits_used = 0
        self.entries: list[AddressEntry] = []
        self.overflowed = False

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def bytes_used(self) -> float:
        return self.bits_used / 8.0

    def record(self, block: int, icount: int) -> bool:
        """Record one block access. Returns False (and sets ``overflowed``)
        once the byte budget is exhausted."""
        if self.overflowed:
            return False
        entries = self.entries
        if entries:
            last = entries[-1]
            # extend a contiguous run: costs no extra entry
            if (block == last.block + last.run + 1
                    and last.run < self.MAX_RUN
                    and icount - last.icount <= self.MAX_ICOUNT_DELTA):
                last.run += 1
                return True
            if block == last.block or \
                    last.block <= block <= last.block + last.run:
                return True  # already covered by the previous entry
            delta = block - (last.block + last.run)
            icount_delta = icount - last.icount
            small = (abs(delta) <= self.MAX_BLOCK_DELTA
                     and 0 <= icount_delta <= self.MAX_ICOUNT_DELTA)
        else:
            small = False  # first entry always carries the full address
        cost = _ADDR_ENTRY_BITS if small else 3 * _ADDR_ENTRY_BITS
        if not self.unbounded and self.bits_used + cost > self.capacity_bits:
            self.overflowed = True
            return False
        self.bits_used += cost
        entries.append(AddressEntry(block, 0, icount))
        return True

    def expand(self) -> list[tuple[int, int]]:
        """Flatten to ``(block, icount)`` pairs, runs expanded, in record
        order — the form the replay engine consumes."""
        flat: list[tuple[int, int]] = []
        for entry in self.entries:
            for i in range(entry.run + 1):
                flat.append((entry.block + i, entry.icount))
        return flat

    def absorb_into(self, capacity_bytes: int) -> "CompressedAddressList":
        """Re-home this list into a larger budget (ESP-2 list contents are
        copied before the head of the ESP-1 list on promotion, Section 4.2).
        Returns a new list containing the same entries."""
        bigger = CompressedAddressList(capacity_bytes)
        bigger.bits_used = self.bits_used
        bigger.entries = list(self.entries)
        return bigger


@dataclass
class BranchEntry:
    """A decoded B-List-Direction entry (with its optional target)."""

    pc: int
    taken: bool
    indirect: bool
    target: int
    kind: int
    icount: int


class BranchDirectionList:
    """B-List-Direction bit accounting plus decoded entries."""

    MAX_PC_DELTA = 15  # 4-bit offset, in instructions

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bits = capacity_bytes * 8 if capacity_bytes > 0 else 0
        self.unbounded = capacity_bytes <= 0
        self.bits_used = 0
        self.entries: list[BranchEntry] = []
        self.overflowed = False
        self._since_icount_header = 0

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def bytes_used(self) -> float:
        return self.bits_used / 8.0

    def record(self, pc: int, taken: bool, indirect: bool, target: int,
               kind: int, icount: int) -> bool:
        if self.overflowed:
            return False
        cost = _DIR_ENTRY_BITS
        if self.entries:
            delta = abs(pc - self.entries[-1].pc) // 4
            if delta > self.MAX_PC_DELTA:
                cost = 3 * _DIR_ENTRY_BITS
        else:
            cost = 3 * _DIR_ENTRY_BITS
        if self._since_icount_header == 0:
            cost += 2 * _DIR_ENTRY_BITS  # periodic instruction-count header
        if not self.unbounded and self.bits_used + cost > self.capacity_bits:
            self.overflowed = True
            return False
        self.bits_used += cost
        self._since_icount_header = \
            (self._since_icount_header + 1) % _DIR_ICOUNT_PERIOD
        self.entries.append(
            BranchEntry(pc, taken, indirect, target, kind, icount))
        return True

    def absorb_into(self, capacity_bytes: int) -> "BranchDirectionList":
        bigger = BranchDirectionList(capacity_bytes)
        bigger.bits_used = self.bits_used
        bigger.entries = list(self.entries)
        bigger._since_icount_header = self._since_icount_header
        return bigger


class BranchTargetList:
    """B-List-Target bit accounting (targets of taken indirect branches).

    The decoded targets live on the :class:`BranchEntry` records; this class
    tracks only whether the target budget still has room — once it fills,
    further indirect entries are recorded without usable targets.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bits = capacity_bytes * 8 if capacity_bytes > 0 else 0
        self.unbounded = capacity_bytes <= 0
        self.bits_used = 0
        self.count = 0
        self.overflowed = False

    @property
    def bytes_used(self) -> float:
        return self.bits_used / 8.0

    def record(self, pc: int, target: int) -> bool:
        """Account for one taken-indirect target. Returns False when full."""
        if self.overflowed:
            return False
        delta = abs(target - pc)
        cost = _TGT_ENTRY_BITS if delta < (1 << 16) else 3 * _TGT_ENTRY_BITS
        if not self.unbounded and self.bits_used + cost > self.capacity_bits:
            self.overflowed = True
            return False
        self.bits_used += cost
        self.count += 1
        return True

    def absorb_into(self, capacity_bytes: int) -> "BranchTargetList":
        bigger = BranchTargetList(capacity_bytes)
        bigger.bits_used = self.bits_used
        bigger.count = self.count
        return bigger
