"""The hardware event queue (Section 4.1).

A small register-like structure mirroring the head of the software event
queue. Each slot holds the event handler's starting address, the argument
object address, an execution-underway (EU) bit telling the ESP controller
whether that event's pre-execution is already in flight, and the
"incorrect prediction" bit of Section 4.5 (set by the runtime when events
will not execute in the predicted order — e.g. a synchronous barrier — so
recorded hints must be discarded).

Software manipulates the queue through two ISA additions; here those are the
:meth:`HardwareEventQueue.enqueue` / :meth:`HardwareEventQueue.dequeue`
methods, which the simulator invokes on the looper thread's behalf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.esp.contexts import PreExecState


@dataclass
class QueueSlot:
    """One hardware event-queue entry."""

    event_index: int
    handler_addr: int
    arg_addr: int = 0
    #: execution-underway: pre-execution has started for this event
    eu: bool = False
    #: hints must not be used (event order was mispredicted, Section 4.5)
    incorrect_prediction: bool = False
    #: the attached pre-execution context
    state: PreExecState = field(default=None)


class HardwareEventQueue:
    """Fixed-depth queue of the next events to execute (depth 2 in the
    paper's design; the Figure 13 study instruments deeper queues)."""

    def __init__(self, depth: int = 2) -> None:
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.depth = depth
        self.slots: list[QueueSlot | None] = [None] * depth

    def __len__(self) -> int:
        return sum(1 for slot in self.slots if slot is not None)

    def slot(self, mode: int) -> QueueSlot | None:
        """The slot pre-executed in ESP mode ``mode+1`` (0-indexed)."""
        return self.slots[mode]

    def enqueue(self, event_index: int, handler_addr: int,
                arg_addr: int = 0) -> QueueSlot | None:
        """Fill the first free slot; returns it, or None if the queue is
        full (the software queue may be deeper than the hardware window)."""
        for i, slot in enumerate(self.slots):
            if slot is None:
                new = QueueSlot(event_index, handler_addr, arg_addr)
                self.slots[i] = new
                return new
        return None

    def dequeue(self) -> QueueSlot | None:
        """The current event finished: shift every slot one position closer
        and return the slot whose event now becomes the normal event."""
        head = self.slots[0]
        self.slots = self.slots[1:] + [None]
        return head

    def clear(self) -> None:
        self.slots = [None] * self.depth
