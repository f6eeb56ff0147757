"""Unit tests for the hardware event queue."""

import pytest

from repro.esp import HardwareEventQueue


class TestEnqueueDequeue:
    def test_enqueue_fills_first_free_slot(self):
        q = HardwareEventQueue(2)
        slot = q.enqueue(1, 0x1000)
        assert q.slot(0) is slot
        assert slot.event_index == 1
        assert slot.handler_addr == 0x1000
        assert not slot.eu

    def test_enqueue_second(self):
        q = HardwareEventQueue(2)
        q.enqueue(1, 0x1000)
        slot = q.enqueue(2, 0x2000)
        assert q.slot(1) is slot

    def test_enqueue_full_returns_none(self):
        q = HardwareEventQueue(2)
        q.enqueue(1, 0)
        q.enqueue(2, 0)
        assert q.enqueue(3, 0) is None

    def test_dequeue_shifts(self):
        q = HardwareEventQueue(2)
        a = q.enqueue(1, 0)
        b = q.enqueue(2, 0)
        head = q.dequeue()
        assert head is a
        assert q.slot(0) is b
        assert q.slot(1) is None

    def test_dequeue_empty(self):
        q = HardwareEventQueue(2)
        assert q.dequeue() is None

    def test_len(self):
        q = HardwareEventQueue(3)
        assert len(q) == 0
        q.enqueue(1, 0)
        q.enqueue(2, 0)
        assert len(q) == 2

    def test_depth_one(self):
        q = HardwareEventQueue(1)
        q.enqueue(1, 0)
        assert q.enqueue(2, 0) is None
        assert q.dequeue().event_index == 1
        assert len(q) == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            HardwareEventQueue(0)


class TestFlags:
    def test_clear(self):
        q = HardwareEventQueue(2)
        q.enqueue(1, 0)
        q.clear()
        assert len(q) == 0
        assert q.slot(0) is None
