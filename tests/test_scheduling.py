"""Queue disciplines: FCFS, LOOK, SSTF, C-SCAN."""

import pytest
from hypothesis import given, strategies as st

from repro.scheduling.cscan import CScanScheduler
from repro.scheduling.fcfs import FCFSScheduler
from repro.scheduling.look import LookScheduler
from repro.scheduling.sstf import SSTFScheduler

ALL = (FCFSScheduler, LookScheduler, SSTFScheduler, CScanScheduler)


def drain(scheduler, head=0):
    order = []
    while scheduler:
        req = scheduler.pop(head)
        order.append(req.cylinder)
        head = req.cylinder
    return order


class TestFCFS:
    def test_arrival_order(self):
        sched = FCFSScheduler()
        for cyl in (30, 10, 20):
            sched.push(cyl, None, 0.0)
        assert drain(sched) == [30, 10, 20]


class TestLook:
    def test_sweeps_up_then_down(self):
        sched = LookScheduler()
        for cyl in (50, 10, 70, 30):
            sched.push(cyl, None, 0.0)
        # head at 40 sweeping up: 50, 70, then reverse: 30, 10
        assert drain(sched, head=40) == [50, 70, 30, 10]

    def test_reverses_when_nothing_ahead(self):
        sched = LookScheduler()
        sched.push(10, None, 0.0)
        sched.push(5, None, 0.0)
        assert drain(sched, head=100) == [10, 5]

    def test_same_cylinder_fifo(self):
        sched = LookScheduler()
        a = sched.push(10, "a", 0.0)
        b = sched.push(10, "b", 0.0)
        assert sched.pop(0) is a
        assert sched.pop(10) is b

    def test_exact_head_position_served_in_down_sweep(self):
        sched = LookScheduler()
        sched.push(100, None, 0.0)
        assert drain(sched, head=200) == [100]

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60))
    def test_all_requests_eventually_served(self, cylinders):
        sched = LookScheduler()
        for cyl in cylinders:
            sched.push(cyl, None, 0.0)
        assert sorted(drain(sched, head=500)) == sorted(cylinders)

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=60))
    def test_seek_total_no_worse_than_3x_span(self, cylinders):
        """A LOOK drain travels at most ~2 sweeps over the span."""
        sched = LookScheduler()
        for cyl in cylinders:
            sched.push(cyl, None, 0.0)
        head = 500
        travel = 0
        while sched:
            req = sched.pop(head)
            travel += abs(req.cylinder - head)
            head = req.cylinder
        span = max(cylinders + [500]) - min(cylinders + [500])
        assert travel <= 3 * span + 1


class TestSSTF:
    def test_nearest_first(self):
        sched = SSTFScheduler()
        for cyl in (100, 45, 60):
            sched.push(cyl, None, 0.0)
        assert drain(sched, head=50) == [45, 60, 100]

    def test_tie_prefers_either_but_serves_all(self):
        sched = SSTFScheduler()
        sched.push(40, None, 0.0)
        sched.push(60, None, 0.0)
        assert sorted(drain(sched, head=50)) == [40, 60]


class TestCScan:
    def test_wraps_to_lowest(self):
        sched = CScanScheduler()
        for cyl in (10, 90, 50):
            sched.push(cyl, None, 0.0)
        # head at 60: serve 90, wrap to 10, then 50
        assert drain(sched, head=60) == [90, 10, 50]

    def test_head_above_highest_wraps_immediately(self):
        sched = CScanScheduler()
        for cyl in (10, 30, 50):
            sched.push(cyl, None, 0.0)
        # nothing at or above the head: the very first pop must jump
        # to the lowest pending cylinder, then sweep upward
        assert sched.peek(60).cylinder == 10
        assert drain(sched, head=60) == [10, 30, 50]

    def test_head_exactly_at_highest_serves_it_first(self):
        sched = CScanScheduler()
        for cyl in (10, 50):
            sched.push(cyl, None, 0.0)
        assert drain(sched, head=50) == [50, 10]

    def test_pop_empties_bucket_then_removes_cylinder(self):
        sched = CScanScheduler()
        first = sched.push(20, "a", 0.0)
        second = sched.push(20, "b", 0.0)
        sched.push(40, "c", 0.0)
        # same-cylinder requests drain FIFO before the cylinder goes
        assert sched.pop(0) is first
        assert 20 in sched._buckets
        assert sched.pop(0) is second
        # bucket emptied: cylinder fully retired from the sweep order
        assert 20 not in sched._buckets
        assert sched._cylinders == [40]
        assert sched.pop(0).cylinder == 40
        assert len(sched) == 0
        assert sched.peek(0) is None


@pytest.mark.parametrize("cls", ALL)
def test_empty_pop_returns_none(cls):
    assert cls().pop(0) is None


@pytest.mark.parametrize("cls", ALL)
def test_len_and_counters(cls):
    sched = cls()
    for cyl in (5, 6, 7):
        sched.push(cyl, None, 0.0)
    assert len(sched) == 3
    assert sched.enqueued_total == 3
    assert sched.max_queue_len == 3
    sched.pop(0)
    assert len(sched) == 2


@pytest.mark.parametrize("cls", ALL)
@given(data=st.data())
def test_conservation_property(cls, data):
    """Everything pushed is popped exactly once, regardless of order."""
    cylinders = data.draw(
        st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=40)
    )
    sched = cls()
    payloads = []
    for i, cyl in enumerate(cylinders):
        payloads.append(i)
        sched.push(cyl, i, 0.0)
    popped = []
    head = 0
    while sched:
        req = sched.pop(head)
        popped.append(req.payload)
        head = req.cylinder
    assert sorted(popped) == payloads
