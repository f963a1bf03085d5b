"""Event queues: ordering, cancellation, implementation agreement."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.event_queue import (
    CANCELLED,
    ENTRY_STATE,
    PENDING,
    BinaryHeapQueue,
    EntryHeapQueue,
    SortedListQueue,
)
from repro.core.events import Event
from repro.errors import SimulationError


def _event(time, seq):
    return Event(time=time, seq=seq, gate_input=None, transition=None, value=1)


@pytest.fixture(
    params=[BinaryHeapQueue, SortedListQueue], ids=["heap", "sorted-list"]
)
def queue(request):
    return request.param()


def test_fifo_for_equal_times(queue):
    first = _event(1.0, 1)
    second = _event(1.0, 2)
    queue.push(second)
    queue.push(first)
    assert queue.pop() is first
    assert queue.pop() is second


def test_pop_order_is_time_sorted(queue):
    events = [_event(t, i) for i, t in enumerate([3.0, 1.0, 2.0, 0.5, 2.5])]
    for event in events:
        queue.push(event)
    popped = []
    while queue:
        popped.append(queue.pop().time)
    assert popped == sorted(popped)


def test_len_and_bool(queue):
    assert not queue
    assert len(queue) == 0
    queue.push(_event(1.0, 1))
    assert queue
    assert len(queue) == 1
    queue.pop()
    assert len(queue) == 0
    assert queue.pop() is None


def test_peek_time(queue):
    assert queue.peek_time() is None
    queue.push(_event(2.0, 1))
    queue.push(_event(1.0, 2))
    assert queue.peek_time() == 1.0
    queue.pop()
    assert queue.peek_time() == 2.0


def test_cancel_removes_event(queue):
    keep = _event(1.0, 1)
    drop = _event(0.5, 2)
    queue.push(keep)
    queue.push(drop)
    queue.cancel(drop)
    assert len(queue) == 1
    assert queue.peek_time() == 1.0
    assert queue.pop() is keep
    assert queue.pop() is None


def test_cancel_is_idempotent(queue):
    event = _event(1.0, 1)
    queue.push(event)
    queue.cancel(event)
    queue.cancel(event)
    assert len(queue) == 0


def test_cannot_push_cancelled(queue):
    event = _event(1.0, 1)
    event.cancel()
    with pytest.raises(SimulationError):
        queue.push(event)


def test_cannot_cancel_executed(queue):
    event = _event(1.0, 1)
    queue.push(event)
    popped = queue.pop()
    popped.executed = True
    with pytest.raises(SimulationError):
        queue.cancel(popped)


def test_clear(queue):
    for i in range(5):
        queue.push(_event(float(i), i))
    queue.clear()
    assert not queue
    assert queue.peek_time() is None


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.sampled_from(["push", "cancel", "pop"]),
        ),
        max_size=60,
    )
)
def test_implementations_agree(operations):
    """Heap and sorted-list queues produce identical pop sequences under
    any interleaving of push/cancel/pop."""
    heap = BinaryHeapQueue()
    oracle = SortedListQueue()
    heap_live = []
    oracle_live = []
    seq = 0
    results_heap = []
    results_oracle = []
    for time, action in operations:
        if action == "push":
            seq += 1
            heap_event = _event(time, seq)
            oracle_event = _event(time, seq)
            heap.push(heap_event)
            oracle.push(oracle_event)
            heap_live.append(heap_event)
            oracle_live.append(oracle_event)
        elif action == "cancel" and heap_live:
            index = seq % len(heap_live)
            heap_target = heap_live.pop(index)
            oracle_target = oracle_live.pop(index)
            if not heap_target.executed:
                heap.cancel(heap_target)
                oracle.cancel(oracle_target)
        elif action == "pop":
            heap_popped = heap.pop()
            oracle_popped = oracle.pop()
            results_heap.append(
                None if heap_popped is None else heap_popped.sort_key
            )
            results_oracle.append(
                None if oracle_popped is None else oracle_popped.sort_key
            )
            if heap_popped is not None and heap_popped in heap_live:
                heap_live.remove(heap_popped)
            if oracle_popped is not None and oracle_popped in oracle_live:
                oracle_live.remove(oracle_popped)
    while heap or oracle:
        heap_popped = heap.pop()
        oracle_popped = oracle.pop()
        results_heap.append(None if heap_popped is None else heap_popped.sort_key)
        results_oracle.append(
            None if oracle_popped is None else oracle_popped.sort_key
        )
    assert results_heap == results_oracle
    assert len(heap) == len(oracle) == 0


def _entry(time, seq):
    """A compiled-kernel style list entry: time, seq, payload, state."""
    return [time, seq, None, None, None, None, None, PENDING]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.sampled_from(["push", "cancel", "pop"]),
            st.integers(min_value=0),
        ),
        max_size=60,
    )
)
def test_entry_heap_matches_sorted_live_entries(operations):
    """The list-entry heap shared by the compiled and word kernels pops
    exactly ``sorted()`` of its live (pushed, not cancelled, not yet
    popped) entries, under any interleaving of push/cancel/pop."""
    queue = EntryHeapQueue()
    live = []
    seq = 0
    for time, action, pick in operations:
        if action == "push":
            seq += 1
            entry = _entry(time, seq)
            queue.push(entry)
            live.append(entry)
        elif action == "cancel" and live:
            target = live.pop(pick % len(live))
            queue.cancel(target)
            assert target[ENTRY_STATE] == CANCELLED
            # cancelling twice is a no-op
            queue.cancel(target)
        elif action == "pop":
            expected = min(live) if live else None
            assert queue.peek_time() == (
                None if expected is None else expected[0]
            )
            popped = queue.pop()
            assert popped is expected
            if popped is not None:
                live.remove(popped)
        assert len(queue) == len(live)
        assert bool(queue) == bool(live)
    drained = []
    while queue:
        drained.append(queue.pop())
    assert drained == sorted(live)
    assert queue.pop() is None
    assert queue.peek_time() is None


def test_entry_heap_clear():
    queue = EntryHeapQueue()
    for seq in range(5):
        queue.push(_entry(float(seq), seq))
    queue.clear()
    assert not queue
    assert len(queue) == 0
    assert queue.peek_time() is None
