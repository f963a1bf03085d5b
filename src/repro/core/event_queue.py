"""Time-ordered event queues.

The kernel needs three operations: push, pop-earliest, and *cancel* — the
annihilation rule of the paper's Figure 4 removes pending events.  Every
queue here implements cancellation lazily or eagerly behind the same
interface, and all of them order events by ``(time, seq)``:

* :class:`BinaryHeapQueue` — the reference engine's queue over
  :class:`~repro.core.events.Event` objects.  Cancelled events stay in
  the heap and are skipped on pop, which keeps push/pop at O(log n) and
  cancel at O(1).
* :class:`EntryHeapQueue` — the same lazy heap over the plain-list
  event entries of the compiled kernel and the bit-parallel word
  kernel (time in slot 0, seq in slot 1, lifecycle state in slot 7).
* :class:`SortedListQueue` — a deliberately simple O(n)-insert
  implementation over ``Event`` objects, kept as the cross-check oracle
  of :class:`BinaryHeapQueue` (property-tested) and as the second queue
  of the event-queue ablation (``benchmarks/test_ablation_event_queue.py``).
"""

from __future__ import annotations

import bisect
import heapq
from typing import Any, List, Optional, Tuple

from ..errors import SimulationError
from .events import Event

#: Slots of a list event entry read by :class:`EntryHeapQueue`.  The
#: first two slots order entries (``seq`` is unique, so comparisons
#: never reach the payload); the state slot carries the lifecycle.
ENTRY_TIME, ENTRY_SEQ, ENTRY_STATE = 0, 1, 7

#: Lifecycle states of a list event entry.
PENDING, CANCELLED, EXECUTED = 0, 1, 2


class BinaryHeapQueue:
    """Binary-heap event queue with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled, not yet popped) events."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> None:
        if event.cancelled:
            raise SimulationError("cannot schedule a cancelled event")
        heapq.heappush(self._heap, (event.time, event.seq, event))
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Mark a pending event as annihilated; it will be skipped."""
        if event.executed:
            raise SimulationError("cannot cancel an executed event")
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event (None when empty)."""
        while self._heap:
            _time, _seq, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0


class EntryHeapQueue:
    """Binary heap with lazy cancellation over list event entries.

    Entries are plain lists compared by their first two slots; a
    cancelled entry keeps its place with ``entry[ENTRY_STATE] ==
    CANCELLED`` and is skipped on pop.  The owning kernel marks popped
    entries executed itself.
    """

    def __init__(self) -> None:
        self._heap: List[List[Any]] = []
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, entry: List[Any]) -> None:
        heapq.heappush(self._heap, entry)
        self._live += 1

    def cancel(self, entry: List[Any]) -> None:
        if entry[ENTRY_STATE] == PENDING:
            entry[ENTRY_STATE] = CANCELLED
            self._live -= 1

    def pop(self) -> Optional[List[Any]]:
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[ENTRY_STATE] == CANCELLED:
                continue
            self._live -= 1
            return entry
        return None

    def peek_time(self) -> Optional[float]:
        heap = self._heap
        while heap and heap[0][ENTRY_STATE] == CANCELLED:
            heapq.heappop(heap)
        if not heap:
            return None
        time: float = heap[0][ENTRY_TIME]
        return time

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0


def _ordering_key(entry: Tuple[float, int, Event]) -> Tuple[float, int]:
    return entry[0], entry[1]


class SortedListQueue:
    """Insertion-sorted event queue (oracle / ablation implementation).

    Keeps the pending events sorted in *descending* time order, so the
    earliest event sits at the end of the list and ``pop`` is an O(1)
    ``list.pop()`` (popping from the front would shift the whole list on
    every event).  Cancellation removes the event eagerly.  O(n) insert
    and cancel, O(1) pop.
    """

    def __init__(self) -> None:
        # entries are (-time, -seq, event): ascending order on the
        # negated key is descending time order, with the earliest last.
        self._events: List[Tuple[float, int, Event]] = []

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def push(self, event: Event) -> None:
        if event.cancelled:
            raise SimulationError("cannot schedule a cancelled event")
        bisect.insort(self._events, (-event.time, -event.seq, event))

    def cancel(self, event: Event) -> None:
        if event.executed:
            raise SimulationError("cannot cancel an executed event")
        if event.cancelled:
            return
        event.cancel()
        position = bisect.bisect_left(
            self._events, (-event.time, -event.seq), key=_ordering_key
        )
        if (
            position < len(self._events)
            and self._events[position][2] is event
        ):
            del self._events[position]
        else:  # pragma: no cover - defensive; keys are unique by seq
            self._events = [entry for entry in self._events if entry[2] is not event]

    def pop(self) -> Optional[Event]:
        if not self._events:
            return None
        _time, _seq, event = self._events.pop()
        return event

    def peek_time(self) -> Optional[float]:
        if not self._events:
            return None
        return -self._events[-1][0]

    def clear(self) -> None:
        self._events.clear()
