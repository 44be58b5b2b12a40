"""Shared resources: counted semaphores and FIFO stores.

These model contention points — a disk's command queue slot, the host
CPU, an XBUS port — where processes must wait their turn.

Every grant triggers its :class:`Event` in place: the value is set and
the heap entry pushed here, exactly as ``Event.succeed`` would, without
the call (a channel transfer acquires and releases once per block
moved).  Pushes go through the module attribute ``heapq.heappush``,
like every kernel push (DESIGN.md §7).
"""

from __future__ import annotations

import heapq
from collections import deque
# The priority waiter queue is not the event heap: bound aliases keep
# its pushes out of the scheduling fingerprint and the event count.
from heapq import heappop as _waiter_pop
from heapq import heappush as _waiter_push
from itertools import count
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import _KIND_FIRE, Event, Simulator


class Resource:
    """A counted resource with FIFO granting.

    Usage inside a process::

        yield resource.acquire()
        try:
            ...  # hold the resource
        finally:
            resource.release()
    """

    __slots__ = ("sim", "capacity", "name", "_in_use", "_waiters")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        sim = self.sim
        event = Event(sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event._value = None
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # Hand the slot directly to the next waiter.
            event = self._waiters.popleft()
            event._value = None
            sim = self.sim
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            self._in_use -= 1

    def locked(self):
        """Context-manager-style helper usable with ``yield from``::

            with (yield from resource.locked()):
                ...
        """
        yield self.acquire()
        return _Lease(self)


class _Lease:
    __slots__ = ("_resource",)

    def __init__(self, resource: Resource):
        self._resource = resource

    def __enter__(self) -> "_Lease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._resource.release()


class PriorityResource(Resource):
    """A resource whose waiters are granted in priority order.

    Lower ``priority`` values are served first; ties are FIFO.  The
    XBUS crossbar uses this for its centralized priority arbitration.
    """

    __slots__ = ("_pq", "_tiebreak")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        super().__init__(sim, capacity, name)
        self._pq: list[tuple[int, int, Event]] = []
        self._tiebreak = count()

    def acquire(self, priority: int = 0) -> Event:
        sim = self.sim
        event = Event(sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event._value = None
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            _waiter_push(self._pq, (priority, next(self._tiebreak), event))
        return event

    @property
    def queue_length(self) -> int:
        return len(self._pq)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._pq:
            _prio, _seq, event = _waiter_pop(self._pq)
            event._value = None
            sim = self.sim
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
        else:
            self._in_use -= 1


class Store:
    """An unbounded (or bounded) FIFO queue of items between processes."""

    __slots__ = ("sim", "capacity", "name", "_items", "_getters", "_putters")

    def __init__(self, sim: Simulator, capacity: Optional[int] = None,
                 name: str = ""):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        sim = self.sim
        event = Event(sim)
        if self._getters:
            # Hand the item straight to a waiting getter.
            getter = self._getters.popleft()
            getter._value = item
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, getter))
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._putters.append((event, item))
            return event
        event._value = None
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_FIRE, event))
        return event

    def get(self) -> Event:
        sim = self.sim
        event = Event(sim)
        if self._items:
            event._value = self._items.popleft()
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, event))
            if self._putters:
                put_event, item = self._putters.popleft()
                self._items.append(item)
                put_event._value = None
                heapq.heappush(sim._heap,
                               (sim.now, next(sim._seq), _KIND_FIRE, put_event))
        else:
            self._getters.append(event)
        return event
