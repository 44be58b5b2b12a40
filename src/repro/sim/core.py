"""Core event loop: :class:`Simulator`, :class:`Event` and :class:`Process`.

The kernel is deliberately small.  An :class:`Event` is a one-shot
condition that processes can wait on; a :class:`Process` wraps a Python
generator and is itself an event (it fires when the generator returns,
which makes joins trivial: ``yield other_process``).

Semantics follow SimPy closely:

* ``event.succeed(value)`` / ``event.fail(exc)`` *trigger* the event; its
  callbacks run when the event is popped from the queue (same simulated
  instant, deterministic FIFO order among same-time events).
* A process that yields an event is resumed with the event's value, or
  has the event's exception thrown into it.
* A failing process re-raises out of :meth:`Simulator.run` unless another
  process is waiting on it, in which case the exception propagates to the
  waiter instead.

Fast-path invariants (see DESIGN.md §7): every scheduling action is
one call of the module attribute ``heapq.heappush`` that draws exactly
one sequence number, and same-time entries fire in sequence order, so
the optimizations below — ``__slots__``, direct process starts instead
of bootstrap events, heap entries pushed inline at each trigger site,
the sole-waiter fast path, and batch-popping in :meth:`Simulator.run`
— change wall-clock cost only, never simulated clocks or results.
Pushes call ``heapq.heappush`` by attribute (never a ``from heapq
import heappush`` alias) so the determinism fingerprint hook and the
benchmark's event counter see every one.

Heap entries are ``(when, seq, kind, obj)`` tuples.  ``seq`` is unique,
so comparisons never reach ``obj``.  Kinds:

* ``_KIND_FIRE`` (0): ``obj`` is an :class:`Event`; fire its callbacks.
* ``_KIND_START`` (1): ``obj`` is a :class:`Process`; run its first step.
  This replaces the old per-process bootstrap :class:`Event` while
  consuming the same single sequence number.
* ``_KIND_INTERRUPT`` (2): ``obj`` is ``(process, exc)``; throw ``exc``
  into the process unless it already completed at this same instant.
  This replaces the old per-interrupt "poke" :class:`Event`.
"""

from __future__ import annotations

import heapq
from itertools import count
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.obs.session import observe_simulator

_UNSET = object()

_KIND_FIRE = 0
_KIND_START = 1
_KIND_INTERRUPT = 2

SimGenerator = Generator["Event", Any, Any]


def _noop(_event: "Event") -> None:
    return None


class Event:
    """A one-shot occurrence that processes may wait on.

    ``callbacks`` stays ``None`` until a second listener appears: the
    common case — exactly one process waiting — is held in ``_waiter``
    and resumed directly, without allocating or walking a list.
    """

    __slots__ = ("sim", "callbacks", "_waiter", "_value", "_exc",
                 "_processed")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = None
        self._waiter: Optional["Process"] = None
        self._value: Any = _UNSET
        self._exc: Optional[BaseException] = None
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _UNSET or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event has fully fired)."""
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exc is None

    @property
    def value(self) -> Any:
        if self._exc is not None:
            raise self._exc
        if self._value is _UNSET:
            raise SimulationError("event has no value yet")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        if self._value is not _UNSET or self._exc is not None:
            raise SimulationError("event already triggered")
        self._value = value
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_FIRE, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._value is not _UNSET or self._exc is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._exc = exc
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_FIRE, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(self)`` when the event fires (immediately if fired)."""
        if self._processed:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        # The sole waiter registered before any listed callback, so it
        # resumes first — the same FIFO order the callback list gave.
        # NOTE: the dispatch loops in Simulator.run/run_process inline
        # this body; keep them in sync.
        self._processed = True
        waiter = self._waiter
        if waiter is not None:
            self._waiter = None
            if waiter._value is _UNSET and waiter._exc is None:
                exc = self._exc
                if exc is not None:
                    waiter._step(None, exc)
                else:
                    waiter._step(self._value)
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Inlined Event.__init__: timeouts are the hottest allocation in
        # the kernel, and they trigger at construction time.
        self.sim = sim
        self.callbacks = None
        self._waiter = None
        self._value = delay if value is None else value
        self._exc = None
        self._processed = False
        heapq.heappush(sim._heap,
                       (sim.now + delay, next(sim._seq), _KIND_FIRE, self))


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running simulation activity wrapping a generator.

    The process *is* the event of its own termination: its value is the
    generator's return value, and a failure inside the generator fails
    the event.
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: SimGenerator,
                 name: str = ""):
        if type(generator) is not GeneratorType \
                and not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        # Inlined Event.__init__: one process is spawned per hardware
        # leg of every disk operation.
        self.sim = sim
        self.callbacks = None
        self._waiter = None
        self._value = _UNSET
        self._exc = None
        self._processed = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Kick off at the current instant: scheduled directly on the
        # heap (no bootstrap Event), drawing one sequence number exactly
        # as the bootstrap's succeed() used to.
        heapq.heappush(sim._heap,
                       (sim.now, next(sim._seq), _KIND_START, self))

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._value is not _UNSET or self._exc is not None:
            return
        target = self._waiting_on
        if target is not None and not target._processed:
            # Stop listening to whatever we were waiting for.
            if target._waiter is self:
                target._waiter = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        # Delivery is deferred via the heap (one sequence number, like
        # the old poke event); the dispatcher re-checks that the process
        # is still alive, so an interrupt racing with completion at the
        # same instant is a no-op instead of a throw into an exhausted
        # generator.
        sim = self.sim
        heapq.heappush(sim._heap, (sim.now, next(sim._seq), _KIND_INTERRUPT,
                                   (self, Interrupt(cause))))

    # -- internal ---------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not _UNSET or self._exc is not None:
            return
        exc = event._exc
        if exc is not None:
            self._step(None, exc)
        else:
            self._step(event._value)

    def _step(self, send: Any = None, throw: Optional[BaseException] = None):
        self._waiting_on = None
        generator = self._generator
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    target = generator.throw(exc)
                else:
                    target = generator.send(send)
            except StopIteration as stop:
                # Inlined succeed(): every process completes this way.
                if self._value is not _UNSET or self._exc is not None:
                    raise SimulationError("event already triggered")
                self._value = stop.value
                sim = self.sim
                heapq.heappush(sim._heap,
                               (sim.now, next(sim._seq), _KIND_FIRE, self))
                return
            except BaseException as exc:  # noqa: BLE001 - must capture all
                self._fail_process(exc)
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances")
                self._fail_process(exc)
                return
            if target._processed:
                # Already fired: continue synchronously.
                if target._exc is not None:
                    throw = target._exc
                else:
                    send = target._value
                continue
            self._waiting_on = target
            if target._waiter is None and not target.callbacks:
                # Sole waiter: resumed directly by _fire, no list.
                target._waiter = self
            else:
                target.add_callback(self._resume)
            return

    def _fail_process(self, exc: BaseException) -> None:
        if self._waiter is not None or self.callbacks:
            self.fail(exc)
        else:
            # Nobody is waiting: surface the error out of run().
            self._exc = exc
            self._value = _UNSET
            self.sim._crash(exc)


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = events = list(events)
        self._pending = len(events)
        for event in events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not events:
            self.succeed([])
            return
        # Inlined add_callback, with the bound method built once.
        check = self._check
        for event in events:
            if event._processed:
                check(event)
            elif event.callbacks is None:
                event.callbacks = [check]
            else:
                event.callbacks.append(check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired; value is their values."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _UNSET or self._exc is not None:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            # Inlined succeed(): the untriggered check ran above.
            self._value = [ev._value for ev in self._events]
            sim = self.sim
            heapq.heappush(sim._heap,
                           (sim.now, next(sim._seq), _KIND_FIRE, self))


class AnyOf(_Condition):
    """Fires when the first constituent event fires; value is that value."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._value is not _UNSET or self._exc is not None:
            return
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(event._value)


class Simulator:
    """The event loop: a priority queue of (time, sequence, kind, obj)."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = count()
        self._crashed: Optional[BaseException] = None
        # Observability (DESIGN.md §8): tracer defaults to the shared
        # NULL_TRACER unless an observe() session is active; swapping
        # in a live repro.obs.Tracer at any time enables span capture
        # for processes spawned from then on.  Both observe and never
        # schedule — neither may consume sequence numbers.
        self.tracer, self.metrics = observe_simulator(self)

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # Fast path: build the Timeout without delegating to __init__
        # and push the heap entry directly (timeouts are the hottest
        # allocation in the kernel).
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        timeout = Timeout.__new__(Timeout)
        timeout.sim = self
        timeout.callbacks = None
        timeout._waiter = None
        timeout._value = delay if value is None else value
        timeout._exc = None
        timeout._processed = False
        heapq.heappush(self._heap,
                       (self.now + delay, next(self._seq), _KIND_FIRE, timeout))
        return timeout

    def process(self, generator: SimGenerator, name: str = "") -> Process:
        tracer = self.tracer
        if tracer.enabled:
            # Resolve the display name from the original generator
            # before wrapping: the determinism fingerprint includes
            # process names, which must not change with tracing on.
            if not name:
                name = getattr(generator, "__name__", "process")
            generator = tracer.scoped(generator)
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _crash(self, exc: BaseException) -> None:
        if self._crashed is None:
            self._crashed = exc

    def _dispatch(self, kind: int, obj: Any) -> None:
        """Run one popped heap entry (time already advanced)."""
        if kind == _KIND_FIRE:
            obj._fire()
        elif kind == _KIND_START:
            if obj._value is _UNSET and obj._exc is None:
                obj._step()
        else:  # _KIND_INTERRUPT
            process, exc = obj
            if process._value is _UNSET and process._exc is None:
                process._step(None, exc)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Fire the single next event."""
        when, _seq, kind, obj = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = when
        self._dispatch(kind, obj)
        if self._crashed is not None:
            exc, self._crashed = self._crashed, None
            raise exc

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches ``until``.

        Returns the simulation clock after running.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            self.now = when
            # Batch-pop everything scheduled for this instant: one
            # timestamp comparison per event instead of re-checking
            # ``until`` and re-reading the clock each iteration.  The
            # kind-0 arm is Event._fire inlined (sole-waiter resume
            # first, then listed callbacks) to skip two calls per event,
            # and the kind-1 arm starts a process without _dispatch.
            while True:
                _when, _seq, kind, obj = heappop(heap)
                if kind == _KIND_FIRE:
                    obj._processed = True
                    waiter = obj._waiter
                    if waiter is not None:
                        obj._waiter = None
                        if waiter._value is _UNSET and waiter._exc is None:
                            exc = obj._exc
                            if exc is not None:
                                waiter._step(None, exc)
                            else:
                                waiter._step(obj._value)
                    callbacks = obj.callbacks
                    if callbacks is not None:
                        obj.callbacks = None
                        for callback in callbacks:
                            callback(obj)
                elif kind == _KIND_START:
                    if obj._value is _UNSET and obj._exc is None:
                        obj._step()
                else:
                    self._dispatch(kind, obj)
                if self._crashed is not None:
                    exc, self._crashed = self._crashed, None
                    raise exc
                if not heap or heap[0][0] != when:
                    break
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_process(self, generator: SimGenerator, name: str = "") -> Any:
        """Run ``generator`` as a process to completion and return its value.

        This is the bridge between the synchronous public API and the
        event loop: facades wrap an I/O path generator and call this.
        """
        proc = self.process(generator, name=name)
        # Keep a callback registered so a failure propagates here rather
        # than crashing the run loop.
        proc.add_callback(_noop)
        heap = self._heap
        heappop = heapq.heappop
        while proc._value is _UNSET and proc._exc is None:
            if not heap:
                raise SimulationError(
                    f"deadlock: process {proc.name!r} cannot complete "
                    "(event queue is empty)")
            when, _seq, kind, obj = heappop(heap)
            self.now = when
            # Inlined Event._fire and process start, as in run() above.
            if kind == _KIND_FIRE:
                obj._processed = True
                waiter = obj._waiter
                if waiter is not None:
                    obj._waiter = None
                    if waiter._value is _UNSET and waiter._exc is None:
                        exc = obj._exc
                        if exc is not None:
                            waiter._step(None, exc)
                        else:
                            waiter._step(obj._value)
                callbacks = obj.callbacks
                if callbacks is not None:
                    obj.callbacks = None
                    for callback in callbacks:
                        callback(obj)
            elif kind == _KIND_START:
                if obj._value is _UNSET and obj._exc is None:
                    obj._step()
            else:
                self._dispatch(kind, obj)
            if self._crashed is not None:
                exc, self._crashed = self._crashed, None
                raise exc
        return proc.value
