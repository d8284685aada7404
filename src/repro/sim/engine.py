"""Discrete-event simulation kernel.

A minimal but complete process-based discrete-event engine in the style of
SimPy, built from scratch so the reproduction has no dependency beyond the
standard library.  Processes are Python generators that ``yield`` events;
the :class:`Environment` advances a virtual clock and resumes processes as
the events they wait on trigger.

Design notes
------------
* Time is a ``float`` in **seconds**.  Computation expressed in CPU cycles
  is converted by the cluster layer (``cycles / clock_hz``).
* Events scheduled for the same instant fire in scheduling (FIFO) order,
  which makes runs fully deterministic.
* A process may be interrupted: :meth:`Process.interrupt` throws a
  :class:`~repro.errors.ProcessInterrupt` into the generator at the point
  of its current ``yield``.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import (
    DeadlockError,
    EventAlreadyTriggered,
    ProcessInterrupt,
    SimulationError,
)

__all__ = ["Environment", "Event", "Timeout", "Process", "PENDING"]

#: Sentinel for an event value that has not been set yet.
PENDING = object()

#: Priority bias folded into the heap key.  A heap entry is
#: ``(time, key, event)`` with ``key = eid`` for priority-0 events
#: (interrupts) and ``key = eid + _P1`` for everything else — the exact
#: lexicographic order of the old ``(time, priority, eid)`` key with one
#: fewer tuple element to build and compare per event.
_P1 = 1 << 62


class Event:
    """An occurrence in simulated time that processes may wait for.

    An event starts *pending*, is *triggered* exactly once (either
    :meth:`succeed` with a value or :meth:`fail` with an exception), and is
    *processed* when the environment has run its callbacks.

    Events are the unit of work of the hot loop, so the class is slotted
    and every state flag — including ``_defused`` — is a real attribute:
    the step loop reads them without ``getattr`` fallbacks or property
    descriptors.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        #: A failed event raises out of the step loop unless some handler
        #: marked the failure as taken care of.  True here means "nothing
        #: to surface"; :meth:`fail` arms it.
        self._defused = True

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (ok or failed)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the environment has executed the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined Environment._enqueue: succeed() fires for every
        # resource grant and store hand-off, so the extra call counts.
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, eid + _P1, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters will see it raised."""
        if self._value is not PENDING:
            raise EventAlreadyTriggered(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._defused = False
        self.env._enqueue(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event is processed.

        If the event was already processed, the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ and Environment._enqueue inlined; timeouts are
        # the most-constructed event kind of a run.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = True
        self.delay = delay
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, eid + _P1, self))


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = True
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now, eid + _P1, self))


class Process(Event):
    """A running process: wraps a generator and is itself an event that
    triggers when the generator returns (value = return value) or raises
    (failure).
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self._generator = generator
        self._target: Optional[Event] = None
        #: Optional label used by deadlock diagnostics.
        self.name = name
        env._processes[self] = None
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process at its current
        ``yield``.  Interrupting a finished process is an error.
        """
        if self._value is not PENDING:
            raise SimulationError("cannot interrupt a finished process")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = ProcessInterrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env._enqueue(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        env = self.env
        env._active = self
        # Detach from whatever we were waiting on so a late trigger of the
        # old target (after an interrupt) does not resume us twice.
        if self._target is not None and self._target is not event:
            try:
                self._target.callbacks.remove(self._resume)
            except (ValueError, AttributeError):
                pass
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            env._processes.pop(self, None)
            self._ok = True
            self._value = stop.value
            env._eid = eid = env._eid + 1
            heappush(env._queue, (env._now, eid + _P1, self))
            return
        except BaseException as exc:
            env._active = None
            env._processes.pop(self, None)
            self._ok = False
            self._value = exc
            self._defused = False
            env._enqueue(self)
            return
        env._active = None
        try:
            target_callbacks = next_event.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {next_event!r} "
                "(processes must yield Event instances)"
            ) from None
        if target_callbacks is None:
            # Already processed: resume immediately at the current time.
            bridge = Event(env)
            bridge._ok = next_event._ok
            bridge._value = next_event._value
            if not next_event._ok:
                bridge._defused = True
            bridge.callbacks.append(self._resume)
            env._enqueue(bridge)
            self._target = bridge
        else:
            target_callbacks.append(self._resume)
            self._target = next_event


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active: Optional[Process] = None
        #: Observability hub (:class:`repro.obs.Observability`) if one is
        #: attached; instrumentation hooks across the cluster layer read
        #: this and do nothing while it is ``None``.
        self.obs = None
        #: Chaos fault-injection engine (:class:`repro.chaos.ChaosEngine`)
        #: if one is attached; the wire-level hooks in the cluster layer
        #: read this and do nothing while it is ``None`` — the same
        #: zero-cost-when-disabled pattern as ``obs``.
        self.chaos = None
        #: Live processes, in creation order (deadlock diagnostics).
        self._processes: dict[Process, None] = {}
        #: Hooks invoked with each processed event (``add_step_listener``).
        self._step_listeners: list[Callable[[Event], None]] = []
        #: Events processed so far (the ``repro perf`` throughput metric).
        self.events_processed = 0

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Timeout:
        """Fast-path timeout: a bare delay with no value payload.

        Semantically identical to ``timeout(delay)`` but built without
        the :class:`Event` constructor chain — the cluster layer
        schedules one of these for every compute burst and wire
        serialization, which makes it the single most-allocated object
        of a run.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = None
        timeout._ok = True
        timeout._defused = True
        timeout.delay = delay
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, eid + _P1, timeout))
        return timeout

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``.

        ``name`` labels the process in deadlock diagnostics.
        """
        return Process(self, generator, name)

    def blocked_report(self, limit: int = 16) -> str:
        """One line per live process: who it is, where its generator is
        suspended, and what event it waits on.  Empty string if no
        process is alive — the substance of every :class:`DeadlockError`
        this environment raises."""
        lines = []
        for process in self._processes:
            if len(lines) >= limit:
                lines.append(f"  ... and {len(self._processes) - limit} more")
                break
            label = process.name or process._generator.gi_code.co_name
            # Walk the yield-from chain to the innermost suspended frame:
            # that is where the process is actually blocked.
            gen = process._generator
            while getattr(gen, "gi_yieldfrom", None) is not None and hasattr(
                gen.gi_yieldfrom, "gi_frame"
            ):
                gen = gen.gi_yieldfrom
            frame = getattr(gen, "gi_frame", None)
            if frame is not None:
                where = f"{gen.gi_code.co_name}:{frame.f_lineno}"
            else:
                where = "<not started>"
            target = process._target
            waiting = "nothing (never resumed)" if target is None else repr(target)
            lines.append(f"  {label} suspended at {where}, waiting on {waiting}")
        return "\n".join(lines)

    def _deadlock(self, headline: str) -> DeadlockError:
        detail = self.blocked_report()
        if detail:
            return DeadlockError(
                f"{headline}; {len(self._processes)} process(es) still "
                f"blocked:\n{detail}"
            )
        return DeadlockError(headline)

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds when every event in ``events`` has succeeded.

        Its value is the list of the constituent events' values, in order.
        A failure of any constituent fails the combined event immediately.
        """
        events = list(events)
        combined = self.event()
        remaining = [len(events)]
        if not events:
            combined.succeed([])
            return combined

        def on_done(event: Event) -> None:
            if combined.triggered:
                return
            if not event._ok:
                event._defused = True
                combined.fail(event._value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                combined.succeed([e._value for e in events])

        for e in events:
            e.add_callback(on_done)
        return combined

    def any_of(self, events: Iterable[Event]) -> Event:
        """Event that succeeds as soon as any constituent succeeds.

        Its value is ``(index, value)`` of the first event to trigger.
        """
        events = list(events)
        combined = self.event()
        if not events:
            combined.succeed((None, None))
            return combined

        def make_callback(index: int) -> Callable[[Event], None]:
            def on_done(event: Event) -> None:
                if combined.triggered:
                    if not event._ok:
                        event._defused = True
                    return
                if event._ok:
                    combined.succeed((index, event._value))
                else:
                    event._defused = True
                    combined.fail(event._value)

            return on_done

        for i, e in enumerate(events):
            e.add_callback(make_callback(i))
        return combined

    # -- scheduling / execution --------------------------------------------

    def _enqueue(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        self._eid = eid = self._eid + 1
        if priority:
            eid += _P1
        heappush(self._queue, (self._now + delay, eid, event))

    def triggered_event(self, value: Any = None) -> Event:
        """A fresh event that is already triggered ok with ``value``.

        Equivalent to ``Event(env).succeed(value)`` in one step — the
        resources layer grants most requests immediately, so this path
        runs per store hand-off and resource grant.
        """
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._defused = True
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now, eid + _P1, event))
        return event

    def reserve_key(self) -> int:
        """Reserve the queue slot of an event created *now*.

        Returns the heap key the next scheduled event would take.  An
        event pushed later under it by :meth:`schedule_at` fires in the
        exact FIFO position it would have held had it been scheduled at
        reservation time — which lets a caller keep one armed event for
        a whole series of would-be timers without reordering anything.
        """
        self._eid = eid = self._eid + 1
        return eid + _P1

    def schedule_at(
        self, when: float, key: int, callback: Callable[[Event], None]
    ) -> Event:
        """Schedule ``callback`` at absolute time ``when`` under a key
        from :meth:`reserve_key`.  Each key must be used at most once."""
        if when < self._now:
            raise SimulationError(f"schedule_at({when}) is in the past (now={self._now})")
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = [callback]
        event._value = None
        event._ok = True
        event._defused = True
        heappush(self._queue, (when, key, event))
        return event

    def add_step_listener(self, listener: Callable[[Event], None]) -> None:
        """Register ``listener`` to observe every processed event."""
        self._step_listeners.append(listener)

    def remove_step_listener(self, listener: Callable[[Event], None]) -> None:
        """Unregister a step listener; missing listeners are ignored."""
        try:
            self._step_listeners.remove(listener)
        except ValueError:
            pass

    def step(self) -> None:
        """Process the single next event, advancing the clock."""
        if not self._queue:
            raise self._deadlock("event queue is empty")
        when, _key, event = heapq.heappop(self._queue)
        self._now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event that nobody handled: surface the error.
            raise event._value
        if self._step_listeners:
            for listener in self._step_listeners:
                listener(event)

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a time
        (run until the clock would pass it), or an :class:`Event` (run
        until that event is processed; its value is returned).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError(f"until={stop_time} is in the past (now={self._now})")

        # The fused step loop.  One iteration here is :meth:`step` with
        # the per-event overhead stripped: the queue, heappop, and the
        # listener list are locals, the stop checks read slots directly
        # instead of going through properties, and the processed-event
        # count is flushed once at exit.  Listener registration mutates
        # ``_step_listeners`` in place, so the local alias stays live.
        # The loop body is replicated per stop mode so the common modes
        # (run to an event, run until the queue drains) pay no per-event
        # checks for the stop conditions they cannot hit.
        queue = self._queue
        listeners = self._step_listeners
        processed = 0
        try:
            if stop_time != float("inf"):
                while queue:
                    if stop_event is not None and stop_event.callbacks is None:
                        break
                    when = queue[0][0]
                    if when > stop_time:
                        self._now = stop_time
                        return None
                    event = heappop(queue)[2]
                    self._now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        # A failed event that nobody handled: surface it.
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
            elif stop_event is not None:
                while queue:
                    if stop_event.callbacks is None:
                        break
                    item = heappop(queue)
                    self._now = item[0]
                    event = item[2]
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
            else:
                while queue:
                    item = heappop(queue)
                    self._now = item[0]
                    event = item[2]
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value
                    if listeners:
                        for listener in listeners:
                            listener(event)
        finally:
            self.events_processed += processed

        if stop_event is not None:
            if not stop_event.triggered:
                raise self._deadlock(
                    "simulation ended but the awaited event never triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if until is not None and not isinstance(until, Event):
            self._now = stop_time
        return None
