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
* A process may ``yield`` a non-negative ``float`` instead of an event:
  a *bare delay* of that many seconds.  It wakes through a timer entry
  the process owns, so a compute burst or a wire serialization
  allocates no :class:`Event`.
* :meth:`Environment.call_later` runs a function after a delay through
  the same kind of timer entry, with no event and no callback list.
* Entries due at the current instant — triggered events, process starts
  and completions — wait in a FIFO beside the time-ordered heap.  The
  loop takes whichever head is smaller by ``(time, key)``: the same total
  order as one heap, without a heap trip for the most common entries.
* A process may be interrupted: :meth:`Process.interrupt` throws a
  :class:`~repro.errors.ProcessInterrupt` into the generator at the point
  of its current ``yield``.
"""

from __future__ import annotations

from collections import deque
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

#: Priority bias folded into the queue key.  A queue entry is
#: ``(time, key, entry)`` with ``key = eid`` for priority-0 events
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
        env._ready.append((env._now, eid + _P1, self))
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
        # Event.__init__ and Environment._enqueue inlined.
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
        env._ready.append((env._now, eid + _P1, self))


class _Timer:
    """A queue entry that calls ``fn(entry)`` instead of being an Event.

    The loop runs ``fn`` only while ``key`` still equals the key the
    entry was queued under; a process invalidates its pending wake this
    way when it is interrupted, and the stale entry is then popped and
    counted but runs nothing.  A timer reads as an event that succeeded
    with ``None``, so a process's own timer can be handed straight to its
    resume callback.
    """

    __slots__ = ("fn", "key")

    _ok = True
    _value = None

    def __init__(self, fn: Callable[["_Timer"], None], key: int) -> None:
        self.fn = fn
        self.key = key

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<timer {getattr(self.fn, '__qualname__', self.fn)}>"


class Process(Event):
    """A running process: wraps a generator and is itself an event that
    triggers when the generator returns (value = return value) or raises
    (failure).
    """

    __slots__ = ("_generator", "_target", "name", "_resume", "_timer")

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
        #: The event, or the wake timer, this process waits on.
        self._target: Optional[Event | _Timer] = None
        #: Optional label used by deadlock diagnostics.
        self.name = name
        #: The bound resume callback, made once: every yield registers it.
        self._resume = self._advance
        #: The timer entry that ends this process's bare-delay waits.
        self._timer = _Timer(self._resume, 0)
        env._processes[self] = None
        Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any
        (``None`` while it sleeps on a bare delay)."""
        target = self._target
        return None if target.__class__ is _Timer else target

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

    def _advance(self, event: Event | _Timer) -> None:
        """Advance the generator with the value (or failure) of ``event``."""
        env = self.env
        env._active = self
        target = self._target
        if target is not event and target is not None:
            # Resumed by something other than what we waited on (an
            # interrupt): detach so the old target cannot resume us too.
            if target.__class__ is _Timer:
                target.key = 0
            else:
                try:
                    target.callbacks.remove(self._resume)
                except (ValueError, AttributeError):
                    pass
        self._target = None
        try:
            if event._ok:
                yielded = self._generator.send(event._value)
            else:
                event._defused = True
                yielded = self._generator.throw(event._value)
        except StopIteration as stop:
            env._active = None
            env._processes.pop(self, None)
            self._ok = True
            self._value = stop.value
            env._eid = eid = env._eid + 1
            env._ready.append((env._now, eid + _P1, self))
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
        if yielded.__class__ is float:
            if yielded < 0.0:
                raise ValueError(f"negative delay: {yielded}")
            # A bare delay: queue the own timer under the key a Timeout
            # created right now would take.
            env._eid = eid = env._eid + 1
            key = eid + _P1
            timer = self._timer
            timer.key = key
            heappush(env._queue, (env._now + yielded, key, timer))
            self._target = timer
            return
        try:
            target_callbacks = yielded.callbacks
        except AttributeError:
            raise SimulationError(
                f"process yielded a non-event: {yielded!r} "
                "(processes must yield Event instances or float delays)"
            ) from None
        if target_callbacks is None:
            # Already processed: resume immediately at the current time.
            bridge = Event(env)
            bridge._ok = yielded._ok
            bridge._value = yielded._value
            bridge.callbacks.append(self._resume)
            env._enqueue(bridge)
            self._target = bridge
        else:
            target_callbacks.append(self._resume)
            self._target = yielded


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Future entries, a heap of ``(time, key, entry)``.
        self._queue: list[tuple[float, int, Event | _Timer]] = []
        #: Entries due now, in key order (all keys fresh, so ascending).
        self._ready: deque[tuple[float, int, Event | _Timer]] = deque()
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
        #: Hooks invoked with each processed entry (``add_step_listener``).
        self._step_listeners: list[Callable[[Any], None]] = []
        #: Entries processed so far (the ``repro perf`` throughput metric).
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
        """Time of the next scheduled entry, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._queue[0][0] if self._queue else float("inf")

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process running ``generator``.

        ``name`` labels the process in deadlock diagnostics.
        """
        return Process(self, generator, name)

    def blocked_report(self, limit: int = 16) -> str:
        """One line per live process: who it is, where its generator is
        suspended, and what it waits on.  Empty string if no process is
        alive — the substance of every :class:`DeadlockError` this
        environment raises."""
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
            if target is None:
                waiting = "waiting on nothing (never resumed)"
            elif target.__class__ is _Timer:
                wake = next(when for when, key, _entry in self._queue
                            if key == target.key)
                waiting = f"sleeping until {wake}"
            else:
                waiting = f"waiting on {target!r}"
            lines.append(f"  {label} suspended at {where}, {waiting}")
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

    def _enqueue(self, event: Event, priority: int = 1) -> None:
        """Queue ``event`` at the current instant."""
        self._eid = eid = self._eid + 1
        if priority:
            self._ready.append((self._now, eid + _P1, event))
        else:
            heappush(self._queue, (self._now, eid, event))

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
        self._ready.append((self._now, eid + _P1, event))
        return event

    def call_later(self, delay: float, fn: Callable[[_Timer], None]) -> None:
        """Call ``fn(entry)`` ``delay`` seconds from now.

        Ordered exactly like a :class:`Timeout` created at this point,
        but no event, callback list or waiter is involved: the loop
        calls ``fn`` directly.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._eid = eid = self._eid + 1
        key = eid + _P1
        heappush(self._queue, (self._now + delay, key, _Timer(fn, key)))

    def reserve_key(self) -> int:
        """Reserve the queue slot of an entry created *now*.

        Returns the key the next scheduled entry would take.  An entry
        queued later under it by :meth:`schedule_at` fires in the exact
        FIFO position it would have held had it been scheduled at
        reservation time — which lets a caller keep one armed timer for
        a whole series of would-be timers without reordering anything.
        """
        self._eid = eid = self._eid + 1
        return eid + _P1

    def schedule_at(
        self, when: float, key: int, fn: Callable[[_Timer], None]
    ) -> None:
        """Call ``fn(entry)`` at absolute time ``when`` under a key from
        :meth:`reserve_key`.  Each key must be used at most once."""
        if when < self._now:
            raise SimulationError(f"schedule_at({when}) is in the past (now={self._now})")
        heappush(self._queue, (when, key, _Timer(fn, key)))

    def add_step_listener(self, listener: Callable[[Any], None]) -> None:
        """Register ``listener`` to observe every processed entry: each
        event, and each timer entry (bare-delay wakes, ``call_later``)."""
        self._step_listeners.append(listener)

    def remove_step_listener(self, listener: Callable[[Any], None]) -> None:
        """Unregister a step listener; missing listeners are ignored."""
        try:
            self._step_listeners.remove(listener)
        except ValueError:
            pass

    def step(self) -> None:
        """Process the single next entry, advancing the clock."""
        queue = self._queue
        ready = self._ready
        if ready:
            if queue and queue[0] < ready[0]:
                when, key, entry = heappop(queue)
                self._now = when
            else:
                when, key, entry = ready.popleft()
        elif queue:
            when, key, entry = heappop(queue)
            self._now = when
        else:
            raise self._deadlock("event queue is empty")
        self.events_processed += 1
        if entry.__class__ is _Timer:
            if entry.key == key:
                entry.fn(entry)
        else:
            callbacks = entry.callbacks
            entry.callbacks = None
            for callback in callbacks:
                callback(entry)
            if not entry._ok and not entry._defused:
                # A failed event that nobody handled: surface the error.
                raise entry._value
        if self._step_listeners:
            for listener in self._step_listeners:
                listener(entry)

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
        # the per-entry overhead stripped: the queues, heappop, and the
        # listener list are locals, the stop checks read slots directly
        # instead of going through properties, and the processed-entry
        # count is flushed once at exit.  Listener registration mutates
        # ``_step_listeners`` in place, so the local alias stays live.
        # An entry from the ready FIFO is due now, so only a heap entry
        # moves the clock.  Running to a time takes the general loop;
        # the hot loop serves the other two modes, since draining the
        # queue is running to an event that never triggers.
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        listeners = self._step_listeners
        timer = _Timer
        processed = 0
        try:
            if stop_time != float("inf"):
                while stop_event is None or stop_event.callbacks is not None:
                    if ready:
                        # Due now, so never past ``stop_time``.
                        if queue and queue[0] < ready[0]:
                            when, key, entry = heappop(queue)
                            self._now = when
                        else:
                            when, key, entry = popleft()
                    elif queue:
                        if queue[0][0] > stop_time:
                            self._now = stop_time
                            return None
                        when, key, entry = heappop(queue)
                        self._now = when
                    else:
                        break
                    processed += 1
                    if entry.__class__ is timer:
                        if entry.key == key:
                            entry.fn(entry)
                    else:
                        callbacks = entry.callbacks
                        entry.callbacks = None
                        for callback in callbacks:
                            callback(entry)
                        if not entry._ok and not entry._defused:
                            # A failed event that nobody handled: surface it.
                            raise entry._value
                    if listeners:
                        for listener in listeners:
                            listener(entry)
            else:
                stop = stop_event if stop_event is not None else Event(self)
                while stop.callbacks is not None:
                    if ready:
                        if queue and queue[0] < ready[0]:
                            when, key, entry = heappop(queue)
                            self._now = when
                        else:
                            when, key, entry = popleft()
                    elif queue:
                        when, key, entry = heappop(queue)
                        self._now = when
                    else:
                        break
                    processed += 1
                    if entry.__class__ is timer:
                        if entry.key == key:
                            entry.fn(entry)
                    else:
                        callbacks = entry.callbacks
                        entry.callbacks = None
                        for callback in callbacks:
                            callback(entry)
                        if not entry._ok and not entry._defused:
                            raise entry._value
                    if listeners:
                        for listener in listeners:
                            listener(entry)
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
