"""Property: the engine processes entries in (time, priority, FIFO) order.

The engine keeps future entries in a heap and entries due now in a FIFO
beside it, and processes bare-delay wakes and ``call_later`` /
``schedule_at`` timers as timer entries rather than events.  None of
that may change the order: at every step the processed entry must be
the smallest pending one by ``(time, priority, scheduling order)``,
exactly as if everything sat in one heap.  Generated mixes of processes
exercise every way an entry is queued — bare delays, timeouts,
immediately granted resource and store requests, shared events that are
succeeded (and waited on after processing), timers, reserved-key timers,
and interrupts, including interrupts that land mid-sleep.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessInterrupt
from repro.sim import Environment, Resource, Store
from repro.sim.engine import _P1, _Timer

PROCESSES = 4
SHARED_EVENTS = 3
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])

_op = st.one_of(
    st.tuples(st.just("delay"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("resource")),
    st.tuples(st.just("store")),
    st.tuples(st.just("succeed"), st.integers(0, SHARED_EVENTS - 1)),
    st.tuples(st.just("wait"), st.integers(0, SHARED_EVENTS - 1)),
    st.tuples(st.just("call_later"), DELAYS),
    st.tuples(st.just("reserve"), DELAYS),
    st.tuples(st.just("arm")),
    st.tuples(st.just("interrupt"), st.integers(0, PROCESSES - 1)),
)
_programs = st.lists(st.lists(_op, max_size=8), min_size=1, max_size=PROCESSES)


def _order(item):
    """``(time, priority, scheduling order)`` of a queued entry."""
    when, key, _entry = item
    return (when, 1, key - _P1) if key >= _P1 else (when, 0, key)


def _build(program):
    """An environment running ``program``; returns (env, log, seen)."""
    env = Environment()
    log = []
    seen = []
    env.add_step_listener(lambda entry: seen.append((env.now, type(entry).__name__)))
    shared = [env.event() for _ in range(SHARED_EVENTS)]
    # Always room: every request is granted immediately.
    resource = Resource(env, capacity=PROCESSES + 1)
    processes = []
    started = set()
    interrupt_pending = set()
    reservations = []

    def note(index, what):
        return lambda _entry: log.append((env.now, index, what))

    def body(index, script):
        started.add(index)
        store = Store(env)
        for op in script:
            kind = op[0]
            try:
                if kind == "delay":
                    yield op[1]
                elif kind == "timeout":
                    yield env.timeout(op[1])
                elif kind == "resource":
                    request = resource.request()
                    try:
                        yield request
                    finally:
                        resource.release(request)
                elif kind == "store":
                    yield store.put(index)
                    yield store.get()
                elif kind == "succeed":
                    if not shared[op[1]].triggered:
                        shared[op[1]].succeed(index)
                elif kind == "wait":
                    yield shared[op[1]]
                elif kind == "call_later":
                    env.call_later(op[1], note(index, "timer"))
                elif kind == "reserve":
                    reservations.append((env.now + op[1], env.reserve_key()))
                elif kind == "arm":
                    if reservations:
                        when, key = reservations.pop(0)
                        if when >= env.now:
                            env.schedule_at(when, key, note(index, "reserved"))
                elif kind == "interrupt":
                    victim = op[1]
                    if (victim < len(processes) and victim != index
                            and victim in started
                            and victim not in interrupt_pending
                            and processes[victim].is_alive):
                        interrupt_pending.add(victim)
                        processes[victim].interrupt(index)
            except ProcessInterrupt as interrupt:
                interrupt_pending.discard(index)
                log.append((env.now, index, "interrupted", kind, interrupt.cause))
                continue
            log.append((env.now, index, kind))

    for index, script in enumerate(program):
        processes.append(env.process(body(index, script)))
    return env, log, seen


def _run_stepwise(program):
    """Step through ``program``, checking each processed entry against
    the smallest pending one.  Returns (log, seen, stale wakes)."""
    env, log, seen = _build(program)
    stale = 0
    last_time = env.now
    while env._queue or env._ready:
        pending = list(env._queue) + list(env._ready)
        expected = min(pending, key=_order)
        entry = expected[2]
        # A wake invalidated by an interrupt: counted, runs nothing.
        is_stale = type(entry) is _Timer and entry.key != expected[1]
        logged, processed = len(log), env.events_processed
        env.step()
        assert env.events_processed == processed + 1
        assert env.now == expected[0] >= last_time
        last_time = env.now
        assert all(item is not expected for item in env._queue)
        assert all(item is not expected for item in env._ready)
        if is_stale:
            stale += 1
            assert len(log) == logged
    assert len(seen) == env.events_processed
    return log, seen, stale


@settings(max_examples=150, deadline=None)
@given(_programs)
def test_processed_order_is_time_priority_fifo(program):
    log, seen, stale = _run_stepwise(program)
    slept_through = sum(
        1 for record in log if record[2] == "interrupted" and record[3] == "delay"
    )
    assert stale == slept_through
    # The fused loop, in both stop modes, processes the same entries at
    # the same instants with the same effects.
    env, run_log, run_seen = _build(program)
    env.run()
    assert (run_log, run_seen) == (log, seen)
    assert len(run_seen) == env.events_processed
    env, until_log, until_seen = _build(program)
    env.run(until=1.25)
    assert env.now == 1.25
    env.run()
    assert (until_log, until_seen) == (log, seen)
    assert len(until_seen) == env.events_processed


def test_interrupted_sleep_leaves_a_stale_wake_that_runs_nothing():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield 5.0
        except ProcessInterrupt:
            log.append(("interrupted", env.now))
        yield 1.0
        log.append(("woke", env.now))

    def interrupter(victim):
        yield 1.0
        assert "sleeping until 5.0" in env.blocked_report()
        victim.interrupt()

    victim = env.process(sleeper(), name="sleeper")
    env.process(interrupter(victim))
    env.run()
    assert log == [("interrupted", 1.0), ("woke", 2.0)]
    # Two Initialize events, two live wakes (t=1 and t=2), one
    # interrupt, two process completions, and the stale wake at t=5,
    # which moves the clock but resumes nothing.
    assert env.events_processed == 8
    assert env.now == 5.0
