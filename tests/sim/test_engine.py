"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import (
    DeadlockError,
    EventAlreadyTriggered,
    ProcessInterrupt,
    SimulationError,
)
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc():
        yield env.timeout(3.0)
        times.append(env.now)
        yield env.timeout(2.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [3.0, 5.0]


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_process_return_value_via_run_until():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    result = env.run(until=env.process(proc()))
    assert result == 42


def test_process_exception_propagates_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        env.run(until=env.process(proc()))


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_event_succeed_once_only():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_process_waits_on_manual_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7.0, "open")]


def test_failed_event_raises_inside_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("bad"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["bad"]


def test_unhandled_failed_event_surfaces():
    env = Environment()
    gate = env.event()

    def failer():
        yield env.timeout(1.0)
        gate.fail(ValueError("nobody catches me"))

    env.process(failer())
    with pytest.raises(ValueError, match="nobody catches me"):
        env.run()


def test_unhandled_failure_after_handled_one_still_surfaces():
    # The _defused flag is per-event: one event with a handler must not
    # defuse a different unhandled failure.
    env = Environment()
    handled = env.event()
    unhandled = env.event()
    caught = []

    def waiter():
        try:
            yield handled
        except ValueError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        handled.fail(ValueError("handled"))
        unhandled.fail(ValueError("nobody catches me"))

    env.process(waiter())
    env.process(failer())
    with pytest.raises(ValueError, match="nobody catches me"):
        env.run()
    assert caught == ["handled"]


def test_sleep_fast_path_matches_timeout():
    env = Environment()
    times = []

    def proc():
        yield env.sleep(3.0)
        times.append(env.now)
        yield env.sleep(0.0)
        times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [3.0, 3.0]


def test_sleep_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.sleep(-0.5)


def test_reserved_key_fires_in_its_reservation_slot():
    # An event scheduled later under a reserved key fires exactly where
    # a timer created at reservation time would have: after same-time
    # events created before the reservation, before those created after.
    env = Environment()
    order = []
    env.sleep(1.0).callbacks.append(lambda _e: order.append("before"))
    key = env.reserve_key()
    env.sleep(1.0).callbacks.append(lambda _e: order.append("after"))

    def arm_late():
        yield env.sleep(0.5)
        env.schedule_at(1.0, key, lambda _e: order.append("reserved"))

    env.process(arm_late())
    env.run()
    assert order == ["before", "reserved", "after"]
    assert env.now == 1.0


def test_schedule_at_rejects_the_past():
    env = Environment()
    env.run(until=2.0)
    with pytest.raises(SimulationError):
        env.schedule_at(1.0, env.reserve_key(), lambda _e: None)


def test_sleep_and_timeout_share_fifo_order():
    # sleep() is an allocation fast path, not a different event kind:
    # it must interleave with timeout() in strict creation order.
    env = Environment()
    order = []

    def via_timeout(name):
        yield env.timeout(1.0)
        order.append(name)

    def via_sleep(name):
        yield env.sleep(1.0)
        order.append(name)

    env.process(via_timeout("a"))
    env.process(via_sleep("b"))
    env.process(via_timeout("c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_events_processed_counts_every_event():
    env = Environment()

    def proc():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(proc())
    env.run()
    # 1 Initialize + 5 timeouts + 1 process-completion event.
    assert env.events_processed == 7


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_same_time_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    for name in ["a", "b", "c"]:
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_already_processed_event_resumes():
    env = Environment()
    done = env.event()
    done.succeed("early")
    log = []

    def proc():
        value = yield done
        log.append(value)

    env.process(proc())
    env.run()
    assert log == ["early"]


def test_all_of_collects_values_in_order():
    env = Environment()
    results = []

    def proc():
        events = [env.timeout(3.0, "slow"), env.timeout(1.0, "fast")]
        values = yield env.all_of(events)
        results.append((env.now, values))

    env.process(proc())
    env.run()
    assert results == [(3.0, ["slow", "fast"])]


def test_all_of_empty_succeeds_immediately():
    env = Environment()
    results = []

    def proc():
        values = yield env.all_of([])
        results.append(values)

    env.process(proc())
    env.run()
    assert results == [[]]


def test_any_of_returns_first():
    env = Environment()
    results = []

    def proc():
        index, value = yield env.any_of([env.timeout(3.0, "slow"), env.timeout(1.0, "fast")])
        results.append((env.now, index, value))

    env.process(proc())
    env.run()
    assert results == [(1.0, 1, "fast")]


def test_interrupt_raises_inside_process():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def attacker(target):
        yield env.timeout(5.0)
        target.interrupt(cause="misspec")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [(5.0, "misspec")]


def test_process_cannot_interrupt_itself():
    # Regression: the guard must compare the Process object itself, not
    # its resume-target event — interrupting another process from inside
    # a process is legal, interrupting yourself is not.
    env = Environment()
    errors = []

    def selfish():
        yield env.timeout(1.0)
        try:
            handle.interrupt(cause="oops")
        except SimulationError as exc:
            errors.append(str(exc))

    handle = env.process(selfish())
    env.run()
    assert errors == ["a process cannot interrupt itself"]


def test_process_can_interrupt_other_at_same_instant():
    # Companion to the self-interrupt guard: a *different* process is
    # interruptible even while the interrupter is the active process.
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt as interrupt:
            log.append(interrupt.cause)

    def attacker(target):
        yield env.timeout(1.0)
        target.interrupt(cause="ok")

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == ["ok"]


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(100.0)
        except ProcessInterrupt:
            pass
        yield env.timeout(1.0)
        log.append(env.now)

    def attacker(target):
        yield env.timeout(5.0)
        target.interrupt()

    target = env.process(victim())
    env.process(attacker(target))
    env.run()
    assert log == [6.0]


def test_run_until_event_that_never_triggers_deadlocks():
    env = Environment()
    never = env.event()

    def quick():
        yield env.timeout(1.0)

    env.process(quick())
    with pytest.raises(DeadlockError):
        env.run(until=never)


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(DeadlockError):
        env.step()


def test_nested_process_waits_for_child():
    env = Environment()
    log = []

    def child():
        yield env.timeout(2.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        log.append((env.now, result))

    env.process(parent())
    env.run()
    assert log == [(2.0, "child-result")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4.0)
    assert env.peek() == 4.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_deadlock_error_names_blocked_processes():
    """The deadlock report names every live process, where its generator
    is suspended, and what it waits on — the debuggability contract for
    hangs introduced by dropped or misrouted messages."""
    env = Environment()
    never = env.event()

    def consumer():
        yield never

    def idler():
        yield env.timeout(1.0)
        yield env.event()

    env.process(consumer(), name="commit-inbox-reader")
    env.process(idler())  # unnamed: falls back to the generator name
    with pytest.raises(DeadlockError) as excinfo:
        env.run(until=env.event())  # "run to completion" that never comes
    message = str(excinfo.value)
    assert "2 process(es) still blocked" in message
    assert "commit-inbox-reader" in message
    assert "idler" in message  # generator-name fallback
    assert "waiting on" in message
    assert "consumer:" in message  # suspension site of the named process


def test_deadlock_report_walks_into_nested_generators():
    env = Environment()

    def inner():
        yield env.event()

    def outer():
        yield from inner()

    env.process(outer(), name="outer-unit")
    with pytest.raises(DeadlockError) as excinfo:
        env.run(until=env.event())
    # The innermost suspended frame is reported, not the delegating one.
    assert "inner:" in str(excinfo.value)


def test_deadlock_report_caps_its_length():
    env = Environment()

    def blocked():
        yield env.event()

    for index in range(20):
        env.process(blocked(), name=f"p{index}")
    report = env.blocked_report(limit=16)
    assert "... and 4 more" in report


def test_blocked_report_is_empty_without_processes():
    assert Environment().blocked_report() == ""
