"""Tier-1 guard: observability is free when disabled.

Three claims, strongest first:

1. An uninstrumented run records nothing anywhere (no events can leak
   through a stale hook).
2. Instrumentation does not perturb the simulation: an instrumented run
   reproduces the uninstrumented run's simulated results *exactly* —
   the hooks only read the clock.
3. The disabled hooks' wall-clock cost is in the noise: a run without
   instrumentation is no more than 5% slower than the same run with it
   (the instrumented run does strictly more work, so this bounds the
   disabled-path overhead without comparing two noisy equals).
"""

import time

from repro.core import DSMTXSystem, SystemConfig
from repro.obs import detach, instrument
from repro.workloads import Crc32


def _build(instrumented):
    workload = Crc32(iterations=24, misspec_iterations={12})
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(total_cores=8))
    hub = instrument(system) if instrumented else None
    return system, hub


def _fingerprint(system):
    stats = system.stats
    return (
        stats.elapsed_seconds,
        stats.committed_mtxs,
        stats.misspeculations,
        stats.queue_bytes,
        stats.queue_batches,
        stats.coa_pages_served,
        stats.words_committed,
        system.env.events_processed,
        tuple((r.misspec_iteration, r.erm_seconds, r.flq_seconds, r.seq_seconds)
              for r in stats.recoveries),
    )


def test_disabled_records_zero_events():
    system, _ = _build(instrumented=False)
    system.run()
    assert system.obs is None
    assert system.env.obs is None
    assert system.stats.observer is None
    for worker in system.workers:
        assert worker.space.obs is None


def test_detach_stops_recording():
    system, hub = _build(instrumented=True)
    detach(system)
    system.run()
    assert len(hub.tracer) == 0
    assert len(hub.metrics) == 0


def test_instrumentation_is_timing_invariant():
    plain, _ = _build(instrumented=False)
    plain.run()
    traced, hub = _build(instrumented=True)
    traced.run()
    assert _fingerprint(plain) == _fingerprint(traced)
    assert len(hub.tracer) > 0  # and it actually recorded something


def test_fused_loop_reports_every_event_to_step_listeners():
    # The fused run() loop keeps a local alias of the step-listener
    # list; it must still observe every processed event — including the
    # fast-path timeouts created by env.sleep() — when instrumentation
    # is attached before the run.
    system, _ = _build(instrumented=True)
    seen = []
    system.env.add_step_listener(lambda event: seen.append(event))
    system.run()
    assert len(seen) == system.env.events_processed


def test_listener_attached_mid_run_sees_remaining_events():
    # add/remove_step_listener mutate the list in place, so attaching a
    # listener from inside a step takes effect within the fused loop.
    from repro.sim import Environment

    env = Environment()
    seen = []

    def late():
        yield 1.0
        env.add_step_listener(lambda event: seen.append(event))
        yield 1.0
        yield 1.0

    env.process(late())
    env.run()
    # Listeners are notified after an event's callbacks run, so the
    # attaching entry itself is seen too: the wake that attached, the
    # two later wakes, and the process-completion event.
    assert len(seen) == 4


def test_two_listeners_coexist():
    # Listeners are independent: removing one leaves the other
    # observing every later event.
    from repro.sim import Environment, Timeout

    env = Environment()
    first, second = [], []
    on_first, on_second = first.append, second.append
    env.add_step_listener(on_first)
    env.add_step_listener(on_second)

    def five_timeouts():
        for _ in range(5):
            yield env.timeout(1.0)

    def timeouts(seen):
        return sum(type(event) is Timeout for event in seen)

    env.process(five_timeouts())
    env.run()
    assert timeouts(first) == timeouts(second) == 5
    env.remove_step_listener(on_first)
    env.process(five_timeouts())
    env.run()
    assert timeouts(first) == 5
    assert timeouts(second) == 10


def test_disabled_wall_clock_overhead_under_5_percent():
    def best_of(instrumented, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            system, _ = _build(instrumented)
            begin = time.perf_counter()
            system.run()
            best = min(best, time.perf_counter() - begin)
        return best

    disabled = best_of(False)
    enabled = best_of(True)
    # The enabled run does strictly more work, so the disabled hooks'
    # cost is bounded by any margin the enabled run needs.
    assert disabled <= enabled * 1.05, (disabled, enabled)
