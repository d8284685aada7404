"""Failure detection, barrier deregistration, and the participant
protocol's termination/interruption races."""

import pytest

from repro.core import DSMTXSystem, SystemConfig
from repro.core.messages import CTL_NODE_FAILED
from repro.core.recovery import RecoveryCoordinator
from repro.errors import ClusterFailedError, NodeCrashed, ProcessInterrupt
from tests.core.toys import ToyDoall


def build(cores=8, fault_tolerance=True):
    return DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(),
        SystemConfig(total_cores=cores, fault_tolerance=fault_tolerance),
    )


# -- detection ----------------------------------------------------------------


def test_silent_node_is_declared_within_the_suspicion_timeout():
    system = build()
    detector = system.failure_detector
    detector.start()
    env = system.env
    # Take node 0 out of the clock's beat set: silence without any
    # other change (its units keep running).
    assert 0 in detector.beating

    def silencer():
        yield env.timeout(0.001)
        detector.beating.discard(0)

    env.process(silencer())
    deadline = 0.001 + detector.suspicion_timeout + 3 * detector.period
    env.run(until=env.timeout(deadline))

    ((node, dead_tids, detected_at, last_heard_at),) = (
        system.state.failover_pending
    )
    assert node == 0
    assert dead_tids == (0, 1, 2, 3)
    assert last_heard_at <= 0.001
    assert detected_at <= deadline
    assert system.state.failed_nodes == {0}
    # Dead workers left the barrier protocol at declaration time.
    assert system.recovery.parties == system.num_workers + 2 - 4
    # And the commit unit got its wake-up ping.
    ok, envelope = system.inbox_of(system.commit_tid).try_get()
    assert ok and envelope.kind == CTL_NODE_FAILED and envelope.payload == 0


def test_heartbeats_from_a_crashed_node_stop_at_crash_time():
    """A dead node must fall silent at the instant of the crash: the
    detector clock stops beating for it along with everything else on
    the node, so its last-heard time freezes and the suspicion clock
    starts from there.  A node that kept beating would mask the
    failure forever."""
    from repro.chaos import ChaosEngine, FaultPlan, NodeCrash

    system = build(cores=12)  # three nodes: a survivor node beside the victim
    detector = system.failure_detector
    crash_at = 10.5 * detector.period  # mid-interval, several beats in
    engine = ChaosEngine(
        FaultPlan(faults=(NodeCrash(node=0, at_s=crash_at),))
    ).attach(system.env)
    engine.bind_system(system)
    detector.start()
    env = system.env
    env.run(until=env.timeout(crash_at + detector.suspicion_timeout + 5 * detector.period))

    # The node beat while alive, then went silent exactly at the crash.
    assert 0.0 < detector.last_heard[0] <= crash_at
    # Survivors kept beating past the crash.
    assert any(
        heard > crash_at
        for node, heard in detector.last_heard.items()
        if node != 0 and node != detector.commit_node
    )
    # And the silence was eventually declared.
    assert system.state.failed_nodes == {0}


def test_one_detector_clock_serves_every_node():
    from repro.chaos import ChaosEngine, FaultPlan, NodeCrash

    system = build(cores=12)
    detector = system.failure_detector
    ChaosEngine(FaultPlan(faults=(NodeCrash(node=0, at_s=1e-3),))).attach(
        system.env).bind_system(system)
    detector.start()
    env = system.env
    assert [p.name for p in env._processes] == ["failure-detector"]
    # No node hosts a detector process: a crash silences the node's
    # beats through the clock's own dead-node check.
    assert not any(system.processes_on_node(n) for n in detector.tids_by_node)
    env.run(until=env.timeout(2e-3))
    assert 0 not in detector.beating and detector.beating
    assert detector.last_heard[0] < 1e-3
    assert all(detector.last_heard[n] > 1e-3 for n in detector.beating)


def test_healthy_nodes_are_never_suspected():
    system = build()
    system.failure_detector.start()
    env = system.env
    env.run(until=env.timeout(50 * system.failure_detector.suspicion_timeout))
    assert not system.state.failover_pending
    assert system.stats.ft_heartbeats > 0


def test_losing_the_commit_units_node_is_fatal():
    system = build()
    detector = system.failure_detector
    detector.start()
    # Node 1 hosts the try-commit and commit units under pack placement.
    with pytest.raises(ClusterFailedError, match="unrecoverable"):
        detector._declare(1)


# -- barrier deregistration ---------------------------------------------------


def test_deregister_shrinks_barriers_and_drops_dead_arrivals():
    system = build()
    recovery = system.recovery
    before = recovery.parties
    # Unit 0 died *at* the ERM barrier.
    recovery.erm_barrier.wait(owner=0)
    recovery.deregister([0, 1])
    assert recovery.parties == before - 2
    assert recovery.erm_barrier.arrived == 0  # the ghost arrival is gone
    assert recovery.erm_barrier.parties == before - 2
    # Deregistering the same units again is a no-op.
    recovery.deregister([0, 1])
    assert recovery.parties == before - 2


def test_deregister_releases_a_barrier_the_survivors_completed():
    system = build()
    recovery = system.recovery
    released = []
    # All parties but the (dead) last one have arrived.
    for tid in range(recovery.parties - 1):
        recovery.erm_barrier.wait(owner=tid).callbacks.append(
            lambda _e: released.append(True)
        )
    recovery.deregister([99])
    system.env.run(until=system.env.timeout(0.0))
    assert len(released) == recovery.parties


# -- participant protocol races ----------------------------------------------


def test_participate_returns_when_the_run_terminates_instead():
    """Regression: a unit waiting pre-ERM must not join the barriers if
    the commit unit terminates the run rather than entering recovery —
    the flush that wakes the unit is the *termination* flush, and
    arriving at the ERM barrier then would strand it forever."""
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]

    def terminator():
        yield env.timeout(1e-6)
        system.state.terminate()
        system.flush_all_inboxes()

    env.process(terminator())
    proc = env.process(system.recovery.participate(worker))
    env.run(until=proc)
    assert system.recovery.erm_barrier.arrived == 0


def test_participate_survives_flush_churn_before_recovery_begins():
    """ChannelFlushedError in the pre-ERM receive loop is absorbed and
    the loop re-checks the system mode each pass."""
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]
    solo = RecoveryCoordinator(system, parties=1)

    def driver():
        # Two spurious flushes while the unit waits, then real recovery.
        for _ in range(2):
            yield env.timeout(1e-6)
            system.flush_all_inboxes()
        yield env.timeout(1e-6)
        system.state.begin_recovery(0)
        system.flush_all_inboxes()

    env.process(driver())
    proc = env.process(solo.participate(worker))
    env.run(until=proc)
    # The unit made it through ERM, FLQ, and resume alone.
    assert solo.erm_barrier.generation == 1
    assert solo.flq_barrier.generation == 1
    assert solo.resume_barrier.generation == 1


def test_participate_joins_immediately_when_already_in_recovery():
    system = build(fault_tolerance=False)
    env = system.env
    worker = system.workers[0]
    solo = RecoveryCoordinator(system, parties=1)
    system.state.begin_recovery(0)
    proc = env.process(solo.participate(worker))
    env.run(until=proc)
    assert solo.resume_barrier.generation == 1


# -- unit main loops under node crashes ---------------------------------------


def test_unit_main_loops_absorb_node_crash_interrupts():
    system = build()
    env = system.env
    worker = system.workers[0]
    system.total_iterations = 8
    system.workload.setup(system)
    process = env.process(worker.run())
    cause = NodeCrashed(0)

    def killer():
        yield env.timeout(1e-6)
        process.interrupt(cause)

    env.process(killer())
    env.run(until=process)  # returns silently, no exception propagates


def test_unit_main_loops_reraise_foreign_interrupts():
    system = build()
    env = system.env
    worker = system.workers[0]
    system.total_iterations = 8
    system.workload.setup(system)
    process = env.process(worker.run())

    def killer():
        yield env.timeout(1e-6)
        process.interrupt("not a crash")

    env.process(killer())
    with pytest.raises(ProcessInterrupt):
        env.run(until=process)
