"""Heartbeat-based failure detection (fault-tolerant mode).

Every node that hosts runtime units heartbeats the commit node every
:attr:`ClusterSpec.heartbeat_period_s`, and the :class:`FailureDetector`,
co-located with the commit unit, sweeps the per-node last-heard times;
a node silent for longer than :attr:`ClusterSpec.suspicion_timeout_s`
is declared dead:

1. the declaration is queued on ``SystemState.failover_pending`` (the
   authoritative signal the commit unit's run loop consumes);
2. the dead node's worker tids are *deregistered* from the recovery
   barriers, so a rollback already in flight completes with the
   survivors instead of deadlocking on parties that will never arrive;
3. a ``CTL_NODE_FAILED`` control envelope is injected locally into the
   commit unit's inbox as a wake-up ping, in case the commit unit is
   blocked on an empty inbox.

Heartbeats travel the management path (the dedicated low-volume control
network alongside the data fabric), so they cost neither core time nor
NIC serialization; their overhead is pure accounting.  The suspicion
timeout budgets several heartbeat periods plus wire latency, so a
healthy node is never suspected: transient link faults only delay data
traffic (absorbed by the reliable transport) and never trigger a
spurious failover.

All of this runs on **one detector clock** per run.  Every node beats
at the same instants, and the sweep and the standby-side watcher below
poll at those instants too, so a single process ticks once per period
and plays every role in a fixed order: the beats of the nodes in
:attr:`FailureDetector.beating`, then the sweep round, then the watcher
round.  A role lives on a node and falls silent from the instant that
node crashes (``ChaosEngine.dead_nodes``, read at every tick): a crash
exactly on a tick silences that tick's beat, because the crash was
scheduled first.  Beats are recorded at send time: the suspicion
timeout already budgets the (microsecond-scale) management-path delay.

A crash of the try-commit node is not survivable — the validation
pipeline has no replica — and raises
:class:`~repro.errors.ClusterFailedError`.  The same goes for the
commit node, *unless* commit replication is on
(``SystemConfig.commit_replication``): then the detection duty for the
primary moves to a **standby-side watcher** role hosted on the hot
standby's node, because the commit-side sweep dies with the primary.
The watcher declares the primary dead only when

* the primary has been silent past the suspicion timeout, **and**
* a quorum of the *other* monitored nodes has been heard recently
  (:attr:`ClusterSpec.quorum_fraction` — a watcher that has itself been
  partitioned away hears from nobody and stays quiet rather than
  promote a second commit unit), **and**
* its own node is the lowest-numbered surviving standby host (the
  deterministic promotion winner; trivial with a single standby).

The declaration queues the failover, passes the primary's barrier seat
to the standby, and sets ``SystemState.promote_pending`` — the signal
the standby's run loop turns into a promotion.  From then on the
watcher also plays the sweep on the promoted node.
"""

from __future__ import annotations

from typing import Generator

from repro.core.messages import CTL_NODE_FAILED, CTL_PROMOTE, ControlEnvelope
from repro.errors import ClusterFailedError

__all__ = ["FailureDetector", "SpecForFailureDetector"]


class FailureDetector:
    """The detector clock: node heartbeats, the commit-side sweep, and
    the standby-side watcher, ticking together in one process."""

    def __init__(self, system: "DSMTXSystem") -> None:  # noqa: F821
        self.system = system
        spec = system.cluster
        self.period = spec.heartbeat_period_s
        self.suspicion_timeout = spec.suspicion_timeout_s
        #: Node hosting the commit unit (the sweep's home; the sweep
        #: cannot declare its own node dead).  Reassigned to the standby
        #: node at promotion, when the watcher takes over sweep duty.
        self.commit_node = spec.node_of_core(
            system._core_indices[system.commit_tid]
        )
        #: Node hosting the commit standby; ``None`` without commit
        #: replication.
        self.standby_node = (
            spec.node_of_core(system._core_indices[system.standby_tid])
            if system.standby_tid is not None
            else None
        )
        #: Node the sweep dies with: the primary's, with replication
        #: (the watcher carries on); ``None`` without, where losing the
        #: commit node is fatal anyway.
        self.sweep_node = self.commit_node if self.replicated else None
        #: tids hosted on each monitored node.
        self.tids_by_node: dict[int, list[int]] = {}
        for tid in range(system.num_units):
            node = spec.node_of_core(system._core_indices[tid])
            self.tids_by_node.setdefault(node, []).append(tid)
        self.last_heard: dict[int, float] = {}
        #: Nodes that beat at every tick.  With commit replication the
        #: commit node beats too: its silence is what the watcher
        #: detects.  A crashed node leaves the set at its first tick.
        self.beating: set[int] = {
            node
            for node in self.tids_by_node
            if node != self.commit_node or self.replicated
        }
        self.declared: set[int] = set()

    @property
    def replicated(self) -> bool:
        return self.standby_node is not None

    def start(self) -> None:
        """Spawn the detector clock as a detached process.

        Called by ``run()`` after the unit processes exist.  The clock
        is not registered to any node: each of its roles checks its own
        host node at every tick instead.
        """
        env = self.system.env
        now = env.now
        for node in self.tids_by_node:
            self.last_heard[node] = now
        env.process(self._clock(), name="failure-detector")

    def _clock(self) -> Generator:
        system = self.system
        env = system.env
        state = system.state
        stats = system.stats
        period = self.period
        last_heard = self.last_heard
        beating = self.beating
        while not state.done:
            yield env.sleep(period)
            now = env.now
            chaos = env.chaos
            dead = chaos.dead_nodes if chaos is not None else ()
            if dead:
                beating.difference_update(dead)
            for node in beating:
                last_heard[node] = now
            stats.ft_heartbeats += len(beating)
            if self.sweep_node not in dead:
                self._sweep_round(now)
            if self.replicated and self.standby_node not in dead:
                self._watch_round(now)

    def _sweep_round(self, now: float) -> None:
        for node, heard in self.last_heard.items():
            if node in self.declared or node == self.commit_node:
                continue
            if now - heard > self.suspicion_timeout:
                self._declare(node)

    def _watch_round(self, now: float) -> None:
        """Standby-side watcher (commit replication only).

        Monitors the primary's heartbeats; after promotion — when
        :attr:`commit_node` has become the watcher's own node — it
        plays the survivors' sweep instead.
        """
        if self.commit_node == self.standby_node:
            self._sweep_round(now)
            return
        if self.commit_node in self.declared:
            return
        if now - self.last_heard[self.commit_node] <= self.suspicion_timeout:
            return
        if not self._quorum_agrees(now):
            return
        if not self._is_lowest_standby_survivor():
            return
        self._declare(self.commit_node)

    def _quorum_agrees(self, now: float) -> bool:
        """Majority-of-survivors gate on declaring the primary.

        Count the *other* monitored nodes (not the primary's, not our
        own, not already declared) heard within the suspicion timeout;
        require at least ``quorum_fraction`` of them.  A watcher that
        itself fell off the network hears from nobody and stays quiet
        instead of promoting a second commit unit.
        """
        others = [
            node
            for node in self.last_heard
            if node not in (self.commit_node, self.standby_node)
            and node not in self.declared
        ]
        if not others:
            return True
        heard = sum(
            1
            for node in others
            if now - self.last_heard[node] <= self.suspicion_timeout
        )
        return heard >= len(others) * self.system.cluster.quorum_fraction

    def _is_lowest_standby_survivor(self) -> bool:
        """Deterministic promotion winner: the lowest-numbered surviving
        standby host declares and promotes.  Trivially true with a
        single standby; the check pins the protocol's tie-break rule.
        """
        candidates = [
            self.standby_node
        ]  # single-standby deployment; lowest node id wins
        return self.standby_node == min(candidates)

    def _declare(self, node: int) -> None:
        """Declare ``node`` dead and hand the failover to the runtime."""
        system = self.system
        self.declared.add(node)
        dead_tids = tuple(self.tids_by_node[node])
        if system.trycommit_tid in dead_tids:
            raise ClusterFailedError(
                f"node {node} hosted the try-commit unit; the validation "
                f"pipeline has no replica and its loss is unrecoverable"
            )
        if system.commit_tid in dead_tids:
            self._declare_primary(node, dead_tids)
            return
        system.state.request_failover(
            node, dead_tids, system.env.now, self.last_heard[node]
        )
        # Survivors must not wait for the dead at recovery barriers —
        # this also un-wedges a rollback already in progress.
        system.recovery.deregister(
            [tid for tid in dead_tids if tid < system.num_workers]
        )
        if system.standby_tid in dead_tids:
            # The replication consumer died: retire the stream *now* so
            # a primary blocked on its flow control wakes up (a dead
            # standby can never return credits).  The run degrades to
            # unreplicated; the primary drops its stream handle when it
            # orchestrates the failover.
            repl = system._queues.get("repl")
            if repl is not None:
                repl.retire()
        # Wake the commit unit if it is blocked on an empty inbox; the
        # run-loop top consumes state.failover_pending, this envelope is
        # only the ping.
        system.inbox_of(system.commit_tid).put_nowait(
            ControlEnvelope(
                CTL_NODE_FAILED, system.state.epoch, -1, node
            )
        )

    def _declare_primary(self, node: int, dead_tids: tuple) -> None:
        """The primary's node died: queue the failover *and* the
        promotion (standby-side watcher, commit replication)."""
        system = self.system
        standby_tid = system.standby_tid
        if (
            standby_tid is None
            or standby_tid in system.dead_tids
            or standby_tid in dead_tids
        ):
            raise ClusterFailedError(
                f"node {node} hosted the commit unit; committed state is "
                f"unrecoverable without a live replicated standby"
            )
        detected_at = system.env.now
        last_heard_at = self.last_heard[node]
        system.state.request_failover(node, dead_tids, detected_at, last_heard_at)
        system.state.promote_pending = (
            node, dead_tids, detected_at, last_heard_at
        )
        system.recovery.deregister(
            [tid for tid in dead_tids if tid < system.num_workers]
        )
        # The dead primary's barrier seat passes to the standby: the
        # promoted unit orchestrates the failover under its own tid.
        system.recovery.substitute(system.commit_tid, standby_tid)
        # From here on this watcher's own node is the primary's.
        self.commit_node = self.standby_node
        # Wake the standby if it is blocked on an empty inbox; the
        # authoritative signal is state.promote_pending.
        system.inbox_of(standby_tid).put_nowait(
            ControlEnvelope(CTL_PROMOTE, system.state.epoch, -1, node)
        )


class SpecForFailureDetector(FailureDetector):
    """Failure detection for the ``speculative_for`` runtime.

    Same detector clock, sweep, and standby-side watcher as the
    pipeline detector — only the declaration differs.  The reservation
    runtime has no try-commit unit (nothing is categorically fatal
    besides losing the service without a standby), no recovery barriers
    to deregister, and no runtime queues to retire: a worker's death
    queues a failover the round scheduler consumes (void the in-flight
    round, re-partition over the survivors), and the service's death
    with a live standby queues a promotion.
    """

    def _declare(self, node: int) -> None:
        system = self.system
        self.declared.add(node)
        dead_tids = tuple(self.tids_by_node[node])
        if system.commit_tid in dead_tids:
            self._declare_primary(node, dead_tids)
            return
        system.state.request_failover(
            node, dead_tids, system.env.now, self.last_heard[node]
        )
        # Wake the service if it is blocked mid-gather on a reply the
        # dead worker will never send; the scheduler consumes
        # state.failover_pending, this envelope is only the ping.
        system.inbox_of(system.commit_tid).put_nowait(
            ControlEnvelope(CTL_NODE_FAILED, system.state.epoch, -1, node)
        )

    def _declare_primary(self, node: int, dead_tids: tuple) -> None:
        system = self.system
        standby_tid = system.standby_tid
        if (
            standby_tid is None
            or standby_tid in system.dead_tids
            or standby_tid in dead_tids
        ):
            raise ClusterFailedError(
                f"node {node} hosted the reservation service; the committed "
                f"image is unrecoverable without a live replicated standby"
            )
        detected_at = system.env.now
        last_heard_at = self.last_heard[node]
        system.state.request_failover(node, dead_tids, detected_at, last_heard_at)
        system.state.promote_pending = (node, dead_tids, detected_at, last_heard_at)
        # From here on this watcher's own node is the primary's.
        self.commit_node = self.standby_node
        # Wake the standby if it is blocked on an empty inbox; the
        # authoritative signal is state.promote_pending.
        system.inbox_of(standby_tid).put_nowait(
            ControlEnvelope(CTL_PROMOTE, system.state.epoch, -1, node)
        )
