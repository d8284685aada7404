"""Global system state shared by all DSMTX units.

The paper's API returns a system *state* from ``mtx_begin``/``mtx_end``
so workers can detect misspeculation or termination without blocking
(Table 1).  Physically this is a small control word broadcast by the
commit unit; modelling it as a shared object is safe because only the
commit unit writes it, all other units poll it at MTX boundaries, and
the propagation delay is charged explicitly by the recovery barriers.

The *epoch* increments on every recovery.  Every queue batch is tagged
with the epoch at send time, so data that was in flight across a
rollback is recognized as stale and discarded at the receiver.
"""

from __future__ import annotations

from repro.errors import RecoveryError

__all__ = ["RunMode", "SystemState"]


class RunMode:
    """Execution modes of the parallel region."""

    RUN = "run"
    RECOVERY = "recovery"
    DONE = "done"


class SystemState:
    """Control state: mode, recovery epoch, and iteration restart base."""

    def __init__(self) -> None:
        #: Also sets the ``in_recovery`` and ``done`` flags (see ``mode``).
        self.mode = RunMode.RUN
        self.epoch = 0
        #: First iteration of the current epoch (workers schedule
        #: round-robin relative to this base).
        self.restart_base = 0
        #: Iteration at which the current/last misspeculation occurred.
        self.misspec_iteration: int | None = None
        #: True while the system drains committed-side work up to the
        #: misspeculated iteration before rolling back.  Workers pause
        #: at their next MTX boundary at or past ``pause_target``;
        #: everything earlier validates and commits normally, so the
        #: SEQ phase re-executes only the aborted iteration itself.
        self.draining = False
        #: First doomed iteration (the earliest reported misspeculation).
        self.pause_target: int | None = None
        #: Pending node-failure declarations from the failure detector:
        #: ``(node, dead_tids, detected_at, last_heard_at)`` tuples.
        #: Appended by the detector, popped by the commit unit at the
        #: top of its run loop (one failover at a time); authoritative
        #: over the CTL_NODE_FAILED wake-up ping (which may be filtered
        #: or arrive late).
        self.failover_pending: list = []
        #: Pending commit-standby promotion: the ``(node, dead_tids,
        #: detected_at, last_heard_at)`` declaration that took the
        #: commit unit's node, set by the standby-side watcher and
        #: consumed by the standby's run loop (commit replication only).
        #: The matching entry also sits on ``failover_pending``: the
        #: *promoted* commit unit pops it and drives the degraded-mode
        #: restart after the promotion replay.
        self.promote_pending: tuple | None = None
        #: Nodes declared dead so far (grows monotonically).
        self.failed_nodes: set[int] = set()

    @property
    def mode(self) -> str:
        """The current :class:`RunMode`."""
        return self._mode

    @mode.setter
    def mode(self, mode: str) -> None:
        # ``in_recovery`` and ``done`` are plain attributes, derived
        # here on every transition: units poll them at every MTX
        # boundary and wire hop, where a property's string compare
        # showed in the profile.
        self._mode = mode
        self.in_recovery = mode == RunMode.RECOVERY
        self.done = mode == RunMode.DONE

    def begin_draining(self, misspec_iteration: int) -> None:
        """Start the pre-recovery drain (commit unit only)."""
        if self.mode == RunMode.DONE:
            raise RecoveryError("cannot start draining after termination")
        self.draining = True
        self.pause_target = misspec_iteration

    def lower_pause_target(self, misspec_iteration: int) -> None:
        """An earlier misspeculation arrived while draining."""
        if not self.draining:
            raise RecoveryError("lower_pause_target outside draining")
        self.pause_target = min(self.pause_target, misspec_iteration)

    def request_failover(
        self, node: int, dead_tids: tuple, detected_at: float, last_heard_at: float
    ) -> None:
        """Record a node-failure declaration (failure detector only).

        Only the first declaration per node sticks; the commit unit
        pops declarations one at a time and re-checks the queue at its
        loop top, so back-to-back failures serialize naturally.
        """
        if self.mode == RunMode.DONE or node in self.failed_nodes:
            return
        self.failed_nodes.add(node)
        self.failover_pending.append((node, dead_tids, detected_at, last_heard_at))

    def begin_recovery(self, misspec_iteration: int) -> None:
        """Enter recovery mode proper (commit unit only)."""
        if self.mode == RunMode.DONE:
            raise RecoveryError("cannot start recovery after termination")
        self.mode = RunMode.RECOVERY
        self.misspec_iteration = misspec_iteration

    def resume(self, restart_base: int) -> None:
        """Leave recovery: bump the epoch and set the new restart base."""
        if self.mode != RunMode.RECOVERY:
            raise RecoveryError("resume called outside recovery")
        self.mode = RunMode.RUN
        self.epoch += 1
        self.restart_base = restart_base
        self.draining = False
        self.pause_target = None

    def terminate(self) -> None:
        """Mark the parallel region finished."""
        self.mode = RunMode.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<SystemState {self.mode} epoch={self.epoch} "
            f"base={self.restart_base}>"
        )
