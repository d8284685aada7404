"""The ``speculative_for`` paradigm: round-based deterministic reservations.

A genuinely different conflict-resolution paradigm from the paper's
TLS / Spec-DSWP pipeline (the PBBS / parlaylib ``speculative_for``):
instead of optimistic run-ahead with squash-and-replay, each round takes
a *prefix* of the pending iterations and drives it through three phases
against the :class:`~repro.core.reservations.ReservationCommitService`:

1. **reserve** — every iteration computes, on the round-start snapshot,
   the shared slots it wants to mutate and reserves them with
   ``write_min`` (lowest iteration index wins);
2. **check** — an iteration wins iff it holds *every* slot it reserved;
3. **commit** — winners' write-sets are group-committed in iteration
   order; losers are carried into the next round.

Because ``write_min`` is commutative and every worker computes against
the same round-start snapshot, the set of winners — and therefore the
committed memory image, the round count, and every failure statistic —
depends only on the iteration space, never on worker count or message
arrival order.  Only the simulated *time* changes with workers.

Three entry points:

* :func:`speculative_for` — the pure host-level scheduler (no simulated
  cluster).  The reference model the property and equivalence tests
  compare everything against.
* :class:`SpecForSystem` — the simulated runtime: ``workers`` worker
  units plus one reservation-commit service unit on the same
  cluster/MPI substrate as :class:`~repro.core.runtime.DSMTXSystem`,
  with all protocol traffic priced through the interconnect.
* :func:`ensure_reservation_site` — plan validation: rejects
  ``speculative_for`` on workloads that define no reservation site,
  with a did-you-mean pointing at the workloads that do.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from itertools import count
from typing import Any, Optional, Sequence

from repro.cluster import MPI, Interconnect, Machine, place_units
from repro.core.config import SystemConfig
from repro.core.messages import (
    ENTRY_BYTES,
    MARKER_BYTES,
    SF_REPL_CHECKPOINT,
    SF_REPL_ROUND,
    SF_STOP,
    ControlEnvelope,
)
from repro.core.reservations import (
    ReservationCommitService,
    ReservationStats,
    RoundRecord,
    next_round_size,
)
from repro.core.runtime import RunResult, place_standby
from repro.core.state import SystemState
from repro.core.stats import CheckpointRecord, FailureRecord, RunStats
from repro.core.transport import ReliableTransport
from repro.errors import (
    ClusterFailedError,
    ConfigurationError,
    NodeCrashed,
    ParadigmError,
    ProcessInterrupt,
)
from repro.memory import AddressSpace, UnifiedVirtualAddressSpace
from repro.memory.layout import PAGE_SHIFT, WORD_SHIFT
from repro.sim import Environment, Store

__all__ = [
    "DONE",
    "TRY_COMMIT",
    "TRY_AGAIN",
    "ReservationSite",
    "StepContext",
    "speculative_for",
    "SpecForSystem",
    "ensure_reservation_site",
]

# Iteration statuses returned by a step's ``reserve`` phase (the
# parlaylib ``enum status { done, try_commit, try_again }``).
DONE = 0
TRY_COMMIT = 1
TRY_AGAIN = 2

#: The one mailbox tag of the protocol: the phase travels in the
#: message itself, not the mailbox key.  Messages alternate strictly per
#: worker (round, verdict, round, ... out; reserve, commit, ... back),
#: so one FIFO per (src, dst) pair is enough on the plain link, and the
#: reliable transport multiplexes everything over one inbox per unit.
_TAG = "sf"

# Message kinds (first element of the payload).  Round-protocol messages
# are ``(kind, round, attempt, ...)`` on either link; the stop marker is
# ``(_MSG_STOP,)``, and the standby stream carries its own shapes.
_MSG_ROUND = "round"
_MSG_RESERVE = "reserve"
_MSG_VERDICT = "verdict"
_MSG_COMMIT = "commit"
#: Shared with the reservation-service standby (see core/messages.py).
_MSG_STOP = SF_STOP
_MSG_REPL_ROUND = SF_REPL_ROUND
_MSG_REPL_CHECKPOINT = SF_REPL_CHECKPOINT


@dataclass(frozen=True)
class ReservationSite:
    """A workload's ``write_min`` reservation site.

    ``slots`` is the size of the reservation table — one slot per
    contendable object (vertex, list node, ...); ``label`` names what a
    slot stands for in reports.
    """

    slots: int
    label: str = "slot"

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ConfigurationError(
                f"a reservation site needs at least one slot, got {self.slots}"
            )


class StepContext:
    """Execution context for one iteration of a ``speculative_for`` step.

    Unlike the generator contexts of :mod:`repro.core.context`, steps
    are plain functions: they run to completion against a worker's
    round-start snapshot, and their cost is charged as one deferred
    lump.  ``reserve`` is only legal in the reserve phase, ``write``
    only in the commit phase; commit-phase reads see the iteration's
    own writes overlaid on the snapshot (read-own-write), never another
    same-round iteration's — that blindness is what makes the outcome
    worker-count independent.
    """

    RESERVE = "reserve"
    COMMIT = "commit"

    __slots__ = (
        "iteration", "phase", "reserved", "writes", "cycles",
        "_space", "_overlay", "_access_cycles",
    )

    def __init__(
        self, space, iteration: int, phase: str, access_cycles: float = 0.0
    ) -> None:
        self.iteration = iteration
        self.phase = phase
        #: Slots reserved during the reserve phase, in request order.
        self.reserved: list = []
        #: (address, value) writes buffered during the commit phase.
        self.writes: list = []
        #: Deferred cycle cost accumulated by this iteration's step.
        self.cycles = 0.0
        self._space = space
        self._overlay: dict = {}
        self._access_cycles = access_cycles

    def read(self, address: int) -> Any:
        """Read a word from the round-start snapshot (plus this
        iteration's own writes, in the commit phase)."""
        self.cycles += self._access_cycles
        if self._overlay:
            try:
                return self._overlay[address]
            except KeyError:
                pass
        return self._space.read(address)

    def write(self, address: int, value: Any) -> None:
        """Buffer a word write (commit phase only); the service applies
        winners' buffers in iteration order."""
        if self.phase != self.COMMIT:
            raise ParadigmError(
                f"iteration {self.iteration} wrote in its {self.phase} phase; "
                "speculative_for steps may only write while committing"
            )
        self.cycles += self._access_cycles
        self._overlay[address] = value
        self.writes.append((address, value))

    def reserve(self, slot: int) -> None:
        """Request ``write_min(slot, iteration)`` (reserve phase only)."""
        if self.phase != self.RESERVE:
            raise ParadigmError(
                f"iteration {self.iteration} reserved in its {self.phase} "
                "phase; reservations belong to the reserve phase"
            )
        self.cycles += self._access_cycles
        self.reserved.append(slot)

    def compute(self, cycles: float) -> None:
        """Account ``cycles`` of step computation."""
        self.cycles += cycles


# -- shared phase execution (one source of truth for pure + simulated) ---------


def _run_reserve(step, space, iteration: int, access_cycles: float = 0.0):
    """Run one iteration's reserve phase; returns (status, slots, cycles)."""
    ctx = StepContext(space, iteration, StepContext.RESERVE, access_cycles)
    status = step.reserve(ctx, iteration)
    if status not in (DONE, TRY_COMMIT, TRY_AGAIN):
        raise ParadigmError(
            f"reserve({iteration}) returned {status!r}, not one of "
            "DONE/TRY_COMMIT/TRY_AGAIN"
        )
    if status != TRY_COMMIT and ctx.reserved:
        raise ParadigmError(
            f"reserve({iteration}) reserved slots but returned status "
            f"{status}; only TRY_COMMIT iterations hold reservations"
        )
    return status, tuple(ctx.reserved), ctx.cycles


def _run_commit(step, space, iteration: int, access_cycles: float = 0.0):
    """Run one winner's commit phase; returns (ok, writes, cycles)."""
    ctx = StepContext(space, iteration, StepContext.COMMIT, access_cycles)
    ok = step.commit(ctx, iteration)
    return bool(ok), tuple(ctx.writes), ctx.cycles


class _RoundEngine:
    """Service-side round scheduler: batch selection, adjudication,
    group commit, carry-forward, and round-size adaptation.

    Shared verbatim between :func:`speculative_for` and
    :class:`SpecForSystem` so that winners, round records, and every
    statistic are identical by construction.  All decisions here are
    functions of the iteration space and the committed state only —
    the round size in particular never consults the worker count.
    """

    def __init__(
        self, service: ReservationCommitService, iterations: int, granularity: int
    ) -> None:
        if iterations < 1:
            raise ConfigurationError("speculative_for needs at least one iteration")
        if granularity < 1:
            raise ConfigurationError(f"granularity must be >= 1, got {granularity}")
        self.service = service
        self.pending = list(range(iterations))
        #: Largest round: a 1/granularity slice of the iteration space.
        self.max_round = iterations // granularity + 1
        self.size = max(1, self.max_round // 2)
        self.round_index = 0
        #: Committed (address, value) entries not yet broadcast to the
        #: workers' snapshots; starts as the built program state.
        self.delta = _snapshot_entries(service.master)
        self._batch: list = []
        self._rest: list = []
        self._decisions: list = []
        self._losers: list = []
        self._retries: list = []
        self._finished: list = []
        #: Table-counter checkpoint taken at round start; a fault-aborted
        #: round rolls back to it so the re-executed round re-applies the
        #: identical reservations from the identical state.
        self._table_mark = self.service.table.counters()
        #: Iterations carried by the last completed round (the list, not
        #: just the count): the hot standby mirrors the pending queue
        #: from it.
        self.last_carried: list = []

    @classmethod
    def resume(
        cls,
        service: ReservationCommitService,
        iterations: int,
        granularity: int,
        pending: Sequence[int],
        size: int,
        round_index: int,
        delta: Sequence[tuple],
    ) -> "_RoundEngine":
        """Rebuild an engine at a replicated round boundary (promotion).

        ``pending``/``size``/``round_index`` come from the standby's
        shadow of the primary's scheduling state; ``delta`` is the full
        committed image (the promoted service re-broadcasts it whole,
        exactly like round 0's snapshot).  Every later decision is the
        same function of this state as it was on the dead primary, which
        is what keeps the crashed run byte-identical to the fault-free
        one.
        """
        engine = cls(service, iterations, granularity)
        engine.pending = list(pending)
        engine.size = size
        engine.round_index = round_index
        engine.delta = list(delta)
        engine._table_mark = service.table.counters()
        return engine

    def begin_round(self) -> Optional[tuple]:
        """Next ``(batch, delta)``, or ``None`` when the loop is done."""
        if not self.pending:
            return None
        attempted = min(self.size, len(self.pending))
        self._batch = self.pending[:attempted]
        self._rest = self.pending[attempted:]
        self._table_mark = self.service.table.counters()
        return self._batch, self.delta

    def abort_round(self) -> None:
        """Void the in-flight round (a worker died mid-round).

        Reservations already applied are released and the table counters
        roll back to the round-start checkpoint; nothing was committed
        (commits happen only in :meth:`complete`), so ``pending``,
        ``size``, ``round_index``, and the broadcast delta are all
        untouched — re-issuing the same batch over the survivors
        re-derives the identical winners.
        """
        self.service.table.restore_counters(self._table_mark)
        self.service.stats.reservations = self.service.table.reservations
        self.service.end_round()
        self._decisions = []
        self._losers, self._retries, self._finished = [], [], []

    def adjudicate(self, decisions: Sequence[tuple]) -> list:
        """Apply reservations, return winners (sorted ascending).

        ``decisions`` is ``[(iteration, status, slots), ...]`` covering
        the whole batch, in any order.
        """
        decisions = sorted(decisions)
        self._decisions = decisions
        pairs = [
            (slot, iteration)
            for iteration, status, slots in decisions
            if status == TRY_COMMIT
            for slot in slots
        ]
        self.service.apply_reservations(pairs)
        winners = []
        self._losers, self._retries, self._finished = [], [], []
        for iteration, status, slots in decisions:
            if status == DONE:
                self._finished.append(iteration)
            elif status == TRY_AGAIN:
                self._retries.append(iteration)
            elif self.service.verdict(iteration, slots):
                winners.append(iteration)
            else:
                self._losers.append(iteration)
        return winners

    def complete(self, commit_results: Sequence[tuple]) -> RoundRecord:
        """Fold winners' commit results ``[(iteration, ok, writes), ...]``
        into the committed image and close the round."""
        commit_results = sorted(commit_results)
        ok_writes = [(i, list(writes)) for i, ok, writes in commit_results if ok]
        words = self.service.commit_writes(ok_writes)
        commit_failed = [i for i, ok, _writes in commit_results if not ok]
        carried = sorted(self._losers + self._retries + commit_failed)
        record = RoundRecord(
            round_index=self.round_index,
            attempted=len(self._batch),
            completed=len(self._batch) - len(carried),
            reservation_failures=len(self._losers),
            commit_failures=len(commit_failed),
            carried=len(carried),
            words_committed=words,
        )
        self.service.stats.record_round(record)
        self.service.end_round()
        # Next round's snapshot delta: last-write-wins over the
        # iteration-ordered write sets, in ascending address order.
        merged: dict = {}
        for _iteration, writes in ok_writes:
            merged.update(writes)
        self.delta = sorted(merged.items())
        self.last_carried = carried
        self.pending = carried + self._rest
        self.size = next_round_size(
            self.size, record.attempted, record.carried, self.max_round
        )
        self.round_index += 1
        return record


def _snapshot_entries(space: AddressSpace) -> list:
    """Every written ``(address, value)`` of ``space``, ascending."""
    entries = []
    for page in space.iter_pages():
        base = page.number << PAGE_SHIFT
        entries.extend(
            (base + (index << WORD_SHIFT), value) for index, value in page.items()
        )
    return entries


# -- pure reference scheduler --------------------------------------------------


def speculative_for(
    step,
    iterations: int,
    slots: int,
    master: Optional[AddressSpace] = None,
    granularity: int = 8,
) -> tuple[AddressSpace, ReservationStats]:
    """Host-level ``speculative_for``: no simulator, same semantics.

    Runs the round protocol single-threaded against ``master`` (state
    already built into it, or a fresh space) and returns ``(master,
    stats)``.  This is the reference model: :class:`SpecForSystem`
    produces the identical committed image and identical
    :class:`~repro.core.reservations.ReservationStats` at every worker
    count.
    """
    service = ReservationCommitService(slots, master)
    engine = _RoundEngine(service, iterations, granularity)
    replica = AddressSpace("specfor.ref.replica")
    while (start := engine.begin_round()) is not None:
        batch, delta = start
        for address, value in delta:
            replica.write(address, value)
        decisions = []
        for iteration in batch:
            status, reserved, _cycles = _run_reserve(step, replica, iteration)
            decisions.append((iteration, status, reserved))
        winners = engine.adjudicate(decisions)
        commit_results = []
        for iteration in winners:
            ok, writes, _cycles = _run_commit(step, replica, iteration)
            commit_results.append((iteration, ok, writes))
        engine.complete(commit_results)
    return service.master, service.stats


# -- plan validation -----------------------------------------------------------


def ensure_reservation_site(workload) -> ReservationSite:
    """The workload's reservation site, or a did-you-mean rejection.

    ``speculative_for`` only applies to workloads that declare a
    ``write_min`` reservation site; the error names the workloads that
    do, with a close-match hint when the requested name resembles one
    (same style as the campaign schema's unknown-key rejections).
    """
    site = workload.reservation_site()
    if site is not None:
        return site
    from repro.workloads.registry import reservation_benchmarks

    capable = sorted(reservation_benchmarks())
    name = getattr(workload, "name", type(workload).__name__)
    hint = difflib.get_close_matches(str(name), capable, n=1)
    suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
    raise ParadigmError(
        f"workload {name!r} defines no reservation site, so a "
        f"'speculative_for' plan cannot run on it; workloads with one: "
        f"{capable}{suffix}"
    )


# -- simulated runtime ---------------------------------------------------------


class SpecForSystem:
    """The simulated ``speculative_for`` runtime.

    ``workers`` worker units plus one reservation-commit service unit,
    placed on the cluster by the configured policy and communicating
    through the priced MPI layer.  Each round the service broadcasts
    the batch partition and the committed-delta snapshot update, the
    workers run reserve steps and send reservation batches back, the
    service adjudicates with ``write_min`` and returns verdicts, and
    winners' write-sets flow back for the iteration-ordered group
    commit.  Workers never apply their own writes locally mid-round —
    every worker computes on the identical round-start snapshot, which
    is what pins the outcome across worker counts.
    """

    def __init__(
        self,
        workload: Any,
        config: Optional[SystemConfig] = None,
        workers: int = 4,
        granularity: int = 8,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"speculative_for needs at least one worker, got {workers}"
            )
        site = ensure_reservation_site(workload)
        self.workload = workload
        self.num_workers = workers
        self.service_tid = workers
        #: Runner/chaos convention: the "commit unit" tid — here the
        #: reservation-commit service, which owns the master image.
        #: Reassigned to the standby's tid at promotion.
        self.commit_tid = self.service_tid
        self.config = (
            config
            if config is not None
            else SystemConfig(total_cores=max(3, workers + 1))
        )
        #: Tid of the reservation-service hot standby; ``None`` unless
        #: ``commit_replication`` is on.  Assigned last so the worker /
        #: service layout is unchanged by replication.
        self.standby_tid = workers + 1 if self.config.commit_replication else None
        self.num_units = workers + 1 + (1 if self.standby_tid is not None else 0)
        if self.config.total_cores < self.num_units:
            standby = " + 1 standby" if self.standby_tid is not None else ""
            raise ConfigurationError(
                f"{workers} workers + 1 service{standby} need "
                f"{self.num_units} cores, config grants "
                f"{self.config.total_cores}"
            )
        self.granularity = granularity
        self.cluster = self.config.cluster
        self.env = Environment()
        self.machine = Machine(self.env, self.cluster)
        self.interconnect = Interconnect(self.env, self.machine)
        self.mpi = MPI(self.env, self.machine, self.interconnect)
        self.state = SystemState()
        self.stats = RunStats()
        #: Observability hub; every hook site no-ops while ``None``.
        self.obs = None
        self._core_indices = place_units(
            self.cluster, self.num_units, self.config.placement
        )
        if self.standby_tid is not None:
            place_standby(
                self.cluster, self._core_indices, self.commit_tid,
                self.standby_tid, self.config.standby_node,
            )
        #: Units lost to node failures so far.
        self.dead_tids: set[int] = set()
        #: Worker ids still alive (node failures remove entries; the
        #: round scheduler re-partitions batches over these).
        self.live_workers: list[int] = list(range(workers))
        #: Simulation processes hosted on each node (the unit main
        #: loops): the kill set of a node-crash fault.
        self._node_processes: dict[int, list] = {}
        #: Reliable ack/retransmit transport; ``None`` keeps the
        #: fault-free fast path untouched (a single is-None check).
        self.transport = (
            ReliableTransport(self) if self.config.fault_tolerance else None
        )
        #: One multiplexed inbox per unit (fault-tolerant mode): framed
        #: traffic and failure-detector wake-up pings share it.  ``None``
        #: entries mean the plain per-(src, dst) MPI mailboxes.
        self._inboxes = [
            Store(self.env) if self.config.fault_tolerance else None
            for _ in range(self.num_units)
        ]
        self.uva = UnifiedVirtualAddressSpace(owners=self.num_units)
        self.site_slots = site.slots
        self.service = ReservationCommitService(site.slots)
        #: Digest/report convention: ``system.commit.master`` is the
        #: committed memory image (same shape as DSMTXSystem).
        self.commit = self.service
        #: Reservation-service hot standby; ``None`` without replication.
        if self.standby_tid is not None:
            from repro.core.standby import ReservationStandby

            self.standby = ReservationStandby(self, self.standby_tid)
        else:
            self.standby = None
        #: Heartbeat failure detection; ``None`` outside fault-tolerant
        #: mode.  Started by :meth:`run` once unit processes exist.
        if self.config.fault_tolerance:
            from repro.core.failure import SpecForFailureDetector

            self.failure_detector = SpecForFailureDetector(self)
        else:
            self.failure_detector = None
        from repro.workloads.base import WriteThroughStore

        # Program state is always allocated from owner 0's region — the
        # service tid shifts with the worker count, and UVA addresses
        # encode the owner, so building from the service region would
        # make the committed image's addresses (and hence its digest)
        # depend on the worker count.
        workload.build(self.uva, 0, WriteThroughStore(self.service.master))

    # -- introspection ---------------------------------------------------------

    def core_of(self, tid: int):
        return self.machine.core(self._core_indices[tid])

    def utilization(self) -> dict:
        """Busy fraction of every unit's core over the run so far."""
        elapsed = self.env.now
        if elapsed <= 0:
            return {}
        clock = self.cluster.clock_hz

        def fraction(tid: int) -> float:
            return self.core_of(tid).busy_cycles / (elapsed * clock)

        report = {
            f"specfor-worker[{w}]": fraction(w) for w in range(self.num_workers)
        }
        report["specfor-service"] = fraction(self.service_tid)
        if self.standby_tid is not None:
            report["specfor-standby"] = fraction(self.standby_tid)
        return report

    # -- fault-tolerant plumbing (duck-typed like DSMTXSystem) -----------------

    def inbox_of(self, tid: int):
        return self._inboxes[tid]

    def register_node_process(self, node: int, process) -> None:
        """Track a simulation process as hosted on ``node`` so a
        node-crash fault kills it along with the node."""
        self._node_processes.setdefault(node, []).append(process)

    def processes_on_node(self, node: int) -> list:
        """Every registered simulation process hosted on ``node``."""
        return list(self._node_processes.get(node, ()))

    @property
    def standby_alive(self) -> bool:
        return self.standby_tid is not None and self.standby_tid not in self.dead_tids

    def apply_node_failure(self, node: int, dead_tids) -> None:
        """Drop the dead units from the live scheduling state and the
        reliable transport (frames to/from them are abandoned)."""
        self.dead_tids.update(dead_tids)
        self.live_workers = [
            w for w in range(self.num_workers) if w not in self.dead_tids
        ]
        if self.transport is not None:
            self.transport.forget_units(dead_tids)

    def promote_reservation_service(self, standby) -> tuple:
        """Swap the promoted standby in as the reservation service.

        Called by :meth:`ReservationStandby._promote` after the replay:
        builds a fresh :class:`ReservationCommitService` over the
        standby's replayed image with the replicated table counters and
        round records, resumes a :class:`_RoundEngine` at the standby's
        shadow of the primary's scheduling state, swaps the layout, and
        backs the dead primary's unreplicated commits out of the run
        statistics (those iterations re-execute).  Returns ``(service,
        engine)``; the caller drives the service loop.
        """
        shadow = standby.shadow_stats
        service = ReservationCommitService(self.site_slots, master=standby.image)
        service.table.restore_counters(standby.table_counters)
        service.stats = shadow
        engine = _RoundEngine.resume(
            service, self.workload.iterations, self.granularity,
            pending=standby.shadow_pending,
            size=standby.shadow_size,
            round_index=standby.shadow_round_index,
            delta=_snapshot_entries(standby.image),
        )
        self.service = service
        self.commit = service
        self.commit_tid = standby.tid
        self.service_tid = standby.tid
        # The standby seat is consumed by the promotion: the promoted
        # service runs without a second standby (a later crash of its
        # node is fatal, exactly like DSMTX after a commit failover).
        self.standby_tid = None
        # Rounds the dead primary committed past the replicated frontier
        # died with its master memory; the promoted service re-executes
        # them, so their first count is backed out here.
        self.stats.committed_mtxs = shadow.committed
        self.stats.words_committed = shadow.words_committed
        return service, engine

    # -- unit processes --------------------------------------------------------
    #
    # One service loop and one worker loop, over either link.  Without
    # fault tolerance a message goes straight to the receiver's
    # per-(src, dst) mailbox; with it, every message is framed through
    # the reliable transport into one multiplexed inbox per unit (dedup
    # / reorder / ack / retransmit under injected loss and duplication),
    # the (round, attempt) stamp discards stale replies of an aborted
    # round, and the service checkpoints each epoch and streams each
    # completed round to the hot standby.

    def _send(self, src_tid: int, dst_tid: int, payload, nbytes: int):
        """The ``MPI.send`` generator of one protocol message: framed on
        the (src, dst) link into the destination's ingest box when the
        reliable transport is on, a plain send otherwise."""
        src, dst = self._core_indices[src_tid], self._core_indices[dst_tid]
        transport = self.transport
        if transport is None:
            return self.mpi.send(src, dst, payload, nbytes, tag=_TAG)
        frame = transport.stamp(src_tid, dst_tid, payload, nbytes)
        return self.mpi.send(
            src, dst, frame, nbytes, tag=_TAG, mailbox=transport.ingest_box(dst_tid)
        )

    def _note_failures(self, engine, in_flight: int) -> bool:
        """Consume pending node-failure declarations (service side).

        Returns True when a live worker died — the in-flight round must
        be aborted and re-issued over the survivors.  A standby death
        only degrades the run (replication stops); it never aborts.
        Nothing is ever pending without fault tolerance.
        """
        state = self.state
        aborted = False
        while state.failover_pending:
            node, dead_tids, detected_at, last_heard_at = (
                state.failover_pending.pop(0)
            )
            dead_workers = [t for t in dead_tids if t in self.live_workers]
            self.apply_node_failure(node, dead_tids)
            if not self.live_workers:
                raise ClusterFailedError(
                    f"node {node} took the last live specfor worker; the "
                    f"iteration space cannot be re-partitioned"
                )
            self.stats.failures.append(
                FailureRecord(
                    node=node,
                    dead_tids=tuple(dead_tids),
                    last_heard_at=last_heard_at,
                    detected_at=detected_at,
                    resumed_at=self.env.now,
                    restart_base=engine.round_index,
                    lost_iterations=in_flight if dead_workers else 0,
                    surviving_workers=len(self.live_workers),
                )
            )
            if dead_workers:
                aborted = True
            if self.obs is not None:
                self.obs.metrics.counter("ft.failovers").inc()
        return aborted

    def _gather(self, engine, tid: int, live, kind: str, attempt: int, in_flight: int):
        """One ``kind`` reply from every live worker, as ``{worker:
        payload}``; ``None`` when a worker death voided the attempt.

        The plain link receives worker by worker, in rank order, from
        each worker's own mailbox: the order the receive overhead is
        charged in is part of the simulated timing.  The reliable
        transport delivers into one inbox in arrival order; replies that
        fail the (round, attempt) filter are stale traffic of an aborted
        attempt (or a dead primary's epoch), and a failure-detector ping
        runs the failure handling.
        """
        mpi = self.mpi
        ranks = self._core_indices
        rank = ranks[tid]
        inbox = self._inboxes[tid]
        round_index = engine.round_index
        replies: dict = {}
        src = None
        while (got := len(replies)) < len(live):
            if inbox is None:
                src = ranks[live[got]]
            msg = yield from mpi.recv(rank, src, _TAG, mailbox=inbox)
            if (
                msg[0] == kind and msg[1] == round_index and msg[2] == attempt
                and msg[3] in live and msg[3] not in replies
            ):
                replies[msg[3]] = msg[4]
            elif isinstance(msg, ControlEnvelope) and self._note_failures(
                engine, in_flight
            ):
                return None
        return replies

    def _service_loop(self, tid: int, engine=None, full_first: bool = False):
        """The reservation service: the round scheduler over either link.

        Spawned as the service unit's process, and entered by a promoted
        standby with its resumed ``engine`` and ``full_first=True`` (so
        every worker rebuilds its snapshot from the replicated image).
        """
        config, stats, obs = self.config, self.stats, self.obs
        transport = self.transport
        extra = transport.extra_bytes if transport is not None else 0
        core = self.machine.core(self._core_indices[tid])
        ipc = self.cluster.instructions_per_cycle
        check_cycles = config.check_instructions / ipc
        commit_cycles = config.commit_instructions / ipc
        try:
            if engine is None:
                engine = _RoundEngine(
                    self.service, self.workload.iterations, self.granularity
                )
            full = full_first
            spec = engine.service.stats
            ckpt_committed = spec.committed
            ckpt_words = spec.words_committed
            while True:
                self._note_failures(engine, in_flight=0)
                start = engine.begin_round()
                if start is None:
                    break
                batch, delta = start
                delta_entries = tuple(delta)
                round_index = engine.round_index
                # Attempts of this round: a worker death voids the
                # in-flight attempt, which is re-issued over the
                # survivors (a plain round never aborts).
                for attempt in count():
                    if attempt:
                        stats.ft_round_reexecutions += 1
                        if obs is not None:
                            obs.metrics.counter("ft.round_reexecutions").inc()
                    live = list(self.live_workers)
                    parts = {w: batch[i :: len(live)] for i, w in enumerate(live)}
                    for w in live:
                        nbytes = (
                            len(parts[w]) * MARKER_BYTES
                            + len(delta_entries) * ENTRY_BYTES
                            + MARKER_BYTES
                            + extra
                        )
                        stats.record_queue_bytes("specfor_round", nbytes)
                        yield from self._send(
                            tid, w,
                            (_MSG_ROUND, round_index, attempt, parts[w],
                             delta_entries, full),
                            nbytes,
                        )
                    replies = yield from self._gather(
                        engine, tid, live, _MSG_RESERVE, attempt, len(batch)
                    )
                    if replies is None:
                        # Pre-adjudication: no reservation was applied
                        # yet, the attempt simply restarts.
                        continue
                    decisions = [d for part in replies.values() for d in part]
                    reserved_slots = sum(len(slots) for _i, _st, slots in decisions)
                    # One write_min application plus one verdict check
                    # per reserved slot, priced like try-commit log
                    # checking.
                    core.charge_cycles(check_cycles * 2 * reserved_slots)
                    winner_set = set(engine.adjudicate(decisions))
                    for w in live:
                        mine = [i for i in parts[w] if i in winner_set]
                        nbytes = len(mine) * MARKER_BYTES + MARKER_BYTES + extra
                        stats.record_queue_bytes("specfor_verdict", nbytes)
                        yield from self._send(
                            tid, w, (_MSG_VERDICT, round_index, attempt, mine),
                            nbytes,
                        )
                    replies = yield from self._gather(
                        engine, tid, live, _MSG_COMMIT, attempt, len(batch)
                    )
                    if replies is not None:
                        break
                    # Post-adjudication: the dead worker's reservations
                    # are already in the table — void them and roll the
                    # counters back to the round-start checkpoint.
                    engine.abort_round()
                record = engine.complete(
                    [result for part in replies.values() for result in part]
                )
                full = False
                core.charge_cycles(commit_cycles * record.words_committed)
                stats.committed_mtxs += record.completed
                stats.words_committed += record.words_committed
                if obs is not None:
                    metrics = obs.metrics
                    metrics.counter("specfor.rounds").inc()
                    metrics.counter("specfor.committed").inc(record.completed)
                    metrics.counter("specfor.reservation_failures").inc(
                        record.reservation_failures
                    )
                    metrics.counter("specfor.carried").inc(record.carried)
                    metrics.histogram("specfor.round_size").observe(record.attempted)
                if transport is None:
                    continue
                # Recovery state: only a fault-tolerant run replicates
                # rounds and takes epoch checkpoints.
                if self.standby_alive:
                    entries = tuple(engine.delta)
                    carried = tuple(engine.last_carried)
                    nbytes = (
                        len(entries) * ENTRY_BYTES
                        + len(carried) * MARKER_BYTES
                        + 8 * MARKER_BYTES
                        + extra
                    )
                    stats.record_queue_bytes("repl", nbytes)
                    yield from self._send(
                        tid, self.standby_tid,
                        (
                            _MSG_REPL_ROUND, record.as_tuple(), entries, carried,
                            engine.service.table.counters(),
                        ),
                        nbytes,
                    )
                if spec.committed - ckpt_committed >= config.checkpoint_interval_mtxs:
                    words = spec.words_committed - ckpt_words
                    core.charge_instructions(
                        config.checkpoint_base_instructions
                        + words * config.checkpoint_word_instructions
                    )
                    stats.checkpoints.append(
                        CheckpointRecord(
                            iteration=spec.committed, words=words, at=self.env.now
                        )
                    )
                    ckpt_committed = spec.committed
                    ckpt_words = spec.words_committed
                    if self.standby_alive:
                        nbytes = 2 * MARKER_BYTES + extra
                        stats.record_queue_bytes("repl", nbytes)
                        yield from self._send(
                            tid, self.standby_tid,
                            (_MSG_REPL_CHECKPOINT, spec.committed), nbytes,
                        )
            for w in list(self.live_workers):
                nbytes = MARKER_BYTES + extra
                # Pinned accounting quirk: plain stop markers were never
                # counted in queue_bytes, framed stop frames always were.
                if transport is not None:
                    stats.record_queue_bytes("specfor_round", nbytes)
                yield from self._send(tid, w, (_MSG_STOP,), nbytes)
            if self.standby_alive:
                nbytes = MARKER_BYTES + extra
                stats.record_queue_bytes("repl", nbytes)
                yield from self._send(tid, self.standby_tid, (_MSG_STOP,), nbytes)
            # state.terminate() happens in run() *after* env.run
            # completes: terminating here would self-cancel the
            # retransmit timers of stop frames still in flight,
            # stranding a worker whose stop a loss fault dropped.
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                # The service's node died; the standby-side watcher
                # declares it and the standby takes over.
                return
            raise

    def _worker_loop(self, w: int):
        """One worker: run the reserve and commit steps of its share of
        each round against its round-start snapshot."""
        mpi, config, stats = self.mpi, self.config, self.stats
        rank = self._core_indices[w]
        core = self.machine.core(rank)
        access_cycles = config.access_instructions / self.cluster.instructions_per_cycle
        extra = self.transport.extra_bytes if self.transport is not None else 0
        inbox = self._inboxes[w]
        # The plain link reads the service's mailbox; a multiplexed
        # inbox has no single source.
        src = self._core_indices[self.service_tid] if inbox is None else None
        replica = AddressSpace(f"specfor.replica{w}")
        step = self.workload.specfor_step()
        try:
            while True:
                msg = yield from mpi.recv(rank, src, _TAG, mailbox=inbox)
                # A failure-detector ping (a ControlEnvelope) matches no
                # protocol kind and falls through.
                kind = msg[0]
                if kind == _MSG_STOP:
                    return
                if kind == _MSG_ROUND:
                    _kind, round_index, attempt, assignment, delta, full = msg
                    if full:
                        # Promotion re-broadcast: the committed image,
                        # whole.  The worker's accumulated snapshot may
                        # be ahead of the replicated frontier, so it is
                        # rebuilt from scratch — equivalent to round 0,
                        # whose delta is the full initial program state.
                        replica = AddressSpace(f"specfor.replica{w}")
                    core.charge_cycles(access_cycles * len(delta))
                    for address, value in delta:
                        replica.write(address, value)
                    decisions = []
                    cycles = 0.0
                    for iteration in assignment:
                        status, reserved, step_cycles = _run_reserve(
                            step, replica, iteration, access_cycles
                        )
                        decisions.append((iteration, status, reserved))
                        cycles += step_cycles
                    core.charge_cycles(cycles)
                    nbytes = (
                        sum(len(slots) for _i, _st, slots in decisions)
                        * ENTRY_BYTES
                        + len(decisions) * MARKER_BYTES
                        + MARKER_BYTES
                        + extra
                    )
                    stats.record_queue_bytes("specfor_reserve", nbytes)
                    yield from self._send(
                        w, self.commit_tid,
                        (_MSG_RESERVE, round_index, attempt, w, decisions),
                        nbytes,
                    )
                elif kind == _MSG_VERDICT:
                    _kind, round_index, attempt, winners = msg
                    commit_results = []
                    cycles = 0.0
                    for iteration in winners:
                        ok, writes, step_cycles = _run_commit(
                            step, replica, iteration, access_cycles
                        )
                        commit_results.append((iteration, ok, writes))
                        cycles += step_cycles
                    core.charge_cycles(cycles)
                    nbytes = (
                        sum(len(writes) for _i, _ok, writes in commit_results)
                        * ENTRY_BYTES
                        + len(commit_results) * MARKER_BYTES
                        + MARKER_BYTES
                        + extra
                    )
                    stats.record_queue_bytes("specfor_commit", nbytes)
                    yield from self._send(
                        w, self.commit_tid,
                        (_MSG_COMMIT, round_index, attempt, w, commit_results),
                        nbytes,
                    )
        except ProcessInterrupt as interrupt:
            if isinstance(interrupt.cause, NodeCrashed):
                return
            raise

    # -- execution -------------------------------------------------------------

    def _spawn_unit(self, tid: int, generator, label: str):
        """Start one unit's main process, registered to its host node."""
        process = self.env.process(generator, name=label)
        self.register_node_process(
            self.cluster.node_of_core(self._core_indices[tid]), process
        )
        return process

    def run(self) -> RunResult:
        """Drive the loop to completion; returns the usual RunResult."""
        start = self.env.now
        processes = [
            self._spawn_unit(w, self._worker_loop(w), f"specfor.worker{w}")
            for w in range(self.num_workers)
        ]
        processes.append(
            self._spawn_unit(
                self.service_tid, self._service_loop(self.service_tid),
                "specfor.service",
            )
        )
        if self.standby is not None:
            # The initial image is the epoch-0 checkpoint: the standby
            # starts from the same program state as the primary.
            self.standby.seed_image(self.service.master)
            processes.append(
                self._spawn_unit(
                    self.standby_tid, self.standby.run(), "specfor.standby"
                )
            )
        if self.failure_detector is not None:
            self.failure_detector.start()
        if self.env.chaos is not None:
            self.env.chaos.bind_system(self)
        self.env.run(until=self.env.all_of(processes))
        self.state.terminate()
        elapsed = self.env.now - start
        spec = self.service.stats
        stats = self.stats
        stats.elapsed_seconds = elapsed
        stats.specfor_rounds = spec.num_rounds
        stats.specfor_reservations = spec.reservations
        stats.specfor_reservation_failures = spec.reservation_failures
        stats.specfor_commit_failures = spec.commit_failures
        stats.specfor_carried = spec.carried_total
        if self.obs is not None:
            self.obs.finalize(self)
        return RunResult(
            elapsed_seconds=elapsed,
            stats=stats,
            iterations=stats.committed_mtxs,
            total_cores=self.num_units,
        )
