"""Cluster specification.

The paper's evaluation platform (section 5.1) is a 32-node cluster of Dell
PowerEdge 1950 servers — two dual-core Intel Xeon 5160 processors at
3.00 GHz per node (4 cores/node, 128 cores total) — interconnected by
InfiniBand, with OpenMPI as the communication layer.

:class:`ClusterSpec` captures every parameter the timing model needs:

* topology — node count and cores per node;
* core speed — clock frequency and sustained instructions per cycle;
* wire — one-way latency and bandwidth, separately for intra-node
  (shared-memory transport) and inter-node (InfiniBand) paths;
* MPI software overheads — instructions executed per call.  The paper
  reports that ``MPI_Send``/``MPI_Recv`` execute 500 to 2,295
  instructions to move 8 bytes (section 4.2), and measures sustained
  streaming bandwidths of 13.1 / 12.7 / 8.1 MBps for ``MPI_Send`` /
  ``MPI_Bsend`` / ``MPI_Isend`` versus 480.7 MBps for the batched DSMTX
  queue (section 5.3).  The per-variant critical-path instruction counts
  below are calibrated so the simulated stream bandwidths land on the
  paper's measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import ConfigurationError

__all__ = ["ClusterSpec", "MPIVariant", "DEFAULT_CLUSTER"]


class MPIVariant(Enum):
    """The MPI point-to-point send flavours compared in the paper."""

    SEND = "MPI_Send"
    BSEND = "MPI_Bsend"
    ISEND = "MPI_Isend"


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of the simulated commodity cluster."""

    #: Number of nodes in the cluster.
    nodes: int = 32
    #: Cores per node (2 x dual-core Xeon 5160 in the paper).
    cores_per_node: int = 4
    #: Core clock frequency in Hz (Xeon 5160 @ 3.00 GHz).
    clock_hz: float = 3.0e9
    #: Sustained instructions per cycle for runtime bookkeeping code.
    instructions_per_cycle: float = 1.25

    #: One-way wire latency between cores on the *same* node (seconds).
    intra_node_latency_s: float = 100e-9
    #: One-way wire latency between *different* nodes (InfiniBand).
    inter_node_latency_s: float = 2.0e-6
    #: Memory bandwidth for intra-node transfers (bytes/second).
    intra_node_bandwidth_bps: float = 20.0e9
    #: Link bandwidth between nodes (InfiniBand DDR-class).
    inter_node_bandwidth_bps: float = 1.25e9

    #: Receiver-side instructions for one MPI_Recv call (paper: up to
    #: 2,295 instructions to receive 8 bytes).
    mpi_recv_instructions: int = 2290
    #: Receiver-side instructions when the message has already arrived
    #: (the fast polling path: no blocking, no progress-engine entry).
    mpi_recv_ready_instructions: int = 600
    #: Sender-side instructions per call for each send variant.
    #: MPI_Send pays the paper's 500 instructions; MPI_Bsend adds the
    #: user-buffer copy and attach/detach bookkeeping; MPI_Isend adds
    #: request allocation plus the matching MPI_Wait.  The Bsend/Isend
    #: values are calibrated so that streaming 8-byte messages sustains
    #: the paper's measured 13.1 / 12.7 / 8.1 MBps (section 5.3).
    mpi_variant_sender_instructions: dict = field(
        default_factory=lambda: {
            MPIVariant.SEND: 500,
            MPIVariant.BSEND: 2242,
            MPIVariant.ISEND: 3583,
        }
    )

    #: Instructions for one enqueue/dequeue on the DSMTX message queue
    #: (ring-buffer slot write/read; no MPI call on the fast path).
    #: Calibrated so a stream of 8-byte produces with the default batch
    #: size sustains the paper's measured 480.7 MBps (section 5.3).
    queue_op_instructions: int = 35
    #: Default batch size (bytes) at which the DSMTX queue issues one
    #: MPI_Send for the buffered data.
    queue_batch_bytes: int = 4096
    #: Memory page size used by Copy-On-Access (section 4.2).
    page_bytes: int = 4096
    #: Size of one forwarded (address, value) tuple on the wire.
    word_bytes: int = 8

    # -- fault-tolerance knobs (only read when SystemConfig enables the
    # failure-aware runtime; see docs/RESILIENCE.md) ------------------------

    #: Period between heartbeats from each node to the commit unit.
    heartbeat_period_s: float = 50e-6
    #: Silence after which the failure detector declares a node dead.
    #: Several heartbeat periods plus wire latency, so a healthy node is
    #: never suspected (the detector is a perfect-link eventual detector).
    suspicion_timeout_s: float = 250e-6
    #: Initial retransmit timeout of the reliable transport.
    retransmit_timeout_s: float = 150e-6
    #: Exponential backoff factor applied per retransmission.
    retransmit_backoff: float = 2.0
    #: Ceiling on the backed-off retransmit timeout.
    retransmit_timeout_cap_s: float = 2e-3
    #: Retransmissions before the sender gives up on a frame (by then
    #: the failure detector has long declared the destination dead).
    max_retransmits: int = 16
    #: Wire size of one cumulative acknowledgement frame.
    ack_bytes: int = 16
    #: Fraction of the *other* monitored nodes the standby-side watcher
    #: must have heard from recently before it may declare the primary
    #: dead (quorum-of-survivors suspicion: a standby that has itself
    #: been partitioned away hears from nobody and must stay quiet
    #: rather than promote a second commit unit).
    quorum_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.quorum_fraction <= 1.0:
            raise ConfigurationError(
                f"quorum_fraction must be within [0, 1], got {self.quorum_fraction}"
            )
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ConfigurationError(
                f"cluster must have at least one core: nodes={self.nodes}, "
                f"cores_per_node={self.cores_per_node}"
            )
        if self.clock_hz <= 0 or self.instructions_per_cycle <= 0:
            raise ConfigurationError("clock_hz and instructions_per_cycle must be positive")
        if self.queue_batch_bytes < self.word_bytes:
            raise ConfigurationError("queue_batch_bytes must hold at least one word")

    # -- derived quantities -------------------------------------------------

    @property
    def total_cores(self) -> int:
        """Total core count across the cluster."""
        return self.nodes * self.cores_per_node

    def instructions_to_seconds(self, instructions: float) -> float:
        """Time to retire ``instructions`` on one core."""
        return instructions / (self.instructions_per_cycle * self.clock_hz)

    def cycles_to_seconds(self, cycles: float) -> float:
        """Time for ``cycles`` core clock cycles."""
        return cycles / self.clock_hz

    def node_of_core(self, core_index: int) -> int:
        """Node that hosts global core index ``core_index``."""
        if not 0 <= core_index < self.total_cores:
            raise ConfigurationError(
                f"core index {core_index} out of range [0, {self.total_cores})"
            )
        return core_index // self.cores_per_node

    def same_node(self, core_a: int, core_b: int) -> bool:
        """True if two global core indices share a node."""
        return self.node_of_core(core_a) == self.node_of_core(core_b)

    def wire_parameters(self, src_core: int, dst_core: int) -> tuple[float, float]:
        """Return ``(latency_s, bandwidth_bps)`` for a src->dst transfer."""
        if self.same_node(src_core, dst_core):
            return self.intra_node_latency_s, self.intra_node_bandwidth_bps
        return self.inter_node_latency_s, self.inter_node_bandwidth_bps


#: The paper's evaluation platform: 32 nodes x 4 cores.
DEFAULT_CLUSTER = ClusterSpec()

#: A manycore without chip-wide cache coherence, in the mold of Intel's
#: 48-core message-passing processor the paper cites (section 2.3): the
#: same no-shared-memory programming model as a cluster, but with
#: on-chip mesh latencies and bandwidths.  The paper argues DSMTX "adds
#: great value to these platforms"; `bench_ablation_manycore.py`
#: measures it.  Modeled as 24 coherence domains of 2 cores joined by a
#: mesh: ~300x lower latency and ~6x more cross-domain bandwidth than
#: the InfiniBand cluster, with proportionally cheaper messaging calls.
SCC_LIKE = ClusterSpec(
    nodes=24,
    cores_per_node=2,
    clock_hz=1.0e9,
    inter_node_latency_s=7e-9,
    inter_node_bandwidth_bps=8.0e9,
    intra_node_latency_s=3e-9,
    intra_node_bandwidth_bps=25.0e9,
    mpi_recv_instructions=500,
    mpi_recv_ready_instructions=150,
    mpi_variant_sender_instructions={
        MPIVariant.SEND: 120,
        MPIVariant.BSEND: 400,
        MPIVariant.ISEND: 600,
    },
    queue_op_instructions=20,
)
