"""Reliable transport for unit traffic (fault-tolerant mode).

The simulated wire is FIFO and lossless by construction, so the baseline
runtime sends envelopes raw.  Under fault injection the wire may drop or
duplicate messages, and a node crash silently discards everything in
flight to or from it — so when :attr:`SystemConfig.fault_tolerance` is
on, every envelope bound for a unit inbox is wrapped in a
:class:`~repro.core.messages.Frame` carrying a per-(src, dst) sequence
number, and the destination's inbox is fronted by an :class:`IngestBox`:

* **dedup / reorder** — a frame below the expected sequence number is a
  duplicate and is dropped; one above it is parked in a reorder buffer;
  the expected frame is unwrapped into the real inbox (so the
  :class:`~repro.core.endpoint.Endpoint` machinery above is unchanged).
* **cumulative ack** — every ingested frame triggers a small ack on the
  management path telling the sender everything up to the highest
  in-order sequence number arrived.
* **retransmit** — the sender keeps unacknowledged frames and re-sends
  each one whose timeout expires, with capped exponential backoff
  (:attr:`ClusterSpec.retransmit_timeout_s` /
  :attr:`~ClusterSpec.retransmit_backoff` /
  :attr:`~ClusterSpec.retransmit_timeout_cap_s`), giving up after
  :attr:`~ClusterSpec.max_retransmits` attempts (by which point the
  failure detector has declared the destination dead).  Most frames are
  acked long before their first timeout, so first attempts do not get
  one timer each: a link queues ``(deadline, key, frame)`` per frame and
  keeps a single event armed for the oldest, under the queue key that
  frame's own timer would have taken
  (:meth:`~repro.sim.engine.Environment.reserve_key`).  When it fires,
  the head is handled, already-acked frames behind it are dropped, and
  the event re-arms for the next — so every timeout that matters fires
  in the FIFO slot a per-frame timer would have.  Retries after the
  first attempt are rare and keep a timer per frame.

Acks and retransmissions travel the *management path*: a latency-only
delivery that bypasses NIC serialization, modelling the dedicated
low-volume control network real clusters run alongside the data fabric.
Their cost is therefore pure latency, never core time — which also
keeps the transport's bookkeeping off the units' critical paths.

With ``fault_tolerance`` off, none of this is constructed and the send
paths pay a single ``is None`` check (the obs-layer pattern).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.cluster.interconnect import _Delivery
from repro.core.integrity import CHECKSUM_BYTES, payload_checksum
from repro.core.messages import FRAME_HEADER_BYTES, Frame

__all__ = ["ReliableTransport", "IngestBox"]


class _SenderLink:
    """Sender-side state of one directed (src_tid, dst_tid) link."""

    __slots__ = ("next_seq", "unacked", "pending", "fire")

    def __init__(self, transport: "ReliableTransport") -> None:
        self.next_seq = 0
        #: seq -> (frame, wire_bytes); present until cumulatively acked.
        self.unacked: dict[int, tuple[Frame, int]] = {}
        #: First-attempt timeouts, oldest first: (deadline, key, frame).
        #: While non-empty, one event is armed for the head.
        self.pending: deque = deque()
        #: Callback of that armed event.
        self.fire = lambda _event: transport._on_link_timer(self)


class IngestBox:
    """Store-shaped receiver front-end for one destination unit.

    Passed as the ``mailbox`` of wire deliveries: the interconnect calls
    :meth:`put_nowait` exactly as it would on the real inbox.  Frames
    are deduplicated, reordered, acknowledged, and unwrapped into the
    real inbox; anything from a crashed source node is dropped (the
    in-flight-loss semantics of a crash).
    """

    __slots__ = (
        "transport", "dst_tid", "inbox", "_expected", "_reorder",
        "_corrupt_seen",
    )

    def __init__(self, transport: "ReliableTransport", dst_tid: int, inbox: Any) -> None:
        self.transport = transport
        self.dst_tid = dst_tid
        self.inbox = inbox
        #: Per-source next-expected sequence number.
        self._expected: dict[int, int] = {}
        #: Per-source out-of-order frames: src_tid -> {seq: payload}.
        self._reorder: dict[int, dict[int, Any]] = {}
        #: (src_tid, seq) of frames dropped for checksum mismatch; an
        #: intact later arrival of the same frame counts as a repair.
        self._corrupt_seen: set[tuple[int, int]] = set()

    def put_nowait(self, frame: Frame) -> None:
        transport = self.transport
        src = frame.src_tid
        if transport.is_dead_unit(src) or transport.is_dead_unit(self.dst_tid):
            transport.stats.ft_frames_from_dead_dropped += 1
            return
        seq = frame.seq
        if transport.integrity and frame.checksum != -1:
            if payload_checksum(frame.payload) != frame.checksum:
                # Detection converts silent corruption into loss: the
                # frame is dropped unacknowledged, and the sender's
                # retransmit timer re-delivers the intact original (the
                # unacked buffer aliases the uncorrupted frame).
                transport.stats.ft_corruptions_detected += 1
                self._corrupt_seen.add((src, seq))
                obs = transport.system.obs
                if obs is not None:
                    from repro.obs.tracer import CAT_INTEGRITY, PID_RUNTIME

                    obs.tracer.instant(
                        CAT_INTEGRITY, "frame_checksum_mismatch",
                        PID_RUNTIME, self.dst_tid, src=src, seq=seq,
                    )
                    obs.metrics.counter("integrity.frames_dropped").inc()
                return
            if self._corrupt_seen and (src, seq) in self._corrupt_seen:
                self._corrupt_seen.discard((src, seq))
                transport.stats.ft_corruptions_repaired += 1
                obs = transport.system.obs
                if obs is not None:
                    obs.metrics.counter("integrity.frames_repaired").inc()
        expected = self._expected.get(src, 0)
        if seq < expected:
            transport.stats.ft_duplicates_dropped += 1
        elif seq == expected:
            self.inbox.put_nowait(frame.payload)
            expected += 1
            parked = self._reorder.get(src)
            if parked:
                while expected in parked:
                    self.inbox.put_nowait(parked.pop(expected))
                    expected += 1
            self._expected[src] = expected
        else:
            parked = self._reorder.setdefault(src, {})
            if seq in parked:
                transport.stats.ft_duplicates_dropped += 1
            else:
                parked[seq] = frame.payload
                transport.stats.ft_frames_reordered += 1
        transport.send_ack(src, self.dst_tid, expected - 1)

    def forget_source(self, src_tid: int) -> None:
        """Drop reorder state from a source declared dead."""
        self._reorder.pop(src_tid, None)


class ReliableTransport:
    """All sender links, ingest boxes, and retransmit timers of a run."""

    def __init__(self, system: "DSMTXSystem") -> None:  # noqa: F821
        self.system = system
        self.env = system.env
        self.stats = system.stats
        spec = system.cluster
        self._rto = spec.retransmit_timeout_s
        self._backoff = spec.retransmit_backoff
        self._rto_cap = spec.retransmit_timeout_cap_s
        self._max_retransmits = spec.max_retransmits
        self._ack_bytes = spec.ack_bytes
        #: Checksum mode (``SystemConfig.integrity``): stamp a CRC32 on
        #: every frame, verify at every ingest.
        self.integrity = system.config.integrity
        #: Wire bytes the checksum adds per frame (0 when integrity is
        #: off).  Senders that already price the frame header themselves
        #: add just this.
        self.checksum_bytes = CHECKSUM_BYTES if self.integrity else 0
        #: Wire bytes the transport adds per framed envelope — the frame
        #: header, plus the checksum when integrity is on.  Callers add
        #: this instead of ``FRAME_HEADER_BYTES`` so both modes price
        #: their actual framing.
        self.extra_bytes = FRAME_HEADER_BYTES + self.checksum_bytes
        self._links: dict[tuple[int, int], _SenderLink] = {}
        self._boxes: dict[int, IngestBox] = {}
        #: (latency, bandwidth) of the wire between two units, cached.
        self._wire: dict[tuple[int, int], tuple[float, float]] = {}
        self._dead_tids: set[int] = set()

    # -- topology helpers ----------------------------------------------------

    def ingest_box(self, dst_tid: int) -> IngestBox:
        box = self._boxes.get(dst_tid)
        if box is None:
            box = self._boxes[dst_tid] = IngestBox(
                self, dst_tid, self.system.inbox_of(dst_tid)
            )
        return box

    def _wire_of(self, src_tid: int, dst_tid: int) -> tuple[float, float]:
        wire = self._wire.get((src_tid, dst_tid))
        if wire is None:
            system = self.system
            wire = self._wire[(src_tid, dst_tid)] = system.cluster.wire_parameters(
                system.core_of(src_tid).index, system.core_of(dst_tid).index
            )
        return wire

    def is_dead_unit(self, tid: int) -> bool:
        return tid in self._dead_tids

    # -- sender side ---------------------------------------------------------

    def stamp(self, src_tid: int, dst_tid: int, envelope: Any, wire_bytes: int) -> Frame:
        """Wrap ``envelope`` in the next sequence-numbered frame on the
        (src, dst) link and queue its first retransmit timeout."""
        link = self._links.get((src_tid, dst_tid))
        if link is None:
            link = self._links[(src_tid, dst_tid)] = _SenderLink(self)
        seq = link.next_seq
        link.next_seq = seq + 1
        if self.integrity:
            frame = Frame(
                src_tid, dst_tid, seq, envelope, payload_checksum(envelope)
            )
        else:
            frame = Frame(src_tid, dst_tid, seq, envelope)
        link.unacked[seq] = (frame, wire_bytes)
        env = self.env
        deadline = env.now + self._rto
        key = env.reserve_key()
        pending = link.pending
        pending.append((deadline, key, frame))
        if len(pending) == 1:
            env.schedule_at(deadline, key, link.fire)
        return frame

    def _on_link_timer(self, link: _SenderLink) -> None:
        """The head frame's first timeout: handle it, skip the frames
        acked meanwhile, and re-arm for the next one in its own slot."""
        pending = link.pending
        self._on_timer(link, pending.popleft()[2], self._rto, 0)
        unacked = link.unacked
        while pending and pending[0][2].seq not in unacked:
            pending.popleft()
        if pending:
            deadline, key, _frame = pending[0]
            self.env.schedule_at(deadline, key, link.fire)

    def _arm_timer(self, link: _SenderLink, frame: Frame, timeout: float, attempt: int) -> None:
        self.env.sleep(timeout).callbacks.append(
            lambda _event: self._on_timer(link, frame, timeout, attempt)
        )

    def _on_timer(self, link: _SenderLink, frame: Frame, timeout: float, attempt: int) -> None:
        if frame.seq not in link.unacked or self.system.state.done:
            return
        if frame.dst_tid in self._dead_tids or frame.src_tid in self._dead_tids:
            del link.unacked[frame.seq]
            return
        if attempt >= self._max_retransmits:
            self.stats.ft_retransmit_giveups += 1
            del link.unacked[frame.seq]
            return
        self.stats.ft_retransmits += 1
        _frame, wire_bytes = link.unacked[frame.seq]
        latency, bandwidth = self._wire_of(frame.src_tid, frame.dst_tid)
        # Management-path resend: latency-only, no NIC contention.
        _Delivery(
            self.env, None, wire_bytes, latency, bandwidth,
            self.ingest_box(frame.dst_tid), _frame, None,
        )
        next_timeout = min(timeout * self._backoff, self._rto_cap)
        self._arm_timer(link, frame, next_timeout, attempt + 1)

    # -- receiver side -------------------------------------------------------

    def send_ack(self, src_tid: int, dst_tid: int, upto: int) -> None:
        """Cumulative ack from ``dst`` back to ``src`` (management path)."""
        self.stats.ft_acks += 1
        latency, bandwidth = self._wire_of(dst_tid, src_tid)
        _Delivery(
            self.env, None, self._ack_bytes, latency, bandwidth,
            None, None, lambda: self._on_ack(src_tid, dst_tid, upto),
        )

    def _on_ack(self, src_tid: int, dst_tid: int, upto: int) -> None:
        link = self._links.get((src_tid, dst_tid))
        if link is None or not link.unacked:
            return
        for seq in [s for s in link.unacked if s <= upto]:
            del link.unacked[seq]

    # -- failover ------------------------------------------------------------

    def forget_units(self, dead_tids) -> None:
        """Degraded-mode restart: abandon every frame to or from the
        dead units and their reorder state; stop their retransmits."""
        self._dead_tids.update(dead_tids)
        for (src, dst), link in self._links.items():
            if src in self._dead_tids or dst in self._dead_tids:
                link.unacked.clear()
        for box in self._boxes.values():
            for tid in dead_tids:
                box.forget_source(tid)
