"""Reliable transport: sequencing, dedup, reorder, ack, retransmit."""

import pytest

from repro.core import DSMTXSystem, SystemConfig
from repro.core.messages import Frame
from repro.core.stats import RunStats
from repro.core.transport import IngestBox
from tests.core.toys import ToyDoall


class FakeTransport:
    """Just enough surface for IngestBox unit tests."""

    def __init__(self):
        self.stats = RunStats()
        self.dead = set()
        self.acks = []
        self.integrity = False

    def is_dead_unit(self, tid):
        return tid in self.dead

    def send_ack(self, src_tid, dst_tid, upto):
        self.acks.append((src_tid, dst_tid, upto))


class FakeInbox:
    def __init__(self):
        self.items = []

    def put_nowait(self, item):
        self.items.append(item)


def make_box():
    transport = FakeTransport()
    inbox = FakeInbox()
    return transport, inbox, IngestBox(transport, dst_tid=9, inbox=inbox)


def frame(seq, payload=None, src=3):
    return Frame(src, 9, seq, payload if payload is not None else f"m{seq}")


def test_in_order_frames_unwrap_into_the_inbox():
    transport, inbox, box = make_box()
    box.put_nowait(frame(0))
    box.put_nowait(frame(1))
    assert inbox.items == ["m0", "m1"]
    # Each ingest acked cumulatively.
    assert transport.acks == [(3, 9, 0), (3, 9, 1)]


def test_duplicate_frames_are_dropped_but_reacked():
    transport, inbox, box = make_box()
    box.put_nowait(frame(0))
    box.put_nowait(frame(0, payload="dup"))
    assert inbox.items == ["m0"]
    assert transport.stats.ft_duplicates_dropped == 1
    # The re-ack lets a sender whose ack was lost clear its buffer.
    assert transport.acks[-1] == (3, 9, 0)


def test_out_of_order_frames_park_and_drain_in_order():
    transport, inbox, box = make_box()
    box.put_nowait(frame(2))
    box.put_nowait(frame(1))
    assert inbox.items == []  # nothing deliverable yet
    assert transport.stats.ft_frames_reordered == 2
    box.put_nowait(frame(0))
    assert inbox.items == ["m0", "m1", "m2"]  # program order restored
    assert transport.acks[-1] == (3, 9, 2)  # cumulative


def test_duplicate_of_a_parked_frame_is_dropped():
    transport, inbox, box = make_box()
    box.put_nowait(frame(2))
    box.put_nowait(frame(2))
    assert transport.stats.ft_duplicates_dropped == 1


def test_sources_are_sequenced_independently():
    _transport, inbox, box = make_box()
    box.put_nowait(frame(0, payload="a0", src=3))
    box.put_nowait(frame(0, payload="b0", src=4))
    assert inbox.items == ["a0", "b0"]


def test_frames_involving_dead_units_are_dropped():
    transport, inbox, box = make_box()
    transport.dead.add(3)
    box.put_nowait(frame(0))
    assert inbox.items == []
    assert transport.stats.ft_frames_from_dead_dropped == 1
    assert transport.acks == []  # the dead hear no acks


def test_forget_source_discards_reorder_state():
    _transport, inbox, box = make_box()
    box.put_nowait(frame(5))
    box.forget_source(3)
    box.put_nowait(frame(0))
    assert inbox.items == ["m0"]  # parked frame 5 is gone


# -- sender side against the real runtime ------------------------------------


def ft_system():
    return DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(),
        SystemConfig(total_cores=8, fault_tolerance=True),
    )


def test_stamp_assigns_per_link_sequence_numbers():
    system = ft_system()
    transport = system.transport
    a = transport.stamp(0, 5, "x", 100)
    b = transport.stamp(0, 5, "y", 100)
    c = transport.stamp(1, 5, "z", 100)
    assert (a.seq, b.seq) == (0, 1)
    assert c.seq == 0  # a different (src, dst) link
    assert a.payload == "x" and a.src_tid == 0 and a.dst_tid == 5


def test_unacked_frames_retransmit_until_giveup():
    system = ft_system()
    transport = system.transport
    # Sever the ack path: the receiver ingests every (re)delivery but
    # the sender never learns, so the timer escalates to give-up.
    transport.send_ack = lambda src, dst, upto: None
    transport.stamp(0, 5, "payload", 100)
    spec = system.cluster
    worst_case = spec.retransmit_timeout_cap_s * (spec.max_retransmits + 2)
    system.env.run(until=system.env.timeout(worst_case))
    assert system.stats.ft_retransmits == spec.max_retransmits
    assert system.stats.ft_retransmit_giveups == 1
    # Every retransmission after the first ingest was deduplicated.
    assert system.stats.ft_duplicates_dropped == spec.max_retransmits - 1


def test_ack_clears_the_retransmit_buffer():
    system = ft_system()
    transport = system.transport
    frame = transport.stamp(0, 5, "p", 64)
    # stamp() only arms the timer; the send path delivers.  Deliver now:
    # the ingest ack clears the buffer well inside one RTO.
    transport.ingest_box(5).put_nowait(frame)
    spec = system.cluster
    system.env.run(until=system.env.timeout(spec.retransmit_timeout_s * 4))
    assert system.stats.ft_retransmits == 0
    assert not transport._links[(0, 5)].unacked


def test_first_timeouts_share_one_armed_timer_per_link():
    system = ft_system()
    transport = system.transport
    env = system.env
    transport.send_ack = lambda src, dst, upto: None  # acks never arrive
    queued = len(env._queue)
    frames = [transport.stamp(0, 5, f"p{i}", 64) for i in range(4)]
    assert len(env._queue) == queued + 1  # one armed event, not four
    # Frames 0, 1 and 3 are acked in time; only frame 2 times out.
    transport._on_ack(0, 5, 1)
    del transport._links[(0, 5)].unacked[frames[3].seq]
    spec = system.cluster
    env.run(until=env.timeout(spec.retransmit_timeout_s * 1.5))
    assert system.stats.ft_retransmits == 1
    assert not transport._links[(0, 5)].pending


def test_forget_units_stops_retransmits_for_dead_links():
    system = ft_system()
    transport = system.transport
    transport.send_ack = lambda src, dst, upto: None  # acks never arrive
    transport.stamp(0, 5, "p", 64)
    transport.forget_units({5})
    system.env.run(until=system.env.timeout(1.0))
    assert system.stats.ft_retransmits == 0
    assert system.stats.ft_retransmit_giveups == 0


def test_fault_free_mode_constructs_no_transport():
    system = DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(), SystemConfig(total_cores=8)
    )
    assert system.transport is None
    assert system.failure_detector is None
