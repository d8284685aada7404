"""End-to-end data integrity under injected silent corruption.

The acceptance bar for the integrity layer (docs/RESILIENCE.md):

* **Wire.**  Under probabilistic frame corruption, an ``integrity``
  run finishes with committed memory byte-identical to the fault-free
  run — checksums convert each corrupted frame into *loss*, and the
  reliable transport's retransmit machinery re-delivers the intact
  original.  The same plan without ``integrity`` commits silently
  wrong results, which is the hazard the checksums exist for.
* **Committed memory.**  The periodic scrubber audits the commit
  unit's pages against their digest table, detects flipped words, and
  repairs them from the hot standby's replicated image.
* **Durable state.**  A standby whose checkpoint image fails its
  digest check refuses promotion (fail-stop) instead of resurrecting
  corrupted state as the new truth.
* **Speculative state.**  A flipped clean word in a worker's cache is
  caught by value-based read validation on the next speculative load
  and repaired through ordinary misspeculation recovery.
* **Zero cost off.**  A run without ``integrity`` carries no
  integrity state at all.

Every episode is seed-deterministic: the same plan reproduces the
same run digest, corruption and repair included.
"""

import enum
import math
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import memory_fingerprint, run_digest
from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    MessageCorruption,
    NodeCrash,
    StateCorruption,
)
from repro.core import DSMTXSystem, SystemConfig
from repro.core.config import PipelineConfig
from repro.core.integrity import (
    canonical_encoding,
    page_digest,
    payload_checksum,
    space_digest,
)
from repro.core.messages import BatchEnvelope, ControlEnvelope
from repro.errors import ClusterFailedError
from repro.memory import AddressSpace
from repro.memory.layout import WORDS_PER_PAGE
from repro.memory.page import Page
from repro.workloads.base import ParallelPlan
from tests.core.toys import ToyDoall

ITERATIONS = 96

# Small batches so commits are progressive and the replication stream
# is genuinely exercised; spread placement so runtime traffic crosses
# node boundaries, where the chaos engine adjudicates corruption.
CONFIG = dict(
    total_cores=8,
    fault_tolerance=True,
    commit_replication=True,
    placement="spread",
    batch_bytes=64,
    checkpoint_interval_mtxs=16,
    integrity=True,
)


class SharedReader(ToyDoall):
    """Every iteration speculatively reads one shared seed word.

    ``ToyDoall`` never issues a *speculative* load, so its read set is
    empty and value-based validation has nothing to check.  This
    variant routes one shared word through ``ctx.load(...,
    speculative=True)`` per iteration — the footprint the
    ``"speculative"`` corruption target needs to be observable.
    """

    name = "shared-reader"
    description = "speculative shared-seed reader"
    speculation = ("MV",)

    def build(self, uva, owner, store):
        self.seed_addr = uva.malloc_page_aligned(owner, 8)
        self.out_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        store.write(self.seed_addr, 1000)

    def sequential_body(self, ctx):
        i = ctx.iteration
        seed = yield from ctx.load(self.seed_addr)
        ctx.compute(self.work_cycles)
        yield from ctx.store(self.out_base + 8 * i, seed + i)

    def _body(self, ctx):
        i = ctx.iteration
        seed = yield from ctx.load(self.seed_addr, speculative=True)
        ctx.compute(self.work_cycles)
        yield from ctx.store(self.out_base + 8 * i, seed + i, forward=False)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._body],
            label="Spec-DOALL",
        )

    tls_plan = dsmtx_plan


def build(plan=None, workload_cls=ToyDoall, **overrides):
    config = dict(CONFIG)
    config.update(overrides)
    workload = workload_cls(iterations=ITERATIONS)
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(**config))
    engine = None
    if plan is not None:
        engine = ChaosEngine(plan).attach(system.env)
    return system, engine


@pytest.fixture(scope="module")
def reference():
    """Fault-free run of the same integrity-enabled configuration."""
    system, _ = build()
    result = system.run()
    return system, result


def node_of(system, tid):
    return system.cluster.node_of_core(system._core_indices[tid])


def corruption_plan(probability=0.05, seed=7):
    return FaultPlan(
        faults=(MessageCorruption(probability=probability),), seed=seed)


def assert_same_results(system, result, reference):
    ref_system, ref_result = reference
    assert result.stats.committed_mtxs == ref_result.stats.committed_mtxs
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        ref_system.commit.master
    )


# -- wire corruption: detect, drop, retransmit ------------------------------------


def test_wire_corruption_is_repaired_end_to_end(reference):
    system, engine = build(corruption_plan())
    result = system.run()
    # The plan must have actually corrupted frames for this to mean
    # anything, and every detection must have been absorbed.
    assert engine.messages_corrupted > 0
    assert result.stats.ft_corruptions_detected > 0
    assert result.stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, reference)


def test_corruption_episode_is_seed_deterministic():
    digests = []
    for _ in range(2):
        system, engine = build(corruption_plan())
        system.run()
        digests.append(
            run_digest(system.stats, master=system.commit.master, chaos=engine))
    assert digests[0] == digests[1]


def test_detected_counts_at_least_match_repairs(reference):
    # A corrupted duplicate of an already-delivered frame is detected
    # and dropped but repairs nothing (nothing was lost), so detected
    # >= repaired always; equality holds when every corruption hit a
    # first delivery.
    system, _ = build(corruption_plan())
    result = system.run()
    stats = result.stats
    assert stats.ft_corruptions_detected >= stats.ft_corruptions_repaired
    assert stats.ft_corruptions_repaired > 0


def test_without_integrity_corruption_commits_silently(reference):
    # The hazard run: same fault plan, checksums off.  The corrupted
    # values sail through the transport and commit; nothing detects
    # anything, and committed memory is silently wrong.
    system, engine = build(corruption_plan(), integrity=False)
    result = system.run()
    assert engine.messages_corrupted > 0
    assert result.stats.ft_corruptions_detected == 0
    ref_system, _ref_result = reference
    assert memory_fingerprint(system.commit.master) != memory_fingerprint(
        ref_system.commit.master
    )


@pytest.mark.parametrize("cores", [8, 12, 16])
def test_repair_holds_at_any_worker_count(cores):
    # The repair property is a property of the transport, not of one
    # lucky layout: whatever the worker count, the corrupted run's
    # memory matches its own fault-free reference.
    ref_system, _ = build(total_cores=cores)
    ref_result = ref_system.run()
    system, engine = build(corruption_plan(), total_cores=cores)
    result = system.run()
    assert engine.messages_corrupted > 0
    assert_same_results(system, result, (ref_system, ref_result))


# -- committed memory: the scrubber -----------------------------------------------


def test_scrubber_detects_and_repairs_memory_corruption():
    # The simulated run lasts tens of microseconds, so the audit
    # cadence must be far below the 5 ms default for sweeps to fire.
    interval = dict(scrub_interval_s=5e-6)
    ref_system, _ = build(**interval)
    ref_result = ref_system.run()
    plan = FaultPlan(
        faults=(StateCorruption(
            "memory", at_s=0.5 * ref_result.elapsed_seconds, words=2),),
        seed=7,
    )
    system, engine = build(plan, **interval)
    result = system.run()
    stats = result.stats
    assert engine.state_corruption_log  # the flip actually landed
    assert stats.ft_scrub_rounds > 0
    assert stats.ft_scrub_pages > 0
    assert stats.ft_corruptions_detected >= 1
    assert stats.ft_corruptions_repaired >= 1
    assert stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, (ref_system, ref_result))


def test_scrubber_is_quiet_on_a_clean_run():
    system, _ = build(scrub_interval_s=5e-6)
    result = system.run()
    assert result.stats.ft_scrub_rounds > 0
    assert result.stats.ft_corruptions_detected == 0
    assert result.stats.ft_corruptions_repaired == 0


# -- durable state: promotion refusal ---------------------------------------------


def test_corrupt_checkpoint_image_refuses_promotion(reference):
    # Flip a word in the standby's image just before the commit node
    # dies: the standby must refuse to promote corrupted state into
    # the new truth, failing the run loudly instead.
    ref_system, ref_result = reference
    elapsed = ref_result.elapsed_seconds
    plan = FaultPlan(
        faults=(
            StateCorruption("checkpoint", at_s=0.89 * elapsed, words=1),
            NodeCrash(node=node_of(ref_system, ref_system.commit_tid),
                      at_s=0.9 * elapsed),
        ),
        seed=7,
    )
    system, _ = build(plan)
    with pytest.raises(ClusterFailedError, match="refuses promotion"):
        system.run()
    stats = system.stats
    assert stats.ft_corruptions_unrepairable == 1
    assert stats.failures and stats.failures[-1].corrupt_image


def test_clean_promotion_still_succeeds_under_integrity(reference):
    # Integrity must not get in the way of a legitimate failover: with
    # an intact image the standby's digests verify and promotion
    # completes with byte-identical results.
    ref_system, ref_result = reference
    plan = FaultPlan(
        faults=(NodeCrash(node=node_of(ref_system, ref_system.commit_tid),
                          at_s=0.5 * ref_result.elapsed_seconds),),
        seed=7,
    )
    system, _ = build(plan)
    result = system.run()
    assert result.stats.ft_promotions == 1
    assert result.stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, reference)


# -- speculative state: read validation --------------------------------------------


def test_speculative_read_corruption_misspeculates_and_repairs():
    ref_system, _ = build(workload_cls=SharedReader)
    ref_result = ref_system.run()
    # The reference must actually validate reads, or the "detection"
    # below would be vacuous (ToyDoall's read set is empty).
    assert ref_result.stats.reads_checked > 0
    # words=10_000 flips every clean resident word in every live
    # worker cache — deterministically including the shared seed copy,
    # whatever else the caches hold at that instant.
    plan = FaultPlan(
        faults=(StateCorruption(
            "speculative", at_s=0.4 * ref_result.elapsed_seconds,
            words=10_000),),
        seed=5,
    )
    system, engine = build(plan, workload_cls=SharedReader)
    result = system.run()
    assert engine.state_corruption_log[0][2] > 0  # words actually flipped
    assert result.stats.misspeculations >= 1
    assert_same_results(system, result, (ref_system, ref_result))


# -- zero cost when disabled -------------------------------------------------------


def test_integrity_off_leaves_no_integrity_state():
    system, _ = build(integrity=False)
    result = system.run()
    stats = result.stats
    assert stats.ft_corruptions_detected == 0
    assert stats.ft_corruptions_repaired == 0
    assert stats.ft_corruptions_unrepairable == 0
    assert stats.ft_scrub_rounds == 0
    assert stats.ft_scrub_pages == 0


def test_plain_ft_run_is_untouched_by_the_feature():
    # Two fresh integrity-off builds simulate the exact same run — the
    # integrity hooks read no global state and schedule no processes
    # when disabled (the golden-digest suite pins this across
    # versions; this pins it in-process).
    fingerprints = []
    for _ in range(2):
        system, _ = build(integrity=False)
        result = system.run()
        fingerprints.append((
            result.stats.elapsed_seconds,
            result.stats.committed_mtxs,
            result.stats.queue_bytes,
            system.env.events_processed,
        ))
    assert fingerprints[0] == fingerprints[1]


# -- properties -------------------------------------------------------------------


def reference_encoding(obj) -> bytes:
    """The wire format of ``repro.core.integrity``, written the obvious
    recursive way: the specification the fast encoder must match."""
    if obj is None:
        return b"n"
    if obj is True:
        return b"T"
    if obj is False:
        return b"F"
    if isinstance(obj, int):
        return b"i%d;" % obj
    if isinstance(obj, float):
        return b"f" + repr(obj).encode("ascii") + b";"
    if isinstance(obj, str):
        data = obj.encode("utf-8")
        return b"s%d:" % len(data) + data
    if isinstance(obj, (bytes, bytearray)):
        return b"b%d:" % len(obj) + bytes(obj)
    if isinstance(obj, (tuple, list)):
        return b"(" + b"".join(reference_encoding(item) for item in obj) + b")"
    if isinstance(obj, dict):
        return b"{" + b"".join(
            reference_encoding(key) + reference_encoding(obj[key])
            for key in sorted(obj)) + b"}"
    if isinstance(obj, Page):
        return b"P%d[" % obj.number + b"".join(
            reference_encoding(index) + reference_encoding(value)
            for index, value in obj.items()) + b"]"
    return b"?" + type(obj).__name__.encode("ascii") + b";"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 7


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.text(),
    st.binary(),
    st.binary().map(bytearray),
    st.sampled_from(list(_Level)),
    st.just(object()),
)


@st.composite
def _pages(draw, values=_scalars):
    words = draw(st.dictionaries(
        st.integers(min_value=0, max_value=WORDS_PER_PAGE - 1), values,
        max_size=24))
    return Page(draw(st.integers(min_value=0, max_value=1 << 40)), words)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.builds(ControlEnvelope, st.text(max_size=12), st.integers(),
                  st.integers(), children),
        st.builds(BatchEnvelope, st.text(max_size=12), st.integers(),
                  st.integers(), st.lists(children, max_size=4).map(tuple),
                  st.integers()),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    )


_payloads = st.recursive(_scalars | _pages(), _containers, max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_encoder_matches_the_reference_wire_format(payload):
    expected = reference_encoding(payload)
    assert canonical_encoding(payload) == expected
    assert payload_checksum(payload) == zlib.crc32(expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(_pages(st.integers() | st.floats() | st.text()), max_size=6))
def test_page_and_space_digests_match_the_reference(pages):
    space = AddressSpace("digest")
    for page in pages:
        assert page_digest(page) == zlib.crc32(reference_encoding(page))
        space.install_page(page)
    expected = b"".join(
        reference_encoding(page) for page in space.iter_pages()
        if page.present_mask)
    assert space_digest(space) == zlib.crc32(expected)


#: Fault-free twin per worker count, shared across examples.
_twins: dict = {}


@pytest.mark.parametrize("workers", [1, 2, 8])
@settings(max_examples=4, deadline=None)
@given(probability=st.floats(min_value=0.0, max_value=0.25),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_any_corruption_rate_commits_the_fault_free_memory(
        workers, probability, seed):
    # Worker, try-commit, commit and standby units, one per node.
    cores = workers + 3
    if workers not in _twins:
        twin, _ = build(total_cores=cores)
        _twins[workers] = (twin, twin.run())
    system, _engine = build(corruption_plan(probability, seed),
                            total_cores=cores)
    result = system.run()
    assert result.stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, _twins[workers])
