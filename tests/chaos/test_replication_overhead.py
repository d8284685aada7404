"""Tier-1 guard: commit replication is free when disabled.

Mirror of ``tests/obs/test_overhead.py`` for the hot-standby machinery.
Three claims, strongest first:

1. A run without ``commit_replication`` carries no replication state at
   all: no standby unit, no ``repl`` queue, no streamed or folded
   words, no promotions — nothing can leak through a stale hook.
2. The failure-aware runtime without a standby simulates exactly what
   it simulated before the standby existed: its committed results,
   traffic counters, and event count are untouched by the feature's
   existence (the golden-digest suite pins this across processes; this
   test pins it in-process against an explicit ``commit_replication=
   False``).
3. The disabled path's wall-clock cost is in the noise: a run without
   a standby is no more than 10% slower than the same run with one
   (the replicated run does strictly more work — checkpoint shipping,
   stream folding, an extra unit process — so this bounds the
   disabled-path overhead without comparing two noisy equals).
"""

import gc
import statistics
import time

from repro.core import DSMTXSystem, SystemConfig
from repro.workloads import Crc32


def _build(replicated, fault_tolerance=True):
    workload = Crc32(iterations=24)
    # Small batches make commits progressive: with the default batch
    # size a toy run group-commits everything in one terminal round and
    # the replication stream would carry nothing to measure.
    config = SystemConfig(
        total_cores=8,
        fault_tolerance=fault_tolerance,
        commit_replication=replicated,
        placement="spread",
        batch_bytes=64,
    )
    return DSMTXSystem(workload.dsmtx_plan(), config)


def _fingerprint(system):
    stats = system.stats
    return (
        stats.elapsed_seconds,
        stats.committed_mtxs,
        stats.misspeculations,
        stats.queue_bytes,
        stats.queue_batches,
        stats.words_committed,
        system.env.events_processed,
    )


def test_disabled_leaves_no_replication_state():
    system = _build(replicated=False)
    system.run()
    assert system.standby_tid is None
    assert system.standby is None
    assert system.commit._repl is None
    assert "repl" not in {q.purpose for q in system._queues.values()}
    stats = system.stats
    assert stats.ft_repl_words == 0
    assert stats.ft_repl_folded_words == 0
    assert stats.ft_promotions == 0
    assert stats.ft_replayed_words == 0
    assert not stats.checkpoints


def test_plain_run_has_no_fault_tolerance_state_either():
    system = _build(replicated=False, fault_tolerance=False)
    system.run()
    assert system.standby_tid is None
    assert system.standby is None
    assert system.stats.ft_heartbeats == 0
    assert system.stats.ft_repl_words == 0


def test_enabled_run_actually_streams():
    """The comparison below is only meaningful if the replicated run
    does real extra work."""
    system = _build(replicated=True)
    system.run()
    assert system.standby is not None
    assert system.stats.ft_repl_words > 0


def test_standby_existence_does_not_perturb_the_plain_ft_run():
    # fault_tolerance alone must simulate the same run whether or not
    # the codebase knows about standbys; replication changes the unit
    # layout (an extra unit slot), so only the unreplicated config can
    # be compared before/after the feature.  Two fresh builds agree
    # exactly — the hooks read no global state.
    first = _build(replicated=False)
    first.run()
    second = _build(replicated=False)
    second.run()
    assert _fingerprint(first) == _fingerprint(second)


def test_disabled_wall_clock_overhead_under_10_percent():
    def timed(replicated):
        system = _build(replicated)
        # Start each run from an empty collector: otherwise the
        # process's allocation cadence can land every full collection
        # on the same side.
        gc.collect()
        begin = time.perf_counter()
        system.run()
        return time.perf_counter() - begin

    # One untimed warm-up run of each side, then back-to-back pairs
    # that alternate which side goes first.  The two sides take about
    # the same time (the replicated run simulates about 2% more
    # events), while a shared host's speed can drift by far more than
    # 10% within a second.  So each pair is compared on its own and the
    # median pair ratio is the overhead: a best-of per side lets one
    # fast stretch of the host, landing on one side, decide.
    timed(False)
    timed(True)
    ratios = []
    for repeat in range(20):
        times = {}
        for replicated in (False, True) if repeat % 2 == 0 else (True, False):
            times[replicated] = timed(replicated)
        ratios.append(times[False] / times[True])
    # The replicated run does strictly more work (checkpoints, stream,
    # one more unit process), so the disabled hooks' cost is bounded by
    # any margin the replicated run needs.
    assert statistics.median(ratios) <= 1.10, sorted(ratios)
