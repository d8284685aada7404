"""The obs counters of a DSMTX or TLS run reconcile with its RunStats.

Runs every fault-free pipeline configuration of the golden-digest suite
with an obs hub attached and checks each counter against the number the
run reports for it — so a hook that moves, double-counts or goes
missing shows up as a mismatch, not as a silently wrong trace.  (The
specfor counters have their own test in tests/paradigms/test_specfor.py.)
"""

import pytest

from repro.core import DSMTXSystem, SystemConfig
from repro.obs import instrument
from tests.sim.test_determinism import CONFIGS

FAULT_FREE_PIPELINE = [
    name for name, (_factory, scheme, kwargs) in CONFIGS.items()
    if scheme in ("dsmtx", "tls") and "chaos_plan" not in kwargs
    and not kwargs.get("fault_tolerance")
]


def test_every_fault_free_pipeline_golden_is_covered():
    assert FAULT_FREE_PIPELINE == [
        "crc32_dsmtx_8c", "crc32_misspec_8c", "crc32_replicas_8c",
        "crc32_tls_8c", "blackscholes_16c",
    ]


def _instrumented_run(name):
    factory, scheme, kwargs = CONFIGS[name]
    workload = factory()
    plan = workload.dsmtx_plan() if scheme == "dsmtx" else workload.tls_plan()
    system = DSMTXSystem(plan, SystemConfig(**kwargs))
    hub = instrument(system)
    stats = system.run().stats
    return system, stats, hub.metrics.snapshot()


def _with_prefix(counters, prefix):
    return {name[len(prefix):]: value for name, value in counters.items()
            if name.startswith(prefix)}


@pytest.mark.parametrize("name", FAULT_FREE_PIPELINE)
def test_counters_reconcile_with_run_stats(name):
    system, stats, counters = _instrumented_run(name)
    # Every message the MPI layer sends crosses the interconnect once
    # (no chaos: nothing is dropped or duplicated on the wire).
    assert counters["mpi.sends"] == system.interconnect.stats.total_messages > 0
    # One batch counter per queue purpose; together they are every
    # batch the run pushed.
    batches = _with_prefix(counters, "queue.batches.")
    assert sum(batches.values()) == stats.queue_batches > 0
    # One byte counter per purpose, each equal to the run's figure.
    assert _with_prefix(counters, "queue.bytes.") == stats.queue_bytes_by_purpose
    # COA: coa.serves counts the commit unit's serves only, while
    # coa_pages_served also counts every page a COA read replica served.
    replicas = system.coa_replicas
    replica_serves = sum(r.hits + r.misses for r in replicas)
    replica_misses = sum(r.misses for r in replicas)
    served = stats.coa_pages_served + stats.coa_words_served
    assert counters.get("coa.serves", 0) == served - replica_serves
    # Each worker fetch is served exactly once, by the commit unit or a
    # replica; a replica's miss is one more commit-unit serve, fetched
    # by the replica rather than by a worker.
    fetches = counters.get("coa.page_fetches", 0) + counters.get("coa.word_fetches", 0)
    assert fetches == served - replica_misses > 0
    if name == "crc32_replicas_8c":
        assert replica_serves > 0
