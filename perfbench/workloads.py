"""Seeded configuration sets and their execution.

A *configuration* is one simulated run: a benchmark, a scheme, a core
count and the knobs the seed draws (misspeculated iterations, fault-draw
seeds, crash times, conflict densities).  Each workload of the benchmark
is a list of configurations generated from ``--seed``; the program only
ever sees the generated values.

Everything here drives the program through its public entry points:
``DSMTXSystem``, ``SpecForSystem``, ``SystemConfig``, ``SequentialMeter``,
the chaos ``FaultPlan``/``ChaosEngine`` and ``run_digest``.  The program
is reached through the ``api`` namespace returned by :func:`load_program`
so that set-up can be timed from a fresh import.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, replace
from random import Random
from types import SimpleNamespace
from typing import Optional

#: The paper's Table 2 benchmarks, in registry order.
TABLE2 = ("052.alvinn", "130.li", "164.gzip", "179.art", "197.parser",
          "256.bzip2", "456.hmmer", "464.h264ref", "crc32", "blackscholes",
          "swaptions")
#: Benchmarks with input-dependent misspeculation (paper Figure 6).
FIG6 = ("130.li", "197.parser", "256.bzip2", "crc32", "blackscholes",
        "swaptions")
#: The PBBS irregular workloads with a ``speculative_for`` form.
IRREGULAR = ("spanning_forest", "maximal_independent_set", "list_contraction")

#: Observable output regions: benchmark -> ((base attribute, words), ...);
#: ``words`` is an int, ``"n"`` for one word per iteration, or
#: ``"vertices"`` for one word per graph vertex.
OUTPUT_REGIONS = {
    "052.alvinn": (("partials_base", "n"),),
    "130.li": (("results_base", "n"),),
    "164.gzip": (("output_base", "n"),),
    "179.art": (("matches_base", "n"),),
    "197.parser": (("results_base", "n"),),
    "256.bzip2": (("output_base", "n"),),
    "456.hmmer": (("hist_base", 64), ("max_addr", 1)),
    "464.h264ref": (("bitstream_base", "n"),),
    "crc32": (("checksums_base", "n"),),
    "blackscholes": (("prices_base", "n"), ("total_addr", 1)),
    "swaptions": (("prices_base", "n"),),
    "spanning_forest": (("parents_base", "vertices"), ("in_forest_base", "n")),
    "maximal_independent_set": (("flags_base", "n"),),
    "list_contraction": (("prev_base", "n"), ("next_base", "n"),
                         ("value_base", "n"), ("out_base", "n")),
}

WORKLOADS = ("paper_fig4", "resilience", "irregular_specfor")


@dataclass(frozen=True)
class Config:
    """One simulated run, fully determined by its fields."""

    name: str
    benchmark: str
    scheme: str = "dsmtx"            # dsmtx | tls | specfor
    cores: int = 8
    iterations: Optional[int] = None  # None: the benchmark's default input
    density: Optional[float] = None
    misspec: tuple = ()
    fault_tolerance: bool = False
    commit_replication: bool = False
    integrity: bool = False
    batch_bytes: Optional[int] = None
    placement: str = "pack"
    corruption: float = 0.0
    fault_seed: int = 0
    crash_commit_ms: Optional[float] = None

    @property
    def faulty(self) -> bool:
        return bool(self.misspec or self.corruption
                    or self.crash_commit_ms is not None)

    def fault_free(self) -> "Config":
        """The layout-identical run with every fault removed (equal for
        every configuration that shares the layout)."""
        return replace(self, name="fault-free", misspec=(), corruption=0.0,
                       fault_seed=0, crash_commit_ms=None)


# -- seeded generation ---------------------------------------------------------------


def _strata(rng: Random, low: float, high: float, count: int) -> list:
    """One uniform draw inside each of ``count`` equal slices of
    [low, high): seed-dependent values whose spread stays fixed."""
    width = (high - low) / count
    return [low + width * (k + rng.random()) for k in range(count)]


def generate(workload: str, seed: int, scale: float = 1.0) -> list:
    """The configuration list of ``workload`` for ``seed``.

    ``scale`` < 1 shrinks inputs for the benchmark's own smoke check.
    """
    rng = Random(f"{workload}:{seed}")
    return {
        "paper_fig4": _paper_fig4,
        "resilience": _resilience,
        "irregular_specfor": _irregular_specfor,
    }[workload](rng, scale)


def _paper_fig4(rng: Random, scale: float) -> list:
    # Figure 4(l): every Table 2 benchmark under both plans at 128 cores
    # on its default input.  Nothing here is drawn from the seed.
    cores = 128 if scale >= 1 else 16
    iterations = None if scale >= 1 else 24
    return [Config(f"{name}/{scheme}", name, scheme, cores, iterations)
            for name in TABLE2 for scheme in ("dsmtx", "tls")]


def _resilience(rng: Random, scale: float) -> list:
    configs = []
    # Figure 6: each input-dependent benchmark at two core counts, with
    # two misspeculated iterations drawn one from each middle quarter of
    # its loop.
    for cores in ((32, 64) if scale >= 1 else (8,)):
        for name in FIG6:
            iterations = _FIG6_ITERATIONS[name] if scale >= 1 else 24
            marks = tuple(int(iterations * fraction)
                          for fraction in _strata(rng, 0.25, 0.75, 2))
            configs.append(Config(f"{name}/{cores}c/misspec", name, "dsmtx",
                                  cores, iterations, misspec=marks))
    # Checksummed crc32 with a hot standby under wire corruption: three
    # rates, four fault-draw seeds each; two of every four also lose
    # their commit node at a seed-drawn time inside the run.
    iterations = 96 if scale >= 1 else 24
    crash_times = iter(_strata(rng, 12.0, 36.0, 6))
    for rate in (0.02, 0.05, 0.1):
        for draw, crash in enumerate((False, True) * 2):
            configs.append(Config(
                f"crc32/corrupt{rate:g}/{draw}" + ("/crash" if crash else ""),
                "crc32", "dsmtx", 8, iterations, batch_bytes=64,
                placement="spread", fault_tolerance=True,
                commit_replication=True, integrity=True, corruption=rate,
                fault_seed=rng.randrange(1 << 30),
                crash_commit_ms=next(crash_times) if crash else None))
    return configs


#: Input sizes of the Figure 6 runs.
_FIG6_ITERATIONS = {"130.li": 512, "197.parser": 512, "256.bzip2": 256,
                    "crc32": 48, "blackscholes": 768, "swaptions": 128}


def _irregular_specfor(rng: Random, scale: float) -> list:
    # Each PBBS workload at twelve density pairs, one pair per twelfth of
    # [0.1, 0.9): the plain run at a seed-drawn point of the slice and
    # the run with fault tolerance plus a reservation-service standby
    # (the other service loop) at its mirror image.  The fine grid and
    # the mirroring let the seed move single densities but hardly the
    # set's total work or the spread of its per-run times.
    iterations = 512 if scale >= 1 else 48
    slices = 12 if scale >= 1 else 2
    low, width = 0.1, 0.8 / slices
    configs = []
    for name in IRREGULAR:
        for k in range(slices):
            draw = rng.random()
            for ft, offset in ((False, draw), (True, 1.0 - draw)):
                density = round(low + width * (k + offset), 4)
                configs.append(Config(
                    f"{name}/d{density:g}" + ("/ft" if ft else ""), name,
                    "specfor", 8, iterations, density=density,
                    fault_tolerance=ft, commit_replication=ft))
    return configs


# -- the program -----------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import the program afresh and return the entry points used here.

    Every ``repro`` module is dropped from ``sys.modules`` first, so
    each call pays the package's whole import, as a new process would.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    from repro import analysis, chaos, core, memory, paradigms, workloads

    return SimpleNamespace(
        memory_fingerprint=analysis.memory_fingerprint,
        run_digest=analysis.run_digest,
        ChaosEngine=chaos.ChaosEngine,
        FaultPlan=chaos.FaultPlan,
        MessageCorruption=chaos.MessageCorruption,
        NodeCrash=chaos.NodeCrash,
        DSMTXSystem=core.DSMTXSystem,
        SequentialMeter=core.SequentialMeter,
        SystemConfig=core.SystemConfig,
        AddressSpace=memory.AddressSpace,
        UnifiedVirtualAddressSpace=memory.UnifiedVirtualAddressSpace,
        SpecForSystem=paradigms.SpecForSystem,
        ALL_BENCHMARKS=workloads.ALL_BENCHMARKS,
        WriteThroughStore=workloads.WriteThroughStore,
        run_body=workloads.run_body,
    )


def build_workload(api, config: Config):
    """The workload object ``config`` runs (its inputs are built here)."""
    kwargs = {}
    if config.iterations is not None:
        kwargs["iterations"] = config.iterations
    if config.density is not None:
        kwargs["density"] = config.density
    if config.misspec:
        kwargs["misspec_iterations"] = set(config.misspec)
    return api.ALL_BENCHMARKS[config.benchmark](**kwargs)


def system_config(api, config: Config):
    kwargs = dict(total_cores=config.cores, placement=config.placement,
                  fault_tolerance=config.fault_tolerance,
                  commit_replication=config.commit_replication,
                  integrity=config.integrity)
    if config.batch_bytes is not None:
        kwargs["batch_bytes"] = config.batch_bytes
    return api.SystemConfig(**kwargs)


@dataclass
class Run:
    """One executed configuration: its host time and its results."""

    wall_s: float
    system: object
    workload: object
    chaos: object

    @property
    def stats(self):
        return self.system.stats


def execute(api, config: Config, workload, profiler=None) -> Run:
    """Build a fresh system for ``config`` and run it to completion.

    The host time covers system construction and the run: what a user
    waits on per configuration.  ``profiler`` (a ``cProfile.Profile``)
    is enabled over exactly that interval when given.
    """
    began = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        sysconf = system_config(api, config)
        if config.scheme == "specfor":
            workers = config.cores - 1 - (1 if config.commit_replication else 0)
            system = api.SpecForSystem(workload, sysconf, workers=workers)
        else:
            plan = (workload.dsmtx_plan() if config.scheme == "dsmtx"
                    else workload.tls_plan())
            system = api.DSMTXSystem(plan, sysconf)
        chaos = None
        if config.corruption or config.crash_commit_ms is not None:
            faults = []
            if config.crash_commit_ms is not None:
                node = system.core_of(system.commit_tid).node_index
                faults.append(api.NodeCrash(node=node,
                                            at_s=config.crash_commit_ms * 1e-3))
            if config.corruption:
                faults.append(api.MessageCorruption(probability=config.corruption))
            plan = api.FaultPlan(faults=tuple(faults), seed=config.fault_seed)
            chaos = api.ChaosEngine(plan).attach(system.env)
        system.run()
    finally:
        if profiler is not None:
            profiler.disable()
    return Run(time.perf_counter() - began, system, workload, chaos)


# -- correctness oracles ----------------------------------------------------------------


def output_regions(config: Config, workload, read) -> dict:
    """{(attribute, index): value} over the benchmark's output regions."""
    outputs = {}
    for attr, words in OUTPUT_REGIONS[config.benchmark]:
        if words == "n":
            words = workload.iterations
        elif words == "vertices":
            words = workload.num_vertices
        base = getattr(workload, attr)
        for index in range(words):
            outputs[(attr, index)] = read(base + 8 * index)
    return outputs


def sequential_reference(api, config: Config) -> tuple:
    """(sequential seconds, output regions) of ``config``'s loop run by
    the ``SequentialMeter`` on a single core: the speedup base and the
    oracle for the committed outputs."""
    workload = build_workload(api, config)
    space = api.AddressSpace("seq")
    meter = api.SequentialMeter(system_config(api, config), space)
    workload.build(api.UnifiedVirtualAddressSpace(owners=1), 0,
                   api.WriteThroughStore(space))
    for iteration in range(workload.iterations):
        meter.begin_iteration(iteration)
        api.run_body(workload.sequential_body(meter))
    return meter.seconds, output_regions(config, workload, space.read)


def committed_outputs(config: Config, run: Run) -> dict:
    return output_regions(config, run.workload, run.system.commit.master.read)


def digest(api, run: Run) -> str:
    return api.run_digest(run.stats, master=run.system.commit.master,
                          chaos=run.chaos)


def counts(run: Run) -> dict:
    """The run's per-layer counters (exact: they repeat run to run)."""
    stats = run.stats
    squashed = sum(r.squashed_iterations for r in stats.recoveries)
    return {
        "sim.events": run.system.env.events_processed,
        "cluster.queue_batches": stats.queue_batches,
        "cluster.queue_bytes": stats.queue_bytes,
        "core.committed_mtxs": stats.committed_mtxs,
        "core.reads_checked": stats.reads_checked,
        "core.words_committed": stats.words_committed,
        "memory.coa_pages_served": stats.coa_pages_served,
        "core.recovery.misspeculations": stats.misspeculations,
        "core.recovery.squashed": squashed,
        "core.recovery.lost": stats.lost_iterations,
        "core.recovery.erm_flq_seq_sim_s": (stats.erm_seconds
                                            + stats.flq_seconds
                                            + stats.seq_seconds),
        "core.transport.acks": stats.ft_acks,
        "core.transport.retransmits": stats.ft_retransmits,
        "core.integrity.detected": stats.ft_corruptions_detected,
        "core.integrity.repaired": stats.ft_corruptions_repaired,
        "core.integrity.scrub_pages": stats.ft_scrub_pages,
        "core.standby.repl_words": stats.ft_repl_words,
        "core.failure.promotions": stats.ft_promotions,
        "paradigms.specfor.rounds": stats.specfor_rounds,
        "paradigms.specfor.carried": stats.specfor_carried,
        "core.reservations.reservations": stats.specfor_reservations,
        "sim.elapsed_s": stats.elapsed_seconds,
    }


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
