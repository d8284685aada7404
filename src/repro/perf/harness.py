"""Wall-clock benchmark harness for the simulation hot path.

``repro perf`` times a fixed matrix of small, deterministic,
observability-disabled configurations and reports how many simulator
events per second of *host* time the engine sustains.  Results land in
``BENCH_sim.json`` at the repository root; every run prints a
comparison table against the previous file, so the trajectory of the
hot path is visible PR over PR (see ``docs/PERFORMANCE.md``).

Design constraints:

* **Deterministic.**  Every config must process an identical event
  count on every run (asserted across repeats) — wall seconds are the
  only thing allowed to vary.
* **Obs-disabled.**  The matrix measures the production fast path; the
  cost of *enabled* instrumentation is measured separately by
  ``tests/obs/test_overhead.py``.
* **Small.**  The full matrix finishes in well under a minute so it can
  run on every PR; ``--smoke`` shrinks it to a few seconds for CI.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.sim import Environment, Resource, Store

__all__ = [
    "BENCH_JSON_NAME",
    "GUARD_ENTRIES",
    "GUARD_MAX_REGRESSION",
    "MATRIX",
    "BenchResult",
    "cmd_perf",
    "render_comparison",
    "run_guard",
    "run_matrix",
]

#: Canonical results file, at the repository root.
BENCH_JSON_NAME = "BENCH_sim.json"

#: Schema version of the JSON file.
SCHEMA = 1


@dataclass
class BenchResult:
    """Timing of one matrix entry (best of ``repeats`` runs)."""

    name: str
    events: int
    wall_seconds: float
    sim_seconds: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "events": self.events,
            "wall_seconds": round(self.wall_seconds, 6),
            "sim_seconds": self.sim_seconds,
            "events_per_sec": round(self.events_per_sec, 1),
        }


# -- the matrix -----------------------------------------------------------------


def _engine_micro(smoke: bool) -> tuple[int, float]:
    """Pure-engine stress: timeout chains, store handoffs, resource
    contention — no cluster layer, so this isolates the kernel cost."""
    pairs = 4 if smoke else 16
    rounds = 50 if smoke else 600
    env = Environment()
    cpu = Resource(env, capacity=max(2, pairs // 2))

    def producer(store: Store, period: float) -> object:
        for i in range(rounds):
            yield env.timeout(period)
            yield store.put(i)

    def consumer(store: Store) -> object:
        for _ in range(rounds):
            item = yield store.get()
            grant = cpu.request()
            yield grant
            yield env.timeout(1e-6 * (1 + item % 3))
            cpu.release(grant)

    for p in range(pairs):
        store = Store(env, capacity=8)
        env.process(producer(store, 1e-6 * (1 + p % 5)))
        env.process(consumer(store))
    env.run()
    return env.events_processed, env.now


def _system_bench(
    factory: Callable, cores: int, scheme: str = "dsmtx", replicas: int = 0,
    **config_kwargs,
) -> Callable[[bool], tuple[int, float]]:
    def run(smoke: bool) -> tuple[int, float]:
        from repro.core import DSMTXSystem, SystemConfig

        workload = factory(smoke)
        plan = workload.dsmtx_plan() if scheme == "dsmtx" else workload.tls_plan()
        config = SystemConfig(total_cores=cores, coa_replicas=replicas,
                              **config_kwargs)
        system = DSMTXSystem(plan, config)
        result = system.run()
        return system.env.events_processed, result.elapsed_seconds

    return run


def _crc32(iterations: int, smoke_iterations: int, misspec: Optional[set] = None):
    def factory(smoke: bool):
        from repro.workloads import Crc32

        count = smoke_iterations if smoke else iterations
        bad = {count // 2} if misspec else None
        return Crc32(iterations=count, misspec_iterations=bad)

    return factory


def _blackscholes(iterations: int, smoke_iterations: int):
    def factory(smoke: bool):
        from repro.workloads import BlackScholes

        return BlackScholes(iterations=smoke_iterations if smoke else iterations)

    return factory


def _benchmark(name: str, iterations: int, smoke_iterations: int, access: str):
    """Factory for a named benchmark under a specific access leg."""
    def factory(smoke: bool):
        from repro.workloads import BENCHMARKS

        count = smoke_iterations if smoke else iterations
        return BENCHMARKS[name](iterations=count, access=access)

    return factory


def _specfor_bench(
    name: str, iterations: int, smoke_iterations: int,
    workers: int = 4, density: float = 0.5, **config_kwargs,
) -> Callable[[bool], tuple[int, float]]:
    """A speculative_for run of one irregular workload on the simulated
    reservations runtime (workers + commit-service units).  Extra
    ``config_kwargs`` build an explicit :class:`SystemConfig` — the
    fault-tolerant entries use this to price the framed transport and
    the replication stream."""
    def run(smoke: bool) -> tuple[int, float]:
        from repro.paradigms import SpecForSystem
        from repro.workloads import ALL_BENCHMARKS

        count = smoke_iterations if smoke else iterations
        workload = ALL_BENCHMARKS[name](iterations=count, density=density)
        config = None
        if config_kwargs:
            from repro.core import SystemConfig

            extra = 1 + (1 if config_kwargs.get("commit_replication") else 0)
            config = SystemConfig(total_cores=workers + extra, **config_kwargs)
        system = SpecForSystem(workload, config, workers=workers)
        result = system.run()
        return system.env.events_processed, result.elapsed_seconds

    return run


def _irregular_dsmtx(
    name: str, iterations: int, smoke_iterations: int, density: float = 0.5,
) -> Callable[[bool], tuple[int, float]]:
    def factory(smoke: bool):
        from repro.workloads import ALL_BENCHMARKS

        count = smoke_iterations if smoke else iterations
        return ALL_BENCHMARKS[name](iterations=count, density=density)

    return _system_bench(factory, cores=8)


def _memory_micro(access: str) -> Callable[[bool], tuple[int, float]]:
    """AddressSpace-layer A/B: the same word traffic (writes, reads,
    write-set extraction) through the per-word API vs. the block API.

    No simulator runs here — the returned "events" are memory word
    operations, identical for both legs, so the pair isolates the pure
    host-time amortization of the flat-array block paths.
    """
    def run(smoke: bool) -> tuple[int, float]:
        from repro.memory import AddressSpace

        blocks = 256 if smoke else 2048
        width = 64
        space = AddressSpace(f"perf_{access}")
        values = list(range(width))
        ops = 0
        for index in range(blocks):
            base = index * 4096
            if access == "block":
                space.write_block(base, values)
                got = space.read_block(base, width)
            else:
                for k in range(width):
                    space.write(base + (k << 3), k)
                got = [space.read(base + (k << 3)) for k in range(width)]
            assert got[-1] == width - 1
            ops += 2 * width
        # Write-set extraction: run-length vs. per-word re-reads.
        if access == "block":
            extracted = sum(len(vals) for _addr, vals in space.extract_blocks())
        else:
            extracted = 0
            for index in range(blocks):
                base = index * 4096
                for k in range(width):
                    space.read(base + (k << 3))
                    extracted += 1
        assert extracted == blocks * width
        return ops + extracted, 0.0

    return run


#: The fixed benchmark matrix: name -> callable(smoke) -> (events, sim_seconds).
#: Picked to cover the four hot-path layers: the engine itself
#: (engine_micro), queue/endpoint traffic (crc32 pipelines), the
#: batched-channel + interconnect path under misspeculation recovery,
#: COA replica routing, a TLS plan (sync queues), and the failure-aware
#: runtime with and without a hot-standby commit replica (the pair
#: prices the replication stream; docs/RESILIENCE.md).
MATRIX: dict[str, Callable[[bool], tuple[int, float]]] = {
    "engine_micro": _engine_micro,
    "crc32_dsmtx_8c": _system_bench(_crc32(48, 8), cores=8),
    "crc32_misspec_8c": _system_bench(_crc32(32, 8, misspec=True), cores=8),
    "crc32_tls_8c": _system_bench(_crc32(48, 8), cores=8, scheme="tls"),
    "crc32_replicas_8c": _system_bench(_crc32(48, 8), cores=8, replicas=1),
    "blackscholes_16c": _system_bench(_blackscholes(384, 16), cores=16),
    "crc32_ft_8c": _system_bench(_crc32(48, 8), cores=8,
                                 fault_tolerance=True),
    "crc32_ft_standby_8c": _system_bench(_crc32(48, 8), cores=8,
                                         fault_tolerance=True,
                                         commit_replication=True,
                                         placement="spread"),
    # End-to-end integrity on top of the standby pair: CRC32 framing on
    # every reliable-transport message, page digests on commit, and the
    # committed-memory scrubber armed.  The spread vs. crc32_ft_standby_8c
    # prices the checksummed transport; crc32_ft_standby_8c itself (and
    # crc32_dsmtx_8c below it) double as the zero-cost-when-disabled
    # guard — integrity work leaking into integrity=False runs regresses
    # them (docs/RESILIENCE.md).
    "crc32_integrity_8c": _system_bench(_crc32(48, 8), cores=8,
                                        fault_tolerance=True,
                                        commit_replication=True,
                                        placement="spread",
                                        integrity=True),
    # Batched-access A/B pairs (docs/PERFORMANCE.md "Batched access"):
    # each _word/_block pair performs the same simulated work through
    # the per-word vs. block context APIs, so the spread is the host
    # amortization of run-length access records and slice memory ops.
    "crc32_word_8c": _system_bench(
        _benchmark("crc32", 24, 4, access="word"), cores=8),
    "crc32_block_8c": _system_bench(
        _benchmark("crc32", 24, 4, access="block"), cores=8),
    "hmmer_word_16c": _system_bench(
        _benchmark("456.hmmer", 256, 16, access="word"), cores=16),
    "hmmer_block_16c": _system_bench(
        _benchmark("456.hmmer", 256, 16, access="block"), cores=16),
    "blackscholes_block_16c": _system_bench(
        _benchmark("blackscholes", 192, 16, access="block"), cores=16),
    "gzip_block_8c": _system_bench(
        _benchmark("164.gzip", 96, 8, access="block"), cores=8),
    # Memory-layer A/B (no simulator): word ops through the per-word
    # vs. block AddressSpace APIs.
    "mem_word_micro": _memory_micro("word"),
    "mem_block_micro": _memory_micro("block"),
    # Deterministic-reservations runtime (speculative_for): the three
    # irregular workloads on the round protocol, plus one conflict A/B
    # against the DSMTX try-commit pipeline on the same workload.
    "specfor_sf_4w": _specfor_bench("spanning_forest", 96, 16),
    "specfor_mis_4w": _specfor_bench("maximal_independent_set", 64, 16),
    "specfor_lc_4w": _specfor_bench("list_contraction", 64, 16),
    "sf_dsmtx_8c": _irregular_dsmtx("spanning_forest", 96, 16),
    # The fault-tolerant reservations runtime: same workload as
    # specfor_sf_4w through the framed transport with a hot-standby
    # reservation service, so the pair prices what crash survival costs.
    "specfor_ft_4w": _specfor_bench(
        "spanning_forest", 96, 16,
        fault_tolerance=True, commit_replication=True, placement="spread"),
}

#: Matrix entries that run no simulator, so they report zero simulated
#: seconds: the memory-layer A/B pair.  Every other entry simulates.
NON_SIMULATOR_ENTRIES = frozenset({"mem_word_micro", "mem_block_micro"})

#: Entries the CI perf-drift guard watches, and the tolerated
#: regression vs. the committed baseline before the guard fails.
#: specfor_sf_4w and specfor_ft_4w guard both sides of the
#: fault-tolerance switch: the former is the zero-cost-when-disabled
#: check (FT machinery creeping into the plain path regresses it), the
#: latter the framed-transport + replication hot path itself.
#: crc32_ft_standby_8c / crc32_integrity_8c do the same for the
#: integrity switch: the former fails if checksum/digest work leaks
#: into integrity=False runs, the latter watches the checksummed
#: transport + scrubber hot path itself.
GUARD_ENTRIES = ("crc32_dsmtx_8c", "engine_micro", "specfor_sf_4w",
                 "specfor_ft_4w", "crc32_ft_standby_8c",
                 "crc32_integrity_8c")
GUARD_MAX_REGRESSION = 0.30


# -- running ---------------------------------------------------------------------


def run_matrix(smoke: bool = False, repeats: int = 3) -> list[BenchResult]:
    """Time every matrix entry; best wall time of ``repeats`` runs.

    Raises ``AssertionError`` if any entry's event count differs
    between repeats — the matrix must be deterministic.
    """
    repeats = 1 if smoke else max(1, repeats)
    results = []
    for name, bench in MATRIX.items():
        best = float("inf")
        events = sim_seconds = None
        for _ in range(repeats):
            begin = time.perf_counter()
            got_events, got_sim = bench(smoke)
            wall = time.perf_counter() - begin
            if events is None:
                events, sim_seconds = got_events, got_sim
            else:
                assert events == got_events, (
                    f"{name}: non-deterministic event count "
                    f"({events} != {got_events})"
                )
            best = min(best, wall)
        results.append(
            BenchResult(name=name, events=events, wall_seconds=best,
                        sim_seconds=sim_seconds)
        )
        print(f"  {name:<20} {events:>9} events  {best:8.3f} s  "
              f"{events / best:>12,.0f} ev/s", file=sys.stderr)
    return results


# -- persistence and comparison --------------------------------------------------


def _totals(results: list[BenchResult]) -> dict:
    events = sum(r.events for r in results)
    wall = sum(r.wall_seconds for r in results)
    return {
        "events": events,
        "wall_seconds": round(wall, 6),
        "events_per_sec": round(events / wall, 1) if wall > 0 else 0.0,
    }


def results_payload(results: list[BenchResult], baseline: Optional[dict]) -> dict:
    payload = {
        "schema": SCHEMA,
        "python": sys.version.split()[0],
        "totals": _totals(results),
        "benchmarks": {r.name: r.to_dict() for r in results},
    }
    if baseline is not None:
        payload["baseline"] = {
            "totals": baseline.get("totals"),
            "benchmarks": baseline.get("benchmarks", {}),
        }
    return payload


def load_previous(path: Path) -> Optional[dict]:
    """The previous ``BENCH_sim.json``, if one exists and parses."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or "benchmarks" not in data:
        return None
    return data


def render_comparison(results: list[BenchResult], previous: Optional[dict]) -> str:
    """Baseline-vs-current table (previous JSON on the left)."""
    from repro.analysis import render_table

    prev_benchmarks = (previous or {}).get("benchmarks", {})
    rows = []
    for r in results:
        old = prev_benchmarks.get(r.name)
        if old and old.get("events_per_sec"):
            old_rate = old["events_per_sec"]
            ratio = f"{r.events_per_sec / old_rate:.2f}x"
            old_text = f"{old_rate:,.0f}"
        else:
            old_text, ratio = "-", "-"
        rows.append([
            r.name, f"{r.events:,}", f"{r.wall_seconds:.3f}",
            old_text, f"{r.events_per_sec:,.0f}", ratio,
        ])
    totals = _totals(results)
    old_totals = (previous or {}).get("totals") or {}
    if old_totals.get("events_per_sec"):
        old_rate = old_totals["events_per_sec"]
        ratio = f"{totals['events_per_sec'] / old_rate:.2f}x"
        old_text = f"{old_rate:,.0f}"
    else:
        old_text, ratio = "-", "-"
    rows.append([
        "TOTAL", f"{totals['events']:,}", f"{totals['wall_seconds']:.3f}",
        old_text, f"{totals['events_per_sec']:,.0f}", ratio,
    ])
    return render_table(
        ["benchmark", "events", "wall s", "baseline ev/s", "current ev/s", "speedup"],
        rows,
        title="Hot-path throughput (wall clock, obs disabled)",
    )


def run_guard(baseline_path: Path, repeats: int = 3,
              max_regression: float = GUARD_MAX_REGRESSION) -> int:
    """Perf-drift guard: time the :data:`GUARD_ENTRIES` at full size and
    fail (exit 1) if any takes more than ``max_regression`` longer —
    recorded over current best wall seconds below ``1 - max_regression``
    — than its ``wall_seconds`` in the committed baseline file.

    Wall time per entry, not events/sec: an entry's simulated work is
    fixed, while its event count is an implementation detail — a change
    that drops no-op events does the same work faster and must not read
    as a slowdown.  The threshold is deliberately loose (CI machines are
    noisy); the guard exists to catch order-of-magnitude slips — a hot
    path falling off its fast path — not single-digit drift.
    """
    previous = load_previous(baseline_path)
    if previous is None:
        print(f"perf guard: no readable baseline at {baseline_path}",
              file=sys.stderr)
        return 2
    baseline = previous.get("benchmarks", {})
    failures = []
    for name in GUARD_ENTRIES:
        recorded = (baseline.get(name) or {}).get("wall_seconds")
        if not recorded:
            print(f"perf guard: baseline has no wall_seconds for {name}",
                  file=sys.stderr)
            return 2
        bench = MATRIX[name]
        best = float("inf")
        for _ in range(max(1, repeats)):
            begin = time.perf_counter()
            bench(False)
            best = min(best, time.perf_counter() - begin)
        ratio = recorded / best
        verdict = "ok" if ratio >= 1.0 - max_regression else "REGRESSED"
        print(f"  {name:<20} baseline {recorded:8.3f} s  "
              f"current {best:8.3f} s  {ratio:5.2f}x  {verdict}",
              file=sys.stderr)
        if verdict != "ok":
            failures.append(name)
    if failures:
        print(f"perf guard FAILED: {', '.join(failures)} regressed more than "
              f"{max_regression:.0%} vs {baseline_path.name}", file=sys.stderr)
        return 1
    print("perf guard passed", file=sys.stderr)
    return 0


def cmd_perf(args) -> int:
    """``repro perf``: run the matrix, write BENCH_sim.json, compare."""
    out = Path(args.out) if args.out else Path.cwd() / BENCH_JSON_NAME
    if getattr(args, "guard", False):
        return run_guard(out, repeats=args.repeats)
    previous = load_previous(out)
    mode = "smoke" if args.smoke else f"full (best of {args.repeats})"
    print(f"running perf matrix [{mode}] ...", file=sys.stderr)
    results = run_matrix(smoke=args.smoke, repeats=args.repeats)
    print()
    print(render_comparison(results, previous))
    # Smoke runs validate the harness; they must not overwrite real
    # numbers with throwaway single-repeat timings of a tiny matrix.
    if args.smoke and previous is not None and args.out is None:
        print(f"\nsmoke run: leaving existing {out.name} untouched")
        return 0
    baseline = None
    if previous is not None:
        baseline = {
            "totals": previous.get("totals"),
            "benchmarks": previous.get("benchmarks", {}),
        }
    payload = results_payload(results, baseline)
    if args.smoke:
        payload["smoke"] = True
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {out}")
    return 0
