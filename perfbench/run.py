"""The repository's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload paper_fig4 --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the configurations of
the workload are timed with no instrumentation, round after round, for
``--seconds`` seconds (and at least enough rounds for 40 samples), and
the end-to-end metrics are printed.  With ``--trace 1`` the set is timed
for one round and then run once more under the stdlib profiler, and the
per-layer metrics are printed.  Every run checks every
configuration's committed outputs; the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a repository checkout")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import workloads as wl  # noqa: E402

#: A seed no tuning used; a later claim must also hold on it.
HELD_OUT_SEED = 9001
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed samples a ``--trace 0`` run collects at least.
MIN_SAMPLES = 40
#: Percentile of ``config_ms_tail``: with >= 40 samples, >= 10 lie beyond it.
TAIL_PERCENTILE = 75


def set_up(workload: str, seed: int, scale: float) -> tuple:
    """Import the program and build every configuration's workload,
    SETUP_REPEATS times; returns the last set and the median time."""
    durations = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        api = wl.load_program()
        configs = wl.generate(workload, seed, scale)
        built = {c.name: wl.build_workload(api, c) for c in configs}
        durations.append(time.perf_counter() - began)
    return api, configs, built, statistics.median(durations)


class Checker:
    """Correctness of every executed configuration.

    A run passes when its committed output regions equal the sequential
    reference, a faulty run's committed memory also equals its
    fault-free twin's, and its digest and counts equal those of the
    first run of the same configuration in this process.
    """

    def __init__(self, api, configs) -> None:
        self.api = api
        self.expected = {}
        self.sequential_s = {}
        self.twins = {}
        self.first = {}
        self.failures = []
        self.attempted = 0
        for config in configs:
            try:
                self._reference(config)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                self.failures.append(f"{config.name}: reference run raised "
                                     f"{type(exc).__name__}: {exc}")

    def _reference(self, config) -> None:
        seconds, outputs = wl.sequential_reference(self.api, config)
        self.sequential_s[config.name] = seconds
        self.expected[config.name] = outputs
        twin = config.fault_free()
        if config.faulty and twin not in self.twins:
            run = wl.execute(self.api, twin, wl.build_workload(self.api, twin))
            self.twins[twin] = None
            if wl.committed_outputs(twin, run) != outputs:
                raise AssertionError("the fault-free twin differs from the "
                                     "sequential reference")
            self.twins[twin] = (run.stats.committed_mtxs,
                                self.api.memory_fingerprint(run.system.commit.master))

    def attempt(self, config, workload, profiler=None):
        """Run ``config`` once; its host seconds, or None if it failed."""
        self.attempted += 1
        gc.collect()  # the previous run's garbage is not this run's cost
        try:
            run = wl.execute(self.api, config, workload, profiler)
            problem = self._judge(config, run)
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
            run, problem = None, f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.failures.append(f"{config.name}: {problem}")
            return None, run
        return run.wall_s, run

    def _judge(self, config, run):
        if config.name not in self.expected:
            return "no sequential reference"
        if run.stats.committed_mtxs != run.workload.iterations:
            return (f"committed {run.stats.committed_mtxs} of "
                    f"{run.workload.iterations} iterations")
        if wl.committed_outputs(config, run) != self.expected[config.name]:
            return "committed outputs differ from the sequential reference"
        if config.faulty and (self.twins.get(config.fault_free()) != (
                run.stats.committed_mtxs,
                self.api.memory_fingerprint(run.system.commit.master))):
            return "committed memory differs from the fault-free twin"
        identity = (wl.digest(self.api, run), wl.counts(run))
        first = self.first.setdefault(config.name, identity)
        if identity != first:
            return "digest or counts differ from this seed's first run"
        return None

    def speedups(self, configs) -> dict:
        """{config name: simulated speedup over the sequential run}."""
        return {c.name: self.sequential_s[c.name]
                / self.first_counts(c)["sim.elapsed_s"]
                for c in configs if c.name in self.first}

    def first_counts(self, config) -> dict:
        return self.first[config.name][1]

    def print_digests(self, configs) -> None:
        """Each configuration's ``run_digest`` and a hash of its counts,
        then a hash of them all."""
        lines = []
        for c in configs:
            if c.name in self.first:
                run_digest, counts = self.first[c.name]
                counted = json.dumps(counts, sort_keys=True).encode()
                lines.append(f"{c.name} {run_digest} counts "
                             f"{hashlib.sha256(counted).hexdigest()[:16]}")
        for line in lines:
            print(f"info: digest {line}")
        digest_set = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        print(f"info: digest set {digest_set[:16]}")


def timed_rounds(checker, configs, built, calibrator, seconds: float,
                 min_samples: int, profiler=None) -> dict:
    """{config name: [reference seconds, ...]}: whole rounds over the
    set until ``seconds`` have passed and ``min_samples`` were taken,
    with the host-speed kernel timed between configurations."""
    samples = {c.name: [] for c in configs}
    began = time.perf_counter()
    taken = 0
    mark = calibrator.measure()
    while taken < min_samples or time.perf_counter() - began < seconds:
        for config in configs:
            wall, _run = checker.attempt(config, built[config.name], profiler)
            after = calibrator.measure()
            if wall is not None:
                samples[config.name].append(calibrator.scaled(wall, mark, after))
            mark = after
            taken += 1
    return samples


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(checker, configs, samples, setup_s: float, factor: float) -> dict:
    """The end-to-end metrics; host times in reference seconds."""
    flat = sorted(s for values in samples.values() for s in values)
    wall = sum(statistics.median(v) for v in samples.values() if v)
    cut = statistics.quantiles(flat, n=100, method="inclusive")
    print(f"info: {len(flat)} timed samples over {len(configs)} configurations; "
          f"config_ms_tail is p{TAIL_PERCENTILE} "
          f"({sum(s > cut[TAIL_PERCENTILE - 1] for s in flat)} samples beyond it); "
          f"host speed factor {factor:.4f}, raw wall about {wall * factor:.3f} s")
    return {
        "wall_s": metric(wall, "s"),
        "config_ms_p50": metric(statistics.median(flat) * 1e3, "ms"),
        "config_ms_tail": metric(cut[TAIL_PERCENTILE - 1] * 1e3, "ms"),
        "setup_s": metric(setup_s / factor, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_speedup_geomean": metric(
            wl.geomean(checker.speedups(configs).values()), "x"),
    }


#: Counts summed over the configuration set (exact, seed-determined).
COUNTS = (
    "sim.events", "cluster.queue_batches", "cluster.queue_bytes",
    "core.committed_mtxs", "core.reads_checked", "core.words_committed",
    "memory.coa_pages_served", "core.recovery.misspeculations",
    "core.recovery.squashed", "core.transport.acks",
    "core.transport.retransmits", "core.integrity.detected",
    "core.integrity.repaired", "core.integrity.scrub_pages",
    "core.standby.repl_words", "core.failure.promotions",
    "paradigms.specfor.rounds", "paradigms.specfor.carried",
    "core.reservations.reservations",
)


def per_layer(checker, configs, samples, traced, profile,
              factor: float) -> dict:
    """The per-layer metrics: profile shares, counts and ratios."""
    wall = sum(statistics.median(v) for v in samples.values() if v)
    totals = {name: 0 for name in COUNTS}
    totals["core.recovery.erm_flq_seq_sim_s"] = 0.0
    totals["core.recovery.lost"] = 0
    for config in configs:
        for name, value in checker.first_counts(config).items():
            if name in totals:
                totals[name] += value
    out = {}
    self_s = layers.fold(profile)
    profiled = sum(self_s.values())
    for layer in layers.LAYERS:
        out[f"self_s.{layer}"] = metric(self_s[layer], "s")
        out[f"self_share.{layer}"] = metric(self_s[layer] / profiled, "fraction")
    out["trace.overhead_x"] = metric(
        sum(sum(v) for v in traced.values()) / wall, "x")
    out["host.speed_factor"] = metric(factor, "x")
    for name in COUNTS:
        out[name] = metric(totals[name], "count")
    out["sim.us_per_event"] = metric(wall * 1e6 / totals["sim.events"], "us")
    out["core.recovery.erm_flq_seq_sim_s"] = metric(
        totals["core.recovery.erm_flq_seq_sim_s"], "s")
    # Useful work over attempted work; 1.0 when the layer wasted nothing.
    committed = totals["core.committed_mtxs"]
    wasted = totals["core.recovery.squashed"] + totals["core.recovery.lost"]
    out["core.recovery.useful_frac"] = metric(committed / (committed + wasted),
                                              "fraction")
    out["paradigms.specfor.useful_frac"] = metric(
        committed / (committed + totals["paradigms.specfor.carried"]), "fraction")
    return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """Set up, check, time and (with ``trace``) profile one workload."""
    api, configs, built, setup_s = set_up(workload, seed, scale)
    checker = Checker(api, configs)
    print(f"info: workload {workload}, seed {seed} (held-out seed "
          f"{HELD_OUT_SEED}), {len(configs)} configurations")
    calibrator = Calibrator()
    if not trace:
        samples = timed_rounds(checker, configs, built, calibrator, seconds,
                               MIN_SAMPLES)
        metrics = end_to_end(checker, configs, samples, setup_s,
                             calibrator.factor)
    else:
        samples = timed_rounds(checker, configs, built, calibrator, 0, 1)
        profile = cProfile.Profile(builtins=False)
        traced = timed_rounds(checker, configs, built, calibrator, 0, 1,
                              profile)
        metrics = per_layer(checker, configs, samples, traced, profile,
                            calibrator.factor)
    if workload == "paper_fig4" and scale >= 1:
        print_paper_gap(checker, configs)
    checker.print_digests(configs)
    for failure in checker.failures:
        print(f"FAILED {failure}")
    return {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }


#: Figure 4(l) geomeans the paper reports at 128 cores.
PAPER_DSMTX_BEST, PAPER_TLS = 49.0, 15.0


def print_paper_gap(checker, configs) -> None:
    """Figure 4(l) at 128 cores against the paper: DSMTX Best takes the
    better of each benchmark's DSMTX and TLS speedups."""
    speedup = checker.speedups(configs)
    tls = [speedup[f"{name}/tls"] for name in wl.TABLE2]
    best = [max(speedup[f"{name}/dsmtx"], speedup[f"{name}/tls"])
            for name in wl.TABLE2]
    best_x, tls_x = wl.geomean(best), wl.geomean(tls)
    print(f"info: Figure 4(l) @128 cores: DSMTX Best {best_x:.1f}x "
          f"(paper {PAPER_DSMTX_BEST:g}x, gap "
          f"{abs(best_x - PAPER_DSMTX_BEST) / PAPER_DSMTX_BEST:.1%}), "
          f"TLS {tls_x:.1f}x (paper {PAPER_TLS:g}x, gap "
          f"{abs(tls_x - PAPER_TLS) / PAPER_TLS:.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
