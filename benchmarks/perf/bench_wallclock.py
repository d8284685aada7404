"""Wall-clock harness entry point (see README.md in this directory).

As a script this is equivalent to ``python -m repro perf`` (full
matrix, writes ``BENCH_sim.json`` at the repo root).  Under pytest it
runs the smoke matrix once and validates the result records without
touching ``BENCH_sim.json`` — a fast check that the harness itself
works, not a performance assertion.
"""

from __future__ import annotations

import pathlib
import sys

from repro.perf import MATRIX, NON_SIMULATOR_ENTRIES, run_matrix

_RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def test_wallclock_smoke():
    results = run_matrix(smoke=True, repeats=1)
    assert [r.name for r in results] == list(MATRIX)
    for result in results:
        assert result.events > 0
        assert result.wall_seconds > 0
        if result.name in NON_SIMULATOR_ENTRIES:
            assert result.sim_seconds == 0
        else:
            assert result.sim_seconds > 0
        assert result.events_per_sec > 0
    report = "\n".join(
        f"{r.name:24s} {r.events:>9d} events  {r.wall_seconds:.4f} s"
        for r in results
    )
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / "perf_wallclock_smoke.txt").write_text(report + "\n")


if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["perf", *sys.argv[1:]]))
