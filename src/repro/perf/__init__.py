"""Wall-clock performance harness.

Every other number in this reproduction is *simulated* time; this
package measures the one thing the simulator cannot see about itself —
how fast the pure-Python DES hot path executes on the host.  See
``docs/PERFORMANCE.md`` and the ``repro perf`` CLI subcommand.
"""

from repro.perf.harness import (
    BENCH_JSON_NAME,
    MATRIX,
    NON_SIMULATOR_ENTRIES,
    BenchResult,
    cmd_perf,
    render_comparison,
    run_matrix,
)

__all__ = [
    "BENCH_JSON_NAME",
    "MATRIX",
    "NON_SIMULATOR_ENTRIES",
    "BenchResult",
    "cmd_perf",
    "render_comparison",
    "run_matrix",
]
