"""Fold a stdlib profile of the program into per-layer self time.

Each function's self time goes to the layer named by its module under
``src/repro``: the longest entry of :data:`LAYERS` that prefixes the
module's dotted name (``core.worker`` -> ``core.worker``,
``memory.page`` -> ``memory``), or ``other`` for program modules no
layer names (``core.runtime``, ``core.messages``, ``paradigms.plan``,
``cluster.spec``, ...).  Functions outside the program -- builtins such
as ``heapq.heappush`` or ``zlib.crc32`` and stdlib Python code -- are
charged to the layers of their callers, split by the self time the
profiler recorded on each call edge, so ``zlib.crc32`` under
``core.integrity`` counts as integrity time.
"""

from __future__ import annotations

import pstats
from collections import defaultdict
from pathlib import PurePath

LAYERS = (
    "sim.engine", "sim.resources",
    "cluster.interconnect", "cluster.mpi", "cluster.channel", "cluster.node",
    "core.worker", "core.queues", "core.endpoint", "core.context",
    "core.try_commit", "core.commit", "core.recovery", "core.transport",
    "core.integrity", "core.standby", "core.failure", "core.reservations",
    "memory", "paradigms.specfor", "workloads", "chaos", "other",
)


def module_layer(filename: str):
    """The layer of a source file, or ``None`` outside the program."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    at = len(parts) - 1 - parts[::-1].index("repro")
    dotted = ".".join(parts[at + 1:]).removesuffix(".py")
    dotted = dotted.removesuffix(".__init__")
    for layer in sorted(LAYERS, key=len, reverse=True):
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    return "other"


def fold(profile) -> dict:
    """{layer: self seconds} for a ``cProfile.Profile``; every layer is
    present, and the values sum to the profile's total self time."""
    table = pstats.Stats(profile).stats
    shares: dict = {}

    def attribution(func, visiting=frozenset()):
        """{layer: share of func's self time}."""
        if func in shares:
            return shares[func]
        layer = module_layer(func[0])
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = table[func][4]
            weight = sum(edge[2] for edge in callers.values())
            result = defaultdict(float)
            if weight <= 0 or func in visiting:
                result["other"] = 1.0
            else:
                for caller, edge in callers.items():
                    if caller not in table:
                        result["other"] += edge[2] / weight
                        continue
                    for name, share in attribution(caller, visiting | {func}).items():
                        result[name] += share * edge[2] / weight
            result = dict(result)
        if not visiting:
            shares[func] = result
        return result

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, entry in table.items():
        for layer, share in attribution(func).items():
            totals[layer] += entry[2] * share
    profiled = sum(entry[2] for entry in table.values())
    attributed = sum(totals.values())
    if abs(attributed - profiled) > 1e-6 * max(1.0, profiled):
        raise AssertionError(
            f"layer self times sum to {attributed:.6f} s, "
            f"profile total is {profiled:.6f} s")
    return totals
