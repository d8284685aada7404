"""The benchmark's own smoke check: a reduced-size pass of every workload.

    python3 perfbench/smoke.py

Runs each workload of ``BENCHMARK.json`` on shrunken inputs, untraced and
traced, and fails unless every configuration is correct and every metric
``BENCHMARK.json`` names is emitted with its unit, a direction and a
finite value.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SCALE = 0.1


def check(result: dict, declared: list, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']} of "
                             f"{result['attempted']} configurations failed")
    names = {m["name"]: m for m in declared}
    emitted = result["metrics"]
    if set(emitted) != set(names):
        raise AssertionError(
            f"{label}: missing {sorted(set(names) - set(emitted))}, "
            f"undeclared {sorted(set(emitted) - set(names))}")
    for name, spec in names.items():
        value = emitted[name]
        if value["unit"] != spec["unit"] or spec["better"] not in ("lower", "higher"):
            raise AssertionError(f"{label}: {name} is {value}, declared {spec}")
        if not isinstance(value["value"], (int, float)) or not math.isfinite(value["value"]):
            raise AssertionError(f"{label}: {name} = {value['value']!r}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench.run(workload, seed=1, seconds=0, trace=trace,
                               scale=SCALE)
            json.dumps(result)
            check(result, spec[key], f"{workload} --trace {int(trace)}")
            print(f"smoke: {workload} --trace {int(trace)} ok "
                  f"({result['attempted']} runs)", flush=True)
    print("smoke: every workload correct, every declared metric emitted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
