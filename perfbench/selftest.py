#!/usr/bin/env python3
"""Fast self-test of the benchmark harness at tiny sizes.

For every workload it makes one untraced and two traced tiny runs and checks
that each run is correct, that every metric named in ``BENCHMARK.json`` is
emitted, and that the exact work counts of the two traced runs are equal.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1
EXACT_UNITS = ("count", "ratio", "bool")


def tiny_run(workload: str, trace: bool) -> dict:
    workdir = HERE / ".work" / f"selftest-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run.measure(workload, SEED, 0.0, trace, workdir, tiny=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != {name for name, _ in run.END_TO_END}:
        problems.append("end_to_end metrics in BENCHMARK.json differ from run.END_TO_END")
    if per_layer != {name: unit for name, unit, _ in run.per_layer_metrics()}:
        problems.append("per_layer metrics in BENCHMARK.json differ from run.per_layer_metrics()")
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")

    for workload in wl.WORKLOADS:
        plain = tiny_run(workload, trace=False)
        traced = [tiny_run(workload, trace=True) for _ in range(2)]
        for label, result in [("untraced", plain), ("traced", traced[0]), ("traced", traced[1])]:
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} {label}: correct={result['correct']} failed={result['failed']}")
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{workload}: untraced run emits {sorted(plain['metrics'])}")
        for result in traced:
            if set(result["metrics"]) != set(per_layer):
                problems.append(f"{workload}: traced run misses {sorted(set(per_layer) - set(result['metrics']))}")
        for name, unit in per_layer.items():
            if unit in EXACT_UNITS or name.endswith(".calls"):
                a, b = (r["metrics"].get(name, {}).get("value") for r in traced)
                if a != b:
                    problems.append(f"{workload}: {name} differs between runs ({a} vs {b})")
        print(f"{workload}: checked", file=sys.stderr)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
