#!/usr/bin/env python3
"""Write ``pools.json``: the input catalogue of the benchmark.

For the graph workloads every catalogue item runs in the harness's own
workers (fresh interpreters, speed-normalised timing), ``PASSES`` times; the
median time decides the item's cost bin and the answer, which must not vary
between passes, becomes the reference every later run must reproduce.  For
simulate-variance the reference summaries, at full and at self-test size, are
computed in this process.  Run it only when the catalogue itself is meant to
change; a change that claims a speed-up keeps its parent's catalogue.

    python3 perfbench/calibrate.py [--workload NAME ...]

Without ``--workload`` every workload's catalogue is rewritten; with it only
the named ones, and the others are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

CHUNK = 50
PASSES = 3
SIZES = {wl.VALIDATE: 1000, wl.MACRO: 500, wl.SIMULATE: 16}


def calibrate_graph(workload: str, count: int, workdir: Path) -> dict:
    env = run.child_env()
    times: dict[int, list[float]] = {i: [] for i in range(count)}
    digests: dict[int, str] = {}
    for _ in range(PASSES):
        for start in range(0, count, CHUNK):
            spec = {
                "workload": workload,
                "items": list(range(start, min(start + CHUNK, count))),
                "trace": False,
                "cli_items": [],
                "setup_only": False,
                "tiny": False,
                "workdir": str(workdir),
            }
            res = run.run_worker(spec, env)
            if res is None:
                raise SystemExit(f"{workload}: worker failed on items {spec['items']}")
            for op in res["ops"]:
                times[op["item"]].append(speed.at_nominal_speed(op["latency_s"], op["ref_s"]))
                if digests.setdefault(op["item"], op["answer"]["digest"]) != op["answer"]["digest"]:
                    raise SystemExit(f"{workload}: item {op['item']} answers differently between passes")
            print(f"{workload}: items {start}.. done", file=sys.stderr, flush=True)
    return {str(i): {"cost_s": round(statistics.median(times[i]), 6), "digest": digests[i]} for i in range(count)}


def calibrate_simulate(count: int) -> dict:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    lib = wl.import_library(wl.SIMULATE, str(run.SRC))
    out = {}
    for item in range(count):
        inp = wl.build_inputs(wl.SIMULATE, [item], lib)[0]
        full = wl.render(wl.SIMULATE, inp, wl.run_op(wl.SIMULATE, inp, lib), lib)
        tiny = wl.render(wl.SIMULATE, inp, wl.run_op(wl.SIMULATE, inp, lib, tiny=True), lib)
        out[str(item)] = {**full, "tiny": tiny}
        print(f"{wl.SIMULATE}: seed {item} done", file=sys.stderr, flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    chosen = parser.parse_args().workload or list(wl.WORKLOADS)
    pools = wl.load_pools() if wl.POOLS_FILE.exists() else {}
    workdir = HERE / ".work" / f"calibrate-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for w in (wl.VALIDATE, wl.MACRO):
            if w in chosen:
                pools[w] = calibrate_graph(w, SIZES[w], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if wl.SIMULATE in chosen:
        pools[wl.SIMULATE] = calibrate_simulate(SIZES[wl.SIMULATE])
    wl.POOLS_FILE.write_text(json.dumps(pools, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
