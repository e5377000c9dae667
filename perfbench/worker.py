#!/usr/bin/env python3
"""One benchmark repetition in a fresh interpreter.

Reads a JSON spec on stdin, imports the library from ``src/``, builds its
inputs (the set-up, timed from the first line of this file), runs one
operation per input and prints one JSON result line.  A fresh interpreter per
repetition, and emptied caches before every operation, keep the library's
module-level caches cold, as every CLI user sees them.
"""

from time import perf_counter

_START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    probe = speed.Probe()
    probe.start()
    spec = json.loads(sys.stdin.read())
    workload = spec["workload"]
    lib = wl.import_library(workload, spec["src"])
    inputs = wl.build_inputs(workload, spec["items"], lib)
    workdir = Path(spec["workdir"])
    cli_items = set(spec["cli_items"]) & set(spec["items"])
    for inp in inputs:
        if inp[0] in cli_items:
            wl.write_cli_graph(workload, inp, workdir)
    setup_s = probe.clock() - _START
    setup_ref_s = probe.ref_s(_START, perf_counter())

    tracer = None
    if spec["trace"]:
        import tracing

        # Installed after the set-up, so spans cover the operations only.
        tracer = tracing.install(lib, probe.clock)

    ops = []
    spans = []
    cli_expect = {}
    if not spec["setup_only"]:
        for inp in inputs:
            wl.reset_library(lib)
            w0, c0 = perf_counter(), probe.clock()
            result = wl.run_op(workload, inp, lib, spec["tiny"])
            c1, w1 = probe.clock(), perf_counter()
            ops.append({"item": inp[0], "latency_s": c1 - c0, "answer": wl.render(workload, inp, result, lib)})
            spans.append((w0, w1))
            if inp[0] in cli_items:
                cli_expect[str(inp[0])] = wl.cli_expectations(workload, inp, result, lib, workdir)
    probe.stop()
    for op, (w0, w1) in zip(ops, spans):
        op["ref_s"] = probe.ref_s(w0, w1)

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "ops": ops,
        "cli_expect": cli_expect,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        # Span times are on the work clock; one factor over the whole traced
        # window brings them, like every other timing, to nominal speed.
        window_ref_s = probe.ref_s(spans[0][0], spans[-1][1]) if spans else speed.reference_s()
        out["trace"] = {**tracer.snapshot(), "scale": speed.at_nominal_speed(1.0, window_ref_s)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
