#!/usr/bin/env python3
"""scgadjust benchmark.

    python3 perfbench/run.py --workload validate-corpus --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; the library is imported from
``src/`` without installation.  All load comes from this one process, one
child at a time: each pass runs the workload's inputs in fresh worker
interpreters (``worker.py``), then, in an untraced run, a few CLI
subprocesses.  Passes repeat while the next one still fits in ``--seconds``.
Every answer is checked against the catalogue outside the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Human-readable notes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cli_cold_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUPS = 5
CLI_CALLS = 4
IMPORT_PROBES = 3
# Inputs per pass in the self-test's tiny runs.
TINY_ITEMS = 3
# Hang guard, not a time budget: a child still running this long after the
# run started is stopped, so that the run still ends (and prints its result)
# within 180 s.  Far beyond any --seconds the benchmark is run with, it only
# catches hangs; a timed-out operation has no answer and counts as failed, and
# stderr reports it apart from wrong answers.
HANG_GUARD_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SPEED_MARK = "perfbench-speed"
# Runs the CLI as ``python -m scgadjust.cli`` does, with one reference sample
# at the start and one at the exit of the same process; both are reported on
# stderr so that their time comes off the wall time and their mean scales it.
CLI_LAUNCHER = (
    "import atexit, runpy, sys\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "import speed\n"
    "refs = [speed.reference_s()]\n"
    "def report():\n"
    "    refs.append(speed.reference_s())\n"
    f"    print('{SPEED_MARK}', *refs, file=sys.stderr)\n"
    "atexit.register(report)\n"
    "runpy.run_module('scgadjust.cli', run_name='__main__', alter_sys=True)\n"
)
IMPORT_PROBE = (
    "from time import perf_counter as clock\n"
    "t0 = clock()\n"
    "import scgadjust.cli\n"
    "import json, sys\n"
    "print(json.dumps([clock() - t0, 'numpy' in sys.modules]))\n"
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for span in tracing.SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.s", "s", "lower"), (f"{span}.self_s", "s", "lower")]
    out += list(tracing.COUNTS)
    out += [
        ("oracle.accept_ratio", "ratio", "higher"),
        ("oracle.sets_checked", "count", "higher"),
        ("oracle.graphs_tested", "count", "higher"),
        ("oracle.graphs_skipped", "count", "lower"),
        ("oracle.counterexamples", "count", "lower"),
    ]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in tracing.LAYERS + ("harness",)]
    out += [
        ("cli.import_s", "s", "lower"),
        ("cli.numpy_loaded", "bool", "lower"),
        ("trace.work_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.wrapper_s", "s", "lower"),
    ]
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_worker(spec: dict, env: dict, timeout: float | None = None) -> dict | None:
    """Run ``worker.py`` on ``spec`` in a fresh interpreter; None on failure.
    Raises ``subprocess.TimeoutExpired`` when ``timeout`` runs out."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps({"src": str(SRC), **spec}).encode(),
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stderr.decode("utf-8", "replace")[-2000:], file=sys.stderr)
        return None
    return json.loads(lines[-1])


@dataclass
class Pass:
    traced: bool
    full: bool
    ops: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    cli_ms: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0

    @property
    def work_s(self) -> float:
        """Operation time of the pass at the reference's nominal speed."""
        return sum(speed.at_nominal_speed(op["latency_s"], op["ref_s"]) for op in self.ops)


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path, tiny: bool = False):
        self.workload = workload
        self.tiny = tiny
        self.pools = wl.load_pools()
        self.items = wl.select_items(workload, seed, self.pools)
        if tiny and workload != wl.SIMULATE:
            self.items = sorted(self.items, key=lambda i: self.pools[workload][str(i)]["cost_s"])[:TINY_ITEMS]
        self.seed = seed
        self.cli_items = wl.cli_items(workload, seed, self.items, self.pools, CLI_CALLS)
        self.workdir = workdir
        self.env = child_env()
        self.deadline = perf_counter() + HANG_GUARD_S
        self.timeouts = 0

    def time_left(self) -> float:
        return max(0.0, self.deadline - perf_counter())

    def timed_out(self, what: str, n: int) -> None:
        self.timeouts += n
        print(f"hang guard: {what} still running {HANG_GUARD_S} s into the run; stopped", file=sys.stderr)

    def worker(self, items, traced: bool, cli_items, setup_only: bool = False):
        spec = {
            "workload": self.workload,
            "items": items,
            "trace": traced,
            "cli_items": cli_items,
            "setup_only": setup_only,
            "tiny": self.tiny,
            "workdir": str(self.workdir),
        }
        try:
            return run_worker(spec, self.env, self.time_left())
        except subprocess.TimeoutExpired:
            self.timed_out(f"worker on items {items}", len(items))
            return None

    def cost(self, item: int) -> float:
        return self.pools[self.workload][str(item)].get("cost_s", 1.0)

    def repeat_items(self) -> list[int]:
        """Inputs of the repeat passes: all but the TAIL_BEYOND most expensive
        ones.  These few dominate a pass's time but only enter ``work_s``,
        and a single measurement of them is already steady; every input up to
        the tail percentile gets a median over several measurements."""
        ranked = sorted(self.items, key=lambda i: (-self.cost(i), i))
        return ranked[wl.TAIL_BEYOND:] if len(ranked) > wl.TAIL_BEYOND else ranked

    def chunks(self, index: int, items: list[int]) -> list[list[int]]:
        """Worker chunks of pass ``index``.  The order is reshuffled every pass,
        so each input runs after different predecessors in different workers
        and the median over passes averages that context out."""
        order = list(items)
        random.Random(f"{self.workload}:{self.seed}:pass:{index}").shuffle(order)
        return wl.split_chunks(self.workload, order, self.pools)

    def run_pass(self, index: int, traced: bool, with_cli: bool, full: bool = True) -> Pass:
        p = Pass(traced, full)
        cli_expect = {}
        for chunk in self.chunks(index, self.items if full else self.repeat_items()):
            res = self.worker(chunk, traced, self.cli_items if with_cli else [])
            p.attempted += len(chunk)
            if res is None:
                p.failed += len(chunk)
                continue
            p.setups.append(speed.at_nominal_speed(res["setup_s"], res["setup_ref_s"]))
            p.rss.append(res["peak_rss_mb"])
            cli_expect.update(res["cli_expect"])
            if traced:
                p.traces.append((res["trace"], sum(op["latency_s"] for op in res["ops"])))
            for op in res["ops"]:
                if not wl.answer_matches(
                    self.workload, op["answer"], self.pools[self.workload][str(op["item"])], self.tiny
                ):
                    print(f"wrong answer for item {op['item']}", file=sys.stderr)
                    p.failed += 1
                p.ops.append(op)
        if with_cli:
            for position, item in enumerate(self.cli_items):
                p.attempted += 1
                ms, ok = self.cli_call(position, item, cli_expect.get(str(item)))
                if ms is not None:
                    p.cli_ms.append(ms)
                if not ok:
                    p.failed += 1
        return p

    def cli_call(self, position: int, item: int, expect: dict | None) -> tuple[float | None, bool]:
        kind = wl.cli_kind(self.workload, position)
        if expect is None:
            print(f"no CLI expectation for item {item}", file=sys.stderr)
            return None, False
        argv = expect[kind]["argv"]
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", CLI_LAUNCHER, str(HERE), *argv],
                capture_output=True,
                env=self.env,
                cwd=ROOT,
                timeout=self.time_left(),
            )
        except subprocess.TimeoutExpired:
            self.timed_out(f"CLI {kind} on item {item}", 1)
            return None, False
        wall_s = perf_counter() - t0
        marks = [line.split() for line in proc.stderr.decode("utf-8", "replace").splitlines()]
        refs = [float(x) for m in marks if m[:1] == [SPEED_MARK] for x in m[1:]]
        if len(refs) != 2:
            print(f"CLI {kind} on item {item} reported no reference samples", file=sys.stderr)
            return None, False
        ms = speed.at_nominal_speed((wall_s - sum(refs)) * 1000.0, sum(refs) / 2)
        stdout = proc.stdout.decode("utf-8", "replace")
        ok = wl.cli_matches(kind, expect[kind], proc.returncode, stdout)
        if not ok:
            print(f"CLI {kind} on item {item} disagrees: exit {proc.returncode}", file=sys.stderr)
        return ms, ok

    def setup_only(self) -> float | None:
        res = self.worker(self.chunks(0, self.items)[0], False, [], setup_only=True)
        return None if res is None else speed.at_nominal_speed(res["setup_s"], res["setup_ref_s"])

    def import_probe(self) -> tuple[float, bool] | None:
        try:
            proc = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], capture_output=True, env=self.env, cwd=ROOT, timeout=self.time_left()
            )
        except subprocess.TimeoutExpired:
            self.timed_out("CLI import probe", 0)
            return None
        if proc.returncode != 0:
            return None
        seconds, numpy_loaded = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        return seconds, numpy_loaded


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it;
    the maximum when there are too few samples."""
    s = sorted(latencies)
    if len(s) > wl.TAIL_BEYOND:
        idx = len(s) - wl.TAIL_BEYOND - 1
        return s[idx], f"p{100.0 * (idx + 1) / len(s):.1f} of {len(s)}"
    return s[-1], f"max of {len(s)}"


def end_to_end(bench: Bench, passes: list[Pass], setups: list[float]) -> dict:
    per_item: dict[int, list[float]] = {}
    for p in passes:
        for op in p.ops:
            per_item.setdefault(op["item"], []).append(speed.at_nominal_speed(op["latency_s"], op["ref_s"]))
    latencies = [statistics.median(v) for v in per_item.values()]
    tail_s, tail_label = tail(latencies)
    cli_ms = [ms for p in passes for ms in p.cli_ms]
    rss = [r for p in passes if p.full for r in p.rss]
    values = {
        "setup_s": statistics.median(setups),
        "work_s": sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        # Without a timed CLI call or a full pass the run has failed anyway.
        "cli_cold_ms": statistics.median(cli_ms) if cli_ms else 0.0,
        "peak_rss_mb": max(rss, default=0.0),
    }
    print(
        f"{bench.workload}: {len(latencies)} inputs; {sum(p.full for p in passes)} full and "
        f"{sum(not p.full for p in passes)} repeat passes; "
        f"tail = {tail_label}; {len(latencies) / values['work_s']:.2f} ops/s; "
        f"{len(setups)} set-ups; {len(cli_ms)} CLI calls",
        file=sys.stderr,
    )
    units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}


def merge_traces(traces: list[dict]) -> dict:
    """Sum the workers' traces, each scaled to nominal speed."""
    stats = {name: [0, 0.0, 0.0] for name in tracing.SPANS}
    counts = {name: 0 for name, _, _ in tracing.COUNTS}
    top = 0.0
    wrapper = 0.0
    for t in traces:
        k = t["scale"]
        for name, (calls, total, own) in t["stats"].items():
            st = stats[name]
            st[0] += calls
            st[1] += total * k
            st[2] += own * k
        for name, n in t["counts"].items():
            counts[name] += n
        top += t["top_level_s"] * k
        wrapper += t["wrapper_s"] * k * sum(calls for calls, _, _ in t["stats"].values())
    return {"stats": stats, "counts": counts, "top_level_s": top, "wrapper_s": wrapper}


def layer_values(p: Pass) -> dict:
    merged = merge_traces([t for t, _ in p.traces])
    values = {}
    for name, (calls, total, own) in merged["stats"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = own
    values.update(merged["counts"])
    answers = [op["answer"] for op in p.ops]
    for key in ("sets_checked", "graphs_tested", "graphs_skipped", "counterexamples"):
        values[f"oracle.{key}"] = sum(a.get(key, 0) for a in answers)
    candidates = values["oracle.candidates"]
    values["oracle.accept_ratio"] = (
        values["identify.scg_backdoor_check.accepted"] / candidates if candidates else 0.0
    )
    for layer in tracing.LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            values[f"{span}.self_s"] for span in tracing.SPANS if span.startswith(layer + ".")
        )
    op_s = sum(t["scale"] * latency_s for t, latency_s in p.traces)
    values["layer.harness.self_s"] = op_s - merged["top_level_s"]
    values["trace.wrapper_s"] = merged["wrapper_s"]
    return values


def per_layer(bench: Bench, passes: list[Pass]) -> dict:
    traced = [layer_values(p) for p in passes if p.traced]
    untraced_work = statistics.median(p.work_s for p in passes if not p.traced)
    values = {name: statistics.median(v[name] for v in traced) for name in traced[0]}
    values["trace.work_s"] = statistics.median(p.work_s for p in passes if p.traced)
    values["trace.overhead_s"] = values["trace.work_s"] - untraced_work
    probes = [r for r in (bench.import_probe() for _ in range(IMPORT_PROBES)) if r is not None]
    values["cli.import_s"] = statistics.median(r[0] for r in probes) if probes else 0.0
    values["cli.numpy_loaded"] = int(any(r[1] for r in probes))

    layers = tracing.LAYERS + ("harness",)
    total = sum(values[f"layer.{layer}.self_s"] for layer in layers) or 1.0
    shares = sorted(((values[f"layer.{layer}.self_s"] / total, layer) for layer in layers), reverse=True)
    top_spans = sorted(((values[f"{s}.self_s"] / total, s) for s in tracing.SPANS), reverse=True)[:3]
    print(
        f"{bench.workload}: dominant self time in layer {shares[0][1]} ({100 * shares[0][0]:.1f}%); "
        + ", ".join(f"{name} {100 * share:.1f}%" for share, name in top_spans)
        + f"; tracing overhead {values['trace.overhead_s']:+.3f}s on {untraced_work:.3f}s, "
        f"of it {values['trace.wrapper_s']:.3f}s estimated wrapper time charged to no span",
        file=sys.stderr,
    )
    metrics = {}
    for name, unit, _ in per_layer_metrics():
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> dict:
    bench = Bench(workload, seed, workdir, tiny)
    start = perf_counter()
    passes: list[Pass] = []
    # A traced run alternates full untraced and traced passes; an untraced
    # run makes one full pass, then repeat passes while the next one fits.
    repeat = bench.repeat_items()
    repeat_share = sum(map(bench.cost, repeat)) / sum(map(bench.cost, bench.items))
    last_s: dict[bool, float] = {}
    while True:
        full = trace or not passes or len(repeat) == len(bench.items)
        t0 = perf_counter()
        passes.append(
            bench.run_pass(len(passes), traced=trace and len(passes) % 2 == 1, with_cli=not trace, full=full)
        )
        last_s[full] = perf_counter() - t0
        next_full = trace or len(repeat) == len(bench.items)
        next_s = last_s.get(next_full, last_s[True] * repeat_share)
        both_kinds = not trace or len(passes) >= 2
        if both_kinds and perf_counter() - start + next_s > seconds:
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if bench.timeouts:
        print(f"{workload}: {bench.timeouts} operations stopped by the hang guard (counted as failed)", file=sys.stderr)
    counterexamples = sum(op["answer"].get("counterexamples", 0) for op in passes[0].ops)
    if workload == wl.VALIDATE:
        print(f"{workload}: {counterexamples} counterexamples (reported, not failures)", file=sys.stderr)
    usable = [p for p in passes if p.ops]
    metrics: dict = {}
    if trace:
        if any(p.traced for p in usable) and any(not p.traced for p in usable):
            metrics = per_layer(bench, usable)
    elif usable:
        setups = [s for p in usable for s in p.setups]
        while len(setups) < MIN_SETUPS:
            s = bench.setup_only()
            attempted += 1
            if s is None:
                failed += 1
                break
            setups.append(s)
        metrics = end_to_end(bench, usable, setups)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scgadjust" / "__init__.py").is_file():
        print(f"error: no scgadjust sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
