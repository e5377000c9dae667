"""Inputs, operations and answers of the three benchmark workloads.

The parent process (``run.py``) only selects inputs; it never imports the
library.  Each worker imports the library inside its own timed set-up, builds
the inputs it was handed, runs one operation per input and renders the answer
outside the timed region.

Inputs come from ``pools.json``, a catalogue of generator seeds written by
``calibrate.py`` together with each item's reference answer and its cost at
the commit that calibrated it.  A run draws a stratified sample from the
catalogue: the items, ordered by cost, are cut into strata of at most
``STRATUM_SIZE`` neighbours whose costs lie within ``STRATUM_RATIO`` of each
other, and the seed picks one item of each stratum.  Every seed therefore gets
the same mix of cheap and expensive inputs, and the k-th most expensive input
of a run always comes from the same stratum, which keeps the end-to-end
figures (sum, median and tail) steady across seeds while still changing the
graphs themselves; random corpora of the same size vary several-fold in cost
from seed to seed.  The ``TAIL_BEYOND + 1`` most expensive strata, the inputs
beyond the tail percentile and the one at it, always give their most
expensive item: these few inputs make most of ``work_s`` and the peak memory
(a pick among items of similar cost but different memory use would move
``peak_rss_mb`` by a fifth), and the tail would jump between the members of
its stratum.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOLS_FILE = HERE / "pools.json"

VALIDATE = "validate-corpus"
MACRO = "macro-queries"
SIMULATE = "simulate-variance"
WORKLOADS = (VALIDATE, MACRO, SIMULATE)

# The tail percentile of a run is the highest one with this many inputs
# beyond it.
TAIL_BEYOND = 10
# Largest number of items in a stratum, and the largest ratio between the
# costs of two items in one stratum; a run takes one item of each stratum.
STRATUM_SIZE = {VALIDATE: 7, MACRO: 5}
STRATUM_RATIO = {VALIDATE: 1.2, MACRO: 1.2}
# Worker processes per pass; each one is a fresh interpreter with cold caches.
CHUNKS = {VALIDATE: 6, MACRO: 2, SIMULATE: 1}

# Node count of a query by item number.  Seven nodes take two of the five
# slots, so that the median query falls inside the 7-node cost range instead
# of on the gap between the 6- and 7-node ranges, where it would jump between
# them from run to run.
MACRO_NODE_COUNTS = (5, 6, 7, 7, 8)
MACRO_RANDOM_CANDIDATES = 4

# Acceptance setting of the variance experiment.
SIM_N = 10_000
SIM_REPS = 200
SIM_BLOCKS = 5
SIM_SETS = ("qopt", "a1", "a2")
# The CLI check of simulate-variance runs the same experiment at this size.
SIM_CLI_ARGS = {"n": 500, "reps": 10, "blocks": 5}
# Numbers of the variance report must match the reference to this relative
# tolerance, so an equivalent least-squares solve is not counted as a failure.
SIM_RTOL = 1e-6


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pools() -> dict:
    return json.loads(POOLS_FILE.read_text(encoding="utf-8"))


def select_items(workload: str, seed: int, pools: dict) -> list[int]:
    """The inputs of one run: a cost-stratified sample of the catalogue."""
    catalogue = pools[workload]
    if workload == SIMULATE:
        seeds = sorted(int(key) for key in catalogue)
        return [seeds[seed % len(seeds)]]
    rng = random.Random(f"{workload}:{seed}")
    cut = strata(workload, catalogue)
    fixed = [int(stratum[0]) for stratum in cut[: TAIL_BEYOND + 1]]
    return fixed + [int(rng.choice(stratum)) for stratum in cut[TAIL_BEYOND + 1 :]]


def strata(workload: str, catalogue: dict) -> list[list[str]]:
    """Catalogue keys cut into cost strata, the most expensive first."""
    size, ratio = STRATUM_SIZE[workload], STRATUM_RATIO[workload]
    out: list[list[str]] = []
    for key in sorted(catalogue, key=lambda k: (-catalogue[k]["cost_s"], int(k))):
        top = out[-1][0] if out else None
        if top is None or len(out[-1]) == size or catalogue[top]["cost_s"] > ratio * catalogue[key]["cost_s"]:
            out.append([])
        out[-1].append(key)
    return out


def split_chunks(workload: str, items: list[int], pools: dict) -> list[list[int]]:
    """Contiguous chunks of roughly equal calibrated cost."""
    n = CHUNKS[workload]
    costs = [pools[workload][str(i)].get("cost_s", 1.0) for i in items]
    total = sum(costs)
    chunks: list[list[int]] = [[] for _ in range(n)]
    acc = 0.0
    for item, cost in zip(items, costs):
        k = min(n - 1, int(n * acc / total)) if total else 0
        chunks[k].append(item)
        acc += cost
    return [c for c in chunks if c]


def cli_items(workload: str, seed: int, items: list[int], pools: dict, count: int) -> list[int]:
    """Cheap inputs of this run for the CLI cold-start calls, so that their
    wall time is mostly interpreter start, imports and argument handling."""
    if workload == SIMULATE:
        return items[:1] * count
    catalogue = pools[workload]
    cheap = sorted(items, key=lambda i: (catalogue[str(i)]["cost_s"], i))
    if workload == MACRO:
        cheap = [i for i in cheap if macro_node_count(i) <= 6] or cheap
    pick = cheap[: count * 3]
    rng = random.Random(f"{workload}:cli:{seed}")
    return [rng.choice(pick) for _ in range(count)]


def import_library(workload: str, src: str) -> dict:
    """Import the modules a workload uses; ``simulate`` is the only one that
    needs numpy."""
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ["graph", "unroll", "identify", "oracle"]
    if workload == SIMULATE:
        names.append("simulate")
    return {name: importlib.import_module(f"scgadjust.{name}") for name in names}


def reset_library(lib: dict) -> None:
    """Empty the library's module-level caches (``lru_cache`` functions and
    ``*_CACHE`` dicts) and collect garbage, so that each operation starts from
    the state a fresh interpreter gives it.  Inputs never share cache entries,
    but what one operation leaves in the caches would otherwise slow the
    garbage collector during the next one."""
    for module in lib.values():
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif name.endswith("_CACHE") and isinstance(value, dict):
                value.clear()
    gc.collect()


# --------------------------------------------------------------------------
# macro-queries inputs


def macro_node_count(item: int) -> int:
    return MACRO_NODE_COUNTS[item % len(MACRO_NODE_COUNTS)]


def macro_input(item: int, oracle) -> tuple:
    """One interactive query: a random cyclic SCG drawn by the library's own
    corpus generator at its default density, gamma in {0, 1}, and random
    in-window candidates as plain [series, offset] pairs."""
    n = macro_node_count(item)
    g = oracle.random_scg(oracle.CorpusConfig(node_count_range=(n, n), seed=item), 0)
    rng = random.Random(f"{MACRO}:{item}")
    gamma = rng.randint(0, 1)
    window = [[v, s] for s in range(-(gamma + 1), 1) for v in g.nodes]
    candidates = [rng.sample(window, rng.randint(1, 4)) for _ in range(MACRO_RANDOM_CANDIDATES)]
    return g, gamma, candidates


def persistence_chain(graph):
    return graph.validate_scg(["X", "Y", "W"], [("W", "X"), ("X", "Y"), ("W", "W"), ("X", "X")])


# --------------------------------------------------------------------------
# inputs, operations and answers


def build_inputs(workload: str, items: list[int], lib: dict) -> list[tuple]:
    if workload == VALIDATE:
        oracle = lib["oracle"]
        return [(item, oracle.CorpusConfig(n_graphs=1, seed=item)) for item in items]
    unroll, identify = lib["unroll"], lib["identify"]
    if workload == MACRO:
        out = []
        for item in items:
            g, gamma, candidates = macro_input(item, lib["oracle"])
            q = unroll.MicroQuery("X", "Y", gamma, 1)
            out.append((item, g, q, [identify.adjustment_set_from_obj(c) for c in candidates]))
        return out
    g = persistence_chain(lib["graph"])
    q = unroll.MicroQuery("X", "Y", 1, 1)
    named = identify.canonical_sets(g, q)
    sets = {name: named[name] for name in SIM_SETS}
    return [(item, g, q, sets) for item in items]


def run_op(workload: str, inp: tuple, lib: dict, tiny: bool = False):
    """The timed operation; returns whatever ``render`` needs.  ``tiny`` runs
    the variance experiment at the CLI-check size, for the self-test."""
    if workload == VALIDATE:
        oracle, identify = lib["oracle"], lib["identify"]
        # The checker is passed explicitly so that a traced run sees it.
        return oracle.soundness_experiment(inp[1], checker=identify.scg_backdoor_check)
    if workload == MACRO:
        return macro_query(lib["identify"], *inp[1:])
    simulate = lib["simulate"]
    _, g, q, sets = inp
    size = SIM_CLI_ARGS if tiny else {"n": SIM_N, "reps": SIM_REPS, "blocks": SIM_BLOCKS}
    return simulate.variance_experiment(g, q, sets, seed=inp[0], **size)


def macro_query(identify, g, q, cands) -> dict:
    """Verdict, canonical sets, qopt, then the criterion on the in-window
    canonical sets and the random candidates."""
    out: dict = {"verdict": identify.identify(g, q)}
    try:
        sets = identify.canonical_sets(g, q)
        out["sets"] = sets
    except identify.NotIdentifiableError as exc:
        sets = {}
        out["sets"] = str(exc)
    try:
        out["qopt"] = identify.qopt(g, q)
    except identify.NotIdentifiableError as exc:
        out["qopt"] = str(exc)
    in_window = [
        z for _, z in sorted(sets.items()) if all(tv.offset >= q.window_floor for tv in z)
    ]
    out["checks"] = [identify.scg_backdoor_check(g, q, z) for z in in_window + cands]
    return out


def render(workload: str, inp: tuple, result, lib: dict) -> dict:
    """Answer of one operation, as compared with the catalogue: a digest of
    the graph-side output, or the variance summary."""
    if workload == VALIDATE:
        return {
            "digest": digest(result.to_json()),
            "counterexamples": len(result.counterexamples),
            "sets_checked": result.sets_checked,
            "graphs_tested": result.graphs_tested,
            "graphs_skipped": result.graphs_skipped_over_cap,
        }
    if workload == MACRO:
        identify = lib["identify"]
        g = inp[1]
        text = json.dumps(
            {
                "verdict": [result["verdict"].kind.value, result["verdict"].witness_dict()],
                "sets": result["sets"]
                if isinstance(result["sets"], str)
                else {k: identify.adjustment_set_to_obj(g, z) for k, z in sorted(result["sets"].items())},
                "qopt": result["qopt"]
                if isinstance(result["qopt"], str)
                else identify.adjustment_set_to_obj(g, result["qopt"]),
                "checks": [r.to_obj(g) for r in result["checks"]],
            },
            sort_keys=True,
        )
        return {"digest": digest(text)}
    return variance_summary(result)


def variance_summary(report: dict) -> dict:
    return {
        "variance_rank": report["variance_rank"],
        "per_set": {
            name: {k: stats[k] for k in ("mean", "bias", "bias_se", "variance", "block_variances")}
            for name, stats in report["per_set"].items()
        },
    }


def close_enough(a, b, rtol: float) -> bool:
    """Structural equality with floats compared to a relative tolerance."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, (int, float)) and isinstance(b, (int, float)) and math.isclose(
            a, b, rel_tol=rtol, abs_tol=0.0
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close_enough(a[k], b[k], rtol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close_enough(x, y, rtol) for x, y in zip(a, b))
    return a == b


def answer_matches(workload: str, answer: dict, reference: dict, tiny: bool = False) -> bool:
    if workload == SIMULATE:
        if tiny:
            reference = reference["tiny"]
        return answer["variance_rank"] == reference["variance_rank"] and close_enough(
            answer["per_set"], reference["per_set"], SIM_RTOL
        )
    return answer["digest"] == reference["digest"]


# --------------------------------------------------------------------------
# CLI cold-start calls


def cli_kind(workload: str, position: int) -> str:
    if workload == MACRO:
        return ("identify", "check")[position % 2]
    return "validate" if workload == VALIDATE else "simulate"


def write_cli_graph(workload: str, inp: tuple, workdir: Path) -> None:
    """Set-up step of the worker: the graph file a CLI call reads."""
    if workload == VALIDATE:
        return
    g = inp[1]
    path = cli_graph_path(workload, inp[0], workdir)
    path.write_text(json.dumps({"nodes": list(g.nodes), "edges": sorted(g.edges)}), encoding="utf-8")


def cli_graph_path(workload: str, item: int, workdir: Path) -> Path:
    return workdir / f"{workload}-{item}.json"


def cli_expectations(workload: str, inp: tuple, result, lib: dict, workdir: Path) -> dict:
    """Per CLI kind, the argv of the call on this input and what it must print
    and return, computed in process from the operation's own result (outside
    the timed region)."""
    item = inp[0]
    if workload == VALIDATE:
        ok = result.sound and not result.padding_instabilities
        return {
            "validate": {
                "argv": ["validate", "--n-graphs", "1", "--seed", str(item), "--format", "csv"],
                "exit": 0 if ok else 1,
                "stdout_digest": digest(result.to_csv()),
            }
        }
    graph = str(cli_graph_path(workload, item, workdir))
    if workload == MACRO:
        identify = lib["identify"]
        _, g, q, cands = inp
        verdict = result["verdict"]
        check = result["checks"][-MACRO_RANDOM_CANDIDATES]
        argv = ["--graph", graph, "--treatment", "X", "--outcome", "Y", "--gamma", str(q.gamma)]
        z = json.dumps(identify.adjustment_set_to_obj(g, cands[0]))
        return {
            "identify": {
                "argv": ["identify", *argv],
                "exit": 0 if verdict.identifiable else 2,
                "json": _json_round_trip({"verdict": verdict.kind.value, "witness": verdict.witness_dict()}),
            },
            "check": {
                "argv": ["check", *argv, "--set", z],
                "exit": 0 if check.satisfied else 3,
                "json": _json_round_trip(check.to_obj(g)),
            },
        }
    simulate = lib["simulate"]
    _, g, q, sets = inp
    small = simulate.variance_experiment(g, q, sets, seed=item, **SIM_CLI_ARGS)
    size = [f"--{k}={v}" for k, v in SIM_CLI_ARGS.items()]
    argv = ["simulate", "--graph", graph, "--treatment", "X", "--outcome", "Y", "--gamma", "1", *size]
    return {"simulate": {"argv": [*argv, "--seed", str(item)], "exit": 0, "summary": variance_summary(small)}}


def _json_round_trip(obj):
    return json.loads(json.dumps(obj))


def cli_matches(kind: str, expect: dict, returncode: int, stdout: str) -> bool:
    if returncode != expect["exit"]:
        return False
    if kind == "validate":
        return digest(stdout) == expect["stdout_digest"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if kind == "simulate":
        summary = variance_summary(payload)
        return summary["variance_rank"] == expect["summary"]["variance_rank"] and close_enough(
            summary["per_set"], expect["summary"]["per_set"], SIM_RTOL
        )
    if kind == "check":
        payload.pop("estimand", None)
    return payload == expect["json"]
