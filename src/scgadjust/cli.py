"""Command-line front end.

Exit codes: 0 success, 2 effect not identifiable, 3 candidate set rejected,
4 input error, 5 template cap exceeded or out of memory; the soundness
command exits 1 when counterexamples are found or a consistency check
disagrees.  Input errors include a lag past ``unroll.MAX_HORIZON`` and, for
``unroll``, a window with ``hi - lo`` past it or, with ``--densest``, a
``gamma_max`` past it, each refused before any template is built, and an
unrolling of more than ``unroll.MAX_UNROLLED_EDGES`` edges, refused before
any edge is built.  Given identical inputs and seeds every command writes
identical bytes.

The oracle layer is imported only by the commands that use it: ``validate``,
``probe`` and ``unroll --densest``.  numpy is imported only by ``simulate``.
``identify``, ``check``, ``sets``, ``qopt`` and plain ``unroll`` load
neither, so they start faster.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .graph import GraphError, scg_from_json
from .identify import (
    NotIdentifiableError,
    WindowError,
    adjustment_set_from_json,
    adjustment_set_to_obj,
    canonical_sets,
    estimand,
    identify,
    qopt,
    scg_backdoor_check,
)
from .unroll import (
    MAX_HORIZON,
    MAX_UNROLLED_EDGES,
    TEMPLATE_CAP,
    MicroQuery,
    QueryError,
    TemplateCapExceeded,
    TemplateError,
    densest_templates,
    enumerate_compatible_templates,
    unroll,
    unrolled_edge_count,
)

EXIT_OK = 0
EXIT_NOT_IDENTIFIABLE = 2
EXIT_SET_REJECTED = 3
EXIT_INPUT_ERROR = 4
EXIT_OVER_CAP = 5


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_graph(path: str):
    try:
        return scg_from_json(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise GraphError(f"cannot read graph file: {exc}") from exc


def _query(args) -> MicroQuery:
    return MicroQuery(
        treatment=args.treatment,
        outcome=args.outcome,
        gamma=args.gamma,
        gamma_max=args.gamma_max,
    )


def _add_query_flags(
    p: argparse.ArgumentParser, need_query: bool = True, formats: tuple[str, ...] = ("json", "csv")
) -> None:
    p.add_argument("--graph", required=True, help="SCG JSON file")
    if need_query:
        p.add_argument("--treatment", required=True)
        p.add_argument("--outcome", required=True)
        p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--gamma-max", type=int, default=1, dest="gamma_max")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    p.add_argument("--format", choices=formats, default=formats[0])


def cmd_identify(args) -> int:
    g = _load_graph(args.graph)
    q = _query(args)
    verdict = identify(g, q)
    payload = {"verdict": verdict.kind.value, "witness": verdict.witness_dict()}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK if verdict.identifiable else EXIT_NOT_IDENTIFIABLE


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    q = _query(args)
    z = adjustment_set_from_json(args.set)
    report = scg_backdoor_check(g, q, z)
    payload = report.to_obj(g)
    payload["estimand"] = estimand(q, z)
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    if report.satisfied:
        item = report.item or "non-ancestor treatment"
        print(f"accepted under item {item}", file=sys.stderr)
        for caveat in report.caveats:
            print(f"caveat: {caveat}", file=sys.stderr)
        return EXIT_OK
    print("rejected: " + "; ".join(report.violations), file=sys.stderr)
    return EXIT_SET_REJECTED


def cmd_sets(args) -> int:
    g = _load_graph(args.graph)
    q = _query(args)
    named = canonical_sets(g, q)
    payload = {name: adjustment_set_to_obj(g, z) for name, z in sorted(named.items())}
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_qopt(args) -> int:
    g = _load_graph(args.graph)
    q = _query(args)
    z = qopt(g, q)
    payload = {
        "qopt": adjustment_set_to_obj(g, z),
        "estimand": estimand(q, z),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return EXIT_OK


def cmd_unroll(args) -> int:
    g = _load_graph(args.graph)
    # The unrolling lists every slice of the window, and the densest template
    # every lag up to gamma_max, so either is bounded as a query's horizon is.
    if args.hi - args.lo > MAX_HORIZON:
        raise ValueError(f"hi - lo must be <= {MAX_HORIZON}")
    if args.densest and args.gamma_max > MAX_HORIZON:
        raise ValueError(f"gamma_max must be <= {MAX_HORIZON}")
    if args.densest:
        from .oracle import GraphTemplates

        templates = GraphTemplates(g, args.gamma_max, args.template_cap).densest
    else:
        templates = enumerate_compatible_templates(g, args.gamma_max, cap=args.template_cap)
    if not 0 <= args.template_index < len(templates):
        raise GraphError(
            f"template index {args.template_index} out of range (have {len(templates)})"
        )
    tmpl = templates[args.template_index]
    n_edges = unrolled_edge_count(tmpl, args.lo, args.hi)
    if n_edges > MAX_UNROLLED_EDGES:
        raise ValueError(f"the unrolling has {n_edges} edges, more than the bound of {MAX_UNROLLED_EDGES}")
    u = unroll(tmpl, args.lo, args.hi)
    if args.format == "json":
        payload = {
            "template": tmpl.to_obj(),
            "window": [args.lo, args.hi],
            "edges": sorted(u.edges),
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit(u.to_edgelist(), args.out)
    return EXIT_OK


def _corpus_config(args):
    from .oracle import CorpusConfig

    return CorpusConfig(
        n_graphs=args.n_graphs,
        node_count_range=(args.min_nodes, args.max_nodes),
        edge_probability=args.edge_probability,
        allow_cycles=not args.acyclic,
        gamma_max=args.gamma_max,
        template_cap=args.template_cap,
        seed=args.seed,
        max_subset_size=args.max_subset_size,
    )


def cmd_validate(args) -> int:
    from .oracle import soundness_experiment

    report = soundness_experiment(_corpus_config(args))
    text = report.to_csv() if args.format == "csv" else report.to_json()
    _emit(text, args.out)
    if report.condition_c_form_mismatches:
        print(f"{report.condition_c_form_mismatches} condition-C form mismatches", file=sys.stderr)
    if report.padding_instabilities:
        print(f"{report.padding_instabilities} unstable blocking verdicts", file=sys.stderr)
    consistent = not report.condition_c_form_mismatches and not report.padding_instabilities
    return EXIT_OK if report.sound and consistent else 1


def cmd_probe(args) -> int:
    from .oracle import completeness_probe, probe_graph

    if args.graph:
        g = _load_graph(args.graph)
        q = _query(args)
        found = probe_graph(g, q, args.max_subset_size, cap=args.template_cap)
        payload = {
            "n_found": len(found),
            "sets": [adjustment_set_to_obj(g, z) for z in found],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        report = completeness_probe(_corpus_config(args))
        _emit(report.to_json(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    # numpy is loaded here only, so the graph-only commands start faster.
    # Before it loads: one BLAS thread unless the user set a count, since the
    # experiment already runs one dataset per CPU.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .simulate import BURN_IN, dataset_to_csv, generate, sample_linear_model, variance_experiment

    g = _load_graph(args.graph)
    q = _query(args)
    named = canonical_sets(g, q)
    wanted = [s.strip() for s in args.sets.split(",") if s.strip()]
    missing = [name for name in wanted if name not in named]
    if missing:
        raise GraphError(f"unknown set names {missing}; available: {sorted(named)}")
    report = variance_experiment(
        g,
        q,
        {name: named[name] for name in wanted},
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        blocks=args.blocks,
    )
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    if args.dump_data:
        tmpl = densest_templates(g, q.gamma_max)[0]
        model = sample_linear_model(tmpl, seed=args.seed)
        data = generate(model, args.n, q.gamma + q.gamma_max + 1, BURN_IN, args.seed)
        Path(args.dump_data).write_text(dataset_to_csv(data), encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scgadjust",
        description="Identifiability and adjustment sets for micro effects in summary causal graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="classify a micro query")
    _add_query_flags(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("check", help="test a candidate adjustment set")
    _add_query_flags(p)
    p.add_argument("--set", required=True, help='JSON list like [["W",-1],["X",-2]]')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sets", help="emit the canonical adjustment sets")
    _add_query_flags(p)
    p.set_defaults(func=cmd_sets)

    p = sub.add_parser("qopt", help="emit the quasi-optimal adjustment set")
    _add_query_flags(p)
    p.set_defaults(func=cmd_qopt)

    p = sub.add_parser("unroll", help="unroll one compatible template over a window")
    _add_query_flags(p, need_query=False, formats=("edgelist", "json"))
    p.add_argument("--lo", type=int, default=-2)
    p.add_argument("--hi", type=int, default=0)
    p.add_argument("--template-index", type=int, default=0, dest="template_index")
    p.add_argument("--densest", action="store_true", help="index into the densest templates")
    p.add_argument("--template-cap", type=int, default=TEMPLATE_CAP, dest="template_cap")
    p.set_defaults(func=cmd_unroll)

    def add_corpus_flags(p):
        p.add_argument("--n-graphs", type=int, default=200, dest="n_graphs")
        p.add_argument("--min-nodes", type=int, default=5, dest="min_nodes")
        p.add_argument("--max-nodes", type=int, default=6, dest="max_nodes")
        p.add_argument("--edge-probability", type=float, default=0.3, dest="edge_probability")
        p.add_argument("--acyclic", action="store_true")
        p.add_argument("--gamma-max", type=int, default=1, dest="gamma_max")
        p.add_argument("--template-cap", type=int, default=TEMPLATE_CAP, dest="template_cap")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--max-subset-size", type=int, default=5, dest="max_subset_size")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("validate", help="run the seeded soundness experiment")
    add_corpus_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("probe", help="search for valid sets the criterion rejects")
    p.add_argument("--graph", default=None, help="probe one SCG JSON file instead of a corpus")
    p.add_argument("--treatment", default="X")
    p.add_argument("--outcome", default="Y")
    p.add_argument("--gamma", type=int, default=0)
    add_corpus_flags(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("simulate", help="variance comparison across adjustment sets")
    _add_query_flags(p)
    p.add_argument("--sets", default="qopt,a1,a2", help="comma-separated canonical set names")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--blocks", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--dump-data", default=None, dest="dump_data", help="also write one dataset CSV")
    p.set_defaults(func=cmd_simulate)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TemplateCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_CAP
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_OVER_CAP
    except NotIdentifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_IDENTIFIABLE
    except (GraphError, QueryError, TemplateError, WindowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
