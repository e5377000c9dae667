"""Random-graph corpora and brute-force validation of the macro criterion.

The soundness experiment draws seeded random summary graphs, enumerates every
candidate adjustment set the macro criterion accepts, and verifies each one
against the classical back-door criterion in the compatible full-time DAGs.
Graphs whose densest-template count exceeds the cap are skipped (and
counted).  Validity is checked against all compatible templates when their
number is under the cap, and against the densest templates otherwise; the
two routes agree because every compatible template is lag-set-wise contained
in a densest one and active paths persist under edge additions (this
equivalence is itself property-tested in the suite).

The check runs in two stages.  A set is first tested, at both paddings, in
the undominated densest templates (``unroll.undominated_templates``).  Every
compatible template lies lag-set-wise within one of them, and validity
carries from a template to every template it contains, so a set that passes
them passes every template in the list, with no padding disagreement: what
the full loop would record.  Any other set goes through the full template
list in order, so its witness template and padding instabilities are the
ones the full loop finds.  The output is the same bytes either way.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from .graph import SCG, validate_scg
from .identify import (
    AdjustmentSet,
    BackdoorTester,
    VerdictKind,
    adjustment_set_to_obj,
    canonical_sets,
    identify,
    query_facts,
    scg_backdoor_check,
)
from .unroll import (
    MicroQuery,
    TemplateCapExceeded,
    TemporalVar,
    count_compatible_templates,
    count_densest_templates,
    densest_templates,
    enumerate_compatible_templates,
    instantiate,
    sort_temporal,
    undominated_templates,
)

ENV_TEMPLATE_CAP = "SCGADJUST_TEMPLATE_CAP"


def default_template_cap() -> int:
    raw = os.environ.get(ENV_TEMPLATE_CAP)
    if raw is None:
        return 50
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TEMPLATE_CAP} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{ENV_TEMPLATE_CAP} must be >= 1")
    return cap


@dataclass(frozen=True)
class CorpusConfig:
    """Seeded random-SCG corpus parameters."""

    n_graphs: int = 200
    node_count_range: tuple[int, int] = (5, 6)
    edge_probability: float = 0.3
    allow_cycles: bool = True
    gamma_max: int = 1
    template_cap: int = 50
    seed: int = 7
    max_subset_size: int = 5

    def __post_init__(self):
        lo, hi = self.node_count_range
        if not (2 <= lo <= hi <= 8):
            raise ValueError("node_count_range must lie within [2, 8]")
        if self.template_cap < 1:
            raise ValueError("template_cap must be >= 1")
        if self.n_graphs < 0:
            raise ValueError("n_graphs must be >= 0")
        if not (0.0 <= self.edge_probability <= 1.0):
            raise ValueError("edge_probability must be in [0, 1]")
        if self.gamma_max < 1:
            raise ValueError("gamma_max must be >= 1")
        if self.max_subset_size < 0:
            raise ValueError("max_subset_size must be >= 0")

    def to_obj(self) -> dict:
        return {
            "n_graphs": self.n_graphs,
            "node_count_range": list(self.node_count_range),
            "edge_probability": self.edge_probability,
            "allow_cycles": self.allow_cycles,
            "gamma_max": self.gamma_max,
            "template_cap": self.template_cap,
            "seed": self.seed,
            "max_subset_size": self.max_subset_size,
        }


def _node_names(n: int) -> list[str]:
    names = ["X", "Y"]
    names.extend(f"V{i}" for i in range(2, n))
    return names[:n]


def random_scg(cfg: CorpusConfig, index: int) -> SCG:
    """Edge-wise Bernoulli draw, deterministic per (seed, index).

    With cycles allowed every ordered pair (self-pairs included) is a
    candidate; otherwise only declaration-forward pairs are drawn, which
    guarantees acyclicity without rejection sampling.
    """
    rng = random.Random(f"scg-corpus:{cfg.seed}:{index}")
    lo, hi = cfg.node_count_range
    n = rng.randint(lo, hi)
    names = _node_names(n)
    edges = []
    if cfg.allow_cycles:
        for u in names:
            for w in names:
                if rng.random() < cfg.edge_probability:
                    edges.append((u, w))
    else:
        for i, u in enumerate(names):
            for w in names[i + 1 :]:
                if rng.random() < cfg.edge_probability:
                    edges.append((u, w))
    return validate_scg(names, edges)


def common_backdoor_valid(
    g: SCG,
    q: MicroQuery,
    z: Iterable[TemporalVar],
    cap: int | None = None,
    check_all_templates: bool | None = None,
) -> bool:
    """Whether ``z`` passes the classical back-door check in every compatible
    full-time DAG.  ``cap`` bounds the densest-template count (over-cap raises).
    By default the undominated densest templates are checked: every compatible
    template lies lag-set-wise within one of them, and validity carries from a
    template to every template it contains.  ``check_all_templates`` set to
    True checks every compatible template instead, False every densest one."""
    z = frozenset(z)
    if cap is None:
        cap = default_template_cap()
    n_densest = count_densest_templates(g)
    if n_densest > cap:
        raise TemplateCapExceeded(cap, n_densest)
    if check_all_templates:
        templates = enumerate_compatible_templates(g, q.gamma_max, cap=1_000_000)
    elif check_all_templates is None:
        templates = undominated_templates(densest_templates(g, q.gamma_max))
    else:
        templates = densest_templates(g, q.gamma_max)
    return all(BackdoorTester(t, q).check(z) for t in templates)


@dataclass(frozen=True)
class GraphRow:
    """Per-(graph, query) accounting line."""

    index: int
    n_nodes: int
    n_edges: int
    gamma: int
    verdict: str
    n_densest: int
    n_templates: int | None
    skipped: bool
    sets_checked: int
    sets_sound: int


@dataclass(frozen=True)
class SoundnessReport:
    config: CorpusConfig
    graphs_tested: int
    graphs_skipped_over_cap: int
    sets_checked: int
    sets_sound: int
    counterexamples: tuple[dict, ...]
    condition_c_form_mismatches: int
    padding_instabilities: int
    rows: tuple[GraphRow, ...] = field(repr=False)

    @property
    def sound(self) -> bool:
        return not self.counterexamples

    def to_obj(self) -> dict:
        return {
            "config": self.config.to_obj(),
            "graphs_tested": self.graphs_tested,
            "graphs_skipped_over_cap": self.graphs_skipped_over_cap,
            "sets_checked": self.sets_checked,
            "sets_sound": self.sets_sound,
            "counterexamples": list(self.counterexamples),
            "condition_c_form_mismatches": self.condition_c_form_mismatches,
            "padding_instabilities": self.padding_instabilities,
            "rows": [row.__dict__ for row in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            [
                "index",
                "n_nodes",
                "n_edges",
                "gamma",
                "verdict",
                "n_densest",
                "n_templates",
                "skipped",
                "sets_checked",
                "sets_sound",
            ]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row.index,
                    row.n_nodes,
                    row.n_edges,
                    row.gamma,
                    row.verdict,
                    row.n_densest,
                    "" if row.n_templates is None else row.n_templates,
                    int(row.skipped),
                    row.sets_checked,
                    row.sets_sound,
                ]
            )
        return buf.getvalue()


def candidate_subsets(
    g: SCG, q: MicroQuery, max_subset_size: int, exclude: frozenset = frozenset()
) -> list[AdjustmentSet]:
    """All subsets (up to the size bound) of the in-window temporal variables,
    ordered deterministically."""
    pool = [tv for tv in sort_temporal(g, instantiate(g.nodes, q.window_floor, 0)) if tv not in exclude]
    out: list[AdjustmentSet] = []
    for k in range(0, max_subset_size + 1):
        out.extend(frozenset(c) for c in combinations(pool, k))
    return out


def soundness_experiment(
    cfg: CorpusConfig,
    checker: Callable = scg_backdoor_check,
    gammas: tuple[int, ...] = (0, 1),
    check_padding_stability: bool = True,
) -> SoundnessReport:
    """Replicates the algorithmic-validity experiment at the configured scale.

    For every identifiable (graph, query) under the densest-template cap,
    every criterion-passing candidate subset and every canonical set is
    tested with the classical back-door check over the compatible templates.
    Candidate subsets are drawn from all in-window variables so that a
    damaged checker (one that, say, loses the possible-descendant guard) is
    still caught by the classical side.  Blocking verdicts are recomputed at
    a deeper past padding and disagreements are counted as instabilities.

    Each set is first tested in the undominated densest templates at both
    paddings.  Removing edges keeps a valid set valid (descendants shrink,
    open paths stay open in any supergraph), and every template in the list
    lies within an undominated one, so passing them all means passing every
    template at both paddings: no witness and no instability.  A set that
    fails there runs the ordered loop over the full list, whose testers are
    built on the first such set, and is reported as that loop finds it.
    """
    rows: list[GraphRow] = []
    counterexamples: list[dict] = []
    graphs_tested = 0
    skipped = 0
    condition_c_form_mismatches = 0
    padding_instabilities = 0

    for index in range(cfg.n_graphs):
        g = random_scg(cfg, index)
        n_densest = count_densest_templates(g)
        if n_densest > cfg.template_cap:
            skipped += 1
            rows.append(
                GraphRow(index, len(g.nodes), len(g.edges), -1, "skipped", n_densest, None, True, 0, 0)
            )
            continue
        graphs_tested += 1

        full_count = count_compatible_templates(g, cfg.gamma_max, cfg.template_cap)
        use_all = full_count <= cfg.template_cap
        dense = kept = templates = None
        for gamma in gammas:
            q = MicroQuery("X", "Y", gamma, cfg.gamma_max)
            verdict = identify(g, q)
            if identify(g, q, condition_c_form="component").kind is not verdict.kind:
                condition_c_form_mismatches += 1
            if verdict.kind is not VerdictKind.NOT_IDENTIFIABLE and dense is None:
                dense = densest_templates(g, cfg.gamma_max)
                kept = undominated_templates(dense)

            n_checked = n_sound = 0
            if verdict.kind is VerdictKind.NON_ANCESTOR:
                # The canonical set here is empty; its classical counterpart is
                # that no compatible template makes the treatment an ancestor.
                # A template inherits the descendants of every template it
                # contains, so the undominated densest ones decide this.
                ok = not any(
                    BackdoorTester(t, q).descendant_clash([q.outcome_var]) for t in kept
                )
                n_checked, n_sound = 1, int(ok)
                if not ok:
                    counterexamples.append(
                        {
                            "graph_index": index,
                            "gamma": gamma,
                            "set": [],
                            "reason": "non-ancestor verdict contradicted by a compatible template",
                        }
                    )
            elif verdict.kind is not VerdictKind.NOT_IDENTIFIABLE:
                # First stage: a set valid in every undominated densest
                # template, at both paddings, is valid in every template below.
                fast = [BackdoorTester(t, q) for t in kept]
                if check_padding_stability:
                    fast += [BackdoorTester(t, q, extra_padding=cfg.gamma_max + 1) for t in kept]
                testers = padded = None

                to_check: dict[AdjustmentSet, str] = {}
                for z in candidate_subsets(g, q, cfg.max_subset_size):
                    if checker(g, q, z).satisfied:
                        to_check.setdefault(z, "criterion")
                for name, z in canonical_sets(g, q).items():
                    to_check.setdefault(z, name)

                for z, origin in sorted(
                    to_check.items(), key=lambda item: adjustment_set_to_obj(g, item[0])
                ):
                    n_checked += 1
                    if all(tester.check(z) for tester in fast):
                        n_sound += 1
                        continue
                    # Second stage: the ordered loop over every template, so the
                    # witness and the padding instabilities are those it finds.
                    if testers is None:
                        if templates is None:
                            templates = (
                                enumerate_compatible_templates(g, cfg.gamma_max, cap=1_000_000)
                                if use_all
                                else dense
                            )
                        testers = [BackdoorTester(t, q) for t in templates]
                        padded = (
                            [BackdoorTester(t, q, extra_padding=cfg.gamma_max + 1) for t in templates]
                            if check_padding_stability
                            else None
                        )
                    witness = None
                    for j, tester in enumerate(testers):
                        v = tester.check(z)
                        if padded is not None:
                            v_deep = padded[j].check(z)
                            if v_deep != v:
                                padding_instabilities += 1
                                v = v_deep
                        if not v:
                            witness = templates[j]
                            break
                    if witness is None:
                        n_sound += 1
                    else:
                        counterexamples.append(
                            {
                                "graph_index": index,
                                "gamma": gamma,
                                "origin": origin,
                                "set": adjustment_set_to_obj(g, z),
                                "template_lags": {
                                    f"{u}->{w}": sorted(ls) for (u, w), ls in witness.lag_entries
                                },
                                "reason": "criterion-accepted set fails the classical back-door check",
                            }
                        )
            rows.append(
                GraphRow(
                    index, len(g.nodes), len(g.edges), gamma, verdict.kind.value,
                    n_densest, full_count if use_all else None, False, n_checked, n_sound,
                )
            )

    return SoundnessReport(
        config=cfg,
        graphs_tested=graphs_tested,
        graphs_skipped_over_cap=skipped,
        sets_checked=sum(row.sets_checked for row in rows),
        sets_sound=sum(row.sets_sound for row in rows),
        counterexamples=tuple(counterexamples),
        condition_c_form_mismatches=condition_c_form_mismatches,
        padding_instabilities=padding_instabilities,
        rows=tuple(rows),
    )


def probe_graph(
    g: SCG,
    q: MicroQuery,
    max_subset_size: int = 5,
    cap: int | None = None,
) -> list[AdjustmentSet]:
    """Common-back-door sets the macro criterion rejects, on one graph.

    Candidates avoid the treatment's possible descendants (a common-valid set
    must) and stay within the adjustment window; subset size is bounded.
    """
    facts = query_facts(g, q)
    if not facts.verdict.identifiable:
        return []
    found: list[AdjustmentSet] = []
    for z in candidate_subsets(g, q, max_subset_size, exclude=facts.d):
        if scg_backdoor_check(g, q, z).satisfied:
            continue
        if common_backdoor_valid(g, q, z, cap=cap):
            found.append(z)
    return found


@dataclass(frozen=True)
class ProbeReport:
    config: CorpusConfig
    per_graph: tuple[dict, ...]
    total_found: int
    graphs_skipped_over_cap: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config.to_obj(),
                "per_graph": list(self.per_graph),
                "total_found": self.total_found,
                "graphs_skipped_over_cap": self.graphs_skipped_over_cap,
            },
            indent=2,
            sort_keys=True,
        )


def completeness_probe(cfg: CorpusConfig, gammas: tuple[int, ...] = (0, 1)) -> ProbeReport:
    """Corpus-level search for valid-everywhere sets the criterion misses."""
    per_graph: list[dict] = []
    total = 0
    skipped = 0
    for index in range(cfg.n_graphs):
        g = random_scg(cfg, index)
        if count_densest_templates(g) > cfg.template_cap:
            skipped += 1
            continue
        for gamma in gammas:
            q = MicroQuery("X", "Y", gamma, cfg.gamma_max)
            if not identify(g, q).identifiable:
                continue
            found = probe_graph(g, q, cfg.max_subset_size, cap=cfg.template_cap)
            total += len(found)
            per_graph.append(
                {
                    "graph_index": index,
                    "gamma": gamma,
                    "n_found": len(found),
                    "examples": [adjustment_set_to_obj(g, z) for z in found[:5]],
                }
            )
    return ProbeReport(cfg, tuple(per_graph), total, skipped)
