"""Random-graph corpora and brute-force validation of the macro criterion.

The soundness experiment draws seeded random summary graphs, enumerates every
candidate adjustment set the macro criterion accepts, and verifies each one
against the classical back-door criterion in the compatible full-time DAGs.
The completeness probe searches the other way, for sets valid in every
compatible full-time DAG that the criterion rejects.  Both generate their
candidate sets one at a time (``CandidateSets``) and keep only the ones they
report, so memory does not grow with the subset bound.  Their pool is the
window less the treatment's possible descendants D, except for a
caller-supplied checker in the soundness experiment, which sees the whole
window: the library's criterion rejects every set that meets D.  With the
library's criterion the soundness experiment infers the acceptances of the
core items from the up-set lemma (each accepts exactly the supersets of its
core in that pool), counts them by inclusion-exclusion and certifies each
core's up-set with one test; only the partition items' other supersets go
to the criterion one at a time, so its time follows the number of cores
rather than of accepted sets.  The probe, which looks for the sets the
criterion rejects, still walks every subset of the pool.

Both read two objects.  ``GraphTemplates`` owns the templates of one
(graph, gamma_max): the cap test (a graph with more densest templates than
the cap is skipped, or raises ``TemplateCapExceeded`` once a set reaches the
oracle), the ``n_densest`` and ``n_templates`` report columns, the densest
templates, the undominated ones among them (``unroll.undominated_templates``)
and the ordered list a failing set is reported against: every compatible
template when there are at most ``cap`` of them, the densest ones otherwise.
``_ClassicalCheck`` holds the per-query testers over them.

The soundness experiment first asks the union certificate
(``identify.UnionTester``): a back-door check in the unrolling of the union
of every compatible template, at the deeper padding, split into the two
lag-0 orientations of a treatment-outcome 2-cycle.  Every template's
unrolling at either padding is a subgraph of one of them, so a set it
certifies is valid everywhere.  A set that holds one of the query's cores
is mostly decided from two Bayes-ball reaches of that core, each walked at
most once per query, and the same reaches certify a core's whole up-set
within a pool at once (``UnionTester.certify_up_set``); any other set takes
one walk.  A family the certificate refuses is checked set by set, and only
a set it refuses reaches the templates: it goes through the ordered list at
both paddings, so its witness template and padding instabilities are the
ones the full loop finds.  In the corpora run so far only invalid sets are
refused.  A NonAncestor query builds no template: its empty set holds when
the outcome lies outside the query's possible descendants D
(``query_facts``), walked in the union of every compatible template.  The
verdict reads macro ancestry in the graph, not D, so D is not checked
against itself.

``valid`` (``probe``, ``common_backdoor_valid``) decides validity in the
undominated densest templates.  Every compatible template lies
lag-set-wise within one of them, and a set valid in a template stays valid
in every template it contains (the descendants shrink, and every open path
stays open in the supergraph), so a set that passes them passes every
template.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from itertools import chain, combinations, starmap
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .graph import SCG, scc_of, validate_scg
from .identify import (
    EMPTY,
    AdjustmentSet,
    BackdoorTester,
    UnionTester,
    VerdictKind,
    adjustment_set_to_obj,
    canonical_sets,
    query_facts,
    scg_backdoor_check,
)
from .unroll import (
    MAX_HORIZON,
    TEMPLATE_CAP,
    FTDagTemplate,
    MicroQuery,
    TemplateCapExceeded,
    TemplateError,
    TemporalVar,
    count_compatible_templates,
    count_densest_templates,
    densest_templates,
    enumerate_compatible_templates,
    instantiate,
    sort_temporal,
    undominated_templates,
)


@dataclass(frozen=True)
class CorpusConfig:
    """Seeded random-SCG corpus parameters."""

    n_graphs: int = 200
    node_count_range: tuple[int, int] = (5, 6)
    edge_probability: float = 0.3
    allow_cycles: bool = True
    gamma_max: int = 1
    template_cap: int = TEMPLATE_CAP
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
        # The corpus queries reach gamma 1.
        if self.gamma_max + 1 > MAX_HORIZON:
            raise ValueError(f"gamma_max must be <= {MAX_HORIZON - 1}")
        if self.max_subset_size < 0:
            raise ValueError("max_subset_size must be >= 0")


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


class GraphTemplates:
    """The oracle's templates of one (graph, gamma_max), each computed on
    first use: a graph that is over the cap or not identifiable builds none,
    and neither does a NonAncestor query (it reads the query's possible
    descendants)."""

    def __init__(self, g: SCG, gamma_max: int, cap: int):
        if gamma_max < 1:
            raise TemplateError("gamma_max must be >= 1")
        if cap < 1:
            raise ValueError("template_cap must be >= 1")
        self.g = g
        self.gamma_max = gamma_max
        self.cap = cap

    @cached_property
    def n_densest(self) -> int:
        return count_densest_templates(self.g)

    @property
    def over_cap(self) -> bool:
        return self.n_densest > self.cap

    @cached_property
    def densest(self) -> list[FTDagTemplate]:
        if self.over_cap:
            raise TemplateCapExceeded(self.cap, self.n_densest, densest=True)
        return densest_templates(self.g, self.gamma_max)

    @cached_property
    def undominated(self) -> list[FTDagTemplate]:
        return undominated_templates(self.densest)

    @cached_property
    def n_templates(self) -> int | None:
        """The number of compatible templates, or None when there are more
        than ``cap``.  ``count_compatible_templates`` works it out by
        arithmetic, building no template; the list of them is built only
        when the certificate refuses a set."""
        n = count_compatible_templates(self.g, self.gamma_max, self.cap)
        return n if n <= self.cap else None

    @cached_property
    def ordered(self) -> list[FTDagTemplate]:
        """The templates a failing set is reported against, in order."""
        if self.n_templates is None:
            return self.densest
        return enumerate_compatible_templates(self.g, self.gamma_max, self.cap)


class _ClassicalCheck:
    """The classical back-door check of one query's sets over a graph's
    templates; each tester list is built on first use."""

    def __init__(self, templates: GraphTemplates, q: MicroQuery):
        self.templates = templates
        self.q = q

    def _testers(self, templates: list[FTDagTemplate], extra_padding: int = 0) -> list[BackdoorTester]:
        return [BackdoorTester(t, self.q, extra_padding) for t in templates]

    @cached_property
    def union(self) -> UnionTester:
        return UnionTester(self.templates.g, self.q)

    @cached_property
    def plain(self) -> list[BackdoorTester]:
        return self._testers(self.templates.undominated)

    @cached_property
    def in_order(self) -> list[tuple[FTDagTemplate, BackdoorTester, BackdoorTester]]:
        ordered = self.templates.ordered
        return list(zip(ordered, self._testers(ordered), self._testers(ordered, self.q.gamma_max + 1)))

    def valid(self, z: AdjustmentSet) -> bool:
        """Whether ``z`` is valid in every compatible template."""
        return all(t.check(z) for t in self.plain)

    def witness(self, z: AdjustmentSet) -> tuple[FTDagTemplate | None, int]:
        """The first template in order where ``z`` fails at the deeper of
        the two paddings (None if there is none), and the number of
        templates checked on the way whose paddings disagree.  A set the
        union certifies passes every template at both paddings, so only the
        sets it refuses build and walk the templates: in the corpora run so
        far, only sets that fail in some template."""
        if self.union.certify(z):
            return None, 0
        unstable = 0
        for tmpl, plain, padded in self.in_order:
            ok = padded.check(z)
            if ok != plain.check(z):
                unstable += 1
            if not ok:
                return tmpl, unstable
        return None, unstable


def common_backdoor_valid(
    g: SCG, q: MicroQuery, z: Iterable[TemporalVar], cap: int = TEMPLATE_CAP
) -> bool:
    """Whether ``z`` passes the classical back-door check in every compatible
    full-time DAG.  ``cap`` bounds the densest-template count (over-cap raises)."""
    return _ClassicalCheck(GraphTemplates(g, q.gamma_max, cap), q).valid(frozenset(z))


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

    def to_json(self) -> str:
        """The report's fields, keys sorted.  Each field is a JSON value, a
        tuple or a frozen dataclass, which ``vars`` opens; the ``sound``
        property is not a field and is not written."""
        return json.dumps(self, default=vars, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """One row per ``GraphRow``, in field order; ``skipped`` as 0/1 and a
        missing ``n_templates`` as an empty cell."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(f.name for f in fields(GraphRow))
        for row in self.rows:
            writer.writerow(int(v) if isinstance(v, bool) else v for v in astuple(row))
        return buf.getvalue()


class CandidateSets:
    """The subsets of a pool of temporal variables with at most
    ``max_size`` members that contain at least one of ``cores``.

    The sets of each core come in turn, in the given order of the cores:
    the core plus each subset of the rest of the pool, by size and then in
    ``combinations`` order, skipping a set that holds an earlier core, so
    each set comes once.  The default, the one empty core, gives every
    subset, by size and then in ``combinations`` order.  A core outside the
    pool or over the bound has no set; a duplicate core, or one that holds
    another core, adds none.

    Sized by arithmetic and iterable any number of times; each pass builds
    its sets one at a time and holds no set it has yielded, so only the sets
    a caller keeps stay in memory.  A set is a core's union with one-element
    sets built once, which reuses their stored hashes.  Membership (``in``)
    is decided from the set alone, with no pass over the sets.
    """

    def __init__(
        self, pool: Iterable[TemporalVar], max_size: int, cores: Iterable[AdjustmentSet] = (EMPTY,)
    ):
        self._singles = tuple(frozenset((tv,)) for tv in pool)
        self._max_size = max_size
        self.pool = frozenset().union(*self._singles)
        fits = tuple(dict.fromkeys(c for c in cores if len(c) <= max_size and c <= self.pool))
        # The cores that have a set, each holding no other.
        self.cores = tuple(c for c in fits if not any(o < c for o in fits))

    def __contains__(self, z: AdjustmentSet) -> bool:
        return len(z) <= self._max_size and z <= self.pool and any(c <= z for c in self.cores)

    def __len__(self) -> int:
        # Inclusion-exclusion over the cores: the sets holding every core of
        # a group T are the sets holding their union U, which number
        # N(U) = sum over j <= max_size - |U| of C(|pool| - |U|, j).
        n, total = len(self._singles), 0
        for r in range(1, len(self.cores) + 1):
            for group in combinations(self.cores, r):
                u = len(frozenset().union(*group))
                total += (-1) ** (r + 1) * sum(comb(n - u, j) for j in range(self._max_size - u + 1))
        return total

    def __iter__(self) -> Iterator[AdjustmentSet]:
        return chain.from_iterable(self._of_core(i) for i in range(len(self.cores)))

    def _of_core(self, i: int) -> Iterator[AdjustmentSet]:
        core, earlier = self.cores[i], self.cores[:i]
        rest = [s for s in self._singles if not s <= core]
        sets = chain.from_iterable(
            starmap(core.union, combinations(rest, k)) for k in range(self._max_size - len(core) + 1)
        )
        if not earlier:
            return sets
        return (z for z in sets if not any(c <= z for c in earlier))


def candidate_subsets(
    g: SCG,
    q: MicroQuery,
    max_subset_size: int,
    exclude: frozenset = frozenset(),
    cores: Iterable[AdjustmentSet] = (EMPTY,),
) -> CandidateSets:
    """The subsets (up to the size bound) of the in-window temporal variables
    outside ``exclude`` that contain one of ``cores``, over the sorted
    window in ``CandidateSets`` order; by default every such subset, by size
    and then in ``combinations`` order.

    The sets are generated on each iteration, not held: a caller's memory
    holds the sets it keeps, while its time grows with ``len``, the number
    of supersets of the cores in the pool (with the default, the sum over k
    of C(|pool|, k))."""
    pool = [tv for tv in sort_temporal(g, instantiate(g.nodes, q.window_floor, 0)) if tv not in exclude]
    return CandidateSets(pool, max_subset_size, cores)


def _condition_c_component(g: SCG, q: MicroQuery) -> bool:
    """Condition C's component form: the treatment's component lies within
    {treatment, outcome} and the outcome has no self-loop.  Under the
    A-then-B-then-C order it equals the verdict's cycle-profile test."""
    return scc_of(g, q.treatment) <= {q.treatment, q.outcome} and not g.has_self_loop(q.outcome)


def _check_query(
    g: SCG, q: MicroQuery, index: int, max_subset_size: int, classical: _ClassicalCheck, checker: Callable
) -> tuple[int, int, list[dict], int]:
    """The sets checked and found sound, the counterexamples in canonical
    order of their sets, and the padding instabilities of one identifiable
    query.

    With the library's criterion the family F, the supersets of the core
    items' cores in window - D up to the bound, is accepted whole, as each
    core item accepts exactly the supersets of its core that avoid D.  When
    the certificate passes each core's up-set (one test per core and lag-0
    orientation), F is counted by inclusion-exclusion and never walked: a
    certified up-set certifies each of its members, which would each have
    been found sound with no instability.  Otherwise F's sets join the sets
    to check.  Only the partition items' candidates outside F go to the
    criterion; the ones it accepts, and the canonical sets outside a counted
    F, go through ``classical.witness`` one at a time.  Any other checker
    judges every in-window subset."""
    exclude, cores = frozenset(), (EMPTY,)
    family: CandidateSets | tuple = ()
    counted: CandidateSets | tuple = ()
    to_check: dict[AdjustmentSet, str] = {}
    if checker is scg_backdoor_check:
        facts = query_facts(g, q)
        item_cores, cores = facts.split_cores
        exclude = facts.d
        family = candidate_subsets(g, q, max_subset_size, exclude, item_cores)
        if all(classical.union.certify_up_set(core, family.pool) for core in family.cores):
            counted = family
        else:
            to_check = dict.fromkeys(family, "criterion")
    for z in candidate_subsets(g, q, max_subset_size, exclude, cores):
        if z not in family and checker(g, q, z).satisfied:
            to_check.setdefault(z, "criterion")
    for name, z in canonical_sets(g, q).items():
        if z not in counted:
            to_check.setdefault(z, name)

    n_sound = unstable = 0
    failed: list[dict] = []
    for z, origin in to_check.items():
        witness, k = classical.witness(z)
        unstable += k
        if witness is None:
            n_sound += 1
        else:
            failed.append(
                {
                    "graph_index": index,
                    "gamma": q.gamma,
                    "origin": origin,
                    "set": adjustment_set_to_obj(g, z),
                    "template_lags": {f"{u}->{w}": sorted(ls) for (u, w), ls in witness.lag_entries},
                    "reason": "criterion-accepted set fails the classical back-door check",
                }
            )
    failed.sort(key=itemgetter("set"))
    return len(counted) + len(to_check), len(counted) + n_sound, failed, unstable


def soundness_experiment(cfg: CorpusConfig, checker: Callable = scg_backdoor_check) -> SoundnessReport:
    """Replicates the algorithmic-validity experiment at the configured scale.

    For every identifiable (graph, query) under the densest-template cap,
    every criterion-passing candidate subset and every canonical set is
    tested with the classical back-door check over the compatible templates.
    With the library's ``scg_backdoor_check`` (the object this module's
    name holds at call time, so a wrapper bound to that name counts), the
    candidate subsets avoid the treatment's possible descendants D and each
    contains one of the query's cores (``query_facts(g, q).cores``): the
    criterion rejects every set that meets D, it accepts through a core item
    exactly the supersets of that item's core, and through a partition item
    (A.3, B.2) only a superset of the mandated part when the free part opens
    no collider (the item's core), because opening colliders only adds to
    the mandated part.  A rejected set leaves no trace in the report.  The
    core items' acceptances are inferred from that up-set lemma, not asked
    of the criterion (``_check_query``): their family is certified with one
    union test per core and lag-0 orientation and then counted by
    inclusion-exclusion, or, if refused, checked set by set.  Only the
    partition items' other supersets are judged, and they and the remaining
    canonical sets go to the classical check one at a time.  Any other
    checker judges every in-window subset once, so that a damaged one (one
    that, say, loses the possible-descendant guard) is still caught by the
    classical side.  The subsets are generated one at a time and only the
    accepted ones are kept, so memory holds the accepted sets of one query
    at most.
    Blocking verdicts are recomputed at a deeper past padding and
    disagreements are counted as instabilities; a gamma-1 verdict that
    reached condition C is recomputed with the component form, and
    disagreements are counted as ``condition_c_form_mismatches``.
    """
    rows: list[GraphRow] = []
    counterexamples: list[dict] = []
    skipped = 0
    condition_c_form_mismatches = 0
    padding_instabilities = 0

    for index in range(cfg.n_graphs):
        g = random_scg(cfg, index)
        templates = GraphTemplates(g, cfg.gamma_max, cfg.template_cap)
        if templates.over_cap:
            skipped += 1
            rows.append(
                GraphRow(
                    index, len(g.nodes), len(g.edges), -1, "skipped", templates.n_densest, None, True, 0, 0
                )
            )
            continue

        for gamma in (0, 1):
            q = MicroQuery("X", "Y", gamma, cfg.gamma_max)
            facts = query_facts(g, q)
            verdict = facts.verdict
            # At gamma 1 condition B cannot fire, so a verdict that reached
            # condition C is CondC or NotIdentifiable.
            if gamma == 1 and verdict.kind in (VerdictKind.COND_C, VerdictKind.NOT_IDENTIFIABLE):
                if _condition_c_component(g, q) != (verdict.kind is VerdictKind.COND_C):
                    condition_c_form_mismatches += 1

            n_checked = n_sound = 0
            if verdict.kind is VerdictKind.NON_ANCESTOR:
                # The canonical set here is empty; its classical counterpart is
                # that the outcome is no possible descendant of the treatment.
                ok = q.outcome_var not in facts.d
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
                n_checked, n_sound, failed, unstable = _check_query(
                    g, q, index, cfg.max_subset_size, _ClassicalCheck(templates, q), checker
                )
                counterexamples.extend(failed)
                padding_instabilities += unstable
            rows.append(
                GraphRow(
                    index, len(g.nodes), len(g.edges), gamma, verdict.kind.value,
                    templates.n_densest, templates.n_templates, False, n_checked, n_sound,
                )
            )

    return SoundnessReport(
        config=cfg,
        graphs_tested=cfg.n_graphs - skipped,
        graphs_skipped_over_cap=skipped,
        sets_checked=sum(row.sets_checked for row in rows),
        sets_sound=sum(row.sets_sound for row in rows),
        counterexamples=tuple(counterexamples),
        condition_c_form_mismatches=condition_c_form_mismatches,
        padding_instabilities=padding_instabilities,
        rows=tuple(rows),
    )


def _probe(g: SCG, q: MicroQuery, max_subset_size: int, templates: GraphTemplates) -> list[AdjustmentSet]:
    facts = query_facts(g, q)
    if not facts.verdict.identifiable:
        return []
    classical = _ClassicalCheck(templates, q)
    return [
        z
        for z in candidate_subsets(g, q, max_subset_size, exclude=facts.d)
        if not scg_backdoor_check(g, q, z).satisfied and classical.valid(z)
    ]


def probe_graph(
    g: SCG, q: MicroQuery, max_subset_size: int = 5, cap: int = TEMPLATE_CAP
) -> list[AdjustmentSet]:
    """Common-back-door sets the macro criterion rejects, on one graph.

    Candidates avoid the treatment's possible descendants (a common-valid set
    must) and stay within the adjustment window; subset size is bounded.  An
    over-cap graph raises ``TemplateCapExceeded`` once the criterion rejects
    a candidate.
    """
    if max_subset_size < 0:
        raise ValueError("max_subset_size must be >= 0")
    return _probe(g, q, max_subset_size, GraphTemplates(g, q.gamma_max, cap))


@dataclass(frozen=True)
class ProbeReport:
    config: CorpusConfig
    per_graph: tuple[dict, ...]
    total_found: int
    graphs_skipped_over_cap: int

    def to_json(self) -> str:
        return json.dumps(self, default=vars, indent=2, sort_keys=True)


def completeness_probe(cfg: CorpusConfig) -> ProbeReport:
    """Corpus-level search for valid-everywhere sets the criterion misses."""
    per_graph: list[dict] = []
    skipped = 0
    for index in range(cfg.n_graphs):
        g = random_scg(cfg, index)
        templates = GraphTemplates(g, cfg.gamma_max, cfg.template_cap)
        if templates.over_cap:
            skipped += 1
            continue
        for gamma in (0, 1):
            q = MicroQuery("X", "Y", gamma, cfg.gamma_max)
            if not query_facts(g, q).verdict.identifiable:
                continue
            found = _probe(g, q, cfg.max_subset_size, templates)
            per_graph.append(
                {
                    "graph_index": index,
                    "gamma": gamma,
                    "n_found": len(found),
                    "examples": [adjustment_set_to_obj(g, z) for z in found[:5]],
                }
            )
    total = sum(entry["n_found"] for entry in per_graph)
    return ProbeReport(cfg, tuple(per_graph), total, skipped)
