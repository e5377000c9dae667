"""Identifiability verdicts and adjustment sets on summary causal graphs.

The verdict logic classifies a micro query into one of: the treatment is not
a macro ancestor of the outcome; one of three identifying conditions on the
treatment's strongly connected component and the outcome's cycles; or not
identifiable by adjustment.  The checker then decides whether a concrete set
of temporal variables qualifies as an adjustment set for that verdict, item
by item, and reports the first item that fires.

All offsets are relative to the outcome time t; a candidate set must live in
the window [-(gamma + gamma_max), 0] and avoid every possible descendant of
the treatment variable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable

from .graph import (
    SCG,
    GraphError,
    SccPartition,
    ancestors,
    closure,
    cycle_profile,
    d_connected,
    d_reach,
    descendants,
    mask_closure,
    scc_of,
    scc_partition,
    simple_directed_paths,
)
from .unroll import (
    FTDagTemplate,
    MicroQuery,
    TemporalVar,
    instantiate,
    padded_window,
    possible_descendants,
    sort_temporal,
)

AdjustmentSet = frozenset[TemporalVar]

EMPTY: AdjustmentSet = frozenset()


class WindowError(ValueError):
    """Adjustment variable offset outside the allowed window."""


class NotIdentifiableError(ValueError):
    """Operation requires an identifiable (condition A/B/C) verdict."""


class VerdictKind(str, Enum):
    NON_ANCESTOR = "NonAncestor"
    COND_A = "CondA"
    COND_B = "CondB"
    COND_C = "CondC"
    NOT_IDENTIFIABLE = "NotIdentifiable"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    witness: tuple[tuple[str, object], ...] = ()

    @property
    def identifiable(self) -> bool:
        return self.kind is not VerdictKind.NOT_IDENTIFIABLE

    def witness_dict(self) -> dict:
        return dict(self.witness)


def identify(g: SCG, q: MicroQuery) -> Verdict:
    """Classify the query; conditions are evaluated in the order A, B, C.

    The verdict is one of the query's facts (``query_facts``), so a query
    is classified once however many of its answers a caller asks for.
    """
    return query_facts(g, q).verdict


def _classify(g: SCG, q: MicroQuery) -> Verdict:
    """The case split of ``identify``.  Condition C is the cycle-profile test
    on the outcome; under the A-then-B-then-C order it is the same test as
    the component one on the treatment (``scc_x <= {x, y}`` and no
    self-loop on the outcome), which the soundness experiment cross-checks."""
    g.check_nodes([q.treatment, q.outcome])
    x, y = q.treatment, q.outcome
    if x not in ancestors(g, [y]):
        return Verdict(VerdictKind.NON_ANCESTOR)
    scc_x = scc_of(g, x)
    if scc_x == frozenset([x]):
        return Verdict(VerdictKind.COND_A, (("scc_x", (x,)),))
    if q.gamma == 0:
        # Ancestors of y in G - X: the walk may reach x but never passes
        # through it, and x itself is no node of G - X.
        an_y = closure({**g._parents, x: ()}, [y])
        an_y.discard(x)
        if not an_y & scc_x:
            return Verdict(VerdictKind.COND_B, (("scc_x", tuple(g.sorted_nodes(scc_x))),))
    if q.gamma == 1 and cycle_profile(g, y).only_cycle_is_two_cycle_with == x:
        return Verdict(VerdictKind.COND_C, (("cycle_partner", x),))
    return Verdict(
        VerdictKind.NOT_IDENTIFIABLE,
        (
            ("scc_x", tuple(g.sorted_nodes(scc_x))),
            ("self_loop_on_outcome", g.has_self_loop(y)),
            ("gamma", q.gamma),
        ),
    )


def causal_nodes(g: SCG, x: str, y: str) -> frozenset[str]:
    """Nodes lying on some simple directed path from ``x`` to ``y``, minus ``x``."""
    out: set[str] = set()
    for path in simple_directed_paths(g, x, y):
        out.update(path)
    out.discard(x)
    return frozenset(out)


def _close_under_components(part: SccPartition, nodes: Iterable[str]) -> frozenset[str]:
    """``nodes`` together with every member of their strongly connected components."""
    comps = part.components
    return frozenset(v for i in {part.component_of[u] for u in nodes} for v in comps[i])


def extended_causal_nodes(g: SCG, x: str, y: str) -> frozenset[str]:
    """Causal nodes closed under strongly connected components."""
    return _close_under_components(scc_partition(g), causal_nodes(g, x, y))


def _open_backdoor_ecn(
    g: SCG, x: str, y: str, targets: frozenset[str], series: frozenset[str]
) -> frozenset[str]:
    """Members of ``targets`` on some simple back-door path from ``x`` to ``y``
    whose colliders all lie in ``series``.

    One depth-first search over simple paths: the first step follows an edge
    into ``x``, later steps an edge in either direction.  A node is a collider
    when both its path edges point into it, so a step back along an edge into
    a node that was itself entered is taken only when the node is in
    ``series``.  The search stops once every target has a witness.
    """
    if not targets:
        return frozenset()
    children, parents = g._children, g._parents
    found: set[str] = set()
    on_path = {x}

    # ``entered``: the step that reached ``v`` followed an edge into ``v``.
    def walk(v: str, entered: bool) -> bool:
        on_path.add(v)
        if v == y:
            found.update(targets & on_path)
            done = len(found) == len(targets)
        else:
            done = any(walk(w, True) for w in children[v] if w not in on_path) or (
                (not entered or v in series)
                and any(walk(w, False) for w in parents[v] if w not in on_path)
            )
        on_path.discard(v)
        return done

    any(walk(w, False) for w in parents[x] if w != x)
    return frozenset(found)


@dataclass(frozen=True)
class CriterionReport:
    satisfied: bool
    condition: str | None
    item: str | None
    required_core: AdjustmentSet
    violations: tuple[str, ...] = ()
    caveats: tuple[str, ...] = ()

    def to_obj(self, g: SCG) -> dict:
        return {
            "satisfied": self.satisfied,
            "condition": self.condition,
            "item": self.item,
            "required_core": adjustment_set_to_obj(g, self.required_core),
            "violations": list(self.violations),
            "caveats": list(self.caveats),
        }


NOT_IDENTIFIABLE_REPORT = CriterionReport(
    False, None, None, EMPTY, ("effect not identifiable by adjustment",)
)
NON_ANCESTOR_REPORT = CriterionReport(True, None, None, EMPTY)


# Instantaneous acceptances through the partition item are known to admit
# invalid sets when some causal node lies on a cycle: temporal back-door
# routes can re-enter the cycle along edges whose series-level trace is not
# a simple path, which the mandated part cannot see.  Flagged, not rejected.
PARTITION_CYCLE_CAVEAT = (
    "accepted by the partition item, but some causal node lies on a cycle; "
    "on such graphs this item can admit sets that fail in a compatible "
    "full-time DAG - cross-check with the brute-force validator"
)


class _QueryFacts:
    """Everything the macro layer derives from one (graph, query) pair.

    ``query_facts`` keeps the instance of the most recent pair and is the
    only per-query cache: callers finish one query before the next, so an
    older query's facts are never needed again.  The verdict is computed up
    front; the rest, the possible descendants included, on first use, so a
    query that is not identifiable or has a non-ancestor treatment, or a set
    rejected on the descendant clash, never searches a simple path.
    """

    def __init__(self, g: SCG, q: MicroQuery):
        self.g = g
        self.q = q
        self.verdict = _classify(g, q)
        self.floor = q.window_floor
        self._z1: dict[frozenset[str], AdjustmentSet] = {}

    @cached_property
    def d(self) -> frozenset[TemporalVar]:
        """The treatment's possible descendants in the adjustment window."""
        q = self.q
        return possible_descendants(self.g, q.treatment, -q.gamma, (self.floor, 0), q.gamma_max)

    def report(self, z: AdjustmentSet) -> CriterionReport:
        """The criterion's report on ``z``, an in-window set; see
        ``scg_backdoor_check``.  The verdict's items are tried in document
        order and the first that accepts ``z`` names the report; a
        rejection's text is rendered only once every item has refused."""
        kind = self.verdict.kind
        if kind is VerdictKind.NOT_IDENTIFIABLE:
            return NOT_IDENTIFIABLE_REPORT
        clash = z & self.d
        if clash:
            text = f"possible descendant of treatment in set: {self._labels(clash)}"
            return CriterionReport(False, None, None, EMPTY, (text,))
        if kind is VerdictKind.NON_ANCESTOR:
            return NON_ANCESTOR_REPORT
        if kind is VerdictKind.COND_C:
            base, all_x, all_y = self.condition_c_parts
            if not base <= z:
                return CriterionReport(False, "C", None, EMPTY, (f"C: missing {self._labels(base - z)}",))
            for part in (all_x, all_y):
                if part <= z:
                    return CriterionReport(True, "C", "C", base | part)
            neither = (
                "C: neither full treatment-parent slice nor full outcome-parent slice "
                f"at offset {self.floor} is covered"
            )
            return CriterionReport(False, "C", None, EMPTY, (neither,))
        condition, items = _AB_ITEMS[kind]
        refused = []
        for item in items:
            core = self.cores.get(f"{item}-core")
            if core is not None:
                if item in _PARTITION_ITEMS:
                    z1 = self.partition_witness(z)
                    if z1 is not None:
                        return CriterionReport(True, condition, item, z1, caveats=self.partition_caveats())
                elif core <= z:
                    return CriterionReport(True, condition, item, core)
            refused.append((item, core))
        violations = []
        for item, core in refused:
            if core is None:
                violations.append(f"{item}: {_INAPPLICABLE[item]}")
            elif item in _PARTITION_ITEMS:
                violations.append(f"{item}: no mandated/free partition of the set exists")
            else:
                violations.append(f"{item}: missing {self._labels(core - z)}")
        return CriterionReport(False, condition, None, EMPTY, tuple(violations))

    @cached_property
    def cn(self) -> frozenset[str]:
        return causal_nodes(self.g, self.q.treatment, self.q.outcome)

    @cached_property
    def ecn(self) -> frozenset[str]:
        return _close_under_components(scc_partition(self.g), self.cn)

    def _labels(self, gap: AdjustmentSet) -> str:
        return ", ".join(tv.label() for tv in sort_temporal(self.g, gap))

    @cached_property
    def cores(self) -> dict[str, AdjustmentSet]:
        """The mandated core of every criterion item that applies to the
        verdict, in document order, keyed by the names ``canonical_sets``
        emits.  Which items apply is decided here and nowhere else; the last
        core is the most specific item's, the quasi-optimal set."""
        g, q, floor, d = self.g, self.q, self.floor, self.d
        kind = self.verdict.kind
        if kind is VerdictKind.COND_C:
            base, all_x, all_y = self.condition_c_parts
            return {"C-core-x": base | all_x, "C-core-y": base | all_y}
        if kind not in (VerdictKind.COND_A, VerdictKind.COND_B):
            return {}
        # The verdicts of conditions A and B name the treatment's component.
        scc_x = frozenset(self.verdict.witness_dict()["scc_x"])
        scc_core = instantiate(g.parents_of_set(scc_x), floor, -q.gamma) - d
        if kind is VerdictKind.COND_B:
            return {"B.1-core": scc_core, "B.2-core": self.z1_required(frozenset())}
        cycles_x = len(scc_x) > 1 or g.has_self_loop(q.treatment)
        ecn_parents = instantiate(g.parents_of_set(self.ecn), floor, 0)
        out = {"A.1-core": scc_core}
        if not cycles_x:
            out["A.2-core"] = ecn_parents - d
        if q.gamma == 0:
            out["A.3-core"] = self.z1_required(frozenset())
        if cycles_x and q.gamma > 0:
            pa_x = instantiate(g.parents(q.treatment), floor + 1, 0)
            out["A.4-core"] = (pa_x | ecn_parents) - d
        return out

    @cached_property
    def split_cores(self) -> tuple[list[AdjustmentSet], list[AdjustmentSet]]:
        """The cores of the core items (A.1, A.2, A.4, B.1 and condition C's
        two), each accepting exactly the in-window supersets of its core that
        avoid the possible descendants, and those of the partition items
        (A.3, B.2), which accept only some of their core's supersets."""
        items: list[AdjustmentSet] = []
        partition: list[AdjustmentSet] = []
        for name, core in self.cores.items():
            (partition if name.removesuffix("-core") in _PARTITION_ITEMS else items).append(core)
        return items, partition

    def z1_required(self, opened_series: frozenset[str]) -> AdjustmentSet:
        """The mandated part Z1 when the free part opens the colliders of
        ``opened_series``: parents of the causal nodes and of the extended
        causal nodes on the back-door paths it opens, less the possible
        descendants.  Memoised per series set.  Only the extended causal
        nodes that are not causal nodes need a back-door witness: the causal
        nodes' parents are mandated anyway."""
        z1 = self._z1.get(opened_series)
        if z1 is None:
            x, y = self.q.treatment, self.q.outcome
            ecnbd = _open_backdoor_ecn(self.g, x, y, self.ecn - self.cn, opened_series)
            z1 = instantiate(self.g.parents_of_set(self.cn | ecnbd), self.floor, 0) - self.d
            self._z1[opened_series] = z1
        return z1

    def partition_witness(self, z: AdjustmentSet) -> AdjustmentSet | None:
        """Search for Z = Z1 (+) Z2 with Z1 mandated by the colliders Z2 opens.

        The mandated part depends on Z2 only through the series it mentions,
        so candidate partitions are enumerated over series subsets of Z.
        Returns the mandated Z1 of the first valid partition, else None.
        ``z1_required`` is monotone in the opened series, so every mandated
        part holds the item's core ``z1_required(frozenset())``: a set
        without it is refused before the walk.
        """
        if not self.z1_required(frozenset()) <= z:
            return None
        present = sorted({tv.series for tv in z}, key=self.g.index)
        for k in range(len(present) + 1):
            for combo in combinations(present, k):
                z1 = self.z1_required(frozenset(combo))
                if not z1 <= z:
                    continue
                z2 = z - z1
                if self.z1_required(frozenset(tv.series for tv in z2)) == z1:
                    return z1
        return None

    def partition_caveats(self) -> tuple[str, ...]:
        if self.ecn != self.cn:
            return (PARTITION_CYCLE_CAVEAT,)
        return ()

    @cached_property
    def condition_c_parts(self) -> tuple[AdjustmentSet, AdjustmentSet, AdjustmentSet]:
        pa_x, pa_y = self.g.parents(self.q.treatment), self.g.parents(self.q.outcome)
        base = (
            instantiate(pa_x, -self.q.gamma_max, 0) | instantiate(pa_y, -self.q.gamma_max, 0)
        ) - self.d
        all_x = instantiate(pa_x, self.floor, self.floor)
        all_y = instantiate(pa_y, self.floor, self.floor)
        return base, all_x, all_y

    @cached_property
    def a1(self) -> AdjustmentSet:
        """The largest baseline set; see ``set_a1``."""
        g, q, lo = self.g, self.q, self.floor
        de_x = descendants(g, [q.treatment])
        return instantiate(de_x, lo - 1, -q.gamma - 1) | instantiate(
            frozenset(g.nodes) - de_x, lo, -q.gamma
        )

    @cached_property
    def a2(self) -> AdjustmentSet:
        """The ancestral baseline set; see ``set_a2``."""
        an_xy = ancestors(self.g, [self.q.treatment, self.q.outcome])
        return frozenset(tv for tv in self.a1 if tv.series in an_xy)


@lru_cache(maxsize=1)
def query_facts(g: SCG, q: MicroQuery) -> _QueryFacts:
    return _QueryFacts(g, q)


def _check_z_shape(g: SCG, q: MicroQuery, z: AdjustmentSet) -> None:
    # Most recent offset first, ties by name: with several bad variables the
    # one reported must not depend on the hash seed, and ``sort_temporal``
    # would raise on an unknown series before reaching the window check.
    for tv in sorted(z, key=lambda tv: (-tv.offset, tv.series)):
        g.index(tv.series)
        if not (q.window_floor <= tv.offset <= 0):
            raise WindowError(
                f"{tv.label()} outside adjustment window [{q.window_floor}, 0]"
            )


# The items of conditions A and B in document order.  An item the query has
# no core for is reported with its reason below; the partition items accept
# through a mandated/free partition of the set rather than through their core.
_AB_ITEMS = {
    VerdictKind.COND_A: ("A", ("A.1", "A.2", "A.3", "A.4")),
    VerdictKind.COND_B: ("B", ("B.1", "B.2")),
}
_INAPPLICABLE = {
    "A.2": "treatment lies on a cycle",
    "A.3": "requires gamma = 0",
    "A.4": "requires a cycle on the treatment and gamma > 0",
}
_PARTITION_ITEMS = ("A.3", "B.2")


def scg_backdoor_check(g: SCG, q: MicroQuery, z: Iterable[TemporalVar]) -> CriterionReport:
    """Decide whether ``z`` satisfies the macro-level back-door criterion.

    Items are tried in document order within the verdict's condition and the
    report names the first one that fires.  A non-ancestor treatment accepts
    any in-window set disjoint from its possible descendants; a
    not-identifiable verdict rejects every set.
    """
    z = frozenset(z)
    # A bad set is reported before the query's facts are built.
    floor = q.window_floor
    if not all(series in g._index and floor <= offset <= 0 for series, offset in z):
        _check_z_shape(g, q, z)
    return query_facts(g, q).report(z)


def set_a1(g: SCG, q: MicroQuery) -> AdjustmentSet:
    """Largest baseline set: all non-descendant series over the adjustment band,
    descendants shifted one slice further into the past."""
    return _require_identifiable(g, q, allow_non_ancestor=True).a1


def set_a2(g: SCG, q: MicroQuery) -> AdjustmentSet:
    """Ancestral baseline set: the restriction of the largest baseline to
    ancestors of the treatment or outcome."""
    return _require_identifiable(g, q, allow_non_ancestor=True).a2


def _require_identifiable(g: SCG, q: MicroQuery, allow_non_ancestor: bool = False) -> _QueryFacts:
    facts = query_facts(g, q)
    if facts.verdict.kind is VerdictKind.NOT_IDENTIFIABLE:
        raise NotIdentifiableError("micro effect is not identifiable by adjustment")
    if facts.verdict.kind is VerdictKind.NON_ANCESTOR and not allow_non_ancestor:
        raise NotIdentifiableError(
            "treatment is not an ancestor of the outcome; no adjustment set is defined"
        )
    return facts


def qopt(g: SCG, q: MicroQuery) -> AdjustmentSet:
    """Quasi-optimal adjustment set: the core of the most specific criterion
    item that applies to the verdict, the last of the query's cores."""
    return next(reversed(_require_identifiable(g, q).cores.values()))


def canonical_sets(g: SCG, q: MicroQuery) -> dict[str, AdjustmentSet]:
    """The named sets for this query: qopt, the two baselines, and the mandated
    core of every criterion item applicable to the verdict."""
    facts = _require_identifiable(g, q, allow_non_ancestor=True)
    if facts.verdict.kind is VerdictKind.NON_ANCESTOR:
        return {"empty": EMPTY}
    cores = facts.cores
    return {"qopt": next(reversed(cores.values())), "a1": facts.a1, "a2": facts.a2, **cores}


class _PrunedUnrolling:
    """Int masks of one unrolling over a padded window, built straight from
    lag entries ``((u, w), lags)`` without an ``UnrolledGraph``: bit
    ``(offset - lo) * |nodes| + series index`` stands for a temporal variable
    of the window ``[lo, hi]`` (``mask``), and edges leaving the window are
    dropped.  The treatment's outgoing edges are pruned from the parent and
    child masks; its descendant mask keeps them.  ``check`` then costs one
    descendant-mask test plus one run of the shared Bayes-ball
    ``graph.d_connected``.

    The masks are built by shifting, not by a walk over edges, lags and
    slices.  Each series w gets a parent pattern, bit ``base + u - lag * n``
    for each edge u -> w and lag (``base`` being the largest lag times n,
    the node count); its parent mask at slice k is the pattern shifted by
    ``k * n``, less ``base``, so the shift drops exactly the edges that
    enter from before the window.  Each series u gets a child pattern, bit
    ``w + lag * n`` for each edge u -> w and lag; its child mask at slice k
    is the pattern shifted by ``k * n`` and cut to the window, which drops
    exactly the edges that leave it.
    """

    def __init__(self, g: SCG, q: MicroQuery, extra_padding: int, lag_entries: Iterable):
        self.q = q
        self.window = lo, hi = padded_window(g, q, extra_padding)
        self._index = index = g._index
        self._n = n = len(g.nodes)
        slices = hi - lo + 1
        self._x = x = self.mask([q.treatment_var])
        self._y = self.mask([q.outcome_var])
        lag_entries = tuple(lag_entries)
        base = n * max((lag for _, ls in lag_entries for lag in ls), default=0)
        up, down = [0] * n, [0] * n
        for (u, w), ls in lag_entries:
            for lag in ls:
                up[index[w]] |= 1 << (base + index[u] - lag * n)
                down[index[u]] |= 1 << (index[w] + lag * n)
        # The treatment's outgoing edges are pruned for the d-separation
        # test, kept for descendants.
        keep, full = ~x, (1 << n * slices) - 1
        self._parents = [((p << s) >> base) & keep for s in range(0, n * slices, n) for p in up]
        self._children = children = [(c << s) & full for s in range(0, n * slices, n) for c in down]
        xi = x.bit_length() - 1
        x_children, children[xi] = children[xi], 0
        self._de_x = x | mask_closure(children, x_children)

    def mask(self, z: Iterable[TemporalVar]) -> int:
        lo, hi = self.window
        m = 0
        for tv in z:
            series, offset = tv
            i = self._index.get(series)
            if i is None or not lo <= offset <= hi:
                raise GraphError(f"temporal node {tv} outside window {self.window}")
            m |= 1 << ((offset - lo) * self._n + i)
        return m

    def descendant_clash(self, z: Iterable[TemporalVar]) -> bool:
        return bool(self.mask(z) & self._de_x)

    def check(self, z: Iterable[TemporalVar]) -> bool:
        zm = self.mask(z)
        if zm & self._de_x:
            return False
        return not d_connected(self._parents, self._children, self._x, self._y, zm)


class BackdoorTester(_PrunedUnrolling):
    """Reusable classical back-door check against one template, over the
    query's padded window widened by ``extra_padding`` past slices."""

    def __init__(self, tmpl: FTDagTemplate, q: MicroQuery, extra_padding: int = 0):
        super().__init__(tmpl.scg, q, extra_padding, tmpl.lag_entries)


def union_lag_entries(g: SCG, gamma_max: int) -> dict[tuple[str, str], range]:
    """The lags of the union of every compatible template: 0..gamma_max on
    every non-self edge and 1..gamma_max on every self-loop, as in
    ``unroll.possible_descendants``."""
    lags = range(gamma_max + 1)
    return {(u, w): lags[1:] if u == w else lags for (u, w) in g.edge_list}


class _UnionUnrolling(_PrunedUnrolling):
    """One unrolling of the union certificate, over the deeper padded window
    ``padded_window(g, q, gamma_max + 1)``, with the reaches of the query's
    cores in it."""

    def __init__(self, g: SCG, q: MicroQuery, lag_entries: Iterable):
        super().__init__(g, q, q.gamma_max + 1, lag_entries)
        self._g = g

    @cached_property
    def _cores(self) -> list[list]:
        """``[C, R_X, R_Y]`` for each core C of ``query_facts(g, q).cores``
        certified here: C lies in the window and avoids the treatment's
        descendants and the outcome, and R_X, the nodes the ball from the
        treatment reaches given C, misses the outcome.  R_Y, the same from
        the outcome, is walked on first use; until then it is None.
        Neither reach holds a bit of C."""
        out = []
        for core in query_facts(self._g, self.q).cores.values():
            try:
                c = self.mask(core)
            except GraphError:
                continue
            if c & (self._de_x | self._y):
                continue
            r_x = d_reach(self._parents, self._children, self._x, c, self._y)
            if not r_x & self._y:
                out.append([c, r_x, None])
        return out

    def _r_y(self, core: list) -> int:
        if core[2] is None:
            core[2] = d_reach(self._parents, self._children, self._y, core[0])
        return core[2]

    def certifies_up_set(self, c: int, pool: int) -> bool:
        """Whether ``certifies`` passes every set z with C <= z <= pool, for
        the core C of mask ``c``: C is one of the certified cores, the pool
        misses the descendants, and pool - C misses R_X or misses R_Y, so
        every such z - C misses it too.  Neither reach holds a bit of C, so
        the pool's mask stands for pool - C."""
        if pool & self._de_x:
            return False
        for core in self._cores:
            if core[0] == c:
                return not pool & core[1] or not pool & self._r_y(core)
        return False

    def certifies(self, zm: int) -> bool:
        """Whether the set of mask ``zm`` passes the back-door check in every
        template whose unrolling at either padding is a subgraph of this one.

        A set that holds a certified core C and avoids the descendants
        passes when W = z - C misses R_X or misses R_Y.  In such a template
        T the reaches only shrink, so the outcome is not in the treatment's
        reach given C there, and W misses one of the two reaches: X is
        d-separated from Y given C, and from W, or W from Y.  Composition
        gives X from {Y} + W given C (or {X} + W from Y), and weak union X
        from Y given z.  Any other set takes one walk here."""
        if zm & self._de_x:
            return False
        for core in self._cores:
            if core[0] & ~zm:
                continue
            if not zm & core[1] or not zm & self._r_y(core):
                return True
        return not d_connected(self._parents, self._children, self._x, self._y, zm)


class UnionTester:
    """A certificate that a set passes the classical back-door check in every
    compatible template, at every extra padding up to ``gamma_max + 1``.

    It unrolls one union template over the window at that padding
    (``union_lag_entries``): every non-self edge carries every lag
    0..gamma_max and every self-loop every lag 1..gamma_max.  The unrolling
    may hold directed cycles.  It is sound because every compatible
    template's unrolling is a subgraph of the union's, and a shallower
    padding's unrolling a subgraph of a deeper one: descendants only grow
    with the graph, and so does the set the Bayes-ball reaches.

    When the graph has both treatment -> outcome and outcome -> treatment,
    it unrolls two masks instead, one per lag-0 orientation of that
    2-cycle: one of the two edges keeps lags 0..gamma_max, the other lags
    1..gamma_max.  A template's lag-0 edges are acyclic, so it holds at
    most one of the two lag-0 edges, and its unrollings are subgraphs of
    one of the masks.  ``certify`` then passes a set only when both
    certify it (``_UnionUnrolling.certifies``); the two share one window,
    and so one mask per set.  A set it refuses may still be valid; only the
    templates can tell.
    """

    def __init__(self, g: SCG, q: MicroQuery):
        self.q = q
        entries = union_lag_entries(g, q.gamma_max)
        xy, yx = (q.treatment, q.outcome), (q.outcome, q.treatment)
        if xy in entries and yx in entries:
            lagged = range(1, q.gamma_max + 1)
            orientations = [{**entries, yx: lagged}, {**entries, xy: lagged}]
        else:
            orientations = [entries]
        self._unrollings = [_UnionUnrolling(g, q, e.items()) for e in orientations]

    def certify(self, z: Iterable[TemporalVar]) -> bool:
        zm = self._unrollings[0].mask(z)
        for u in self._unrollings:
            if not u.certifies(zm):
                return False
        return True

    def certify_up_set(self, core: AdjustmentSet, pool: Iterable[TemporalVar]) -> bool:
        """Whether ``certify`` passes every set that holds ``core`` and lies
        within ``pool``, decided with one test per lag-0 orientation
        (``_UnionUnrolling.certifies_up_set``) and no set built.  A family it
        refuses may still be certified set by set."""
        first = self._unrollings[0]
        c, pm = first.mask(core), first.mask(pool)
        return all(u.certifies_up_set(c, pm) for u in self._unrollings)


def estimand(q: MicroQuery, z: Iterable[TemporalVar]) -> dict:
    """Machine-readable adjustment-formula rendering for the chosen set."""
    z = sorted(frozenset(z), key=lambda tv: (-tv.offset, tv.series))

    def label(tv: TemporalVar) -> str:
        if tv.offset == 0:
            return f"{tv.series.lower()}[t]"
        return f"{tv.series.lower()}[t{tv.offset}]"

    xv = label(TemporalVar(q.treatment, -q.gamma))
    yv = label(TemporalVar(q.outcome, 0))
    zlabels = [label(tv) for tv in z]
    if zlabels:
        joined = ", ".join(zlabels)
        expression = f"sum over {{{joined}}} of P({yv} | {xv}, {joined}) * P({joined})"
    else:
        expression = f"P({yv} | {xv})"
    return {
        "treatment": [q.treatment, -q.gamma],
        "outcome": [q.outcome, 0],
        "adjustment": [[tv.series, tv.offset] for tv in z],
        "expression": expression,
    }


def adjustment_set_to_obj(g: SCG, z: Iterable[TemporalVar]) -> list[list]:
    return [[tv.series, tv.offset] for tv in sort_temporal(g, frozenset(z))]


def adjustment_set_from_obj(obj) -> AdjustmentSet:
    if not isinstance(obj, (list, tuple)):
        raise GraphError("adjustment set must be a list of [series, offset] pairs")
    out = set()
    for item in obj:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GraphError(f"bad adjustment entry {item!r}")
        series, offset = item
        if not isinstance(series, str) or not isinstance(offset, int) or isinstance(offset, bool):
            raise GraphError(f"bad adjustment entry {item!r}")
        out.add(TemporalVar(series, offset))
    return frozenset(out)


def adjustment_set_from_json(text: str) -> AdjustmentSet:
    try:
        return adjustment_set_from_obj(json.loads(text))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid adjustment-set JSON: {exc}") from exc
