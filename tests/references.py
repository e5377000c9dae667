"""Reference implementations that the tests compare the library against.

Each one is the plain or exhaustive form of a fact that the library derives
by a faster route: d-separation by path enumeration or by a walk over sets,
possible descendants as a union over every compatible template, the
unrolling masks by a walk over edges, lags and slices, strongly
connected components by Tarjan's algorithm, the criterion's reports built
and rendered afresh on every call, the partition item's search over every
series subset of a set, the oracle's candidate sets as one list,
the soundness experiment's query checked one set at a time, each strongly
connected component's densest lag-0 edge sets from every node order.
Several are exponential and meant for small graphs only.

Three more are the per-template side of the macro answers, which the tests
compare qopt and the mandated part Z1 against: the optimal set of one
full-time DAG (``ftdag_opt``), the deterministic witness template of a
query (``qopt_witness_template``) and the extended causal nodes on some
back-door path that a set's series open (``backdoor_restricted_ecn``).

None of them is used by the package itself.
"""

from __future__ import annotations

from itertools import combinations, permutations
from operator import itemgetter
from typing import Callable, Iterable

from scgadjust.graph import (
    SCG,
    NodeId,
    SccPartition,
    closure,
    cycle_profile,
    d_connected,
    mask_closure,
    simple_directed_paths,
)
from scgadjust.identify import (
    EMPTY,
    AdjustmentSet,
    CriterionReport,
    VerdictKind,
    _check_z_shape,
    _open_backdoor_ecn,
    _require_identifiable,
    adjustment_set_to_obj,
    canonical_sets,
    extended_causal_nodes,
    query_facts,
    scg_backdoor_check,
)
from scgadjust.oracle import candidate_subsets
from scgadjust.unroll import (
    FTDagTemplate,
    MicroQuery,
    QueryError,
    TemporalVar,
    UnrolledGraph,
    enumerate_compatible_templates,
    instantiate,
    make_template,
    padded_window,
    sort_temporal,
    unroll,
)


def macro_projection(tmpl: FTDagTemplate) -> SCG:
    """Collapse a template back to its macro graph (one edge per non-empty lag set)."""
    return SCG(tmpl.scg.nodes, frozenset(edge for edge, ls in tmpl.lag_entries if ls))


def on_any_cycle(g: SCG, v: NodeId) -> bool:
    return cycle_profile(g, v).on_any_cycle


def without_outgoing(u: UnrolledGraph, v: TemporalVar) -> UnrolledGraph:
    """``u`` with the edges leaving ``v`` removed."""
    u.check_nodes([v])
    return UnrolledGraph(
        u.window,
        u.series,
        u.nodes,
        frozenset(e for e in u.edges if e[0] != v),
    )


def d_separated(
    u: UnrolledGraph,
    a: Iterable[TemporalVar],
    b: Iterable[TemporalVar],
    z: Iterable[TemporalVar],
) -> bool:
    """Whether ``z`` blocks every path between ``a`` and ``b``: the arguments
    are checked here and mapped to bits of ``u.nodes``, the walk is the shared
    Bayes-ball ``graph.d_connected``."""
    a, b, z = frozenset(a), frozenset(b), frozenset(z)
    if a & b or a & z or b & z:
        raise ValueError("a, b, z must be pairwise disjoint")
    u.check_nodes(a | b | z)
    index = {v: i for i, v in enumerate(u.nodes)}

    def mask(vs: Iterable[TemporalVar]) -> int:
        return sum(1 << index[v] for v in vs)

    parents = [mask(u.parents[v]) for v in u.nodes]
    children = [mask(u.children[v]) for v in u.nodes]
    return not d_connected(parents, children, mask(a), mask(b), mask(z))


def pruned_unrolling_masks(
    g: SCG, q: MicroQuery, extra_padding: int, lag_entries: Iterable
) -> tuple[list[int], list[int], int, int, int]:
    """The int masks of ``identify._PrunedUnrolling`` built by one walk over
    edges, lags and slices: the parent and child masks without the
    treatment's outgoing edges, the treatment's descendant mask with them,
    and the treatment's and outcome's bits, in its bit layout."""
    lo, hi = padded_window(g, q, extra_padding)
    index, n = g._index, len(g.nodes)
    slices = hi - lo + 1
    xi = (q.treatment_var.offset - lo) * n + index[q.treatment]
    yi = (q.outcome_var.offset - lo) * n + index[q.outcome]
    parents = [0] * (n * slices)
    children = [0] * (n * slices)
    x_children = 0
    for (u, w), ls in lag_entries:
        iu, iw = index[u], index[w]
        for lag in ls:
            for k in range(slices - lag):
                src, dst = k * n + iu, (k + lag) * n + iw
                if src == xi:
                    x_children |= 1 << dst
                else:
                    parents[dst] |= 1 << src
                    children[src] |= 1 << dst
    de_x = (1 << xi) | mask_closure(children, x_children)
    return parents, children, de_x, 1 << xi, 1 << yi


def d_separated_bruteforce(
    u: UnrolledGraph,
    a: Iterable[TemporalVar],
    b: Iterable[TemporalVar],
    z: Iterable[TemporalVar],
) -> bool:
    """Path-enumeration oracle for d-separation; exponential, small graphs only."""
    a, b, z = frozenset(a), frozenset(b), frozenset(z)
    if a & b or a & z or b & z:
        raise ValueError("a, b, z must be pairwise disjoint")
    u.check_nodes(a | b | z)

    def path_active(path: list[TemporalVar], directions: list[bool]) -> bool:
        # directions[i] is True when the i-th step follows the edge forward.
        for i in range(1, len(path) - 1):
            into_prev = directions[i - 1]
            out_next = directions[i]
            collider = into_prev and not out_next
            if collider:
                if not (u.descendants_of([path[i]]) & z):
                    return False
            else:
                if path[i] in z:
                    return False
        return True

    for x in a:
        stack = [(x, [x], [])]
        while stack:
            v, path, dirs = stack.pop()
            if v in b and len(path) > 1:
                if path_active(path, dirs):
                    return False
                continue
            for w in u.children[v]:
                if w not in path:
                    stack.append((w, path + [w], dirs + [True]))
            for w in u.parents[v]:
                if w not in path:
                    stack.append((w, path + [w], dirs + [False]))
    return True


def set_based_d_connected(parents, children, a, b, z) -> bool:
    """Set-based Bayes-ball on ``adj[v]`` lookups that bounces up off every
    collider in the ancestor closure of ``z``: the reference for the int-mask
    ``graph.d_connected``, which bounces at the members of ``z`` only."""
    opens = closure(parents, z)
    seen_up: set = set()
    seen_down: set = set()
    stack = [(x, True) for x in a]
    while stack:
        v, up = stack.pop()
        seen = seen_up if up else seen_down
        if v in seen:
            continue
        seen.add(v)
        if v in b:
            return True
        if up:
            if v not in z:
                stack.extend((p, True) for p in parents[v])
                stack.extend((c, False) for c in children[v])
        else:
            if v not in z:
                stack.extend((c, False) for c in children[v])
            if v in opens:
                stack.extend((p, True) for p in parents[v])
    return False


def possible_descendants_bruteforce(
    g: SCG,
    v: str,
    offset: int,
    window: tuple[int, int],
    gamma_max: int,
    cap: int = 100_000,
) -> frozenset[TemporalVar]:
    """Union of descendant sets over every enumerated compatible template."""
    lo, hi = window
    if not (lo <= offset <= hi):
        raise ValueError(f"offset {offset} outside window {window}")
    out: set[TemporalVar] = set()
    start = TemporalVar(v, offset)
    for tmpl in enumerate_compatible_templates(g, gamma_max, cap):
        u = unroll(tmpl, lo, hi)
        out |= u.descendants_of([start])
    return frozenset(out)


def tarjan(g: SCG) -> SccPartition:
    """Tarjan's algorithm, iterative; components ordered by smallest member index."""
    index_of: dict[NodeId, int] = {}
    lowlink: dict[NodeId, int] = {}
    on_stack: set[NodeId] = set()
    stack: list[NodeId] = []
    counter = 0
    raw_components: list[set[NodeId]] = []
    children = g._children

    for root in g.nodes:
        if root in index_of:
            continue
        work = [(root, iter(children[root]))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(children[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index_of[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                raw_components.append(comp)

    ordered = sorted(
        (tuple(g.sorted_nodes(c)) for c in raw_components),
        key=lambda c: g.index(c[0]),
    )
    component_of = {v: i for i, comp in enumerate(ordered) for v in comp}
    return SccPartition(component_of=component_of, components=tuple(ordered))


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


def eager_scg_backdoor_check(g: SCG, q: MicroQuery, z: Iterable[TemporalVar]) -> CriterionReport:
    """The macro criterion with a new report, its violation text rendered
    afresh, on every call.  It reads the cores, the partition search and the
    condition-C parts from the query's facts, as the library does, and
    decides and words everything else itself."""
    z = frozenset(z)
    if not z <= instantiate(g.nodes, q.window_floor, 0):
        _check_z_shape(g, q, z)
    facts = query_facts(g, q)
    verdict = facts.verdict

    if verdict.kind is VerdictKind.NOT_IDENTIFIABLE:
        return CriterionReport(False, None, None, EMPTY, ("effect not identifiable by adjustment",))

    def labels(vars_: Iterable[TemporalVar]) -> str:
        return ", ".join(tv.label() for tv in sort_temporal(g, vars_))

    clash = z & facts.d
    if clash:
        return CriterionReport(
            False, None, None, EMPTY, (f"possible descendant of treatment in set: {labels(clash)}",)
        )

    if verdict.kind is VerdictKind.NON_ANCESTOR:
        return CriterionReport(True, None, None, EMPTY)

    violations: list[str] = []
    if verdict.kind in _AB_ITEMS:
        condition, items = _AB_ITEMS[verdict.kind]
        for item in items:
            core = facts.cores.get(f"{item}-core")
            if core is None:
                violations.append(f"{item}: {_INAPPLICABLE[item]}")
            elif item in _PARTITION_ITEMS:
                z1 = facts.partition_witness(z)
                if z1 is not None:
                    caveats = facts.partition_caveats()
                    return CriterionReport(True, condition, item, z1, caveats=caveats)
                violations.append(f"{item}: no mandated/free partition of the set exists")
            elif core <= z:
                return CriterionReport(True, condition, item, core)
            else:
                violations.append(f"{item}: missing {labels(core - z)}")
        return CriterionReport(False, condition, None, EMPTY, tuple(violations))

    base, all_x, all_y = facts.condition_c_parts
    if base <= z:
        if all_x <= z:
            return CriterionReport(True, "C", "C", base | all_x)
        if all_y <= z:
            return CriterionReport(True, "C", "C", base | all_y)
        violations.append(
            "C: neither full treatment-parent slice nor full outcome-parent slice "
            f"at offset {facts.floor} is covered"
        )
    else:
        violations.append(f"C: missing {labels(base - z)}")
    return CriterionReport(False, "C", None, EMPTY, tuple(violations))


def partition_witness_walk(facts, z: AdjustmentSet) -> AdjustmentSet | None:
    """``_QueryFacts.partition_witness`` as a walk over every series subset
    of ``z``, with no test of the item's core up front: the mandated Z1 of
    the first valid partition Z = Z1 (+) Z2, else None."""
    present = sorted({tv.series for tv in z}, key=facts.g.index)
    for k in range(len(present) + 1):
        for combo in combinations(present, k):
            z1 = facts.z1_required(frozenset(combo))
            if z1 <= z and facts.z1_required(frozenset(tv.series for tv in z - z1)) == z1:
                return z1
    return None


def eager_candidate_subsets(
    g: SCG, q: MicroQuery, max_subset_size: int, exclude: frozenset = frozenset()
) -> list[AdjustmentSet]:
    """Every in-window subset outside ``exclude`` with at most
    ``max_subset_size`` members, built as one list: by size, then in
    ``combinations`` order."""
    pool = [tv for tv in sort_temporal(g, instantiate(g.nodes, q.window_floor, 0)) if tv not in exclude]
    out: list[AdjustmentSet] = []
    for k in range(0, max_subset_size + 1):
        out.extend(map(frozenset, combinations(pool, k)))
    return out


def per_set_check_query(
    g: SCG, q: MicroQuery, index: int, max_subset_size: int, classical, checker: Callable = scg_backdoor_check
) -> tuple[int, int, list[dict], int]:
    """``oracle._check_query`` one set at a time: the checker judges every
    candidate (with the library's criterion, every superset of a core that
    avoids the possible descendants; with another, every in-window subset),
    and every accepted set and canonical set goes through
    ``classical.witness``, whatever the certificate says of whole families.
    Returns the sets checked and found sound, the counterexamples in
    canonical order of their sets, and the padding instabilities."""
    exclude, cores = frozenset(), (EMPTY,)
    if checker is scg_backdoor_check:
        facts = query_facts(g, q)
        exclude, cores = facts.d, facts.cores.values()
    to_check: dict[AdjustmentSet, str] = {}
    for z in candidate_subsets(g, q, max_subset_size, exclude, cores):
        if checker(g, q, z).satisfied:
            to_check.setdefault(z, "criterion")
    for name, z in canonical_sets(g, q).items():
        to_check.setdefault(z, name)
    n_sound = unstable = 0
    failed: list[dict] = []
    for z, origin in to_check.items():
        witness, k = classical.witness(z)
        unstable += k
        if witness is None:
            n_sound += 1
            continue
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
    return len(to_check), n_sound, sorted(failed, key=itemgetter("set")), unstable


def ftdag_opt(tmpl: FTDagTemplate, q: MicroQuery) -> AdjustmentSet:
    """Variance-optimal adjustment set in one full-time DAG: parents of the
    causal nodes minus descendants of the treatment variable."""
    u = unroll(tmpl, *padded_window(tmpl.scg, q))
    x, y = q.treatment_var, q.outcome_var
    de_x = u.descendants_of([x])
    if y not in de_x:
        raise QueryError("treatment is not an ancestor of the outcome in this template")
    cn = (de_x & u.ancestors_of([y])) - {x}
    parents: set[TemporalVar] = set()
    for v in cn:
        parents.update(u.parents[v])
    return frozenset(parents) - de_x


def qopt_witness_template(g: SCG, q: MicroQuery) -> FTDagTemplate:
    """Deterministic witness template: every edge carries all positive lags;
    instantaneous edges are added greedily along every directed
    treatment-to-outcome path and then closed under parent edges into
    instantaneously-reached nodes, skipping any addition that would create a
    macro cycle."""
    _require_identifiable(g, q)
    zero: set[tuple[str, str]] = set()
    zero_children: dict[str, set[str]] = {v: set() for v in g.nodes}

    def try_add(u: str, w: str) -> None:
        if u == w or (u, w) in zero or (u, w) not in g.edges:
            return
        if u in closure(zero_children, [w]):
            return
        zero.add((u, w))
        zero_children[u].add(w)

    for path in simple_directed_paths(g, q.treatment, q.outcome):
        for i in range(len(path) - 1):
            try_add(path[i], path[i + 1])

    changed = True
    while changed:
        changed = False
        targets = sorted({w for (_, w) in zero}, key=g.index)
        for w in targets:
            for p in g.sorted_nodes(g.parents(w)):
                if (p, w) not in zero and p != w and p not in closure(zero_children, [w]):
                    zero.add((p, w))
                    zero_children[p].add(w)
                    changed = True

    lags = {}
    for edge in g.edge_list:
        base = set(range(1, q.gamma_max + 1))
        if edge in zero:
            base.add(0)
        lags[edge] = base
    return make_template(g, q.gamma_max, lags)


def backdoor_restricted_ecn(g: SCG, x: str, y: str, z2: Iterable[TemporalVar]) -> frozenset[str]:
    """Extended causal nodes on some macro back-door path from ``x`` to ``y``
    whose colliders all have a temporal instance in ``z2``."""
    series = frozenset(tv.series for tv in z2)
    g.check_nodes(series)
    return _open_backdoor_ecn(g, x, y, extended_causal_nodes(g, x, y), series)


def order_induced_subsets(nodes: Iterable[str], edges: list[tuple[str, str]]) -> list[frozenset[tuple[str, str]]]:
    """The distinct subsets of ``edges`` that a linear order of ``nodes``
    induces (the edges pointing forward in it), found by walking every
    order, in ``sorted(..., key=sorted)`` order; n! orders, small graphs
    only."""
    if not edges:
        return [frozenset()]
    seen: set[frozenset[tuple[str, str]]] = set()
    for order in permutations(nodes):
        rank = {v: i for i, v in enumerate(order)}
        seen.add(frozenset((u, w) for (u, w) in edges if rank[u] < rank[w]))
    return sorted(seen, key=sorted)
