"""Full-time unrollings of a summary graph.

A compatible full-time DAG is encoded as a *template*: one non-empty set of
lags per macro edge, with self-loop lags >= 1 and an acyclic lag-0 edge
subgraph (two opposing instantaneous edges cannot coexist under causal
stationarity).  Unrolling a template over an offset window repeats the same
lagged edges at every slice.  Offsets are relative to the outcome time:
0 means t, negative values are the past.
"""

from __future__ import annotations

import json
from itertools import chain, combinations, product
from typing import Iterable, Iterator, NamedTuple

from .graph import (
    SCG,
    GraphError,
    _Record,
    closure,
    scc_partition,
    topological_order,
)


class TemporalVar(NamedTuple):
    """One time point of one series, at an integer offset relative to t."""

    series: str
    offset: int

    def label(self) -> str:
        return f"{self.series}@{self.offset}"


class QueryError(ValueError):
    """Malformed micro query."""


# The largest gamma + gamma_max a query may have.  Every macro query builds
# its adjustment window, gamma + gamma_max + 1 slices deep, so an absurd lag
# is refused here rather than exhausting memory.
MAX_HORIZON = 10_000

# The most edges the ``unroll`` command writes out.  A window and a gamma_max
# each within MAX_HORIZON can still ask for millions of edges, so the command
# counts them from the template before it unrolls anything.
MAX_UNROLLED_EDGES = 250_000

# The default densest-template cap of the corpora, the CLI flags and the
# oracle's ``cap`` arguments.
TEMPLATE_CAP = 50


class TemplateError(ValueError):
    """Lag assignment violates the template invariants."""


class TemplateCapExceeded(RuntimeError):
    """More templates exist than the requested cap allows: compatible ones,
    counted up to the first past the cap, or ``densest`` ones, counted
    exactly."""

    def __init__(self, cap: int, partial_count: int, densest: bool = False):
        if densest:
            message = f"{partial_count} densest templates, more than the template cap of {cap}"
        else:
            message = f"more than {cap} compatible templates (stopped at {partial_count})"
        super().__init__(message)
        self.cap = cap
        self.partial_count = partial_count


class MicroQuery(_Record):
    """Effect of treatment@(t-gamma) on outcome@t, with model horizon gamma_max."""

    _fields = ("treatment", "outcome", "gamma", "gamma_max")
    # The query is a key of the per-query caches, so its hash is computed once.
    __slots__ = (*_fields, "_hash")

    def __init__(self, treatment: str, outcome: str, gamma: int, gamma_max: int):
        if treatment == outcome:
            raise QueryError("treatment and outcome must differ (self-effects are undefined)")
        if gamma < 0:
            raise QueryError("gamma must be >= 0")
        if gamma_max < 1:
            raise QueryError("gamma_max must be >= 1")
        if gamma + gamma_max > MAX_HORIZON:
            raise QueryError(f"gamma + gamma_max must be <= {MAX_HORIZON}")
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "gamma_max", gamma_max)
        object.__setattr__(self, "_hash", hash((treatment, outcome, gamma, gamma_max)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def window_floor(self) -> int:
        return -(self.gamma + self.gamma_max)

    @property
    def treatment_var(self) -> TemporalVar:
        return TemporalVar(self.treatment, -self.gamma)

    @property
    def outcome_var(self) -> TemporalVar:
        return TemporalVar(self.outcome, 0)

    def to_json(self) -> str:
        return json.dumps(
            {
                "treatment": self.treatment,
                "outcome": self.outcome,
                "gamma": self.gamma,
                "gamma_max": self.gamma_max,
            }
        )


def instantiate(series: Iterable[str], lo: int, hi: int) -> frozenset[TemporalVar]:
    """The temporal-instantiation operator: every series at every offset in [lo, hi]."""
    return frozenset(TemporalVar(v, s) for v in series for s in range(lo, hi + 1))


def sort_temporal(g: SCG, vars_: Iterable[TemporalVar]) -> list[TemporalVar]:
    """Canonical order: most recent offset first, ties by node declaration."""
    return sorted(vars_, key=lambda tv: (-tv.offset, g.index(tv.series)))


class FTDagTemplate(NamedTuple):
    """One compatible full-time DAG, as per-edge lag sets."""

    scg: SCG
    gamma_max: int
    lag_entries: tuple[tuple[tuple[str, str], tuple[int, ...]], ...]

    @property
    def lags(self) -> dict[tuple[str, str], frozenset[int]]:
        return {edge: frozenset(ls) for edge, ls in self.lag_entries}

    def to_obj(self) -> dict:
        return {
            "scg": {"nodes": list(self.scg.nodes), "edges": [list(e) for e in self.scg.edge_list]},
            "gamma_max": self.gamma_max,
            "lags": [{"edge": list(edge), "set": list(ls)} for edge, ls in self.lag_entries],
        }

    def zero_lag_order(self) -> list[str]:
        """Series in lag-0 topological order, smallest declaration index first."""
        children: dict[str, list[str]] = {v: [] for v in self.scg.nodes}
        for (u, w), ls in self.lag_entries:
            if 0 in ls:
                children[u].append(w)
        order = topological_order(self.scg.nodes, children)
        if order is None:
            raise TemplateError("lag-0 edge subgraph contains a macro cycle")
        return order


def make_template(g: SCG, gamma_max: int, lags: dict[tuple[str, str], Iterable[int]]) -> FTDagTemplate:
    """Validate a lag assignment against the template invariants."""
    if gamma_max < 1:
        raise TemplateError("gamma_max must be >= 1")
    if set(lags) != set(g.edges):
        missing = set(g.edges) - set(lags)
        extra = set(lags) - set(g.edges)
        raise TemplateError(f"lag map must cover the SCG edges exactly (missing {missing}, extra {extra})")
    entries = []
    for edge in g.edge_list:
        ls = tuple(sorted(set(lags[edge])))
        if not ls:
            raise TemplateError(f"empty lag set for edge {edge}")
        lo = 1 if edge[0] == edge[1] else 0
        if ls[0] < lo or ls[-1] > gamma_max:
            raise TemplateError(f"lags {ls} for edge {edge} outside [{lo}, {gamma_max}]")
        entries.append((edge, ls))
    tmpl = FTDagTemplate(g, gamma_max, tuple(entries))
    tmpl.zero_lag_order()  # raises TemplateError on a lag-0 macro cycle
    return tmpl


def _nonempty_lag_subsets(gamma_max: int, self_loop: bool) -> Iterator[tuple[int, ...]]:
    """The non-empty lag sets of one edge, by size and then in
    ``combinations`` order, yielded one at a time."""
    values = range(1 if self_loop else 0, gamma_max + 1)
    for k in range(1, len(values) + 1):
        yield from combinations(values, k)


def iter_compatible_templates(g: SCG, gamma_max: int) -> Iterator[FTDagTemplate]:
    """Lazily enumerate every compatible template, in a deterministic order;
    a ``gamma_max`` below 1 raises at once."""
    if gamma_max < 1:
        raise TemplateError("gamma_max must be >= 1")
    edges = g.edge_list
    chosen: list[tuple[int, ...]] = []
    zero_children: dict[str, set[str]] = {v: set() for v in g.nodes}

    # Each edge's lag sets are generated as the walk reads them, so a walk
    # stopped early builds a few of them, not all 2**gamma_max.
    def rec(i: int) -> Iterator[FTDagTemplate]:
        if i == len(edges):
            yield FTDagTemplate(g, gamma_max, tuple(zip(edges, chosen)))
            return
        u, w = edges[i]
        for subset in _nonempty_lag_subsets(gamma_max, u == w):
            if 0 in subset and u in closure(zero_children, [w]):
                continue
            chosen.append(subset)
            if 0 in subset:
                zero_children[u].add(w)
            yield from rec(i + 1)
            if 0 in subset:
                zero_children[u].discard(w)
            chosen.pop()

    return rec(0)


def enumerate_compatible_templates(g: SCG, gamma_max: int, cap: int) -> list[FTDagTemplate]:
    """Every compatible template, or ``TemplateCapExceeded`` past ``cap``,
    found by arithmetic before any template is built."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = count_compatible_templates(g, gamma_max, cap)
    if n > cap:
        raise TemplateCapExceeded(cap, n)
    return list(iter_compatible_templates(g, gamma_max))


def count_compatible_templates(g: SCG, gamma_max: int, limit: int) -> int:
    """Number of compatible templates, counting no further than ``limit + 1``.

    Counted by arithmetic, with no template built.  Only edges inside a
    strongly connected component can close a lag-0 cycle, so the count is a
    product: 2**L - 1 lag sets per self-loop and 2**(L+1) - 1 per edge
    between components (L = gamma_max), and per component the sum over the
    acyclic sets A of its internal edges given lag 0 of
    (2**L)**|A| * (2**L - 1)**(the other internal edges).  Every factor is
    at least 1, so each one, and the running product, is clamped at
    ``limit + 1``; no 2**L is formed past that."""
    if gamma_max < 1:
        raise TemplateError("gamma_max must be >= 1")
    cap = max(limit, 0) + 1
    k = min(gamma_max, cap.bit_length())
    with_zero, positive, non_self = min(1 << k, cap), min((1 << k) - 1, cap), min((2 << k) - 1, cap)
    part = scc_partition(g)
    loops = sum(u == w for (u, w) in g.edge_list)
    factors = chain(
        [positive] * loops,
        [non_self] * len(part.between),
        (_acyclic_weight_sum(edges, with_zero, positive, cap) for edges in part.internal.values()),
    )
    n = 1
    for factor in factors:
        n = min(n * factor, cap)
        if n == cap:
            break
    return n


def _acyclic_weight_sum(edges: list[tuple[str, str]], with_zero: int, positive: int, cap: int) -> int:
    """The sum over the acyclic subsets A of ``edges`` of
    ``with_zero**|A| * positive**(len(edges) - |A|)``, or ``cap`` once it
    reaches ``cap``.  A depth-first walk that tries each edge with lag 0
    first; every leaf adds at least 1, so it visits at most ``cap`` leaves."""
    zero_children: dict[str, set[str]] = {v: set() for e in edges for v in e}
    # (index, weight before it) of each lag-0 edge whose other choice is
    # still to be walked; these edges are exactly the ones in zero_children.
    branches: list[tuple[int, int]] = []
    total, i, weight = 0, 0, 1
    while True:
        while i < len(edges):
            u, w = edges[i]
            if u in closure(zero_children, [w]):
                weight = min(weight * positive, cap)
            else:
                branches.append((i, weight))
                zero_children[u].add(w)
                weight = min(weight * with_zero, cap)
            i += 1
        total += weight
        if total >= cap or not branches:
            return min(total, cap)
        i, weight = branches.pop()
        u, w = edges[i]
        zero_children[u].discard(w)
        weight = min(weight * positive, cap)
        i += 1


def _orientation_sets(edges: list[tuple[str, str]]) -> list[frozenset[tuple[str, str]]]:
    """The internal-edge sets of one strongly connected component that its
    node orders induce (the edges pointing forward), in
    ``sorted(..., key=sorted)`` order.

    They are the sets of the acyclic orientations of the component's
    undirected skeleton, an antiparallel pair being one skeleton edge (see
    ``count_densest_templates``).  A depth-first walk orients each skeleton
    edge in turn, either way that closes no directed cycle; one way always
    does, and any acyclic partial orientation extends to a whole one, so
    every leaf is an acyclic orientation and each comes once."""
    pairs = list(dict.fromkeys(tuple(sorted(e)) for e in edges))
    children: dict[str, set[str]] = {v: set() for e in edges for v in e}
    out: list[frozenset[tuple[str, str]]] = []

    def walk(i: int) -> None:
        if i == len(pairs):
            out.append(frozenset(e for e in edges if e[1] in children[e[0]]))
            return
        a, b = pairs[i]
        for u, w in ((a, b), (b, a)):
            if u not in closure(children, [w]):
                children[u].add(w)
                walk(i + 1)
                children[u].discard(w)

    walk(0)
    return sorted(out, key=sorted)


def _zero_lag_choices(g: SCG) -> tuple[set[tuple[str, str]], list[list[frozenset[tuple[str, str]]]]]:
    """The lag-0 edges of the densest templates: the non-self edges between
    strongly connected components, which keep lag 0 in all of them, and for
    each component with internal edges, in component order, the
    internal-edge sets that its node orders induce (``_orientation_sets``)."""
    part = scc_partition(g)
    per_scc = [_orientation_sets(part.internal[idx]) for idx in sorted(part.internal)]
    return set(part.between), per_scc


def count_densest_templates(g: SCG) -> int:
    """Number of densest templates, counted with no node order walked and no
    template built: the product over strongly connected components of the
    distinct internal-edge sets that their node orders induce.

    Within a component these sets correspond one-to-one to the acyclic
    orientations of its undirected skeleton, an antiparallel pair being one
    skeleton edge: an order orients each skeleton edge forward, and the
    orientation gives back the set (of an antiparallel pair exactly one edge
    points forward).  Their number is the chromatic polynomial at -1, up to
    sign (Stanley 1973, "Acyclic orientations of graphs"); it is computed by
    inclusion-exclusion over the set of sources: a(S) is the sum over the
    non-empty independent I within S of (-1)**(|I|+1) * a(S - I), with a of
    the empty set 1."""
    part = scc_partition(g)
    n = 1
    for idx, edges in part.internal.items():
        index = {v: i for i, v in enumerate(part.components[idx])}
        skeleton = [0] * len(index)
        for (u, w) in edges:
            skeleton[index[u]] |= 1 << index[w]
            skeleton[index[w]] |= 1 << index[u]
        n *= _acyclic_orientations(skeleton)
    return n


def _acyclic_orientations(adj: list[int]) -> int:
    """Number of acyclic orientations of the undirected graph whose node i
    has the neighbour mask ``adj[i]``, by the source-set recurrence over all
    3**len(adj) pairs of a node set and a subset of it."""
    full = 1 << len(adj)
    # signed[I]: 0 unless I is independent, else (-1)**(|I|+1).
    signed = [0] * full
    a = [0] * full
    a[0] = 1
    for s in range(1, full):
        low = s & -s
        rest = s ^ low
        if (rest == 0 or signed[rest]) and not adj[low.bit_length() - 1] & s:
            signed[s] = 1 if s.bit_count() % 2 else -1
        total = 0
        sub = s
        while sub:
            total += signed[sub] * a[s ^ sub]
            sub = (sub - 1) & s
        a[s] = total
    return a[full - 1]


def densest_templates(g: SCG, gamma_max: int) -> list[FTDagTemplate]:
    """Templates with maximal lag sets: full lags everywhere, lag 0 kept on
    the non-self edges between strongly connected components and, within
    each component, on the internal edges that point forward in one node
    order; one template per distinct choice, each listed from an acyclic
    orientation of the component's skeleton, with no node order walked."""
    always_zero, per_scc = _zero_lag_choices(g)
    results: list[FTDagTemplate] = []
    for choice in product(*per_scc):
        zero = always_zero.union(*choice)
        lags = {edge: range(0 if edge in zero else 1, gamma_max + 1) for edge in g.edge_list}
        results.append(make_template(g, gamma_max, lags))
    return results


def undominated_templates(dense: list[FTDagTemplate]) -> list[FTDagTemplate]:
    """The densest templates (as ``densest_templates`` lists them) whose lag-0
    edge set is not strictly contained in another's, in the same order.

    Densest templates differ only in their lag-0 edges, so every densest
    template, and hence every compatible one, lies lag-set-wise within a kept
    one.  A property that a template passes on to every template it contains
    (back-door validity of a set), or inherits from every template it
    contains (a descendant relation), is therefore decided by these alone."""
    zero = [frozenset(e for e, ls in t.lag_entries if 0 in ls) for t in dense]
    return [t for t, s in zip(dense, zero) if not any(s < other for other in zero)]


class UnrolledGraph(_Record):
    """A template unrolled over an offset window; always acyclic."""

    _fields = ("window", "series", "nodes", "edges")
    __slots__ = (*_fields, "parents", "children")

    def __init__(
        self,
        window: tuple[int, int],
        series: tuple[str, ...],
        nodes: tuple[TemporalVar, ...],
        edges: frozenset[tuple[TemporalVar, TemporalVar]],
    ):
        par: dict[TemporalVar, list[TemporalVar]] = {v: [] for v in nodes}
        chi: dict[TemporalVar, list[TemporalVar]] = {v: [] for v in nodes}
        for (u, w) in edges:
            par[w].append(u)
            chi[u].append(w)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "parents", {v: tuple(par[v]) for v in nodes})
        object.__setattr__(self, "children", {v: tuple(chi[v]) for v in nodes})

    def check_nodes(self, s: Iterable[TemporalVar]) -> None:
        for v in s:
            if v not in self.parents:
                raise GraphError(f"temporal node {v} outside window {self.window}")

    def descendants_of(self, s: Iterable[TemporalVar]) -> frozenset[TemporalVar]:
        s = frozenset(s)
        self.check_nodes(s)
        return frozenset(closure(self.children, s))

    def ancestors_of(self, s: Iterable[TemporalVar]) -> frozenset[TemporalVar]:
        s = frozenset(s)
        self.check_nodes(s)
        return frozenset(closure(self.parents, s))

    def to_edgelist(self) -> str:
        lines = [f"{u.label()} -> {w.label()}" for (u, w) in self.edges]
        return "\n".join(sorted(lines)) + ("\n" if lines else "")


def unroll(tmpl: FTDagTemplate, lo: int, hi: int) -> UnrolledGraph:
    """Repeat the template's lagged edges at every slice of [lo, hi]."""
    if lo > hi:
        raise ValueError("window must satisfy lo <= hi")
    g = tmpl.scg
    nodes = tuple(TemporalVar(v, s) for s in range(lo, hi + 1) for v in g.nodes)
    edges = set()
    for (u, w), ls in tmpl.lag_entries:
        for lag in ls:
            for target in range(lo + lag, hi + 1):
                edges.add((TemporalVar(u, target - lag), TemporalVar(w, target)))
    return UnrolledGraph((lo, hi), g.nodes, nodes, frozenset(edges))


def unrolled_edge_count(tmpl: FTDagTemplate, lo: int, hi: int) -> int:
    """The number of edges ``unroll(tmpl, lo, hi)`` builds, counted without
    building them: a lag ``l`` edge lands in every slice but the first ``l``."""
    return sum(max(0, hi - lo + 1 - lag) for _, lags in tmpl.lag_entries for lag in lags)


def padded_window(g: SCG, q: MicroQuery, extra: int = 0) -> tuple[int, int]:
    """Unrolling window for blocking checks: the adjustment window extended by
    |nodes|*(gamma_max+1) past slices (plus ``extra``) and gamma_max future ones."""
    pad = len(g.nodes) * (q.gamma_max + 1) + extra
    return (q.window_floor - pad, q.gamma_max)


def possible_descendants(
    g: SCG, v: str, offset: int, window: tuple[int, int], gamma_max: int
) -> frozenset[TemporalVar]:
    """Temporal variables that descend from ``v@offset`` in some compatible FT-DAG.

    Computed as reachability in one *union unrolling* of the window, in
    which every non-self edge carries every lag 0..gamma_max, every
    self-loop every lag 1..gamma_max, and edges leaving the window are
    dropped.  The walk is lazy: it starts at ``v@offset`` and expands a
    temporal variable ``u@s`` (to ``w@t`` for every edge u -> w and every t
    from s, or s + 1 on a self-loop, to s + gamma_max) only once it reaches
    it, so no template is enumerated and no unreached variable is built.

    Every compatible template is contained lag-set-wise in a densest one, so
    it suffices to match the union over densest templates.  A densest
    template keeps lags 1..gamma_max on every edge and lag 0 on every
    inter-component edge plus the intra-component edges pointing forward in
    some node order pi.  Each densest unrolling is a subgraph of the union
    unrolling, which gives one inclusion.  Conversely, a path from ``v@o`` to
    ``w@o+k`` in the union unrolling is a macro walk W from v to w whose lags
    sum to k, i.e. s(W) <= k <= gamma_max*|W| with s(W) its self-loop count
    (lags redistribute freely, and intermediate offsets stay in [o, o+k]).
    Take W shortest among such walks.  If k >= |W|, put lag >= 1 on every
    step: present in every densest template.  Otherwise removing any closed
    subwalk K keeps s <= k, so by minimality gamma_max*(|W|-|K|) < k, hence
    |K| > |W| - k: the first |W| - k steps of W repeat no node.  They form a
    simple path without self-loops; give them lag 0, the other k steps lag 1,
    and take pi to order that path forward.  That densest template contains
    the walk.
    """
    lo, hi = window
    if not (lo <= offset <= hi):
        raise ValueError(f"offset {offset} outside window {window}")
    g.index(v)
    if gamma_max < 1:
        raise TemplateError("gamma_max must be >= 1")
    children = g._children
    start = TemporalVar(v, offset)
    reached, stack = {start}, [start]
    while stack:
        u, s = stack.pop()
        top = min(s + gamma_max, hi) + 1
        for w in children[u]:
            for t in range(s + (w == u), top):
                tv = TemporalVar(w, t)
                if tv not in reached:
                    reached.add(tv)
                    stack.append(tv)
    return frozenset(reached)


__all__ = [
    "TemporalVar",
    "MicroQuery",
    "QueryError",
    "FTDagTemplate",
    "TemplateError",
    "TemplateCapExceeded",
    "UnrolledGraph",
    "instantiate",
    "sort_temporal",
    "make_template",
    "iter_compatible_templates",
    "enumerate_compatible_templates",
    "count_compatible_templates",
    "count_densest_templates",
    "densest_templates",
    "undominated_templates",
    "unroll",
    "padded_window",
    "possible_descendants",
]
