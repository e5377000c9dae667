"""Macro-level summary causal graphs and the package's graph-walk kernel.

A summary causal graph (SCG) has one node per time series.  Unlike the
full-time graphs it abstracts, an SCG may contain directed cycles and
self-loops; a self-loop is stored as an ordinary ``(v, v)`` edge and counts
as a cycle of length one.  Node order is declaration order and every
serialized node set is emitted in that order, so identical inputs produce
byte-identical outputs.

The graph-walk kernel lives here.  ``closure`` and ``topological_order``
work on ``adj[v]`` lookups, so the same code serves name-keyed SCG indexes,
``TemporalVar``-keyed unrollings and int-indexed adjacency lists.
``closure`` is the one reachability walk: an SCG's ancestors, descendants
and strongly connected components (classes of mutual reachability) all come
from it; ``mask_closure`` is the same walk over int masks, bit i standing
for node i.  ``d_reach`` is the package's one Bayes-ball, on int masks too:
it returns every node a trail active given ``z`` reaches, and
``d_connected`` asks it whether one of them is the other end.
"""

from __future__ import annotations

import json
from heapq import heapify, heappop, heappush
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

NodeId = str


class GraphError(ValueError):
    """Malformed graph input (duplicate names, undeclared endpoints, ...)."""


class _Record:
    """Base of the read-only records with ``__slots__``: equal to another of
    its class with equal ``_fields``, hashed by them and shown as
    ``Name(field=value, ...)``.  A constructor sets the slots through
    ``object.__setattr__``; any other assignment raises ``AttributeError``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # ``cls._key(record)`` is the tuple of the record's fields.
        cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __reduce__(self):
        # Rebuilt from its fields: a string's hash, and so a cached one,
        # differs between interpreters.
        return self.__class__, self._key(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SCG(_Record):
    """Summary causal graph: ordered nodes plus a set of directed edges."""

    _fields = ("nodes", "edges")
    # ``_parents`` and ``_children`` hold the adjacency in declaration order;
    # a self-loop lists v under its own parents and children.  The graph is a
    # key of the per-query caches, so its hash is computed once.  ``_scc`` is
    # None until ``scc_partition`` sets it on first use.
    __slots__ = (*_fields, "_index", "_parents", "_children", "_edge_list", "_hash", "_scc")

    def __init__(self, nodes: tuple[NodeId, ...], edges: frozenset[tuple[NodeId, NodeId]]):
        index = {v: i for i, v in enumerate(nodes)}
        parents: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
        children: dict[NodeId, list[NodeId]] = {v: [] for v in nodes}
        edge_list = tuple(sorted(edges, key=lambda e: (index[e[0]], index[e[1]])))
        for (u, w) in edge_list:
            parents[w].append(u)
            children[u].append(w)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parents", {v: tuple(ps) for v, ps in parents.items()})
        object.__setattr__(self, "_children", {v: tuple(cs) for v, cs in children.items()})
        object.__setattr__(self, "_edge_list", edge_list)
        object.__setattr__(self, "_hash", hash((nodes, edges)))
        object.__setattr__(self, "_scc", None)

    def __hash__(self) -> int:
        return self._hash

    def index(self, v: NodeId) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def check_nodes(self, s: Iterable[NodeId]) -> None:
        for v in s:
            self.index(v)

    @property
    def edge_list(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Edges sorted by (source, target) declaration order."""
        return self._edge_list

    def parents(self, v: NodeId) -> frozenset[NodeId]:
        self.index(v)
        return frozenset(self._parents[v])

    def children(self, v: NodeId) -> frozenset[NodeId]:
        self.index(v)
        return frozenset(self._children[v])

    def parents_of_set(self, s: Iterable[NodeId]) -> frozenset[NodeId]:
        """Union of parents; a member with a self-loop is its own parent."""
        s = frozenset(s)
        self.check_nodes(s)
        return frozenset(u for w in s for u in self._parents[w])

    def has_self_loop(self, v: NodeId) -> bool:
        self.index(v)
        return (v, v) in self.edges

    def sorted_nodes(self, s: Iterable[NodeId]) -> list[NodeId]:
        return sorted(s, key=self.index)

    def to_json(self) -> str:
        payload = {"nodes": list(self.nodes), "edges": [list(e) for e in self.edge_list]}
        return json.dumps(payload, indent=2)


def _as_tuple(raw, what: str) -> tuple:
    # Strings and JSON objects iterate, but as characters and keys, never as a
    # list of names or a (source, target) pair.
    if not isinstance(raw, (str, dict)):
        try:
            return tuple(raw)
        except TypeError:
            pass
    raise GraphError(f"{what} must be a list, got {raw!r}")


def validate_scg(raw_nodes: Iterable[NodeId], raw_edges: Iterable[tuple[NodeId, NodeId]]) -> SCG:
    """Canonicalize raw node/edge lists into an SCG or raise ``GraphError``."""
    nodes = _as_tuple(raw_nodes, "nodes")
    seen: set[NodeId] = set()
    for v in nodes:
        if not isinstance(v, str) or not v:
            raise GraphError(f"node name must be a non-empty string, got {v!r}")
        if v in seen:
            raise GraphError(f"duplicate node name {v!r}")
        seen.add(v)
    edges = []
    edge_seen: set[tuple[NodeId, NodeId]] = set()
    for e in _as_tuple(raw_edges, "edges"):
        e = _as_tuple(e, "edge")
        if len(e) != 2:
            raise GraphError(f"edge must be a (source, target) pair, got {e!r}")
        for v in e:
            if not isinstance(v, str) or v not in seen:
                raise GraphError(f"edge {e!r} has undeclared endpoint {v!r}")
        u, w = e
        if (u, w) in edge_seen:
            raise GraphError(f"duplicate edge {e!r}")
        edge_seen.add((u, w))
        edges.append((u, w))
    return SCG(nodes, frozenset(edges))


def scg_from_json(text: str) -> SCG:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or "nodes" not in payload or "edges" not in payload:
        raise GraphError('graph JSON must be an object with "nodes" and "edges"')
    return validate_scg(payload["nodes"], payload["edges"])


def closure(adj, seeds: Iterable) -> set:
    """Reflexive-transitive closure of ``seeds`` under ``adj[v]``."""
    out = set(seeds)
    stack = list(out)
    while stack:
        for w in adj[stack.pop()]:
            if w not in out:
                out.add(w)
                stack.append(w)
    return out


def topological_order(nodes: Sequence, children) -> list | None:
    """Kahn's algorithm, taking the ready node of smallest declaration index
    first; ``None`` when the edges close a cycle."""
    rank = {v: i for i, v in enumerate(nodes)}
    indegree = dict.fromkeys(nodes, 0)
    for v in nodes:
        for w in children[v]:
            indegree[w] += 1
    ready = [rank[v] for v in nodes if indegree[v] == 0]
    heapify(ready)
    order = []
    while ready:
        v = nodes[heappop(ready)]
        order.append(v)
        for w in children[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                heappush(ready, rank[w])
    return order if len(order) == len(nodes) else None


def d_reach(parents: Sequence[int], children: Sequence[int], a: int, z: int, stop: int = 0) -> int:
    """Bayes-ball (Shachter 1998): the nodes outside ``z`` that some trail
    from ``a``, active given ``z``, reaches in an acyclic graph, ``a``
    itself included; the walk ends early once it reaches a bit of ``stop``.

    Every argument is an int mask, bit i standing for node i; ``parents[i]``
    and ``children[i]`` are the masks of node i.  A ball arriving from a
    child passes to every parent and child of a node outside ``z`` and stops
    at a node in ``z``.  A ball arriving from a parent passes on to the
    children of a node outside ``z`` and bounces back to the parents of a
    node in ``z``, so a collider opens exactly when a descendant of it is in
    ``z``.  Each node is visited at most once per direction.  Frontier nodes
    are taken highest bit first: in an unrolling the low bits are the
    deepest past slices, which a walk from the present rarely needs before
    it reaches ``stop``.

    Every move of the walk stays a move when nodes or edges are added, so
    the set of nodes it reaches only grows with the graph.  On a graph with
    directed cycles (a union of unrollings, say) that monotonicity is all
    the walk is relied on for.
    """
    # Frontiers of nodes reached from a child (travelling up) and from a parent.
    up, down = a, 0
    seen_up = seen_down = 0
    reached = a
    while (up or down) and not reached & stop:
        if up:
            i = up.bit_length() - 1
            top = 1 << i
            up ^= top
            seen_up |= top
            if top & z:
                continue
            new_up = parents[i] & ~seen_up
            new_down = children[i] & ~seen_down
        else:
            i = down.bit_length() - 1
            top = 1 << i
            down ^= top
            seen_down |= top
            if top & z:
                new_up, new_down = parents[i] & ~seen_up, 0
            else:
                new_up, new_down = 0, children[i] & ~seen_down
        reached |= new_up | new_down
        up |= new_up
        down |= new_down
    return reached & ~z


def d_connected(parents: Sequence[int], children: Sequence[int], a: int, b: int, z: int) -> bool:
    """Whether some trail from ``a`` to ``b`` is active given ``z``: the
    ``d_reach`` walk, ended once it reaches ``b``.  Whether ``b`` itself is
    in ``z`` does not matter, since the walk ends when it gets there."""
    return bool(d_reach(parents, children, a, z & ~b, b) & b)


def mask_closure(children: Sequence[int], seeds: int) -> int:
    """``closure`` over int masks: the nodes reachable from the bits of
    ``seeds``, themselves included, ``children[i]`` being the mask of node
    i's children."""
    reached, todo = 0, seeds
    while todo:
        low = todo & -todo
        reached |= low
        todo = (todo | children[low.bit_length() - 1]) & ~reached
    return reached


def descendants(g: SCG, s: Iterable[NodeId]) -> frozenset[NodeId]:
    """Reflexive-transitive closure along forward edges."""
    s = frozenset(s)
    g.check_nodes(s)
    return frozenset(closure(g._children, s))


def ancestors(g: SCG, s: Iterable[NodeId]) -> frozenset[NodeId]:
    """Reflexive-transitive closure along reversed edges."""
    s = frozenset(s)
    g.check_nodes(s)
    return frozenset(closure(g._parents, s))


class SccPartition(NamedTuple):
    """Strongly connected components; order and membership are deterministic.

    ``between`` holds the non-self edges joining two components and
    ``internal`` those within one, by component index, each in edge-list
    order; only the internal ones can close a lag-0 cycle."""

    component_of: dict[NodeId, int]
    components: tuple[tuple[NodeId, ...], ...]
    between: tuple[tuple[NodeId, NodeId], ...] = ()
    # Read-only: a default is shared by every partition that takes it.
    internal: Mapping[int, list[tuple[NodeId, NodeId]]] = MappingProxyType({})


def scc_partition(g: SCG) -> SccPartition:
    """The strongly connected components of ``g``, computed on first use and
    kept on ``g``: the graph is read-only, so the partition cannot go stale.

    A component is a class of mutual reachability: walking the nodes in
    declaration order, each node not yet placed opens the component of the
    nodes that it reaches and that reach it, both found by ``closure``.  So
    components come ordered by their smallest member index, and members in
    declaration order.  The non-self edges are then split into those between
    components and those within one."""
    part = g._scc
    if part is None:
        component_of: dict[NodeId, int] = {}
        components: list[tuple[NodeId, ...]] = []
        for v in g.nodes:
            if v not in component_of:
                comp = tuple(g.sorted_nodes(closure(g._children, [v]) & closure(g._parents, [v])))
                component_of.update(dict.fromkeys(comp, len(components)))
                components.append(comp)
        between: list[tuple[NodeId, NodeId]] = []
        internal: dict[int, list[tuple[NodeId, NodeId]]] = {}
        for (u, w) in g.edge_list:
            if u == w:
                continue
            if component_of[u] == component_of[w]:
                internal.setdefault(component_of[u], []).append((u, w))
            else:
                between.append((u, w))
        part = SccPartition(component_of, tuple(components), tuple(between), internal)
        object.__setattr__(g, "_scc", part)
    return part


def scc_of(g: SCG, v: NodeId) -> frozenset[NodeId]:
    part = scc_partition(g)
    return frozenset(part.components[part.component_of[v]])


class CycleProfile(NamedTuple):
    has_self_loop: bool
    on_any_cycle: bool
    only_cycle_is_two_cycle_with: NodeId | None


def cycle_profile(g: SCG, v: NodeId) -> CycleProfile:
    """Cycle facts about ``v`` derived from SCC membership and self-loop flags.

    The set of cycles through ``v`` equals the single 2-cycle ``v <-> x``
    exactly when ``v`` has no self-loop and its SCC is ``{v, x}``: any longer
    cycle through ``v`` would pull a third node into the SCC.
    """
    g.index(v)
    comp = scc_of(g, v)
    self_loop = g.has_self_loop(v)
    on_cycle = self_loop or len(comp) > 1
    partner: NodeId | None = None
    if not self_loop and len(comp) == 2:
        (partner,) = [u for u in comp if u != v]
    return CycleProfile(self_loop, on_cycle, partner)


def simple_directed_paths(g: SCG, src: NodeId, dst: NodeId) -> list[tuple[NodeId, ...]]:
    """All simple directed paths from ``src`` to ``dst``, in DFS/declaration order.

    Exponential in the worst case; intended for the small macro graphs this
    package targets (corpora stay at <= 8 nodes).
    """
    g.index(src), g.index(dst)
    children = g._children

    paths: list[tuple[NodeId, ...]] = []
    path: list[NodeId] = [src]
    visiting = {src}

    def walk(v: NodeId) -> None:
        if v == dst:
            paths.append(tuple(path))
            return
        for w in children[v]:
            # ``visiting`` holds v itself, so self-loops are skipped here too.
            if w in visiting:
                continue
            visiting.add(w)
            path.append(w)
            walk(w)
            path.pop()
            visiting.discard(w)

    walk(src)
    return paths
