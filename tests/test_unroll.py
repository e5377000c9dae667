import importlib
import math
import random
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgadjust import (
    MicroQuery,
    QueryError,
    TemplateCapExceeded,
    TemplateError,
    TemporalVar,
    densest_templates,
    enumerate_compatible_templates,
    instantiate,
    make_template,
    possible_descendants,
    unroll,
    validate_scg,
)
from scgadjust.graph import GraphError, scc_partition
from scgadjust.oracle import CorpusConfig, random_scg
from scgadjust.unroll import (
    MAX_HORIZON,
    count_compatible_templates,
    count_densest_templates,
    iter_compatible_templates,
    sort_temporal,
    undominated_templates,
    unrolled_edge_count,
)

from .conftest import bounded, small_scgs, tv, zset
from .references import (
    d_separated,
    d_separated_bruteforce,
    macro_projection,
    on_any_cycle,
    order_induced_subsets,
    possible_descendants_bruteforce,
)

unroll_module = importlib.import_module("scgadjust.unroll")


class TestQuery:
    def test_rejects_self_effect(self):
        with pytest.raises(QueryError, match="self-effects"):
            MicroQuery("X", "X", 0, 1)

    def test_rejects_bad_lags(self):
        with pytest.raises(QueryError):
            MicroQuery("X", "Y", -1, 1)
        with pytest.raises(QueryError):
            MicroQuery("X", "Y", 0, 0)

    def test_horizon_bound(self):
        assert MicroQuery("X", "Y", MAX_HORIZON - 1, 1).window_floor == -MAX_HORIZON
        for gamma, gamma_max in ((MAX_HORIZON, 1), (0, MAX_HORIZON + 1), (10**8, 1)):
            with pytest.raises(QueryError, match=f"gamma \\+ gamma_max must be <= {MAX_HORIZON}"):
                MicroQuery("X", "Y", gamma, gamma_max)

    def test_window_floor(self):
        assert MicroQuery("X", "Y", 1, 2).window_floor == -3


class TestTemplateInvariants:
    def test_self_loop_lag_zero_rejected(self, single_edge):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("X", "X")])
        with pytest.raises(TemplateError, match="outside"):
            make_template(g, 1, {("X", "Y"): {0}, ("X", "X"): {0, 1}})

    def test_opposing_instantaneous_rejected(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X")])
        with pytest.raises(TemplateError, match="cycle"):
            make_template(g, 1, {("X", "Y"): {0}, ("Y", "X"): {0}})

    def test_missing_edge_rejected(self, single_edge):
        with pytest.raises(TemplateError, match="cover"):
            make_template(single_edge, 1, {})

    def test_empty_lag_set_rejected(self, single_edge):
        with pytest.raises(TemplateError, match="empty"):
            make_template(single_edge, 1, {("X", "Y"): set()})


class TestEnumeration:
    def test_single_edge(self, single_edge):
        templates = enumerate_compatible_templates(single_edge, 1, cap=10)
        lag_sets = [dict(t.lag_entries)[("X", "Y")] for t in templates]
        assert lag_sets == [(0,), (1,), (0, 1)]

    def test_single_self_loop(self):
        g = validate_scg(["X"], [("X", "X")])
        templates = enumerate_compatible_templates(g, 1, cap=10)
        assert len(templates) == 1
        assert dict(templates[0].lag_entries)[("X", "X")] == (1,)

    def test_feedback_pair_count(self, cycle_pair_confounded):
        assert count_compatible_templates(cycle_pair_confounded, 1, 1000) == 45

    def test_lag_sets_by_size_then_combinations_order(self, single_edge):
        templates = enumerate_compatible_templates(single_edge, 3, cap=20)
        lag_sets = [dict(t.lag_entries)[("X", "Y")] for t in templates]
        every = [s for k in range(1, 5) for s in combinations(range(4), k)]
        assert lag_sets == sorted(every, key=lambda s: (len(s), s))

    def test_count_at_large_gamma_max(self, persistence_chain):
        # Each edge has 2**40 or more lag sets at gamma_max 40; a count that
        # stops past the limit must not list them first.  At gamma_max 10**9
        # it returns at once only when its arithmetic saturates at the limit.
        assert count_compatible_templates(persistence_chain, 40, 50) == 51
        assert bounded(lambda: count_compatible_templates(persistence_chain, 10**9, 50), timeout=10) == 51

    @pytest.fixture
    def lag_set_budget(self, monkeypatch):
        # At gamma_max 40 an edge has 2**40 lag sets; a walk that lists them
        # eagerly fails here after 100 instead of filling memory.
        lag_subsets = unroll_module._nonempty_lag_subsets
        pulled = 0

        def budgeted(gamma_max, self_loop):
            nonlocal pulled
            for subset in lag_subsets(gamma_max, self_loop):
                pulled += 1
                if pulled > 100:
                    raise AssertionError("more than 100 lag sets pulled")
                yield subset

        monkeypatch.setattr(unroll_module, "_nonempty_lag_subsets", budgeted)

    def test_enumeration_past_cap_at_large_gamma_max(self, single_edge, lag_set_budget):
        with pytest.raises(TemplateCapExceeded) as exc:
            enumerate_compatible_templates(single_edge, 40, cap=5)
        assert exc.value.partial_count == 6

    def test_walk_is_lazy_at_large_gamma_max(self, persistence_chain, lag_set_budget):
        assert len(list(islice(iter_compatible_templates(persistence_chain, 40), 3))) == 3

    @given(small_scgs(max_nodes=4), st.integers(1, 3), st.integers(0, 300))
    @settings(max_examples=60)
    def test_count_matches_the_walk(self, g, gamma_max, limit):
        # The walk over the templates is the reference: the count is the
        # number of templates it yields, capped at limit + 1, for limits
        # below, at and above the true count.
        def walked(lim: int) -> int:
            return sum(1 for _ in islice(iter_compatible_templates(g, gamma_max), lim + 1))

        true = walked(300)
        limits = [limit] + ([true - 1, true, true + 1] if true <= 300 else [])
        for lim in limits:
            assert count_compatible_templates(g, gamma_max, lim) == walked(lim)

    def test_over_cap_signal(self, cycle_pair_confounded):
        with pytest.raises(TemplateCapExceeded) as exc:
            enumerate_compatible_templates(cycle_pair_confounded, 1, cap=10)
        assert exc.value.cap == 10
        assert exc.value.partial_count == 11

    @pytest.mark.parametrize("gamma_max", [0, -1])
    def test_gamma_max_below_one_rejected(self, single_edge, cycle_pair_confounded, gamma_max):
        # Raised on the call, before any template is asked for, and the same
        # whether or not the graph has a template at that gamma_max.
        for g in (single_edge, cycle_pair_confounded):
            with pytest.raises(TemplateError, match="gamma_max must be >= 1"):
                iter_compatible_templates(g, gamma_max)
            with pytest.raises(TemplateError, match="gamma_max must be >= 1"):
                enumerate_compatible_templates(g, gamma_max, cap=10)
            with pytest.raises(TemplateError, match="gamma_max must be >= 1"):
                count_compatible_templates(g, gamma_max, 10)

    def test_deterministic(self, cycle_pair_confounded):
        a = enumerate_compatible_templates(cycle_pair_confounded, 1, cap=50)
        b = enumerate_compatible_templates(cycle_pair_confounded, 1, cap=50)
        assert a == b

    @given(small_scgs(max_nodes=4), st.integers(min_value=1, max_value=2))
    @settings(max_examples=40)
    def test_count_formula_on_cycle_free_graphs(self, g, gamma_max):
        # Independent lag choices when the non-self subgraph is acyclic:
        # (2^(gmax+1)-1)^m * (2^gmax-1)^k.
        if any(len(comp) > 1 for comp in scc_partition(g).components):
            return
        non_self = [e for e in g.edges if e[0] != e[1]]
        m, k = len(non_self), len(g.edges) - len(non_self)
        expected = (2 ** (gamma_max + 1) - 1) ** m * (2**gamma_max - 1) ** k
        assert count_compatible_templates(g, gamma_max, expected + 1) == expected


class TestDensest:
    def test_persistence_chain_single(self, persistence_chain):
        assert len(densest_templates(persistence_chain, 1)) == 1
        assert count_densest_templates(persistence_chain) == 1

    def test_feedback_pair_two(self, cycle_pair_confounded):
        templates = densest_templates(cycle_pair_confounded, 1)
        assert len(templates) == 2
        zero_choices = {
            frozenset(e for e, ls in t.lag_entries if 0 in ls and e[0] in ("X", "Y"))
            for t in templates
        }
        assert zero_choices == {frozenset({("X", "Y")}), frozenset({("Y", "X")})}

    def test_edgeless(self):
        g = validate_scg(["A", "B"], [])
        templates = densest_templates(g, 1)
        assert len(templates) == 1
        assert templates[0].lag_entries == ()
        assert count_densest_templates(g) == 1

    @given(small_scgs(max_nodes=6))
    @settings(max_examples=60)
    def test_count_matches_the_templates(self, g):
        assert count_densest_templates(g) == len(densest_templates(g, 1))

    @staticmethod
    def order_walk_choices(g):
        """Each component's internal-edge sets, from every node order."""
        part = scc_partition(g)
        return [
            order_induced_subsets(members, part.internal[i])
            for i, members in enumerate(part.components)
            if i in part.internal
        ]

    @pytest.mark.parametrize("index", [2, 4, 16, 37])
    def test_count_matches_the_order_walk_on_large_components(self, index):
        # Corpus graphs with a 7- or 8-node strongly connected component,
        # against the reference walk over every node order of each component:
        # the count, and each component's listed sets in the same order.
        g = random_scg(CorpusConfig(node_count_range=(7, 8), seed=7), index)
        expected = self.order_walk_choices(g)
        assert max(map(len, scc_partition(g).components)) >= 7
        assert count_densest_templates(g) == math.prod(map(len, expected))
        assert unroll_module._zero_lag_choices(g)[1] == expected

    @given(small_scgs(max_nodes=6))
    @settings(max_examples=60)
    def test_listing_matches_the_order_walk(self, g):
        # Same templates in the same order: the lag-0 edges of each are the
        # edges between components plus one order-induced set per component.
        between = set(scc_partition(g).between)
        expected = [between.union(*choice) for choice in product(*self.order_walk_choices(g))]
        listed = [{e for e, ls in t.lag_entries if 0 in ls} for t in densest_templates(g, 1)]
        assert listed == expected

    def test_ten_node_ring_without_node_orders(self):
        # A walk over the ring's 10! node orders would overrun the bound.
        names = [f"R{i}" for i in range(10)]
        ring = validate_scg(names, [(u, names[(i + 1) % 10]) for i, u in enumerate(names)])
        templates = bounded(lambda: densest_templates(ring, 1), timeout=10)
        assert len(templates) == count_densest_templates(ring) == 1022

    @given(small_scgs(max_nodes=4))
    @settings(max_examples=30)
    def test_every_template_within_some_densest(self, g):
        total = count_compatible_templates(g, 1, 300)
        if total > 300:
            return
        dense = [t.lags for t in densest_templates(g, 1)]
        for t in enumerate_compatible_templates(g, 1, cap=300):
            lags = t.lags
            assert any(
                all(lags[e] <= d[e] for e in lags) for d in dense
            ), "template not dominated by any densest template"

    @given(small_scgs(max_nodes=4), st.integers(min_value=1, max_value=2))
    @settings(max_examples=30)
    def test_undominated_densest_cover_every_template(self, g, gamma_max):
        # The oracle's first stage rests on this: every compatible template
        # lies within a kept densest template, and every dropped densest
        # template lies strictly within a kept one.
        total = count_compatible_templates(g, gamma_max, 300)
        if total > 300:
            return
        dense = densest_templates(g, gamma_max)
        kept = undominated_templates(dense)
        kept_lags = [t.lags for t in kept]

        def within(lags, other) -> bool:
            return all(lags[e] <= other[e] for e in lags)

        assert kept and all(t in dense for t in kept)
        for t in enumerate_compatible_templates(g, gamma_max, cap=300):
            assert any(within(t.lags, k) for k in kept_lags), "template outside every kept one"
        for t in dense:
            if t not in kept:
                lags = t.lags
                assert any(within(lags, k) and lags != k for k in kept_lags)

    def test_three_cycle_keeps_the_two_edge_orders(self):
        g = validate_scg(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
        kept = undominated_templates(densest_templates(g, 1))
        zero = [frozenset(e for e, ls in t.lag_entries if 0 in ls) for t in kept]
        assert count_densest_templates(g) == 6
        assert zero == [
            frozenset({("A", "B"), ("B", "C")}),
            frozenset({("A", "B"), ("C", "A")}),
            frozenset({("B", "C"), ("C", "A")}),
        ]


class TestUnroll:
    def test_persistence_template_edges(self, persistence_template):
        u = unroll(persistence_template, -2, 0)
        expected = {
            (tv("W", -2), tv("X", -2)), (tv("W", -2), tv("X", -1)),
            (tv("W", -1), tv("X", -1)), (tv("W", -1), tv("X", 0)),
            (tv("W", 0), tv("X", 0)),
            (tv("X", -2), tv("Y", -2)), (tv("X", -2), tv("Y", -1)),
            (tv("X", -1), tv("Y", -1)), (tv("X", -1), tv("Y", 0)),
            (tv("X", 0), tv("Y", 0)),
            (tv("X", -2), tv("X", -1)), (tv("X", -1), tv("X", 0)),
            (tv("W", -2), tv("W", -1)), (tv("W", -1), tv("W", 0)),
        }
        assert u.edges == frozenset(expected)

    def test_empty_template(self):
        g = validate_scg(["A", "B"], [])
        u = unroll(densest_templates(g, 1)[0], -1, 0)
        assert len(u.nodes) == 4
        assert not u.edges

    def test_width_one_window(self, persistence_template):
        u = unroll(persistence_template, 0, 0)
        assert u.edges == frozenset({(tv("W", 0), tv("X", 0)), (tv("X", 0), tv("Y", 0))})

    @given(small_scgs(max_nodes=4))
    @settings(max_examples=30)
    def test_unrolled_graphs_acyclic(self, g):
        for t in densest_templates(g, 1)[:5]:
            u = unroll(t, -3, 1)
            # Kahn's algorithm must consume every node.
            indeg = {v: len(u.parents[v]) for v in u.nodes}
            queue = [v for v in u.nodes if indeg[v] == 0]
            seen = 0
            while queue:
                v = queue.pop()
                seen += 1
                for w in u.children[v]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
            assert seen == len(u.nodes)

    @given(small_scgs(max_nodes=4), st.integers(1, 3), st.integers(-4, 0), st.integers(0, 4))
    @settings(max_examples=40)
    def test_edge_count_without_unrolling(self, g, gamma_max, hi, width):
        # Windows narrower than a lag leave that lag's edges out.
        lo = hi - width
        for t in [*islice(iter_compatible_templates(g, gamma_max), 5), *densest_templates(g, gamma_max)[:3]]:
            assert unrolled_edge_count(t, lo, hi) == len(unroll(t, lo, hi).edges)


class TestMacroProjection:
    def test_round_trip_all_templates(self, cycle_pair_confounded):
        for t in enumerate_compatible_templates(cycle_pair_confounded, 1, cap=50):
            assert macro_projection(t) == cycle_pair_confounded

    def test_dense_round_trip(self, persistence_template, persistence_chain):
        assert macro_projection(persistence_template) == persistence_chain


class TestDSeparation:
    def test_blocked_chain(self):
        g = validate_scg(["A", "B", "C"], [("A", "B"), ("B", "C")])
        u = unroll(densest_templates(g, 1)[0], 0, 0)
        assert d_separated(u, [tv("A", 0)], [tv("C", 0)], [tv("B", 0)])
        assert not d_separated(u, [tv("A", 0)], [tv("C", 0)], [])

    def test_collider(self):
        g = validate_scg(["A", "B", "C"], [("A", "B"), ("C", "B")])
        u = unroll(densest_templates(g, 1)[0], 0, 0)
        assert d_separated(u, [tv("A", 0)], [tv("C", 0)], [])
        assert not d_separated(u, [tv("A", 0)], [tv("C", 0)], [tv("B", 0)])

    def test_active_fork_in_dense_unrolling(self, persistence_template):
        u = unroll(persistence_template, -2, 0)
        assert not d_separated(u, [tv("X", -1)], [tv("Y", 0)], [])

    def test_requires_disjoint(self, persistence_template):
        u = unroll(persistence_template, -2, 0)
        with pytest.raises(ValueError, match="disjoint"):
            d_separated(u, [tv("X", 0)], [tv("Y", 0)], [tv("X", 0)])

    def test_outside_window(self, persistence_template):
        u = unroll(persistence_template, -2, 0)
        with pytest.raises(Exception, match="outside window"):
            d_separated(u, [tv("X", -9)], [tv("Y", 0)], [])

    @given(small_scgs(max_nodes=3), st.data())
    @settings(max_examples=60)
    def test_matches_path_enumeration_oracle(self, g, data):
        t = densest_templates(g, 1)[0]
        u = unroll(t, -1, 0)
        nodes = sorted(u.nodes)
        a = data.draw(st.sampled_from(nodes))
        b = data.draw(st.sampled_from([v for v in nodes if v != a]))
        rest = [v for v in nodes if v not in (a, b)]
        z = data.draw(st.frozensets(st.sampled_from(rest))) if rest else frozenset()
        assert d_separated(u, [a], [b], z) == d_separated_bruteforce(u, [a], [b], z)

    @given(small_scgs(max_nodes=3), st.data())
    @settings(max_examples=30)
    def test_symmetric(self, g, data):
        t = densest_templates(g, 1)[0]
        u = unroll(t, -1, 0)
        nodes = sorted(u.nodes)
        a = data.draw(st.sampled_from(nodes))
        b = data.draw(st.sampled_from([v for v in nodes if v != a]))
        assert d_separated(u, [a], [b], []) == d_separated(u, [b], [a], [])


class TestPossibleDescendants:
    def test_persistence_chain_golden(self, persistence_chain):
        got = possible_descendants(persistence_chain, "X", -1, (-2, 0), 1)
        assert got == zset(("X", -1), ("X", 0), ("Y", -1), ("Y", 0))

    def test_sink_identity(self, persistence_chain):
        assert possible_descendants(persistence_chain, "Y", -1, (-2, 0), 1) == zset(("Y", -1))

    def test_single_edge_same_slice(self, single_edge):
        got = possible_descendants(single_edge, "X", 0, (-1, 0), 1)
        assert got == zset(("X", 0), ("Y", 0))

    def test_bruteforce_edgeless(self):
        g = validate_scg(["A", "B"], [])
        assert possible_descendants_bruteforce(g, "A", 0, (-1, 0), 1) == zset(("A", 0))

    def test_bruteforce_self_loop_chain(self):
        g = validate_scg(["A"], [("A", "A")])
        got = possible_descendants_bruteforce(g, "A", -1, (-1, 0), 1)
        assert got == zset(("A", -1), ("A", 0))

    def test_next_slice_membership_needs_cycle(self, persistence_chain):
        # v@offset+1 is a possible descendant of v@offset exactly when v cycles.
        for v in persistence_chain.nodes:
            got = possible_descendants(persistence_chain, v, -1, (-1, 0), 1)
            assert (tv(v, 0) in got) == on_any_cycle(persistence_chain, v)

    @pytest.mark.parametrize("index", range(25))
    def test_matches_bruteforce_on_random_graphs(self, index):
        cfg = CorpusConfig(n_graphs=25, node_count_range=(2, 5), seed=31)
        g = random_scg(cfg, index)
        if count_compatible_templates(g, 1, 3000) > 3000:
            pytest.skip("template count above the brute-force budget")
        q_offset = -1
        fast = possible_descendants(g, g.nodes[0], q_offset, (-2, 0), 1)
        brute = possible_descendants_bruteforce(g, g.nodes[0], q_offset, (-2, 0), 1)
        assert fast == brute


def _dense_scg(seed: int):
    rng = random.Random(f"dense-scg:{seed}")
    names = [f"V{i}" for i in range(rng.randint(3, 6))]
    p = rng.uniform(0.4, 0.8)
    return validate_scg(names, [(u, w) for u in names for w in names if rng.random() < p])


class TestUnionUnrolling:
    """``possible_descendants`` (reachability in one union unrolling) equals
    the union of descendant sets over the densest templates.

    Proof sketch (the full argument is in the function's docstring): each
    densest unrolling is a subgraph of the union unrolling.  Conversely a
    union-unrolling path from v@o to w@o+k is a macro walk W whose lags sum
    to k.  Take W shortest.  With at most k steps, every step can carry a
    lag >= 1, which every densest template has.  With more, dropping any
    closed subwalk would leave too few steps to carry k, so the first
    |W| - k steps repeat no node: that simple path takes lag 0 in the
    densest template ordering it forward, every other step lag 1.  This
    test is the executable gate for that argument.
    """

    MAX_DENSEST = 400

    def assert_matches_densest_union(self, graphs, gamma_max):
        window = (-(gamma_max + 2), 0)
        checked = 0
        for g in graphs:
            if count_densest_templates(g) > self.MAX_DENSEST:
                continue
            unrollings = [unroll(t, *window) for t in densest_templates(g, gamma_max)]
            for v in g.nodes:
                for offset in range(window[0], window[1] + 1):
                    start = TemporalVar(v, offset)
                    union = frozenset().union(*(u.descendants_of([start]) for u in unrollings))
                    assert possible_descendants(g, v, offset, window, gamma_max) == union, (g, v, offset)
            checked += 1
        return checked

    @pytest.mark.parametrize("gamma_max", [1, 2, 3])
    def test_random_scgs(self, gamma_max):
        cfg = CorpusConfig(n_graphs=15, node_count_range=(3, 7), seed=83)
        graphs = [random_scg(cfg, i) for i in range(cfg.n_graphs)]
        assert self.assert_matches_densest_union(graphs, gamma_max) >= 12

    @pytest.mark.parametrize("gamma_max", [1, 2, 3])
    def test_dense_scgs(self, gamma_max):
        graphs = [_dense_scg(seed) for seed in range(15)]
        assert self.assert_matches_densest_union(graphs, gamma_max) >= 10

    def test_argument_checks(self, persistence_chain):
        with pytest.raises(ValueError, match="outside window"):
            possible_descendants(persistence_chain, "X", 1, (-2, 0), 1)
        with pytest.raises(GraphError):
            possible_descendants(persistence_chain, "Q", 0, (-2, 0), 1)


class TestSerialization:
    def test_canonical_temporal_order(self, persistence_chain):
        vars_ = zset(("X", -2), ("W", 0), ("W", -1))
        assert sort_temporal(persistence_chain, vars_) == [tv("W", 0), tv("W", -1), tv("X", -2)]

    def test_instantiate(self):
        got = instantiate(["A"], -1, 0)
        assert got == zset(("A", -1), ("A", 0))
