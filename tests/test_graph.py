import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scgadjust import (
    GraphError,
    ancestors,
    cycle_profile,
    descendants,
    scc_partition,
    scg_from_json,
    validate_scg,
)
from scgadjust.graph import closure, d_connected, d_reach, simple_directed_paths, topological_order

from .conftest import small_scgs
from .references import set_based_d_connected, tarjan


class TestValidate:
    def test_accepts_self_loops(self, persistence_chain):
        assert persistence_chain.has_self_loop("W")
        assert persistence_chain.has_self_loop("X")
        assert not persistence_chain.has_self_loop("Y")

    def test_singleton(self):
        g = validate_scg(["X"], [])
        assert g.nodes == ("X",)
        assert not g.edges

    def test_undeclared_endpoint(self):
        with pytest.raises(GraphError, match="undeclared endpoint"):
            validate_scg(["X"], [("X", "Y")])

    def test_duplicate_node(self):
        with pytest.raises(GraphError, match="duplicate node"):
            validate_scg(["X", "X"], [])

    def test_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            validate_scg(["X", "Y"], [("X", "Y"), ("X", "Y")])

    def test_string_edge(self):
        with pytest.raises(GraphError, match="edge must be a list"):
            validate_scg(["X", "Y"], ["XY"])

    def test_json_round_trip(self, persistence_chain):
        again = scg_from_json(persistence_chain.to_json())
        assert again == persistence_chain
        assert again.to_json() == persistence_chain.to_json()

    def test_pickle_across_hash_seeds(self, tmp_path):
        # A graph and a query keep their hash, and a string's hash differs
        # between interpreters: one pickled under another hash seed must
        # still find the equal key built here.
        path = tmp_path / "pair.pickle"
        dump = (
            "import pickle, sys\n"
            "from scgadjust import MicroQuery, validate_scg\n"
            "g = validate_scg(['X', 'Y', 'W'], [('W', 'X'), ('X', 'Y'), ('W', 'W')])\n"
            "pickle.dump((g, MicroQuery('X', 'Y', 1, 1)), open(sys.argv[1], 'wb'))\n"
        )
        load = (
            "import pickle, sys\n"
            "from scgadjust import MicroQuery, validate_scg\n"
            "g = validate_scg(['X', 'Y', 'W'], [('W', 'X'), ('X', 'Y'), ('W', 'W')])\n"
            "key = {(g, MicroQuery('X', 'Y', 1, 1)): 'found'}\n"
            "print(key.get(pickle.load(open(sys.argv[1], 'rb'))))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        for seed, code in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True)
            assert out.returncode == 0, out.stderr
        assert out.stdout == "found\n"


class TestKinship:
    def test_ancestors_golden(self, persistence_chain):
        assert ancestors(persistence_chain, ["Y"]) == frozenset({"X", "Y", "W"})

    def test_descendants_golden(self, persistence_chain):
        assert descendants(persistence_chain, ["X"]) == frozenset({"X", "Y"})

    def test_unknown_node(self, persistence_chain):
        with pytest.raises(GraphError, match="unknown node"):
            ancestors(persistence_chain, ["Q"])

    @given(small_scgs())
    def test_reflexive(self, g):
        for v in g.nodes:
            assert v in ancestors(g, [v])
            assert v in descendants(g, [v])

    @given(small_scgs())
    def test_duality(self, g):
        for u in g.nodes:
            for v in g.nodes:
                assert (u in ancestors(g, [v])) == (v in descendants(g, [u]))


class TestScc:
    def test_cycle_pair(self, cycle_pair_confounded):
        part = scc_partition(cycle_pair_confounded)
        assert part.components == (("X", "Y"), ("W",))

    def test_edgeless(self):
        g = validate_scg(["A", "B", "C"], [])
        assert scc_partition(g).components == (("A",), ("B",), ("C",))

    def test_three_cycle(self):
        g = validate_scg(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
        assert scc_partition(g).components == (("A", "B", "C"),)

    def test_partition_invariants(self, latent_fork_collider):
        part = scc_partition(latent_fork_collider)
        seen = [v for comp in part.components for v in comp]
        assert sorted(seen) == sorted(latent_fork_collider.nodes)
        for comp in part.components:
            for v in comp:
                assert part.component_of[v] == part.components.index(comp)

    @given(small_scgs(max_nodes=6))
    def test_against_reachability_oracle(self, g):
        # u, v share a component exactly when each is an ancestor of the other.
        part = scc_partition(g)
        for u in g.nodes:
            for v in g.nodes:
                mutual = u in ancestors(g, [v]) and v in ancestors(g, [u])
                assert (part.component_of[u] == part.component_of[v]) == mutual

    @given(small_scgs())
    def test_deterministic(self, g):
        assert scc_partition(g) == scc_partition(g)

    @staticmethod
    def assert_same_as_tarjan(g):
        # The densest templates and the template counts walk the components
        # in this order, so order counts as well as membership.
        part, ref = scc_partition(g), tarjan(g)
        assert part.components == ref.components
        assert list(part.component_of.items()) == list(ref.component_of.items())

    @given(small_scgs(max_nodes=6))
    def test_matches_tarjan(self, g):
        self.assert_same_as_tarjan(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tarjan_on_larger_graphs(self, seed):
        rng = random.Random(f"scc-tarjan:{seed}")
        names = [f"V{i}" for i in range(rng.choice((20, 30, 40)))]
        rng.shuffle(names)
        p = rng.uniform(1.0, 2.0) / len(names)
        g = validate_scg(names, [(u, w) for u in names for w in names if rng.random() < p])
        self.assert_same_as_tarjan(g)


def _cycles_through(g, v, max_len=8):
    """Brute-force simple cycles through v, as frozensets of node sets."""
    cycles = set()

    def walk(node, path):
        for (a, b) in g.edges:
            if a != node:
                continue
            if b == v:
                cycles.add(frozenset(path))
            elif b not in path and len(path) < max_len:
                walk(b, path + [b])

    walk(v, [v])
    return cycles


class TestCycleProfile:
    def test_feedback_partner(self, cycle_pair_confounded):
        prof = cycle_profile(cycle_pair_confounded, "Y")
        assert not prof.has_self_loop
        assert prof.on_any_cycle
        assert prof.only_cycle_is_two_cycle_with == "X"

    def test_no_cycle(self, persistence_chain):
        prof = cycle_profile(persistence_chain, "Y")
        assert (prof.has_self_loop, prof.on_any_cycle, prof.only_cycle_is_two_cycle_with) == (
            False,
            False,
            None,
        )

    def test_self_loop_disqualifies(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        prof = cycle_profile(g, "Y")
        assert prof.has_self_loop
        assert prof.on_any_cycle
        assert prof.only_cycle_is_two_cycle_with is None

    @given(small_scgs(max_nodes=4))
    def test_against_cycle_enumeration(self, g):
        from scgadjust import scc_of

        for v in g.nodes:
            prof = cycle_profile(g, v)
            cycles = _cycles_through(g, v)
            assert prof.on_any_cycle == bool(cycles)
            if prof.only_cycle_is_two_cycle_with is not None:
                # The reported partner always implies the literal cycle fact.
                assert cycles == {frozenset({v, prof.only_cycle_is_two_cycle_with})}
            # The component form is the binding semantics: a partner is
            # reported exactly when the component is the plain 2-cycle.
            comp = scc_of(g, v)
            if len(comp) == 2 and not g.has_self_loop(v):
                (partner,) = comp - {v}
                assert prof.only_cycle_is_two_cycle_with == partner
            else:
                assert prof.only_cycle_is_two_cycle_with is None

    def test_component_form_is_stricter_than_cycle_listing(self):
        # Cycles through Y are literally just the 2-cycle with X, but X also
        # cycles with a third series; the profile must not report a partner
        # (the relaxed reading is unsound for the identification conditions).
        g = validate_scg(["X", "Y", "W2"], [("X", "Y"), ("Y", "X"), ("X", "W2"), ("W2", "X")])
        assert _cycles_through(g, "Y") == {frozenset({"X", "Y"})}
        assert cycle_profile(g, "Y").only_cycle_is_two_cycle_with is None


class TestKernel:
    def test_closure_on_int_lists(self):
        adj = [[1], [2], [], [0]]
        assert closure(adj, [0]) == {0, 1, 2}
        assert closure(adj, []) == set()

    def test_topological_order_smallest_index_first(self):
        # C and B are both ready after A and C is declared first; in the
        # second graph A becomes ready after B and still precedes C.
        assert topological_order(["A", "C", "B"], {"A": ["B", "C"], "B": [], "C": []}) == ["A", "C", "B"]
        assert topological_order(["A", "B", "C"], {"A": [], "B": ["A"], "C": []}) == ["B", "A", "C"]

    def test_topological_order_reports_cycle(self):
        assert topological_order(["A", "B"], {"A": ["B"], "B": ["A"]}) is None

    def test_d_connected_collider(self):
        # 0 -> 2 <- 1, 2 -> 3: the collider opens once 2 or its descendant 3 is given.
        parents = [0, 0, 0b0011, 0b0100]
        children = [0b0100, 0b0100, 0b1000, 0]
        assert not d_connected(parents, children, 0b0001, 0b0010, 0)
        assert d_connected(parents, children, 0b0001, 0b0010, 0b0100)
        assert d_connected(parents, children, 0b0001, 0b0010, 0b1000)

    @given(st.integers(min_value=1, max_value=8), st.booleans(), st.data())
    def test_d_connected_matches_set_walk(self, n, acyclic, data):
        # Random masks, cyclic ones (self-loops included) or acyclic ones
        # (edges from a lower to a higher bit), against the walk over sets,
        # for one drawn ``z`` and every pair of end nodes.
        nodes = range(n)
        pairs = [(u, w) for u in nodes for w in nodes if not acyclic or u < w]
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        z = data.draw(st.sets(st.sampled_from(nodes)))
        parents = [[u for u, w in edges if w == v] for v in nodes]
        children = [[w for u, w in edges if u == v] for v in nodes]
        pm = [sum(1 << u for u in ps) for ps in parents]
        cm = [sum(1 << w for w in cs) for cs in children]
        zm = sum(1 << v for v in z)
        for a in nodes:
            for b in nodes:
                assert d_connected(pm, cm, 1 << a, 1 << b, zm) == set_based_d_connected(
                    parents, children, [a], {b}, z
                )

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_d_reach_matches_set_walk(self, n, data):
        # Acyclic masks (edges from a lower to a higher bit): the walk from
        # ``a`` returns exactly the nodes outside ``z`` that the walk over
        # sets finds d-connected to ``a`` given ``z``.  Ended at ``stop``, it
        # reaches part of that, and reaches ``b`` just when ``d_connected``
        # says so.
        nodes = range(n)
        pairs = [(u, w) for u in nodes for w in nodes if u < w]
        edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        z = data.draw(st.sets(st.sampled_from(nodes)))
        parents = [[u for u, w in edges if w == v] for v in nodes]
        children = [[w for u, w in edges if u == v] for v in nodes]
        pm = [sum(1 << u for u in ps) for ps in parents]
        cm = [sum(1 << w for w in cs) for cs in children]
        zm = sum(1 << v for v in z)
        for a in nodes:
            reach = d_reach(pm, cm, 1 << a, zm)
            assert reach == sum(
                1 << b for b in nodes if b not in z and set_based_d_connected(parents, children, [a], {b}, z)
            )
            for b in nodes:
                if b in z:
                    continue
                stopped = d_reach(pm, cm, 1 << a, zm, stop=1 << b)
                assert stopped & ~reach == 0
                assert bool(stopped >> b & 1) == d_connected(pm, cm, 1 << a, 1 << b, zm)


class TestSimplePaths:
    def test_ignores_self_loops(self, persistence_chain):
        paths = simple_directed_paths(persistence_chain, "X", "Y")
        assert paths == [("X", "Y")]

    def test_two_routes(self, condition_a_trio):
        g1 = condition_a_trio[0]
        paths = {p for p in simple_directed_paths(g1, "X", "Y")}
        assert paths == {("X", "Y"), ("X", "U", "Y")}

    def test_none(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        assert simple_directed_paths(g, "X", "Y") == []
