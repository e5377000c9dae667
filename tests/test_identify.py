import hashlib
import json
import random
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scgadjust import (
    SCG,
    GraphError,
    MicroQuery,
    NotIdentifiableError,
    QueryError,
    Verdict,
    VerdictKind,
    WindowError,
    adjustment_set_to_obj,
    ancestors,
    canonical_sets,
    causal_nodes,
    densest_templates,
    enumerate_compatible_templates,
    estimand,
    extended_causal_nodes,
    identify,
    make_template,
    possible_descendants,
    qopt,
    scg_backdoor_check,
    scg_from_json,
    set_a1,
    set_a2,
    validate_scg,
)
import scgadjust.graph
from scgadjust.graph import cycle_profile, scc_of
from scgadjust.identify import BackdoorTester, UnionTester, _QueryFacts, query_facts
from scgadjust.oracle import CorpusConfig, candidate_subsets, random_scg
from scgadjust.unroll import instantiate, padded_window, unroll

from .conftest import bounded, query, small_scgs, tv, zset
from .references import (
    backdoor_restricted_ecn,
    d_separated,
    d_separated_bruteforce,
    eager_scg_backdoor_check,
    ftdag_opt,
    partition_witness_walk,
    qopt_witness_template,
    set_based_d_connected,
    without_outgoing,
)


def _verdict_with_subgraph(g, q, condition_c_form):
    """The case split of ``identify``, with the condition-B test run on
    G - X built as a graph of its own."""
    x, y = q.treatment, q.outcome
    if x not in ancestors(g, [y]):
        return Verdict(VerdictKind.NON_ANCESTOR)
    scc_x = scc_of(g, x)
    if scc_x == frozenset([x]):
        return Verdict(VerdictKind.COND_A, (("scc_x", (x,)),))
    if q.gamma == 0:
        g_minus_x = SCG(tuple(v for v in g.nodes if v != x), frozenset(e for e in g.edges if x not in e))
        if not ancestors(g_minus_x, [y]) & scc_x:
            return Verdict(VerdictKind.COND_B, (("scc_x", tuple(g.sorted_nodes(scc_x))),))
    if q.gamma == 1:
        if condition_c_form == "cycles":
            ok = cycle_profile(g, y).only_cycle_is_two_cycle_with == x
        else:
            ok = scc_x <= frozenset([x, y]) and not g.has_self_loop(y)
        if ok:
            return Verdict(VerdictKind.COND_C, (("cycle_partner", x),))
    return Verdict(
        VerdictKind.NOT_IDENTIFIABLE,
        (
            ("scc_x", tuple(g.sorted_nodes(scc_x))),
            ("self_loop_on_outcome", g.has_self_loop(y)),
            ("gamma", q.gamma),
        ),
    )


class TestVerdicts:
    def test_feedback_pair_is_condition_c(self, cycle_pair_confounded):
        assert identify(cycle_pair_confounded, query(gamma=1)).kind is VerdictKind.COND_C

    def test_condition_a_trio(self, condition_a_trio):
        for g in condition_a_trio:
            for gamma in (0, 1, 2):
                assert identify(g, query(gamma=gamma)).kind is VerdictKind.COND_A

    def test_condition_b_trio(self, condition_b_trio):
        for g in condition_b_trio:
            assert identify(g, query(gamma=0)).kind is VerdictKind.COND_B

    def test_non_ancestor(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        for gamma in (0, 1, 5):
            assert identify(g, query(gamma=gamma)).kind is VerdictKind.NON_ANCESTOR

    def test_outcome_self_loop_blocks_condition_c(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        assert identify(g, query(gamma=1)).kind is VerdictKind.NOT_IDENTIFIABLE

    def test_unknown_node(self, single_edge):
        with pytest.raises(GraphError, match="unknown node"):
            identify(single_edge, MicroQuery("X", "Q", 0, 1))

    def test_degenerate_query_rejected(self):
        with pytest.raises(QueryError):
            MicroQuery("Y", "Y", 0, 1)

    @given(small_scgs(max_nodes=5), st.integers(min_value=0, max_value=2))
    @settings(max_examples=80)
    def test_component_form_agrees(self, g, gamma):
        q = MicroQuery(g.nodes[0], g.nodes[1], gamma, 1)
        assert identify(g, q).kind is _verdict_with_subgraph(g, q, "component").kind

    @given(small_scgs(max_nodes=5))
    @settings(max_examples=100)
    def test_matches_the_subgraph_formula(self, g):
        for x, y in permutations(g.nodes, 2):
            for gamma in (0, 1, 2):
                q = MicroQuery(x, y, gamma, 1)
                for form in ("cycles", "component"):
                    assert identify(g, q) == _verdict_with_subgraph(g, q, form)


class TestCausalNodes:
    def test_chain(self, persistence_chain):
        assert causal_nodes(persistence_chain, "X", "Y") == frozenset({"Y"})
        assert extended_causal_nodes(persistence_chain, "X", "Y") == frozenset({"Y"})

    def test_two_routes(self, condition_a_trio):
        assert causal_nodes(condition_a_trio[0], "X", "Y") == frozenset({"U", "Y"})

    def test_component_closure(self, condition_b_trio):
        assert extended_causal_nodes(condition_b_trio[1], "X", "Y") == frozenset({"U", "Y"})

    def test_empty_when_non_ancestor(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        assert causal_nodes(g, "X", "Y") == frozenset()
        assert extended_causal_nodes(g, "X", "Y") == frozenset()


class TestBackdoorRestrictedEcn:
    def test_parentless_treatment(self, single_edge):
        assert backdoor_restricted_ecn(single_edge, "X", "Y", []) == frozenset()

    def test_dual_role_outcome(self, dual_role_outcome):
        assert backdoor_restricted_ecn(dual_role_outcome, "X", "Y", []) == frozenset()

    def test_collider_opening(self, collider_chain):
        closed = backdoor_restricted_ecn(collider_chain, "X", "Y", [])
        assert closed == frozenset()
        opened = backdoor_restricted_ecn(collider_chain, "X", "Y", zset(("C", -1)))
        assert "M" in opened
        assert opened == frozenset({"M", "Y"})


class TestCriterionChecker:
    def test_golden_acceptance(self, persistence_chain):
        z = zset(("X", -2), ("W", -2), ("W", -1))
        report = scg_backdoor_check(persistence_chain, query(gamma=1), z)
        assert report.satisfied
        assert (report.condition, report.item) == ("A", "A.1")
        assert report.required_core == z

    def test_parentless_treatment_accepts_empty(self, single_edge):
        report = scg_backdoor_check(single_edge, query(gamma=0), frozenset())
        assert report.satisfied
        assert report.item == "A.1"
        assert report.required_core == frozenset()

    def test_descendant_rejected(self, persistence_chain):
        report = scg_backdoor_check(persistence_chain, query(gamma=1), zset(("Y", 0)))
        assert not report.satisfied
        assert "possible descendant" in report.violations[0]

    def test_qopt_satisfies_condition_c(self, cycle_pair_confounded):
        q = query(gamma=1)
        report = scg_backdoor_check(cycle_pair_confounded, q, qopt(cycle_pair_confounded, q))
        assert report.satisfied
        assert (report.condition, report.item) == ("C", "C")

    def test_window_violation_raises(self, persistence_chain):
        with pytest.raises(WindowError, match="outside adjustment window"):
            scg_backdoor_check(persistence_chain, query(gamma=1), zset(("W", -3)))

    def test_unknown_series_raises(self, persistence_chain):
        with pytest.raises(GraphError):
            scg_backdoor_check(persistence_chain, query(gamma=1), zset(("Q", 0)))

    def test_not_identifiable_rejects_all(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        report = scg_backdoor_check(g, query(gamma=1), frozenset())
        assert not report.satisfied
        assert "not identifiable" in report.violations[0]

    def test_non_ancestor_accepts_non_descendants(self):
        g = validate_scg(["X", "Y", "C"], [("Y", "X"), ("C", "X"), ("C", "Y")])
        report = scg_backdoor_check(g, query(gamma=1), zset(("C", -1)))
        assert report.satisfied and report.condition is None

    def test_extended_parent_item_fires(self):
        # Chain with a driven treatment and no cycle on it: the component item
        # fails (driver instances missing) but covering the parents of the
        # extended causal nodes suffices, including X@0 which is later than
        # the treatment yet not a possible descendant.
        g = validate_scg(["W", "X", "M", "Y"], [("W", "X"), ("X", "M"), ("M", "Y")])
        q = query(gamma=1)
        z = zset(("X", -2), ("X", 0), ("M", -2))
        report = scg_backdoor_check(g, q, z)
        assert report.satisfied
        assert report.item == "A.2"
        assert report.required_core == z
        assert qopt(g, q) == z

    def test_partition_item_fires(self, latent_fork_collider):
        # Mandated part {X@-1, R@-1, R@0} plus the free member U@0.
        q = query(gamma=0)
        z = zset(("X", -1), ("R", -1), ("R", 0), ("U", 0))
        report = scg_backdoor_check(latent_fork_collider, q, z)
        assert report.satisfied
        assert report.item == "A.3"
        assert report.required_core == zset(("X", -1), ("R", -1), ("R", 0))


class TestCriterionReports:
    """``scg_backdoor_check`` tries the verdict's items in one pass and words
    a rejection only once every item has refused; its reports must equal
    ones decided and rendered by the eager reference, and a malformed set
    must raise the reference's error."""

    @given(
        small_scgs(),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.data(),
    )
    @settings(max_examples=150)
    def test_matches_eager_reference(self, g, gamma, gamma_max, data):
        x, y = g.nodes[0], g.nodes[1]
        if data.draw(st.booleans()):
            # Most drawn graphs make neither node an ancestor of the other.
            g = validate_scg(g.nodes, g.edges | {(x, y)})
        queries = [MicroQuery(x, y, gamma, gamma_max), MicroQuery(y, x, gamma, gamma_max)]
        window = instantiate(g.nodes, queries[0].window_floor, 0)
        # Sets free of the first query's possible descendants reach its items;
        # the cores of both queries and their unions with those sets are
        # accepted by the different items.
        free = sorted(window - query_facts(g, queries[0]).d)
        sets = data.draw(st.lists(st.frozensets(st.sampled_from(free), max_size=5), max_size=8)) if free else []
        cores = [core for q in queries for core in query_facts(g, q).cores.values()]
        sets += cores + [core | z for core in cores for z in sets[:2]]
        sets += data.draw(st.lists(st.frozensets(st.sampled_from(sorted(window)), max_size=5), max_size=4))
        # Each treatment variable is its own possible descendant: these clash.
        sets += [z | {q.treatment_var} for z in sets[:2] + [frozenset()] for q in queries]
        # Malformed sets: in-window members mixed with members 1-3 slices past
        # either end of the window, or of a series the graph lacks.
        floor = queries[0].window_floor
        stray = [tv(v, o) for v in g.nodes for o in (floor - 3, floor - 2, floor - 1, 1, 2, 3)]
        stray += [tv("Q", o) for o in range(floor, 1)]
        mixed = st.tuples(
            st.frozensets(st.sampled_from(sorted(window)), max_size=4),
            st.frozensets(st.sampled_from(stray), min_size=1, max_size=2),
        )
        sets += [z | bad for z, bad in data.draw(st.lists(mixed, max_size=4))]
        # Each query's facts, kept across its sets, then rebuilt on every set
        # as the two queries alternate.
        calls = [(q, z) for q in queries for z in sets + sets]
        calls += [(q, z) for z in sets for q in queries]
        for q, z in calls:
            try:
                want = eager_scg_backdoor_check(g, q, z)
            except (GraphError, WindowError) as exc:
                with pytest.raises(ValueError) as raised:
                    scg_backdoor_check(g, q, z)
                assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
                continue
            got = scg_backdoor_check(g, q, z)
            assert got == want
            assert got.to_obj(g) == want.to_obj(g)

    @pytest.mark.parametrize("seed", [7, 11])
    def test_matches_eager_reference_on_corpus(self, seed):
        # Corpus graphs give every verdict kind, and queries with many
        # distinct rejections and accepting items.
        cfg = CorpusConfig(seed=seed)
        for index in range(40):
            g = random_scg(cfg, index)
            for gamma in (0, 1):
                q = MicroQuery("X", "Y", gamma, 1)
                for z in candidate_subsets(g, q, 3):
                    got, want = scg_backdoor_check(g, q, z), eager_scg_backdoor_check(g, q, z)
                    assert got == want, (index, gamma, z)

    def test_accepted_set_renders_no_text(self, monkeypatch):
        # Every core is accepted, by its own item or an earlier one; the
        # graphs give every item of conditions A, B and C.
        rendered = []
        labels = _QueryFacts._labels
        monkeypatch.setattr(_QueryFacts, "_labels", lambda facts, gap: rendered.append(gap) or labels(facts, gap))
        graphs = [scg_from_json(p.read_text()) for p in sorted(GRAPHS_DIR.glob("*.json"))]
        graphs += [random_scg(CorpusConfig(seed=seed), index) for seed in (7, 11) for index in range(40)]
        graphs.append(validate_scg(["W", "X", "M", "Y"], [("W", "X"), ("X", "M"), ("M", "Y")]))
        items = set()
        for g in graphs:
            for gamma in (0, 1):
                q = MicroQuery("X", "Y", gamma, 1)
                for core in query_facts(g, q).cores.values():
                    report = scg_backdoor_check(g, q, core)
                    assert report.satisfied
                    items.add(report.item)
        assert items == {"A.1", "A.2", "A.3", "A.4", "B.1", "B.2", "C"}
        assert rendered == []
        # The count sees a rejection's text.
        g = graphs[-1]
        assert not scg_backdoor_check(g, query(gamma=1), frozenset()).satisfied
        assert rendered

    @given(
        small_scgs(),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=2),
        st.data(),
    )
    @settings(max_examples=150)
    def test_partition_witness_matches_full_walk(self, g, gamma, gamma_max, data):
        # The walk over every series subset, without the core test up front.
        x, y = g.nodes[0], g.nodes[1]
        g = validate_scg(g.nodes, g.edges | {(x, y)})
        q = MicroQuery(x, y, gamma, gamma_max)
        facts = query_facts(g, q)
        core = facts.z1_required(frozenset())
        free = sorted(instantiate(g.nodes, q.window_floor, 0) - facts.d)
        if not free:
            return
        drawn = data.draw(st.lists(st.frozensets(st.sampled_from(free), max_size=6), min_size=1, max_size=6))
        for z in drawn + [core | z for z in drawn] + [core - {v} | z for v in sorted(core)[:2] for z in drawn]:
            assert facts.partition_witness(z) == partition_witness_walk(facts, z)

class TestBaselineSets:
    def test_a1_golden(self, persistence_chain):
        got = set_a1(persistence_chain, query(gamma=1))
        assert got == zset(("X", -3), ("X", -2), ("Y", -3), ("Y", -2), ("W", -2), ("W", -1))

    def test_a2_golden(self, persistence_chain):
        got = set_a2(persistence_chain, query(gamma=1))
        assert got == set_a1(persistence_chain, query(gamma=1))

    def test_a1_non_ancestor_shape(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        got = set_a1(g, query(gamma=1))
        assert got == zset(("X", -3), ("X", -2), ("Y", -2), ("Y", -1))

    @given(small_scgs(max_nodes=5), st.integers(min_value=0, max_value=1))
    @settings(max_examples=60)
    def test_a2_subset_of_a1(self, g, gamma):
        q = MicroQuery(g.nodes[0], g.nodes[1], gamma, 1)
        if identify(g, q).kind is VerdictKind.NOT_IDENTIFIABLE:
            return
        assert set_a2(g, q) <= set_a1(g, q)


class TestQopt:
    def test_persistence_chain(self, persistence_chain):
        assert qopt(persistence_chain, query(gamma=1)) == zset(("W", 0), ("W", -1), ("X", -2))

    def test_single_edge_instantaneous(self, single_edge):
        assert qopt(single_edge, query(gamma=0)) == zset(("X", -1))

    def test_feedback_pair(self, cycle_pair_confounded):
        got = qopt(cycle_pair_confounded, query(gamma=1))
        assert got == zset(("X", -2), ("W", -2), ("W", -1), ("W", 0))

    def test_rejects_non_ancestor(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        with pytest.raises(NotIdentifiableError):
            qopt(g, query(gamma=1))

    def test_rejects_not_identifiable(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        with pytest.raises(NotIdentifiableError):
            qopt(g, query(gamma=1))


class TestFtdagOpt:
    def test_dense_persistence_template(self, persistence_template):
        # Per the parents-of-causal-nodes formula; X@-2 parents no causal node
        # in any compatible template (see the decisions ledger note).
        assert ftdag_opt(persistence_template, query(gamma=1)) == zset(("W", 0), ("W", -1))

    def test_single_lagged_path(self, single_edge):
        t = make_template(single_edge, 1, {("X", "Y"): {1}})
        assert ftdag_opt(t, query(gamma=1)) == frozenset()

    def test_optimal_gap_green_sets(self, optimal_gap_templates):
        t1, t2 = optimal_gap_templates
        assert ftdag_opt(t1, query(gamma=0)) == zset(("X", -1), ("Z", -1), ("Z", 0))
        assert ftdag_opt(t2, query(gamma=0)) == zset(("X", -1), ("Z", -1))

    def test_non_ancestor_template_errors(self, single_edge):
        t = make_template(single_edge, 1, {("X", "Y"): {1}})
        with pytest.raises(QueryError, match="not an ancestor"):
            ftdag_opt(t, query(gamma=0))


class TestClassicalBackdoor:
    def test_golden_set(self, persistence_template):
        z = zset(("X", -2), ("W", -2), ("W", -1))
        assert BackdoorTester(persistence_template, query(gamma=1)).check(z)

    def test_matches_public_piece_composition(self, persistence_template, optimal_gap_templates):
        # Same verdicts as removing the treatment's outgoing edges by hand and
        # running the generic d-separation routine.
        from itertools import combinations

        from scgadjust.unroll import instantiate, padded_window, unroll

        for tmpl, q in [
            (persistence_template, query(gamma=1)),
            (optimal_gap_templates[0], query(gamma=0)),
            (optimal_gap_templates[1], query(gamma=0)),
        ]:
            u = unroll(tmpl, *padded_window(tmpl.scg, q))
            x, y = q.treatment_var, q.outcome_var
            pruned = without_outgoing(u, x)
            de_x = u.descendants_of([x])
            pool = sorted(instantiate(tmpl.scg.nodes, q.window_floor, 0) - {x, y})
            for k in (0, 1, 2):
                for combo in combinations(pool, k):
                    z = frozenset(combo)
                    expected = not (z & de_x) and d_separated(pruned, [x], [y], z)
                    assert BackdoorTester(tmpl, q).check(z) == expected

    def test_verdicts_stable_under_extra_padding(self, persistence_template):
        from itertools import combinations

        from scgadjust.unroll import instantiate

        q = query(gamma=1)
        pool = sorted(instantiate(persistence_template.scg.nodes, q.window_floor, 0))
        pool = [tv_ for tv_ in pool if tv_ != q.treatment_var and tv_ != q.outcome_var]
        for k in (0, 1, 2):
            for combo in combinations(pool, k):
                z = frozenset(combo)
                assert BackdoorTester(persistence_template, q).check(z) == (
                    BackdoorTester(persistence_template, q, 2).check(z)
                )

    def test_empty_fails(self, persistence_template):
        assert not BackdoorTester(persistence_template, query(gamma=1)).check(frozenset())

    def test_descendant_fails(self, persistence_template):
        assert not BackdoorTester(persistence_template, query(gamma=1)).check(zset(("Y", 0)))


@st.composite
def scg_templates(draw, min_nodes: int, max_nodes: int):
    """A random SCG on N0, N1, ... with gamma_max 1 and one compatible
    template: lag 0 only on edges that point forward in a drawn node order."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    names = tuple(f"N{i}" for i in range(n))
    edges = draw(st.frozensets(st.sampled_from([(u, w) for u in names for w in names])))
    g = validate_scg(names, edges)
    rank = {v: i for i, v in enumerate(draw(st.permutations(names)))}
    lags = {}
    for (u, w) in g.edge_list:
        allowed = [0, 1] if rank[u] < rank[w] else [1]
        lags[(u, w)] = draw(st.sets(st.sampled_from(allowed), min_size=1))
    return make_template(g, 1, lags)


class TestBitmaskTester:
    """``BackdoorTester`` builds its masks from the lag entries; these tests
    compare it with the classical check computed on the unrolled graph."""

    @staticmethod
    def draw_set(data, t, q) -> frozenset:
        pool = sorted(instantiate(t.scg.nodes, q.window_floor, 0) - {q.treatment_var, q.outcome_var})
        return data.draw(st.frozensets(st.sampled_from(pool), max_size=5))

    @given(scg_templates(2, 2), st.integers(min_value=0, max_value=1), st.data())
    @settings(max_examples=60)
    def test_matches_path_enumeration_on_two_series(self, t, gamma, data):
        q = MicroQuery("N0", "N1", gamma, 1)
        z = self.draw_set(data, t, q)
        x, y = q.treatment_var, q.outcome_var
        for pad in (0, q.gamma_max + 1):
            u = unroll(t, *padded_window(t.scg, q, pad))
            expected = not (z & u.descendants_of([x])) and d_separated_bruteforce(
                without_outgoing(u, x), [x], [y], z
            )
            assert BackdoorTester(t, q, pad).check(z) == expected

    @given(scg_templates(3, 5), st.integers(min_value=0, max_value=1), st.data())
    @settings(max_examples=80)
    def test_matches_set_based_walk(self, t, gamma, data):
        q = MicroQuery("N0", "N1", gamma, 1)
        z = self.draw_set(data, t, q)
        x, y = q.treatment_var, q.outcome_var
        for pad in (0, q.gamma_max + 1):
            u = unroll(t, *padded_window(t.scg, q, pad))
            pruned = without_outgoing(u, x)
            clash = bool(z & u.descendants_of([x]))
            expected = not clash and not set_based_d_connected(pruned.parents, pruned.children, [x], {y}, z)
            tester = BackdoorTester(t, q, pad)
            assert tester.descendant_clash(z) == clash
            assert tester.check(z) == expected


class TestErrorContract:
    """Which error a malformed set raises, and that it wins over a malformed query."""

    def test_checker_window_error(self, persistence_chain):
        with pytest.raises(WindowError, match=r"W@1 outside adjustment window \[-2, 0\]"):
            scg_backdoor_check(persistence_chain, query(gamma=1), zset(("X", -2), ("W", 1)))

    def test_checker_unknown_series(self, persistence_chain):
        with pytest.raises(GraphError, match="unknown node 'Q'"):
            scg_backdoor_check(persistence_chain, query(gamma=1), zset(("Q", -1)))

    def test_bad_set_reported_before_query_facts(self, persistence_chain):
        # The outcome is not a node: building the query's facts would raise a
        # GraphError, but the out-of-window set is reported first.
        query_facts.cache_clear()
        with pytest.raises(WindowError, match="outside adjustment window"):
            scg_backdoor_check(persistence_chain, query(outcome="NOPE", gamma=1), zset(("W", -3)))
        assert query_facts.cache_info().misses == 0

    def test_tester_rejects_variables_outside_padded_window(self, persistence_template):
        q = query(gamma=1)
        lo, hi = padded_window(persistence_template.scg, q)
        tester = BackdoorTester(persistence_template, q)
        for bad in (zset(("W", lo - 1)), zset(("W", hi + 1)), zset(("X", -2), ("Q", -1))):
            with pytest.raises(GraphError, match="outside window"):
                tester.check(bad)
            with pytest.raises(GraphError, match="outside window"):
                tester.descendant_clash(bad)
        # The union certificate unrolls the deeper padding, which holds the
        # shallow window's lo - 1; its own bounds are the ones to step past.
        g = persistence_template.scg
        lo, hi = padded_window(g, q, q.gamma_max + 1)
        union = UnionTester(g, q)
        for bad in (zset(("W", lo - 1)), zset(("W", hi + 1)), zset(("Q", -1))):
            with pytest.raises(GraphError, match="outside window"):
                union.certify(bad)


class TestQoptWitness:
    def test_single_edge_closure(self, single_edge):
        w = qopt_witness_template(single_edge, query(gamma=0))
        assert dict(w.lag_entries) == {("X", "Y"): (0, 1)}

    def test_gamma_zero_equality(self, single_edge):
        q = query(gamma=0)
        w = qopt_witness_template(single_edge, q)
        assert ftdag_opt(w, q) == qopt(single_edge, q)

    def test_condition_c_equality(self, cycle_pair_confounded):
        q = query(gamma=1)
        w = qopt_witness_template(cycle_pair_confounded, q)
        assert ftdag_opt(w, q) == qopt(cycle_pair_confounded, q)

    def test_persistence_chain_gap(self, persistence_chain):
        # Known gap for lagged queries on acyclic causal tails: the witness
        # optimum cannot reach X@-2 (see the decisions ledger).
        q = query(gamma=1)
        w = qopt_witness_template(persistence_chain, q)
        assert ftdag_opt(w, q) == zset(("W", -1))
        assert ftdag_opt(w, q) != qopt(persistence_chain, q)

    def test_errors_on_non_ancestor(self):
        g = validate_scg(["X", "Y"], [])
        with pytest.raises(NotIdentifiableError):
            qopt_witness_template(g, query(gamma=1))


class TestCanonicalSets:
    def test_persistence_chain_names(self, persistence_chain):
        named = canonical_sets(persistence_chain, query(gamma=1))
        assert set(named) == {"qopt", "a1", "a2", "A.1-core", "A.4-core"}
        assert named["A.1-core"] == zset(("W", -2), ("W", -1), ("X", -2))
        assert named["qopt"] == named["A.4-core"]

    def test_condition_c_variants(self, cycle_pair_confounded):
        named = canonical_sets(cycle_pair_confounded, query(gamma=1))
        assert {"C-core-x", "C-core-y"} <= set(named)
        assert tv("X", -2) in named["C-core-y"]
        assert tv("Y", -2) in named["C-core-x"]

    def test_non_ancestor_empty_only(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        assert canonical_sets(g, query(gamma=1)) == {"empty": frozenset()}

    def test_every_core_passes_checker(self, persistence_chain, cycle_pair_confounded, latent_fork_collider):
        cases = [
            (persistence_chain, query(gamma=1)),
            (cycle_pair_confounded, query(gamma=1)),
            (latent_fork_collider, query(gamma=0)),
        ]
        for g, q in cases:
            for name, z in canonical_sets(g, q).items():
                if name in ("a1", "a2"):
                    continue
                assert scg_backdoor_check(g, q, z).satisfied, (name, sorted(z))


GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


# The first CondA query at gamma 0 with two or more parents on the treatment
# among draws of 20-node SCGs (``random.Random(20)``, each ordered pair u != w
# an edge with probability 0.16): draw 167, 70 edges, children by parent.
SEVENTY_EDGE_CHILDREN = {
    "X": "V3 V4 V8 V11 V16",
    "Y": "V6 V9",
    "V2": "V3 V10 V12 V15 V17 V19",
    "V3": "Y V14 V15",
    "V4": "Y V3 V6 V8 V14",
    "V5": "X V7 V11",
    "V6": "V2 V13 V14 V19",
    "V7": "X V3 V4 V8",
    "V8": "Y V17 V18",
    "V9": "V8 V10 V11",
    "V10": "V3 V4 V8 V15",
    "V11": "V8 V13 V16 V18",
    "V12": "Y V10 V16",
    "V13": "V10 V11",
    "V14": "V2 V8 V9 V11 V18",
    "V15": "V8 V12 V14",
    "V16": "V3 V14",
    "V17": "Y V3 V4 V9 V10 V11 V13",
    "V19": "V4 V17",
}


def _sparse_scg(n: int, p: float, seed: int):
    rng = random.Random(f"sparse-scg:{seed}")
    names = ["X", "Y"] + [f"V{i}" for i in range(2, n)]
    return validate_scg(names, [(u, w) for u in names for w in names if rng.random() < p])


class TestMacroPathEnumeratesNoTemplates:
    """``identify``, ``canonical_sets``/``qopt`` and ``scg_backdoor_check``
    answer without enumerating or unrolling a single full-time DAG."""

    ENUMERATORS = ("densest_templates", "iter_compatible_templates", "unroll")

    @pytest.fixture(autouse=True)
    def forbid_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the macro path enumerated full-time DAGs")

        for name, mod in list(sys.modules.items()):
            if name == "scgadjust" or name.startswith("scgadjust."):
                for attr in self.ENUMERATORS:
                    if hasattr(mod, attr):
                        monkeypatch.setattr(mod, attr, forbidden)
        query_facts.cache_clear()
        yield
        query_facts.cache_clear()

    @pytest.fixture(autouse=True)
    def record_partitions(self, monkeypatch):
        # Every partition ``scc_partition`` hands out, with its graph; two
        # distinct partition objects of one graph are two computations.
        self.partitions = []
        original = scgadjust.graph.scc_partition

        def recording(g):
            part = original(g)
            self.partitions.append((g, part))
            return part

        for name, mod in list(sys.modules.items()):
            if name == "scgadjust" or name.startswith("scgadjust."):
                if getattr(mod, "scc_partition", None) is original:
                    monkeypatch.setattr(mod, "scc_partition", recording)

    def partitions_computed(self, g) -> int:
        return len({id(part) for h, part in self.partitions if h is g})

    def answer(self, g, q):
        verdict = identify(g, q)
        z = frozenset()
        if verdict.identifiable:
            canonical_sets(g, q)
            if verdict.kind is not VerdictKind.NON_ANCESTOR:
                z = qopt(g, q)
        report = scg_backdoor_check(g, q, z)
        # A non-ancestor treatment needs no component; any other verdict
        # reads the partition, which is worked out once per graph.
        assert self.partitions_computed(g) == (verdict.kind is not VerdictKind.NON_ANCESTOR)
        return verdict, report

    @pytest.mark.parametrize("gamma", [0, 1])
    @pytest.mark.parametrize("path", sorted(GRAPHS_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_sample_graphs(self, path, gamma):
        g = scg_from_json(path.read_text(encoding="utf-8"))
        assert self.partitions_computed(g) == 0
        self.answer(g, MicroQuery("X", "Y", gamma, 1))

    def test_twenty_node_scg(self):
        g = _sparse_scg(20, 0.11, seed=14)
        assert len(g.edges) == 45
        assert self.partitions_computed(g) == 0
        for gamma in (0, 1):
            verdict, report = self.answer(g, MicroQuery("X", "Y", gamma, 1))
            assert verdict.kind is VerdictKind.COND_A
            assert report.satisfied

    def test_seventy_edge_scg(self):
        # Listing every back-door path class of this query did not end within
        # 120 s; the answer must come within seconds.
        names = ["X", "Y"] + [f"V{i}" for i in range(2, 20)]
        edges = [(u, w) for u, ws in SEVENTY_EDGE_CHILDREN.items() for w in ws.split()]
        g = validate_scg(names, edges)
        assert len(g.edges) == 70
        assert self.partitions_computed(g) == 0
        verdict, report = bounded(lambda: self.answer(g, MicroQuery("X", "Y", 0, 1)), timeout=10.0)
        assert verdict.kind is VerdictKind.COND_A
        assert report.satisfied


class TestSerializationAndEstimand:
    def test_canonical_json_order(self, persistence_chain):
        z = qopt(persistence_chain, query(gamma=1))
        assert adjustment_set_to_obj(persistence_chain, z) == [["W", 0], ["W", -1], ["X", -2]]

    def test_estimand_empty(self):
        got = estimand(query(gamma=1), frozenset())
        assert got["expression"] == "P(y[t] | x[t-1])"

    def test_estimand_single(self):
        got = estimand(query(gamma=1), zset(("W", -1)))
        assert got["expression"] == "sum over {w[t-1]} of P(y[t] | x[t-1], w[t-1]) * P(w[t-1])"

    def test_estimand_qopt(self, persistence_chain):
        got = estimand(query(gamma=1), qopt(persistence_chain, query(gamma=1)))
        assert got["adjustment"] == [["W", 0], ["W", -1], ["X", -2]]
        assert got["expression"] == (
            "sum over {w[t], w[t-1], x[t-2]} of "
            "P(y[t] | x[t-1], w[t], w[t-1], x[t-2]) * P(w[t], w[t-1], x[t-2])"
        )


class TestSoundnessProperties:
    @given(small_scgs(max_nodes=4), st.integers(min_value=0, max_value=1))
    @settings(max_examples=40)
    def test_qopt_always_passes_checker(self, g, gamma):
        q = MicroQuery(g.nodes[0], g.nodes[1], gamma, 1)
        if identify(g, q).kind not in (VerdictKind.COND_A, VerdictKind.COND_B, VerdictKind.COND_C):
            return
        assert scg_backdoor_check(g, q, qopt(g, q)).satisfied

    @given(small_scgs(max_nodes=4), st.integers(min_value=0, max_value=1))
    @settings(max_examples=25)
    def test_baselines_classically_valid(self, g, gamma):
        # The baseline validity claim applies where adjustment is meaningful:
        # identifiable queries with the treatment an ancestor of the outcome
        # (for a non-ancestor at gamma=0 the displayed formula would include
        # the outcome variable itself).
        q = MicroQuery(g.nodes[0], g.nodes[1], gamma, 1)
        if identify(g, q).kind not in (VerdictKind.COND_A, VerdictKind.COND_B, VerdictKind.COND_C):
            return
        for z in (set_a1(g, q), set_a2(g, q)):
            for t in densest_templates(g, 1):
                assert BackdoorTester(t, q).check(z)

    @given(small_scgs(max_nodes=4), st.integers(min_value=0, max_value=1))
    @settings(max_examples=25)
    def test_ftdag_opt_within_qopt_after_descendant_removal(self, g, gamma):
        q = MicroQuery(g.nodes[0], g.nodes[1], gamma, 1)
        if identify(g, q).kind not in (VerdictKind.COND_A, VerdictKind.COND_B, VerdictKind.COND_C):
            return
        from scgadjust.unroll import count_compatible_templates

        if count_compatible_templates(g, 1, 200) > 200:
            return
        quasi = qopt(g, q)
        posdesc = possible_descendants(g, q.treatment, -q.gamma, (q.window_floor, 0), 1)
        for t in enumerate_compatible_templates(g, 1, cap=200):
            try:
                opt = ftdag_opt(t, q)
            except QueryError:
                continue
            assert (opt - posdesc) <= quasi


def _outcome(fn):
    """``fn()``, or the type of the ValueError it raises (the message may name
    any one of several offending variables)."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc).__name__


class TestPinnedMacroBytes:
    """Verdict, canonical sets, qopt and the checker's report for a fixed list
    of sets, over every ordered node pair of every sample graph (and of the
    condition-B trio and the collider chain, which no sample graph covers)
    at gamma 0 and 1, reduced to one SHA-256.  Refactors of the macro layer
    must not move a single byte."""

    DIGEST = "d00cf46a80a1fb43b9c9fb1cf6b4702cc66812a77973a32c509fc5d11baa42bf"

    @staticmethod
    def fixed_sets(g, q, named):
        floor = q.window_floor
        window = sorted(instantiate(g.nodes, floor, 0))
        d = possible_descendants(g, q.treatment, -q.gamma, (floor, 0), q.gamma_max)
        free = sorted(set(window) - d)
        rng = random.Random(f"pinned:{','.join(g.nodes)}:{q.to_json()}")
        sets = [frozenset(), frozenset(window), frozenset(free)]
        sets += [instantiate(g.nodes, o, o) for o in range(floor, 1)]
        sets += [frozenset(rng.sample(window, k)) for k in (1, 2, 3, 4) for _ in range(2)]
        sets += [frozenset(rng.sample(free, min(k, len(free)))) for k in (1, 2, 3) for _ in range(2)]
        for name in sorted(named):
            z = named[name]
            sets += [z, z | frozenset(rng.sample(free, min(2, len(free))))]
        return sets

    def records(self, graphs):
        for name, g in graphs:
            for x in g.nodes:
                for y in g.nodes:
                    if x == y:
                        continue
                    for gamma in (0, 1):
                        q = MicroQuery(x, y, gamma, 1)
                        verdict = identify(g, q)
                        named = canonical_sets(g, q) if verdict.identifiable else {}
                        yield {
                            "graph": name,
                            "query": [x, y, gamma],
                            "verdict": [verdict.kind.value, verdict.witness_dict()],
                            "sets": _outcome(
                                lambda: {
                                    k: adjustment_set_to_obj(g, z) for k, z in canonical_sets(g, q).items()
                                }
                            ),
                            "qopt": _outcome(lambda: adjustment_set_to_obj(g, qopt(g, q))),
                            "checks": [
                                _outcome(lambda: scg_backdoor_check(g, q, z).to_obj(g))
                                for z in self.fixed_sets(g, q, named)
                            ],
                        }

    def test_digest(self, condition_b_trio, collider_chain):
        paths = sorted(GRAPHS_DIR.glob("*.json"))
        graphs = [(p.stem, scg_from_json(p.read_text(encoding="utf-8"))) for p in paths]
        graphs += [(f"condition_b_{i}", g) for i, g in enumerate(condition_b_trio)]
        graphs.append(("collider_chain", collider_chain))
        text = json.dumps(list(self.records(graphs)), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


def _reference_sets(g, q):
    """``canonical_sets`` and ``qopt`` written as one case split on the verdict,
    from public pieces only; ``qopt`` is None where it raises."""
    verdict = identify(g, q)
    if verdict.kind is VerdictKind.NOT_IDENTIFIABLE:
        return None, None
    if verdict.kind is VerdictKind.NON_ANCESTOR:
        return {"empty": frozenset()}, None
    x, y, floor = q.treatment, q.outcome, q.window_floor
    d = possible_descendants(g, x, -q.gamma, (floor, 0), q.gamma_max)
    pa_x, pa_y = g.parents(x), g.parents(y)
    cycles_x = cycle_profile(g, x).on_any_cycle
    ecn = extended_causal_nodes(g, x, y)
    scc_core = instantiate(g.parents_of_set(scc_of(g, x)), floor, -q.gamma) - d
    ecn_core = instantiate(g.parents_of_set(ecn), floor, 0) - d
    cycle_core = (instantiate(pa_x, floor + 1, 0) | instantiate(g.parents_of_set(ecn), floor, 0)) - d
    z1 = (
        instantiate(g.parents_of_set(causal_nodes(g, x, y)), floor, 0)
        | instantiate(g.parents_of_set(backdoor_restricted_ecn(g, x, y, [])), floor, 0)
    ) - d
    out = {"a1": set_a1(g, q), "a2": set_a2(g, q)}
    if verdict.kind is VerdictKind.COND_A:
        if q.gamma == 0:
            best = z1
        elif not cycles_x:
            best = ecn_core
        else:
            best = cycle_core
        out["A.1-core"] = scc_core
        if not cycles_x:
            out["A.2-core"] = ecn_core
        if q.gamma == 0:
            out["A.3-core"] = z1
        if cycles_x and q.gamma > 0:
            out["A.4-core"] = cycle_core
    elif verdict.kind is VerdictKind.COND_B:
        best = z1
        out["B.1-core"] = scc_core
        out["B.2-core"] = z1
    else:
        best = (instantiate(pa_y, floor, 0) | instantiate(pa_x, -q.gamma_max, 0)) - d
        base = (instantiate(pa_x, -q.gamma_max, 0) | instantiate(pa_y, -q.gamma_max, 0)) - d
        out["C-core-x"] = base | instantiate(pa_x, floor, floor)
        out["C-core-y"] = base | instantiate(pa_y, floor, floor)
    return {"qopt": best, **out}, best


class TestCanonicalSetsOracle:
    @given(
        small_scgs(max_nodes=5),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=2),
        st.data(),
    )
    @settings(max_examples=150)
    def test_matches_case_split(self, g, gamma, gamma_max, data):
        x, y = data.draw(st.permutations(g.nodes))[:2]
        q = MicroQuery(x, y, gamma, gamma_max)
        named, best = _reference_sets(g, q)
        if named is None:
            with pytest.raises(NotIdentifiableError):
                canonical_sets(g, q)
        else:
            assert list(canonical_sets(g, q).items()) == list(named.items())
        if best is None:
            with pytest.raises(NotIdentifiableError):
                qopt(g, q)
        else:
            assert qopt(g, q) == best


class TestLazyFacts:
    """A NotIdentifiable or NonAncestor query, or a set rejected on the
    possible-descendant clash, is answered without enumerating a simple path."""

    ENUMERATORS = ("simple_directed_paths", "_open_backdoor_ecn")

    @pytest.fixture(autouse=True)
    def forbid_path_enumeration(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a simple path was enumerated")

        for name, mod in list(sys.modules.items()):
            if name == "scgadjust" or name.startswith("scgadjust."):
                for attr in self.ENUMERATORS:
                    if hasattr(mod, attr):
                        monkeypatch.setattr(mod, attr, forbidden)
        self.clear_caches()
        yield
        self.clear_caches()

    @staticmethod
    def clear_caches():
        for value in vars(sys.modules["scgadjust.identify"]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

    def test_not_identifiable(self):
        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        q = query(gamma=1)
        assert identify(g, q).kind is VerdictKind.NOT_IDENTIFIABLE
        assert not scg_backdoor_check(g, q, zset(("X", -2))).satisfied
        with pytest.raises(NotIdentifiableError):
            canonical_sets(g, q)
        with pytest.raises(NotIdentifiableError):
            qopt(g, q)

    def test_non_ancestor(self):
        g = validate_scg(["X", "Y", "W"], [("Y", "X"), ("W", "X"), ("W", "Y")])
        q = query(gamma=1)
        assert identify(g, q).kind is VerdictKind.NON_ANCESTOR
        assert scg_backdoor_check(g, q, zset(("W", -1))).satisfied
        assert canonical_sets(g, q) == {"empty": frozenset()}
        with pytest.raises(NotIdentifiableError):
            qopt(g, q)

    @pytest.mark.parametrize("path", sorted(GRAPHS_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_sample_graphs(self, path):
        # Every non-identifiable or non-ancestor query, and the outcome
        # variable itself (a possible descendant) as the set of every other.
        g = scg_from_json(path.read_text(encoding="utf-8"))
        for x in g.nodes:
            for y in g.nodes:
                if x == y:
                    continue
                for gamma in (0, 1):
                    q = MicroQuery(x, y, gamma, 1)
                    kind = identify(g, q).kind
                    if kind is VerdictKind.NON_ANCESTOR:
                        assert canonical_sets(g, q) == {"empty": frozenset()}
                    elif kind is VerdictKind.NOT_IDENTIFIABLE:
                        with pytest.raises(NotIdentifiableError):
                            canonical_sets(g, q)
                        assert not scg_backdoor_check(g, q, frozenset()).satisfied
                    else:
                        report = scg_backdoor_check(g, q, zset((y, 0)))
                        assert report.violations[0].startswith("possible descendant of treatment in set")


def _backdoor_path_classes(g, x, y):
    """(nodes, colliders) of every simple back-door path from ``x`` to ``y``,
    listed in full: the first step follows an edge into ``x``, later steps an
    edge in either direction, and a collider is an interior node whose two
    path edges both point at it."""
    found = set()

    def extend(path, entered):
        v = path[-1]
        if v == y:
            # A collider is entered by its own step and left by a step into it.
            colliders = frozenset(
                path[i] for i in range(1, len(path) - 1) if entered[i] and not entered[i + 1]
            )
            found.add((frozenset(path), colliders))
            return
        for w in g.children(v):
            if w not in path:
                extend(path + [w], entered + [True])
        for w in g.parents(v):
            if w not in path:
                extend(path + [w], entered + [False])

    for first in g.parents(x):
        if first != x:
            extend([x, first], [False, False])
    return found


class TestOpenBackdoorSearch:
    """The witness search that ``z1_required`` and ``backdoor_restricted_ecn``
    run gives what filtering the full list of back-door path classes gives."""

    @given(
        small_scgs(),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=1, max_value=2),
        st.data(),
    )
    @settings(max_examples=200)
    def test_matches_path_classes(self, g, gamma, gamma_max, data):
        x, y = data.draw(st.permutations(g.nodes))[:2]
        q = MicroQuery(x, y, gamma, gamma_max)
        paths = _backdoor_path_classes(g, x, y)
        cn, ecn = causal_nodes(g, x, y), extended_causal_nodes(g, x, y)
        d = possible_descendants(g, x, -gamma, (q.window_floor, 0), gamma_max)
        facts = query_facts(g, q)
        for k in range(len(g.nodes) + 1):
            for series in map(frozenset, combinations(g.nodes, k)):
                opened = set()
                for nodes, colliders in paths:
                    if colliders <= series:
                        opened |= nodes & ecn
                z1 = instantiate(g.parents_of_set(cn | opened), q.window_floor, 0) - d
                assert facts.z1_required(series) == z1
                z2 = [tv(s, 0) for s in series]
                assert backdoor_restricted_ecn(g, x, y, z2) == opened
