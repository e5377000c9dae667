"""Acceptance gate: one test per criterion, named by criterion number.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criteria 6c and 6d assert equalities that fail on known
counterexamples (the witness optimum cannot reach every quasi-optimal member
when a lagged query's extended causal nodes lie outside cycles, and the
witness subtracts only its own descendants rather than all possible ones);
they are implemented exactly as stated and marked strict-xfail so the gap
stays visible without masking the rest of the gate.
"""

import hashlib
import time

import pytest

from scgadjust import (
    MicroQuery,
    QueryError,
    VerdictKind,
    densest_templates,
    enumerate_compatible_templates,
    identify,
    possible_descendants,
    qopt,
    scg_backdoor_check,
    set_a1,
    set_a2,
)
from scgadjust.identify import BackdoorTester
from scgadjust.oracle import CorpusConfig, probe_graph, random_scg, soundness_experiment
from scgadjust.simulate import variance_experiment
from scgadjust.unroll import count_compatible_templates, count_densest_templates

from .conftest import query, zset
from .references import (
    backdoor_restricted_ecn,
    ftdag_opt,
    possible_descendants_bruteforce,
    qopt_witness_template,
)

DESK_CORPUS = CorpusConfig(
    n_graphs=200,
    node_count_range=(5, 6),
    edge_probability=0.3,
    allow_cycles=True,
    gamma_max=1,
    template_cap=50,
    seed=7,
    max_subset_size=5,
)

CORPUS_CSV_SHA256 = "1ffdc075632591469f965d85517885ff693bdf4b3812f2d4ce7bc2b1e44dee1a"
CORPUS_JSON_SHA256 = "5faeffc341b330a62ffedfdb0a216a71c233f70e6f7519328de5a788d465c475"


def report_line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus_report():
    start = time.perf_counter()
    report = soundness_experiment(DESK_CORPUS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def identifiable_pairs():
    """100 identifiable (graph, query) pairs with tractable enumeration."""
    cfg = CorpusConfig(n_graphs=4000, node_count_range=(5, 6), seed=23)
    pairs = []
    index = 0
    while len(pairs) < 100 and index < cfg.n_graphs:
        g = random_scg(cfg, index)
        index += 1
        if count_densest_templates(g) > cfg.template_cap:
            continue
        if count_compatible_templates(g, 1, 300) > 300:
            continue
        for gamma in (0, 1):
            q = MicroQuery("X", "Y", gamma, 1)
            if identify(g, q).kind in (VerdictKind.COND_A, VerdictKind.COND_B, VerdictKind.COND_C):
                pairs.append((g, q))
                if len(pairs) >= 100:
                    break
    assert len(pairs) == 100
    return pairs


def test_criterion_1_golden_verdicts(condition_a_trio, condition_b_trio, cycle_pair_confounded):
    cases = (
        [(g, query(gamma=1), VerdictKind.COND_A) for g in condition_a_trio]
        + [(g, query(gamma=0), VerdictKind.COND_B) for g in condition_b_trio]
        + [(cycle_pair_confounded, query(gamma=1), VerdictKind.COND_C)]
    )
    worst = 0.0
    for g, q, expected in cases:
        identify(g, q)  # warm caches; the bound is for the per-call cost
        start = time.perf_counter()
        verdict = identify(g, q)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert verdict.kind is expected, (g.nodes, q.gamma, verdict.kind)
        assert elapsed < 1e-3
    report_line("1 golden verdicts", True, f"max {worst * 1e6:.0f} us per call")


def test_criterion_2_golden_set_check(persistence_chain):
    z = zset(("X", -2), ("W", -2), ("W", -1))
    report = scg_backdoor_check(persistence_chain, query(gamma=1, gamma_max=1), z)
    ok = report.satisfied and report.condition == "A" and report.item == "A.1"
    report_line("2 golden set check", ok, "accepted under item A.1")
    assert ok


def test_criterion_3_soundness_replication(corpus_report):
    report, elapsed = corpus_report
    ok = (
        report.counterexamples == ()
        and report.graphs_tested + report.graphs_skipped_over_cap == 200
        and elapsed < 300.0
    )
    report_line(
        "3 soundness replication",
        ok,
        f"{report.graphs_tested} graphs tested, "
        f"{report.graphs_skipped_over_cap} skipped over cap, "
        f"{report.sets_checked} sets checked, "
        f"{len(report.counterexamples)} counterexamples, "
        f"{elapsed:.1f}s",
    )
    assert report.counterexamples == ()
    assert report.sets_sound == report.sets_checked
    assert elapsed < 300.0
    # Byte-identical reports for the seed-7 corpus: refactors of the graph
    # kernels must not move a single row.
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == CORPUS_CSV_SHA256
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == CORPUS_JSON_SHA256


def test_criterion_4_incompleteness_probe(latent_fork_collider):
    found = probe_graph(latent_fork_collider, query(gamma=0), max_subset_size=4, cap=50)
    ok = len(found) >= 1 and zset(("U", -1), ("U", 0), ("X", -1), ("R", -1)) in found
    report_line("4 incompleteness probe", ok, f"{len(found)} common-valid sets rejected")
    assert ok


def test_criterion_5_oracle_equivalence():
    cfg = CorpusConfig(n_graphs=2000, node_count_range=(2, 5), seed=13)
    tested = 0
    index = 0
    agree = True
    while tested < 100 and index < cfg.n_graphs:
        g = random_scg(cfg, index)
        index += 1
        if count_compatible_templates(g, 1, 2000) > 2000:
            continue
        tested += 1
        window = (-2, 0)
        probes = [(g.nodes[0], -2), (g.nodes[0], -1), (g.nodes[1], -1)]
        for v, offset in probes:
            fast = possible_descendants(g, v, offset, window, 1)
            brute = possible_descendants_bruteforce(g, v, offset, window, 1)
            agree = agree and fast == brute
            assert fast == brute, (g.nodes, g.edge_list, v, offset)
    report_line("5 oracle equivalence", agree and tested == 100, f"{tested} graphs, 100% agreement")
    assert tested == 100


def test_criterion_6a_quasi_optimal_passes_checker(identifiable_pairs):
    hits = sum(1 for g, q in identifiable_pairs if scg_backdoor_check(g, q, qopt(g, q)).satisfied)
    report_line("6a quasi-optimal set passes the checker", hits == 100, f"{hits}/100")
    assert hits == 100


def test_criterion_6b_per_template_optimal_contained(identifiable_pairs):
    ok_pairs = 0
    for g, q in identifiable_pairs:
        quasi = qopt(g, q)
        posdesc = possible_descendants(g, q.treatment, -q.gamma, (q.window_floor, 0), q.gamma_max)
        contained = True
        for t in enumerate_compatible_templates(g, q.gamma_max, cap=300):
            try:
                opt = ftdag_opt(t, q)
            except QueryError:
                continue
            contained = contained and (opt - posdesc) <= quasi
        ok_pairs += int(contained)
    report_line("6b per-template optimal within quasi-optimal", ok_pairs == 100, f"{ok_pairs}/100")
    assert ok_pairs == 100


def _witness_equality_results(pairs):
    results = []
    for g, q in pairs:
        if backdoor_restricted_ecn(g, q.treatment, q.outcome, []) != frozenset():
            continue
        witness = qopt_witness_template(g, q)
        try:
            opt = ftdag_opt(witness, q)
        except QueryError:
            results.append((g, q, False))
            continue
        results.append((g, q, opt == qopt(g, q)))
    return results


@pytest.mark.xfail(
    strict=True,
    reason="stated equality fails on lagged queries whose extended causal nodes "
    "lie outside cycles (documented defect; minimal counterexample is the "
    "persistence chain at gamma=1)",
)
def test_criterion_6c_witness_equality_as_stated(identifiable_pairs, persistence_chain):
    pairs = identifiable_pairs + [(persistence_chain, query(gamma=1))]
    results = _witness_equality_results(pairs)
    hits = sum(1 for _, _, ok in results if ok)
    report_line(
        "6c witness-template optimum equals quasi-optimal (as stated)",
        hits == len(results),
        f"{hits}/{len(results)} qualifying pairs",
    )
    assert hits == len(results)


def test_criterion_6c_witness_equality_on_provable_classes(identifiable_pairs, persistence_chain):
    # The equality does hold for two-cycle-outcome queries and for
    # instantaneous queries whose causal nodes have singleton components
    # (extended causal nodes == causal nodes); assert it there.
    from scgadjust import causal_nodes, extended_causal_nodes

    pairs = identifiable_pairs + [(persistence_chain, query(gamma=1))]
    checked = 0
    hits = 0
    for g, q, ok in _witness_equality_results(pairs):
        kind = identify(g, q).kind
        plain_causal = causal_nodes(g, q.treatment, q.outcome) == extended_causal_nodes(
            g, q.treatment, q.outcome
        )
        if kind is VerdictKind.COND_C or (q.gamma == 0 and plain_causal):
            checked += 1
            hits += int(ok)
    report_line(
        "6c' witness equality on provable classes",
        hits == checked,
        f"{hits}/{checked} (two-cycle-outcome, or gamma=0 with plain causal nodes)",
    )
    assert checked > 0
    assert hits == checked


def _union_of_optimal_sets(g, q, templates):
    union = set()
    for t in templates:
        try:
            union |= ftdag_opt(t, q)
        except QueryError:
            pass
    return frozenset(union)


def _premise_holds(g, q, templates):
    testers = [BackdoorTester(t, q) for t in densest_templates(g, q.gamma_max)]
    for t in templates:
        try:
            opt = ftdag_opt(t, q)
        except QueryError:
            continue
        if all(tester.check(opt) for tester in testers):
            return True
    return False


@pytest.mark.xfail(
    strict=True,
    reason="stated equality fails on some premise-verified graphs "
    "(same root cause as 6c; see the persistence chain at gamma=1)",
)
def test_criterion_6d_union_equality_as_stated(identifiable_pairs, persistence_chain):
    pairs = identifiable_pairs[:40] + [(persistence_chain, query(gamma=1))]
    checked = 0
    hits = 0
    for g, q in pairs:
        templates = enumerate_compatible_templates(g, q.gamma_max, cap=300)
        if not _premise_holds(g, q, templates):
            continue
        checked += 1
        posdesc = possible_descendants(g, q.treatment, -q.gamma, (q.window_floor, 0), q.gamma_max)
        union = _union_of_optimal_sets(g, q, templates) - posdesc
        hits += int(union == qopt(g, q))
    report_line(
        "6d union-of-optima equality (as stated)",
        hits == checked,
        f"{hits}/{checked} premise-verified pairs",
    )
    assert checked > 0
    assert hits == checked


def test_criterion_6d_union_always_contained(identifiable_pairs):
    # The containment direction is provable and must never fail.
    for g, q in identifiable_pairs[:40]:
        templates = enumerate_compatible_templates(g, q.gamma_max, cap=300)
        posdesc = possible_descendants(g, q.treatment, -q.gamma, (q.window_floor, 0), q.gamma_max)
        union = _union_of_optimal_sets(g, q, templates) - posdesc
        assert union <= qopt(g, q)
    report_line("6d' union of optima contained in quasi-optimal", True, "40/40")


def test_criterion_7_fixture_captions(optimal_gap, optimal_gap_templates, dual_role_outcome):
    q0 = query(gamma=0)
    t1, t2 = optimal_gap_templates
    o1, o2 = ftdag_opt(t1, q0), ftdag_opt(t2, q0)
    cross_invalid = (not BackdoorTester(t2, q0).check(o1)) and (
        not BackdoorTester(t1, q0).check(o2)
    )

    quasi = qopt(dual_role_outcome, q0)
    escape = False
    for t in enumerate_compatible_templates(dual_role_outcome, 1, cap=100):
        try:
            escape = escape or not (ftdag_opt(t, q0) <= quasi)
        except QueryError:
            continue
    ok = cross_invalid and escape
    report_line(
        "7 fixture captions",
        ok,
        "per-template optima mutually invalid; an optimum escapes the quasi-optimal",
    )
    assert cross_invalid
    assert escape


def test_criterion_8_variance_ordering(persistence_chain):
    q = query(gamma=1, gamma_max=1)
    sets = {
        "qopt": qopt(persistence_chain, q),
        "a1": set_a1(persistence_chain, q),
        "a2": set_a2(persistence_chain, q),
    }
    start = time.perf_counter()
    report = variance_experiment(persistence_chain, q, sets, n=10_000, reps=200, seed=7, blocks=5)
    elapsed = time.perf_counter() - start

    per = report["per_set"]
    aggregate_ok = (
        per["qopt"]["variance"] <= per["a1"]["variance"]
        and per["qopt"]["variance"] <= per["a2"]["variance"]
    )
    block_ok = all(
        per["qopt"]["block_variances"][b] <= 1.10 * per[other]["block_variances"][b]
        for other in ("a1", "a2")
        for b in range(report["blocks"])
    )
    unbiased = all(abs(per[n]["bias"]) <= 3 * per[n]["bias_se"] for n in sets)
    ok = aggregate_ok and block_ok and unbiased and elapsed < 180.0
    report_line(
        "8 variance ordering",
        ok,
        f"var qopt={per['qopt']['variance']:.2e} a1={per['a1']['variance']:.2e} "
        f"a2={per['a2']['variance']:.2e}, {elapsed:.1f}s",
    )
    assert aggregate_ok
    assert block_ok
    assert unbiased
    assert elapsed < 180.0


def test_criterion_9_consistency_gates(corpus_report):
    report, _ = corpus_report
    ok = report.condition_c_form_mismatches == 0 and report.padding_instabilities == 0
    report_line(
        "9 condition-C form equivalence and padding stability",
        ok,
        f"{report.condition_c_form_mismatches} mismatches, "
        f"{report.padding_instabilities} instabilities",
    )
    assert report.condition_c_form_mismatches == 0
    assert report.padding_instabilities == 0
