import hashlib
import json
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from scgadjust import (
    MicroQuery,
    QueryError,
    TemporalVar,
    canonical_sets,
    make_template,
    qopt,
    scg_from_json,
    set_a1,
    set_a2,
    validate_scg,
)
from scgadjust.simulate import (
    Dataset,
    EstimationError,
    LinearDTDSCM,
    dataset_to_csv,
    generate,
    ols_effect,
    sample_linear_model,
    spectral_radius,
    true_effect,
    variance_experiment,
)
from scgadjust.unroll import enumerate_compatible_templates

from .conftest import bounded, query, zset

GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


@pytest.fixture(scope="module")
def lagged_edge_model(single_edge_graph=None):
    g = validate_scg(["X", "Y"], [("X", "Y")])
    t = make_template(g, 1, {("X", "Y"): {1}})
    return LinearDTDSCM(t, (((("X", "Y"), 1), 0.8),), (("X", 1.0), ("Y", 1.0)))


class TestSampling:
    def test_deterministic(self, persistence_template):
        a = sample_linear_model(persistence_template, seed=4)
        b = sample_linear_model(persistence_template, seed=4)
        assert a.coeff_entries == b.coeff_entries

    def test_one_coefficient_per_edge_lag(self, persistence_template):
        model = sample_linear_model(persistence_template, seed=4)
        n_pairs = sum(len(ls) for _, ls in persistence_template.lag_entries)
        assert len(model.coeff_entries) == n_pairs
        assert all(0.1 <= abs(c) <= 0.9 for _, c in model.coeff_entries)

    def test_draws_stay_bounded_over_long_horizon(self, persistence_template):
        for seed in range(100):
            model = sample_linear_model(persistence_template, seed=seed)
            assert spectral_radius(model) < 0.95
            data = generate(model, 2, 500, 0, seed=seed)
            assert np.all(np.isfinite(data.values))
            assert np.max(np.abs(data.values)) < 1e3


class TestGenerate:
    def test_pure_noise_variance(self, persistence_template):
        zero = LinearDTDSCM(
            persistence_template,
            tuple(((edge, lag), 0.0) for edge, ls in persistence_template.lag_entries for lag in ls),
            tuple((v, 1.5) for v in persistence_template.scg.nodes),
        )
        data = generate(zero, 4000, 8, 0, seed=9)
        n = data.values[:, :, 0].size
        sd_se = 1.5 / math.sqrt(2 * (n - 1))  # SE of a sample SD
        for j in range(3):
            assert abs(data.values[:, :, j].std() - 1.5) < 3 * sd_se * 2

    def test_seed_reproducibility(self, lagged_edge_model):
        a = generate(lagged_edge_model, 50, 10, 2, seed=1)
        b = generate(lagged_edge_model, 50, 10, 2, seed=1)
        assert np.array_equal(a.values, b.values)

    def test_lagged_covariance(self, lagged_edge_model):
        data = generate(lagged_edge_model, 20000, 6, 4, seed=2)
        x = data.values[:, :-1, 0].ravel()
        y = data.values[:, 1:, 1].ravel()
        cov = float(np.cov(x, y)[0, 1])
        expected = 0.8 * float(np.var(x))
        se = 3 / math.sqrt(x.size)
        assert abs(cov - expected) < 3 * se

    def test_dataset_shape_checks(self):
        with pytest.raises(ValueError, match="shape"):
            Dataset(("X",), np.zeros((2, 3)))

    def test_csv_layout(self, lagged_edge_model):
        data = generate(lagged_edge_model, 2, 3, 0, seed=0)
        lines = dataset_to_csv(data).strip().splitlines()
        assert lines[0] == "replicate,time,series,value"
        assert len(lines) == 1 + 2 * 3 * 2


class TestPinnedGenerateBytes:
    """The generated values and their CSV for every compatible template of two
    sample graphs, at two seeds and sizes (one without burn-in), reduced to
    one SHA-256 each.  Rewrites of the sampler must not move a single byte."""

    VALUES_DIGEST = "691093447df7c0f81ad80ac8ad94f62fa78b19aa002607d91d234e85eca1bea1"
    CSV_DIGEST = "19ea791cd3e947431c7e74680c8d6ecd0c09356268e67d96816c5c12897f4216"
    # seed -> (replicates, horizon, burn_in)
    SIZES = {3: (40, 4, 25), 8: (7, 6, 0)}

    def digests(self) -> tuple[str, str]:
        values, text = hashlib.sha256(), hashlib.sha256()
        for name in ("persistence_chain", "cycle_pair_confounded"):
            g = scg_from_json((GRAPHS_DIR / f"{name}.json").read_text(encoding="utf-8"))
            for tmpl in enumerate_compatible_templates(g, 1, cap=10_000):
                for seed, (n, horizon, burn_in) in self.SIZES.items():
                    data = generate(sample_linear_model(tmpl, seed=seed), n, horizon, burn_in, seed)
                    assert data.values.shape == (n, horizon, 3)
                    values.update(data.values.tobytes())
                    text.update(dataset_to_csv(data).encode())
        return values.hexdigest(), text.hexdigest()

    def test_digests(self):
        assert self.digests() == (self.VALUES_DIGEST, self.CSV_DIGEST)

    @pytest.mark.parametrize("cells", [1, 86, 87, 88, 261, 1 << 18])
    def test_any_chunk_size(self, monkeypatch, cells):
        # The noise is one stream however the draws cut it.  A replicate of
        # the seed-3 size is 29 slices x 3 series = 87 cells: up to 173 cells
        # each draw holds one replicate, 261 draws three with a short last
        # chunk, and 1 << 18 draws every replicate at once.
        import scgadjust.simulate as simulate

        monkeypatch.setattr(simulate, "NOISE_CHUNK_CELLS", cells)
        assert self.digests() == (self.VALUES_DIGEST, self.CSV_DIGEST)


class TestPinnedVarianceBytes:
    """The JSON of ``variance_experiment`` with every canonical set, on two
    sample graphs at two seeds and sizes, reduced to one SHA-256.  However the
    datasets are scheduled, the report must not move a single byte."""

    DIGEST = "cfd220b52daf417dd6e1330db7613ca2f37ec381f9fca208920a80576bc1f67b"
    # seed -> reps, at n 300 over 5 blocks
    REPS = {3: 10, 5: 20}

    def digest(self) -> str:
        text = hashlib.sha256()
        for name in ("persistence_chain", "cycle_pair_confounded"):
            g = scg_from_json((GRAPHS_DIR / f"{name}.json").read_text(encoding="utf-8"))
            q = query(gamma=1)
            sets = canonical_sets(g, q)
            for seed, reps in self.REPS.items():
                report = variance_experiment(g, q, sets, n=300, reps=reps, seed=seed, blocks=5)
                text.update(json.dumps(report, sort_keys=True).encode())
        return text.hexdigest()

    def test_digest(self):
        assert self.digest() == self.DIGEST

    @pytest.mark.parametrize("cpus", [1, 2, 3, 16])
    def test_any_cpu_count(self, monkeypatch, cpus):
        # One worker runs every dataset on the calling thread; two and three
        # share all 10 or 20 datasets of an experiment through one map.
        # Sixteen are more than the 10 datasets of reps 10, where the map is
        # capped at 10 workers, so at most 10 threads run a dataset.
        import scgadjust.simulate as simulate

        real = simulate._map_in_order
        maps = []

        def spy(fn, items, workers):
            threads = set()

            def traced(item):
                threads.add(threading.get_ident())
                return fn(item)

            results = real(traced, items, workers)
            maps.append((len(items), workers, len(threads)))
            return results

        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(simulate, "_map_in_order", spy)
        assert self.digest() == self.DIGEST
        reps = list(self.REPS.values()) * 2
        assert [(items, workers) for items, workers, _ in maps] == [(r, min(cpus, r)) for r in reps]
        assert all(threads <= workers for _, workers, threads in maps)


def _paths_effect_bruteforce(model: LinearDTDSCM, q: MicroQuery) -> float:
    """Path enumeration over the unrolled coefficient graph."""
    from scgadjust.unroll import TemporalVar, unroll

    u = unroll(model.template, q.window_floor, 0)
    coeff = model.coefficients
    start = TemporalVar(q.treatment, -q.gamma)
    goal = TemporalVar(q.outcome, 0)
    total = 0.0
    stack = [(start, 1.0)]
    while stack:
        node, prod = stack.pop()
        if node == goal:
            total += prod
            continue
        for child in u.children.get(node, ()):
            lag = child.offset - node.offset
            c = coeff.get(((node.series, child.series), lag))
            if c is not None:
                stack.append((child, prod * c))
    return total


class TestTrueEffect:
    def test_single_path(self, lagged_edge_model):
        assert true_effect(lagged_edge_model, query(gamma=1)) == pytest.approx(0.8)

    def test_non_ancestor_zero(self):
        g = validate_scg(["X", "Y"], [("Y", "X")])
        t = make_template(g, 1, {("Y", "X"): {1}})
        m = LinearDTDSCM(t, (((("Y", "X"), 1), 0.5),), (("X", 1.0), ("Y", 1.0)))
        assert true_effect(m, query(gamma=1)) == 0.0

    def test_two_paths(self):
        g = validate_scg(["X", "M", "Y"], [("X", "M"), ("M", "Y"), ("X", "Y")])
        t = make_template(g, 1, {("X", "M"): {0}, ("M", "Y"): {0}, ("X", "Y"): {0}})
        m = LinearDTDSCM(
            t,
            (((("X", "M"), 0), 0.5), ((("M", "Y"), 0), 0.5), ((("X", "Y"), 0), 0.3)),
            (("X", 1.0), ("M", 1.0), ("Y", 1.0)),
        )
        assert true_effect(m, query(gamma=0)) == pytest.approx(0.55)

    def test_matches_path_enumeration(self, persistence_template):
        model = sample_linear_model(persistence_template, seed=21)
        for gamma in (0, 1):
            q = query(gamma=gamma)
            assert true_effect(model, q) == pytest.approx(_paths_effect_bruteforce(model, q))


@pytest.fixture(scope="module")
def confounded_model():
    # W confounds X and Y; adjusting for W's instances removes the bias.
    g = validate_scg(["X", "Y", "W"], [("W", "X"), ("W", "Y"), ("X", "Y")])
    t = make_template(g, 1, {("W", "X"): {0}, ("W", "Y"): {0}, ("X", "Y"): {0}})
    m = LinearDTDSCM(
        t,
        (((("W", "X"), 0), 0.8), ((("W", "Y"), 0), 0.8), ((("X", "Y"), 0), 0.5)),
        (("X", 1.0), ("Y", 1.0), ("W", 1.0)),
    )
    return m


class TestOls:
    def test_consistent_on_valid_set(self, lagged_edge_model):
        data = generate(lagged_edge_model, 5000, 8, 4, seed=5)
        est = ols_effect(data, query(gamma=1), frozenset())
        assert abs(est.point - 0.8) < 3 * est.stderr

    def test_omitted_confounder_bias(self, confounded_model):
        q = query(gamma=0)
        data = generate(confounded_model, 20000, 3, 2, seed=6)
        biased = ols_effect(data, q, frozenset())
        assert abs(biased.point - 0.5) > 5 * biased.stderr
        adjusted = ols_effect(data, q, zset(("W", 0)))
        assert abs(adjusted.point - 0.5) < 3 * adjusted.stderr

    def test_error_shrinks_with_sample_size(self, lagged_edge_model):
        q = query(gamma=1)
        errs = {}
        for n in (1000, 10000):
            pts = []
            for seed in range(12):
                data = generate(lagged_edge_model, n, 4, 4, seed=100 + seed)
                pts.append(ols_effect(data, q, frozenset()).point - 0.8)
            errs[n] = float(np.sqrt(np.mean(np.square(pts))))
        ratio = errs[1000] / errs[10000]
        assert 1.8 < ratio < 5.5  # sqrt(10) with Monte-Carlo slack

    def test_single_series_pooled_mode(self, lagged_edge_model):
        # One long replicate, anchors pooled over time: supported for
        # exploratory use, though the experiment harness sticks to many
        # short independent replicates.
        data = generate(lagged_edge_model, 1, 30000, 50, seed=11)
        est = ols_effect(data, query(gamma=1), frozenset())
        assert est.n == 29999
        assert abs(est.point - 0.8) < 4 * est.stderr

    def test_rank_deficiency(self, lagged_edge_model):
        data = generate(lagged_edge_model, 200, 5, 2, seed=8)
        with pytest.raises(EstimationError, match="rank deficient"):
            ols_effect(data, query(gamma=1), zset(("X", -1)))

    def test_too_short_horizon(self, lagged_edge_model):
        data = generate(lagged_edge_model, 50, 2, 0, seed=8)
        with pytest.raises(EstimationError, match="horizon"):
            ols_effect(data, query(gamma=1), zset(("X", -2)))

    def test_malformed_query(self):
        with pytest.raises(QueryError):
            MicroQuery("Y", "Y", 0, 1)


def _ols_reference(data, q, z):
    """The textbook formula: a rank test by SVD, a least-squares solve and the
    inverse Gram matrix, over a design built anchor by anchor."""
    series_index = {v: i for i, v in enumerate(data.series)}
    zs = sorted(z, key=lambda tv: (-tv.offset, tv.series))
    t0 = max([q.gamma] + [-tv.offset for tv in zs])
    anchors = range(t0, data.horizon)
    vals = data.values
    cols = [np.ones((data.replicates, len(anchors)))]
    cols.append(np.stack([vals[:, t - q.gamma, series_index[q.treatment]] for t in anchors], axis=1))
    for tv in zs:
        cols.append(np.stack([vals[:, t + tv.offset, series_index[tv.series]] for t in anchors], axis=1))
    y = np.stack([vals[:, t, series_index[q.outcome]] for t in anchors], axis=1).ravel()
    design = np.column_stack([c.ravel() for c in cols])
    n, p = design.shape
    if np.linalg.matrix_rank(design) < p:
        raise EstimationError("design matrix is rank deficient")
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    sigma2 = float(resid @ resid) / max(n - p, 1)
    xtx_inv = np.linalg.inv(design.T @ design)
    return float(beta[1]), float(np.sqrt(sigma2 * xtx_inv[1, 1]))


class TestOlsOracle:
    """``ols_effect`` against the reference formula on seeded random designs:
    random models, sizes, lags and adjustment sets over every series."""

    def cases(self, persistence_template):
        rng = np.random.default_rng(np.random.SeedSequence([29, 1]))
        for k in range(40):
            model = sample_linear_model(persistence_template, seed=k)
            gamma = int(rng.integers(0, 3))
            horizon = int(rng.integers(gamma + 1, gamma + 5))
            n = int(rng.choice((30, 200, 1500)))
            data = generate(model, n, horizon, 5, seed=k)
            window = [
                TemporalVar(v, -o)
                for v in data.series
                for o in range(horizon)
                if (v, o) != ("Y", 0) and (v, o) != ("X", gamma)
            ]
            size = int(rng.integers(0, min(len(window), 5) + 1))
            picks = rng.choice(len(window), size=size, replace=False)
            yield data, query(gamma=gamma), frozenset(window[i] for i in picks)

    def test_matches_reference(self, persistence_template):
        for data, q, z in self.cases(persistence_template):
            est = ols_effect(data, q, z)
            point, stderr = _ols_reference(data, q, z)
            np.testing.assert_allclose([est.point, est.stderr], [point, stderr], rtol=1e-9, atol=0)

    def test_collinear_design_rejected_by_both(self, persistence_template):
        for data, q, z in self.cases(persistence_template):
            bad = z | {TemporalVar(q.treatment, -q.gamma)}
            with pytest.raises(EstimationError, match="rank deficient"):
                _ols_reference(data, q, bad)
            with pytest.raises(EstimationError, match="rank deficient"):
                ols_effect(data, q, bad)


class TestVarianceExperiment:
    def test_persistence_chain_ordering(self, persistence_chain):
        q = query(gamma=1)
        sets = {
            "qopt": qopt(persistence_chain, q),
            "a1": set_a1(persistence_chain, q),
            "a2": set_a2(persistence_chain, q),
        }
        report = variance_experiment(persistence_chain, q, sets, n=1500, reps=40, seed=7, blocks=2)
        assert report["ordering"] == {"qopt_le_a1": True, "qopt_le_a2": True}
        for name in sets:
            stats = report["per_set"][name]
            assert abs(stats["bias"]) < 4 * stats["bias_se"] + 1e-12

    def test_null_model_unbiased(self, persistence_chain):
        q = query(gamma=1)
        t = make_template(
            persistence_chain,
            1,
            {("W", "X"): {0, 1}, ("X", "Y"): {0, 1}, ("W", "W"): {1}, ("X", "X"): {1}},
        )
        report = variance_experiment(
            persistence_chain,
            q,
            {"qopt": qopt(persistence_chain, q)},
            n=800,
            reps=20,
            seed=3,
            blocks=2,
            coef_low=0.1,
            coef_high=0.11,
            template=t,
        )
        stats = report["per_set"]["qopt"]
        assert abs(stats["bias"]) < 5 * stats["bias_se"] + 1e-12

    def test_biased_baseline_contrast(self, confounded_model):
        # One fixed confounding shape and one block: with several models the
        # per-block omitted-variable biases carry random signs and can cancel
        # in the pooled mean.  |bias| >= 0.6*0.6/(0.81+1) for every draw here.
        g = confounded_model.template.scg
        q = query(gamma=0)
        report = variance_experiment(
            g,
            q,
            {"qopt": qopt(g, q), "none": frozenset()},
            n=4000,
            reps=20,
            seed=5,
            blocks=1,
            coef_low=0.6,
            coef_high=0.9,
            template=confounded_model.template,
            validate_sets=False,
        )
        biased = report["per_set"]["none"]
        assert abs(biased["bias"]) > 5 * biased["bias_se"]
        unbiased = report["per_set"]["qopt"]
        assert abs(unbiased["bias"]) < 4 * unbiased["bias_se"] + 1e-12

    @pytest.mark.parametrize("reps,blocks", [(5, 5), (9, 5), (10, 0)])
    def test_fewer_than_two_replicates_per_block_rejected(self, persistence_chain, reps, blocks):
        q = query(gamma=1)
        sets = {"qopt": qopt(persistence_chain, q)}
        with pytest.raises(ValueError, match="divisible|at least 2 replicates per block"):
            variance_experiment(persistence_chain, q, sets, n=100, reps=reps, seed=1, blocks=blocks)

    def test_equal_sets_share_one_estimate(self, persistence_chain, monkeypatch):
        import scgadjust.simulate as simulate

        q = query(gamma=1)
        calls = []
        real = simulate.ols_effect

        def counted(data, q, z):
            calls.append(z)
            return real(data, q, z)

        monkeypatch.setattr(simulate, "ols_effect", counted)
        sets = {
            "qopt": qopt(persistence_chain, q),
            "a1": set_a1(persistence_chain, q),
            "a2": set_a2(persistence_chain, q),
        }
        assert sets["a1"] == sets["a2"]
        report = variance_experiment(persistence_chain, q, sets, n=200, reps=4, seed=2, blocks=2)
        assert len(calls) == 2 * 4
        assert report["per_set"]["a1"] == report["per_set"]["a2"]

    def test_invalid_set_rejected(self, persistence_chain):
        q = query(gamma=1)
        with pytest.raises(ValueError, match="fails the criterion"):
            variance_experiment(
                persistence_chain, q, {"bad": frozenset()}, n=100, reps=4, seed=1, blocks=2
            )


class TestMapInOrder:
    def test_stress_more_workers_than_cpus(self):
        # A tiny switch interval makes the threads interleave at almost every
        # bytecode; every item must still run exactly once, in list order in
        # the result.
        import scgadjust.simulate as simulate

        calls = []

        def square(x):
            calls.append(x)
            return x * x

        items = range(3000)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = bounded(lambda: simulate._map_in_order(square, items, 8))
        finally:
            sys.setswitchinterval(interval)
        assert results == [x * x for x in items]
        assert sorted(calls) == list(items)
        assert threading.active_count() == before

    def test_no_hand_out_after_failure(self):
        # Four workers each hold one of the first four items when the item
        # of a started thread fails.  Once that failure is recorded no item
        # is handed out: the calling thread and the two other started ones
        # finish their items and take no more.
        import scgadjust.simulate as simulate

        barrier = threading.Barrier(4)
        lock = threading.Lock()
        caller, seen, failed = [], [], []

        def fn(i):
            seen.append(i)
            if i < 4:
                barrier.wait(timeout=10)
            with lock:
                fail = not failed and threading.get_ident() != caller[0]
                if fail:
                    failed.append(i)
            if fail:
                raise RuntimeError(f"item {i}")
            time.sleep(0.05)
            return i

        def call():
            caller.append(threading.get_ident())
            return simulate._map_in_order(fn, range(40), 4)

        with pytest.raises(RuntimeError, match="^item [0-3]$"):
            bounded(call)
        assert sorted(seen) == [0, 1, 2, 3]


class TestVarianceExperimentErrors:
    """A failing dataset ends the experiment with the error the dataset loop
    raises in order, and leaves no worker thread behind."""

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_rank_deficient_set(self, persistence_chain, monkeypatch, cpus):
        import scgadjust.simulate as simulate

        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        q = query(gamma=1)
        before = threading.active_count()
        with pytest.raises(EstimationError) as exc:
            bounded(
                lambda: variance_experiment(
                    persistence_chain,
                    q,
                    {"bad": zset(("X", -1))},
                    n=200,
                    reps=8,
                    seed=1,
                    blocks=2,
                    validate_sets=False,
                )
            )
        assert str(exc.value) == "design matrix is rank deficient"
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_earliest_dataset_failure_raised(self, persistence_chain, monkeypatch, cpus):
        import scgadjust.simulate as simulate

        monkeypatch.setattr(simulate, "_available_cpus", lambda: cpus)
        real = simulate.generate
        seen = []

        # The 8 datasets of seed 2 have data seeds 16-23.  Seed 17 fails
        # after seed 19 has failed, when they run side by side.  Seed 19
        # fails at once, long before any other worker finishes its dataset.
        def failing(model, n, horizon, burn_in, seed):
            seen.append(seed)
            if seed == 17:
                time.sleep(0.2)
            if seed in (17, 19):
                raise RuntimeError(f"dataset {seed}")
            time.sleep(0.05)
            return real(model, n, horizon, burn_in, seed)

        monkeypatch.setattr(simulate, "generate", failing)
        q = query(gamma=1)
        before = threading.active_count()
        sets = {"qopt": qopt(persistence_chain, q)}
        with pytest.raises(RuntimeError, match="^dataset 17$"):
            bounded(lambda: variance_experiment(persistence_chain, q, sets, n=200, reps=8, seed=2, blocks=2))
        assert threading.active_count() == before
        # Every dataset before the failing one ran, and none was handed out
        # once a failure was recorded: one worker stops after seed 17; four
        # take one of seeds 16-19 each, and seed 19 fails before any of them
        # comes back for another.
        if cpus == 1:
            assert seen == [16, 17]
        else:
            assert sorted(seen) == [16, 17, 18, 19]
