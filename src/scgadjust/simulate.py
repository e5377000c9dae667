"""Linear-Gaussian sampling over full-time templates and OLS adjustment.

Data follow the cohort framing: many independent replicates of a short
multivariate series, each simulated in lag-0 topological order per slice
with Gaussian noise.  The treatment coefficient of an ordinary least squares
regression of the outcome on (treatment, adjustment set) estimates the micro
effect; the experiment harness compares empirical estimator variances across
adjustment sets.

The recursion steps in a time-major array, where each (time, series) cell is
one contiguous vector over the replicates; the returned values are a
replicate-major view of it with the same bytes as a replicate-by-replicate
simulation.  Each regression is one Householder QR of the augmented design,
and the experiment estimates each distinct set once per dataset, however many
names refer to it.

Every dataset has its own seed, so the experiment samples every block's
model first and then runs all its datasets through one ordered map, on one
thread per CPU the process may run on (its affinity mask, as set for example
with ``taskset``).  The normal draws, the array arithmetic and LAPACK release
the GIL; the noise is drawn in 2 MiB chunks, so that a dataset's draws give
up and retake the GIL only a few times.  Results are taken in dataset
order, so the report has the same bytes whatever the number of CPUs.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graph import SCG
from .identify import AdjustmentSet, adjustment_set_to_obj, scg_backdoor_check
from .unroll import (
    FTDagTemplate,
    MicroQuery,
    TemporalVar,
    enumerate_compatible_templates,
)

# Noise s.d. of every series, and the redraw bound and spectral-radius margin
# of the coefficient draw.
NOISE_SD = 1.0
MAX_TRIES = 100
STABILITY_MARGIN = 0.95
# Slices simulated and dropped before the kept ones, in the variance
# experiment and in ``simulate --dump-data``.
BURN_IN = 25
# Noise values drawn per call in ``generate``: 2 MiB, so that a dataset of
# 10,000 replicates takes four draws and four scatters into the time-major
# array.  Each call releases and retakes the GIL, and between the threads of
# the variance experiment every hand-off costs more than a smaller buffer
# saves in cache misses.  The values are the same stream at any chunk size.
NOISE_CHUNK_CELLS = 1 << 18


class EstimationError(ValueError):
    """Regression cannot be run on this data/set combination."""


class InstabilityError(RuntimeError):
    """No stable coefficient draw found within the retry bound."""


class LinearDTDSCM(NamedTuple):
    """Linear mechanisms over one template: coefficient per (edge, lag)."""

    template: FTDagTemplate
    coeff_entries: tuple[tuple[tuple[tuple[str, str], int], float], ...]
    noise_entries: tuple[tuple[str, float], ...]

    @property
    def coefficients(self) -> dict[tuple[tuple[str, str], int], float]:
        return dict(self.coeff_entries)

    @property
    def noise_sd(self) -> dict[str, float]:
        return dict(self.noise_entries)


class _DatasetFields(NamedTuple):
    series: tuple[str, ...]
    values: np.ndarray


class Dataset(_DatasetFields):
    """Replicate x time x series tensor, no missing values."""

    __slots__ = ()

    def __new__(cls, series: tuple[str, ...], values: np.ndarray) -> Dataset:
        if values.ndim != 3 or values.shape[2] != len(series):
            raise ValueError("values must have shape (replicates, horizon, n_series)")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        return super().__new__(cls, series, values)

    @property
    def replicates(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> int:
        return self.values.shape[1]


class EffectEstimate(NamedTuple):
    point: float
    set_used: AdjustmentSet
    n: int
    stderr: float


def _reduced_form(model: LinearDTDSCM) -> tuple[np.ndarray, list[np.ndarray]]:
    g = model.template.scg
    d = len(g.nodes)
    idx = {v: i for i, v in enumerate(g.nodes)}
    gmax = model.template.gamma_max
    mats = [np.zeros((d, d)) for _ in range(gmax + 1)]
    for ((u, w), lag), c in model.coeff_entries:
        mats[lag][idx[w], idx[u]] = c
    inv = np.linalg.inv(np.eye(d) - mats[0])
    return inv, [inv @ mats[lag] for lag in range(1, gmax + 1)]


def spectral_radius(model: LinearDTDSCM) -> float:
    """Largest eigenvalue modulus of the reduced-form companion matrix."""
    _, lagged = _reduced_form(model)
    d = lagged[0].shape[0] if lagged else len(model.template.scg.nodes)
    p = len(lagged)
    if p == 0:
        return 0.0
    comp = np.zeros((d * p, d * p))
    for i, mat in enumerate(lagged):
        comp[:d, i * d : (i + 1) * d] = mat
    if p > 1:
        comp[d:, : d * (p - 1)] = np.eye(d * (p - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def sample_linear_model(
    tmpl: FTDagTemplate,
    coef_low: float = 0.1,
    coef_high: float = 0.9,
    seed: int = 0,
) -> LinearDTDSCM:
    """Draw signed coefficients with |c| in [coef_low, coef_high]; redraw, at
    most ``MAX_TRIES`` times, until the companion spectral radius is below
    ``STABILITY_MARGIN``.  Every series gets noise s.d. ``NOISE_SD``."""
    if not (0 < coef_low <= coef_high):
        raise ValueError("coefficient bounds must satisfy 0 < coef_low <= coef_high")
    rng = np.random.default_rng(np.random.SeedSequence([11, seed]))
    pairs = [(edge, lag) for edge, ls in tmpl.lag_entries for lag in ls]
    noises = tuple((v, NOISE_SD) for v in tmpl.scg.nodes)
    for _ in range(MAX_TRIES):
        coeffs = tuple(
            (pair, float(rng.uniform(coef_low, coef_high) * rng.choice((-1.0, 1.0))))
            for pair in pairs
        )
        model = LinearDTDSCM(tmpl, coeffs, noises)
        if spectral_radius(model) < STABILITY_MARGIN:
            return model
    raise InstabilityError(f"no stable draw within {MAX_TRIES} tries")


def generate(
    model: LinearDTDSCM, n_replicates: int, horizon: int, burn_in: int, seed: int
) -> Dataset:
    """Simulate replicates independently and drop the burn-in slices.

    The noise is drawn replicate-major, ``NOISE_CHUNK_CELLS`` values' worth
    of replicates at a time into one reused buffer (the same stream as a
    single draw of every value), and each chunk is scaled into a time-major
    array, so that each (time, series) cell is one contiguous vector over the
    replicates.  The recursion steps there, one ``dst += c * src`` per
    coefficient in lag-0 topological order, through a reused buffer; the
    result is a ``(replicates, horizon, series)`` view.
    """
    if horizon < 1 or burn_in < 0 or n_replicates < 1:
        raise ValueError("need horizon >= 1, burn_in >= 0, n_replicates >= 1")
    g = model.template.scg
    d = len(g.nodes)
    idx = {v: i for i, v in enumerate(g.nodes)}
    total = burn_in + horizon

    by_target: dict[str, list[tuple[int, int, float]]] = {v: [] for v in g.nodes}
    for ((u, w), lag), c in model.coeff_entries:
        by_target[w].append((idx[u], lag, c))
    steps = [(idx[w], *entry) for w in model.template.zero_lag_order() for entry in by_target[w]]

    sds = np.array([model.noise_sd[v] for v in g.nodes])
    rng = np.random.default_rng(np.random.SeedSequence([13, seed]))
    values = np.empty((total, d, n_replicates))
    per_chunk = max(1, NOISE_CHUNK_CELLS // (total * d))
    noise = np.empty((min(per_chunk, n_replicates), total, d))
    for lo in range(0, n_replicates, per_chunk):
        hi = min(lo + per_chunk, n_replicates)
        chunk = noise[: hi - lo]
        rng.standard_normal(out=chunk)
        np.multiply(chunk.transpose(1, 2, 0), sds[:, None], out=values[:, :, lo:hi])
    buf = np.empty(n_replicates)
    for t in range(total):
        for col, src, lag, c in steps:
            if t >= lag:
                np.multiply(values[t - lag, src], c, out=buf)
                values[t, col] += buf
    return Dataset(g.nodes, values[burn_in:].transpose(2, 0, 1))


def true_effect(model: LinearDTDSCM, q: MicroQuery) -> float:
    """Sum over directed paths from treatment@(t-gamma) to outcome@t of the
    coefficient products, by dynamic programming over offsets."""
    g = model.template.scg
    g.check_nodes([q.treatment, q.outcome])
    order = model.template.zero_lag_order()
    start = TemporalVar(q.treatment, -q.gamma)
    eff: dict[TemporalVar, float] = {start: 1.0}
    for s in range(-q.gamma, 1):
        for w in order:
            tv = TemporalVar(w, s)
            if tv == start:
                continue
            total = 0.0
            for ((u, w2), lag), c in model.coeff_entries:
                if w2 == w:
                    total += c * eff.get(TemporalVar(u, s - lag), 0.0)
            eff[tv] = total
    return eff.get(TemporalVar(q.outcome, 0), 0.0)


def ols_effect(data: Dataset, q: MicroQuery, z: AdjustmentSet) -> EffectEstimate:
    """Treatment coefficient of OLS(outcome ~ treatment + z), pooled over
    replicates and every anchor time with a full covariate window.

    One Householder QR of the augmented design ``[1, x, Z, y]`` gives
    everything: the rank from the singular values of the design's R block
    (``matrix_rank``'s tolerance), the coefficients by back-substitution, the
    residual sum of squares as the last diagonal entry squared, and the
    standard error from the treatment's row of the inverse R block."""
    series_index = {v: i for i, v in enumerate(data.series)}
    for name in (q.treatment, q.outcome):
        if name not in series_index:
            raise EstimationError(f"series {name!r} not in dataset")
    zs = sorted(z, key=lambda tv: (-tv.offset, tv.series))
    for tv in zs:
        if tv.series not in series_index:
            raise EstimationError(f"series {tv.series!r} not in dataset")
        if tv.offset > 0:
            raise EstimationError(f"future adjustment variable {tv.label()}")
    max_back = max([q.gamma] + [-tv.offset for tv in zs])
    t0 = max_back
    if t0 >= data.horizon:
        raise EstimationError("horizon too short for the covariate window")
    anchors = np.arange(t0, data.horizon)
    columns = [(q.treatment, -q.gamma)] + [(tv.series, tv.offset) for tv in zs] + [(q.outcome, 0)]
    n, p = data.replicates * len(anchors), len(zs) + 2
    if n <= p:
        raise EstimationError(f"too few rows ({n}) for {len(zs)} adjustment variables")
    augmented = np.empty((n, p + 1), order="F")
    augmented[:, 0] = 1.0
    for k, (name, offset) in enumerate(columns, start=1):
        augmented[:, k] = data.values[:, anchors + offset, series_index[name]].ravel()
    r = np.linalg.qr(augmented, mode="r")
    r_design = r[:p, :p]
    s = np.linalg.svd(r_design, compute_uv=False)
    if s[-1] <= s[0] * max(n, p) * np.finfo(s.dtype).eps:
        raise EstimationError("design matrix is rank deficient")
    # An upper-triangular matrix needs no pivoting, so this LU solve is plain
    # back-substitution: the coefficients and the inverse R block at once.
    solved = np.linalg.solve(r_design, np.column_stack([r[:p, p], np.eye(p)]))
    beta, r_inv = solved[:, 0], solved[:, 1:]
    sigma2 = float(r[p, p] ** 2) / max(n - p, 1)
    stderr = float(np.sqrt(sigma2 * (r_inv[1] @ r_inv[1])))
    return EffectEstimate(point=float(beta[1]), set_used=frozenset(z), n=n, stderr=stderr)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_in_order(fn: Callable, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]`` on ``workers`` threads, the calling
    thread among them; every thread is joined before this returns or raises.

    Items are handed out in list order and none after a failure, so every
    item before a failed one has run: the failure raised, the earliest in the
    list, is the one the plain loop would raise."""
    results: list = [None] * len(items)
    failures: dict[int, Exception] = {}
    lock = threading.Lock()
    pending = iter(range(len(items)))

    def work() -> None:
        nonlocal pending
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except Exception as exc:
                with lock:
                    failures[i] = exc
                    pending = iter(())
                return

    threads: list[threading.Thread] = []
    try:
        for _ in range(workers - 1):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        work()
    finally:
        with lock:
            pending = iter(())
        for thread in threads:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def variance_experiment(
    g: SCG,
    q: MicroQuery,
    sets: dict[str, AdjustmentSet],
    n: int,
    reps: int,
    seed: int,
    blocks: int = 5,
    coef_low: float = 0.1,
    coef_high: float = 0.9,
    template: FTDagTemplate | None = None,
    validate_sets: bool = True,
) -> dict:
    """Monte-Carlo estimator comparison across adjustment sets.

    Each block samples one linear model over a compatible template and
    simulates ``reps // blocks`` independent datasets of ``n`` replicates;
    every distinct set is estimated once on every dataset, and names bound to
    equal sets share that estimate.  Every block's model and true effect
    come first; then all ``reps`` datasets go through one map on one thread
    per available CPU, and their estimates are taken in dataset order.  The
    per-set aggregate variance is the mean of within-block variances, so
    between-model effect heterogeneity does not contaminate the comparison.
    """
    if not sets:
        raise ValueError("no adjustment set to compare")
    if blocks < 1 or reps % blocks != 0:
        raise ValueError("reps must be divisible by blocks")
    if reps // blocks < 2:
        raise ValueError(f"need at least 2 replicates per block, got {reps} over {blocks} blocks")
    if validate_sets:
        for name, z in sets.items():
            if name in ("a1", "a2"):
                continue
            report = scg_backdoor_check(g, q, z)
            if not report.satisfied:
                raise ValueError(f"set {name!r} fails the criterion: {report.violations}")

    all_offsets = [-q.gamma] + [tv.offset for z in sets.values() for tv in z]
    horizon = max(-min(all_offsets), q.gamma + q.gamma_max) + 1
    templates = [template] if template is not None else enumerate_compatible_templates(
        g, q.gamma_max, cap=10_000
    )
    reps_per_block = reps // blocks
    names = sorted(sets)
    distinct = list(dict.fromkeys(sets[name] for name in names))
    points: dict[str, list[float]] = {name: [] for name in names}
    errors: dict[str, list[float]] = {name: [] for name in names}
    block_vars: dict[str, list[float]] = {name: [] for name in names}
    picker = np.random.default_rng(np.random.SeedSequence([17, seed]))
    models, truths = [], []
    for b in range(blocks):
        tmpl = templates[int(picker.integers(len(templates)))]
        models.append(sample_linear_model(tmpl, coef_low, coef_high, seed=seed * 1000 + b))
        truths.append(true_effect(models[-1], q))

    # Dataset i belongs to block i // reps_per_block and has seed seed * reps + i.
    def estimate(i: int) -> dict[AdjustmentSet, float]:
        data = generate(models[i // reps_per_block], n, horizon, BURN_IN, seed=seed * reps + i)
        return {z: ols_effect(data, q, z).point for z in distinct}

    estimates = _map_in_order(estimate, range(reps), min(_available_cpus(), reps))
    for b, truth in enumerate(truths):
        block = estimates[b * reps_per_block : (b + 1) * reps_per_block]
        for name in names:
            block_points = [found[sets[name]] for found in block]
            points[name].extend(block_points)
            errors[name].extend(point - truth for point in block_points)
            block_vars[name].append(float(np.var(block_points, ddof=1)))

    per_set = {}
    for name in names:
        err = np.array(errors[name])
        per_set[name] = {
            "set": adjustment_set_to_obj(g, sets[name]),
            "mean": float(np.mean(points[name])),
            "bias": float(err.mean()),
            "bias_se": float(err.std(ddof=1) / np.sqrt(len(err))),
            "variance": float(np.mean(block_vars[name])),
            "block_variances": block_vars[name],
        }
    ordering = {}
    if "qopt" in sets:
        for other in names:
            if other != "qopt":
                ordering[f"qopt_le_{other}"] = bool(
                    per_set["qopt"]["variance"] <= per_set[other]["variance"]
                )
    return {
        "n": n,
        "reps": reps,
        "blocks": blocks,
        "seed": seed,
        "per_set": per_set,
        "ordering": ordering,
        "variance_rank": sorted(names, key=lambda name: per_set[name]["variance"]),
    }


def dataset_to_csv(data: Dataset) -> str:
    """Long-format CSV: replicate, time, series, value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["replicate", "time", "series", "value"])
    for r in range(data.replicates):
        for t in range(data.horizon):
            for j, name in enumerate(data.series):
                writer.writerow([r, t, name, repr(float(data.values[r, t, j]))])
    return buf.getvalue()
