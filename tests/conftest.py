"""Shared fixtures: the worked graphs used across the suite."""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from scgadjust import MicroQuery, TemporalVar, make_template, validate_scg

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def tv(series: str, offset: int) -> TemporalVar:
    return TemporalVar(series, offset)


def zset(*pairs) -> frozenset:
    return frozenset(TemporalVar(s, o) for (s, o) in pairs)


def bounded(fn, timeout=60.0):
    """``fn()`` on a helper thread that must end within ``timeout`` seconds:
    a hang fails the test instead of stalling the suite.  Returns what
    ``fn`` returned, or raises what it raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except Exception as exc:
            outcome["error"] = exc

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    assert not helper.is_alive(), f"no result within {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def self_loops(*names):
    return [(v, v) for v in names]


@pytest.fixture(scope="session")
def cycle_pair_confounded():
    """Two series in a feedback loop, both driven by a third."""
    return validate_scg(["X", "Y", "W"], [("X", "Y"), ("Y", "X"), ("W", "X"), ("W", "Y")])


@pytest.fixture(scope="session")
def persistence_chain():
    """W drives X drives Y; W and X persist through self-loops."""
    return validate_scg(["X", "Y", "W"], [("W", "X"), ("X", "Y"), ("W", "W"), ("X", "X")])


@pytest.fixture(scope="session")
def persistence_template(persistence_chain):
    """The dense unrolling of the persistence chain (all lags on both arrows)."""
    return make_template(
        persistence_chain,
        1,
        {("W", "X"): {0, 1}, ("X", "Y"): {0, 1}, ("W", "W"): {1}, ("X", "X"): {1}},
    )


@pytest.fixture(scope="session")
def single_edge():
    return validate_scg(["X", "Y"], [("X", "Y")])


@pytest.fixture(scope="session")
def condition_a_trio():
    g1 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("W", "X"), ("W", "Y"), ("X", "U"), ("U", "Y")] + self_loops("W", "X", "Y", "U"),
    )
    g2 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("W", "X"), ("U", "Y"), ("W", "U"), ("U", "W")] + self_loops("W", "X", "Y", "U"),
    )
    g3 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("X", "W"), ("Y", "U"), ("U", "Y"), ("W", "U"), ("U", "W")]
        + self_loops("W", "X", "Y", "U"),
    )
    return (g1, g2, g3)


@pytest.fixture(scope="session")
def condition_b_trio():
    g1 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("W", "X"), ("X", "W"), ("U", "W"), ("U", "Y")] + self_loops("W", "X", "Y", "U"),
    )
    g2 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("W", "X"), ("X", "W"), ("X", "U"), ("U", "Y")] + self_loops("W", "X", "Y", "U"),
    )
    g3 = validate_scg(
        ["W", "X", "Y", "U"],
        [("X", "Y"), ("W", "X"), ("X", "W"), ("X", "U"), ("Y", "U"), ("U", "Y")]
        + self_loops("W", "X", "Y", "U"),
    )
    return (g1, g2, g3)


@pytest.fixture(scope="session")
def optimal_gap():
    """Common driver W of X and Z, X causes Y, Z and Y form a 2-cycle."""
    return validate_scg(
        ["X", "Y", "W", "Z"],
        [("X", "Y"), ("W", "X"), ("W", "Z"), ("Z", "Y"), ("Y", "Z")],
    )


@pytest.fixture(scope="session")
def optimal_gap_templates(optimal_gap):
    """The two orientations of the instantaneous Z-Y edge."""
    t1 = make_template(
        optimal_gap,
        1,
        {("X", "Y"): {0, 1}, ("W", "X"): {0, 1}, ("W", "Z"): {0, 1}, ("Z", "Y"): {0, 1}, ("Y", "Z"): {1}},
    )
    t2 = make_template(
        optimal_gap,
        1,
        {("X", "Y"): {0, 1}, ("W", "X"): {0, 1}, ("W", "Z"): {0, 1}, ("Z", "Y"): {1}, ("Y", "Z"): {0, 1}},
    )
    return (t1, t2)


@pytest.fixture(scope="session")
def dual_role_outcome():
    """U is both parent and child of the outcome."""
    return validate_scg(["X", "Y", "U"], [("X", "Y"), ("U", "Y"), ("Y", "U")])


@pytest.fixture(scope="session")
def latent_fork_collider():
    """U forks into W and R; W drives X, R drives Y, X drives Y; W, X persist."""
    return validate_scg(
        ["U", "W", "R", "X", "Y"],
        [("U", "W"), ("U", "R"), ("W", "X"), ("R", "Y"), ("X", "Y"), ("W", "W"), ("X", "X")],
    )


@pytest.fixture(scope="session")
def collider_chain():
    """A->X, A->C<-B, B->M, X->M->Y: the back-door route needs collider C open."""
    return validate_scg(
        ["A", "B", "C", "M", "X", "Y"],
        [("A", "X"), ("A", "C"), ("B", "C"), ("B", "M"), ("X", "M"), ("M", "Y")],
    )


def query(treatment="X", outcome="Y", gamma=1, gamma_max=1) -> MicroQuery:
    return MicroQuery(treatment, outcome, gamma, gamma_max)


@st.composite
def small_scgs(draw, max_nodes: int = 5, allow_self_loops: bool = True):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    names = tuple(f"N{i}" for i in range(n))
    pairs = [(u, w) for u in names for w in names if allow_self_loops or u != w]
    edges = draw(st.frozensets(st.sampled_from(pairs)))
    return validate_scg(names, edges)
