import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scgadjust
from scgadjust import cli, oracle
from scgadjust.cli import run
from scgadjust.oracle import soundness_experiment

from .conftest import bounded


@pytest.fixture()
def graph_file(tmp_path, persistence_chain):
    path = tmp_path / "chain.json"
    path.write_text(persistence_chain.to_json())
    return str(path)


@pytest.fixture()
def feedback_file(tmp_path, cycle_pair_confounded):
    path = tmp_path / "feedback.json"
    path.write_text(cycle_pair_confounded.to_json())
    return str(path)


GRAPHS_DIR = Path(__file__).resolve().parent.parent / "graphs"


def ring(n):
    """A directed ring of ``n`` series, as graph JSON: 2**n - 2 densest templates."""
    names = [f"V{i}" for i in range(n)]
    return {"nodes": names, "edges": [[v, names[i - 1]] for i, v in enumerate(names)]}


def q_flags(graph, gamma="1"):
    return ["--graph", graph, "--treatment", "X", "--outcome", "Y", "--gamma", gamma]


class TestIdentify:
    def test_condition_c(self, feedback_file, capsys):
        code = run(["identify", *q_flags(feedback_file)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "CondC"

    def test_not_identifiable_exit_2(self, tmp_path, capsys):
        from scgadjust import validate_scg

        g = validate_scg(["X", "Y"], [("X", "Y"), ("Y", "X"), ("Y", "Y")])
        path = tmp_path / "g.json"
        path.write_text(g.to_json())
        code = run(["identify", *q_flags(str(path))])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["verdict"] == "NotIdentifiable"


class TestMalformedGraph:
    @pytest.mark.parametrize(
        "payload",
        [
            {"nodes": "XY", "edges": []},
            {"nodes": {"X": 0, "Y": 1}, "edges": []},
            {"nodes": ["X", "Y"], "edges": 5},
            {"nodes": ["X", "Y"], "edges": [[["X"], "Y"]]},
        ],
        ids=["nodes-string", "nodes-object", "edges-int", "endpoint-list"],
    )
    def test_exit_4(self, tmp_path, capsys, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code = run(["identify", *q_flags(str(path))])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: ")


class TestColdImport:
    GRAPH = str(GRAPHS_DIR / "persistence_chain.json")
    Q = ["--graph", GRAPH, "--treatment", "X", "--outcome", "Y", "--gamma", "1"]
    GRAPH_ONLY = [["identify", *Q], ["check", *Q, "--set", "[]"], ["sets", *Q], ["qopt", *Q], ["unroll", "--graph", GRAPH]]

    def test_graph_commands_skip_numpy(self):
        src = str(Path(scgadjust.__file__).resolve().parent.parent)
        probe = f"import sys; sys.path.insert(0, {src!r}); import scgadjust.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"

    @staticmethod
    def loaded_after(*argvs, watch=("scgadjust.oracle", "numpy")):
        """Run each argv through ``cli.run`` in one fresh interpreter, and
        return per call its exit code and, for each module of ``watch``,
        whether it was loaded after the call although the bare interpreter
        did not hold it at start-up."""
        src = str(Path(scgadjust.__file__).resolve().parent.parent)
        probe = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "import contextlib, io, json\n"
            f"sys.path.insert(0, {src!r})\n"
            "from scgadjust.cli import run\n"
            "out = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = run(argv)\n"
            f"    out.append([code, *(m in sys.modules and m not in bare for m in {list(watch)!r})])\n"
            "print(json.dumps(out))\n"
        )
        argv = [sys.executable, "-c", probe, json.dumps(argvs)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
        return json.loads(proc.stdout)

    def test_graph_commands_skip_oracle(self):
        # The macro commands answer from the graph alone: the oracle layer
        # stays unloaded, and numpy too until simulate, which is run last.
        simulate = ["simulate", *self.Q, "--n", "200", "--reps", "10"]
        results = self.loaded_after(*self.GRAPH_ONLY, simulate)
        assert [code for code, _, _ in results] == [0, 3, 0, 0, 0, 0]
        assert [oracle for _, oracle, _ in results] == [False] * 6
        assert [numpy for _, _, numpy in results] == [False] * 5 + [True]
        # The probe sees the oracle where a command does load it.
        assert self.loaded_after(["validate", "--n-graphs", "1"]) == [[0, True, False]]

    def test_graph_commands_skip_dataclasses(self):
        # The macro layer declares its records without ``dataclasses``:
        # importing it pulls in ``inspect``, and each class it builds execs
        # generated source, in every process.  The probe sees both modules
        # where a command does load them.
        results = self.loaded_after(*self.GRAPH_ONLY, watch=("dataclasses", "inspect"))
        assert results == [[0, False, False], [3, False, False], [0, False, False], [0, False, False], [0, False, False]]
        assert self.loaded_after(["validate", "--n-graphs", "1"], watch=("dataclasses", "inspect")) == [[0, True, True]]

    def test_simulate_skips_dataclasses(self):
        # numpy loads ``inspect`` itself, but the numeric layer declares its
        # records as named tuples, so ``dataclasses`` stays unloaded.
        simulate = ["simulate", *self.Q, "--n", "200", "--reps", "10"]
        assert self.loaded_after(simulate, watch=("dataclasses", "inspect")) == [[0, False, True]]


class TestCheck:
    def test_accept(self, graph_file, capsys):
        code = run(["check", *q_flags(graph_file), "--set", '[["X",-2],["W",-2],["W",-1]]'])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["item"] == "A.1"
        assert "A.1" in captured.err

    def test_reject_descendant_exit_3(self, graph_file, capsys):
        code = run(["check", *q_flags(graph_file), "--set", '[["Y",0]]'])
        captured = capsys.readouterr()
        assert code == 3
        assert "possible descendant" in captured.err

    def test_bad_set_json_exit_4(self, graph_file, capsys):
        code = run(["check", *q_flags(graph_file), "--set", "not json"])
        assert code == 4


class TestSetsAndQopt:
    def test_sets(self, graph_file, capsys):
        code = run(["sets", *q_flags(graph_file)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["qopt"] == [["W", 0], ["W", -1], ["X", -2]]
        assert "a1" in payload and "a2" in payload

    def test_qopt(self, graph_file, capsys):
        code = run(["qopt", *q_flags(graph_file)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["qopt"] == [["W", 0], ["W", -1], ["X", -2]]

    def test_qopt_non_ancestor_exit_2(self, tmp_path, capsys):
        from scgadjust import validate_scg

        path = tmp_path / "na.json"
        path.write_text(validate_scg(["X", "Y"], [("Y", "X")]).to_json())
        assert run(["qopt", *q_flags(str(path))]) == 2


class TestHorizonBound:
    """A lag past ``unroll.MAX_HORIZON``, or an ``unroll`` window or densest
    ``gamma_max`` past it, is an input error, refused before the adjustment
    window or any template is built; so is an unrolling of more than
    ``unroll.MAX_UNROLLED_EDGES`` edges, refused before any edge is built.
    Running out of memory all the same ends in the resource-bound exit 5."""

    @pytest.mark.parametrize("command", [["check", "--set", '[["W",-1]]'], ["sets"]])
    def test_absurd_gamma_exit_4(self, graph_file, capsys, command):
        argv = [command[0], *q_flags(graph_file, gamma="100000000"), *command[1:]]
        assert bounded(lambda: run(argv), timeout=10) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma + gamma_max must be <= 10000\n"

    def test_absurd_gamma_max_validate_exit_4(self, capsys):
        assert bounded(lambda: run(["validate", "--gamma-max", "100000000"]), timeout=10) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: gamma_max must be <= 9999\n"

    def test_largest_horizon_accepted(self, graph_file, capsys):
        argv = ["check", *q_flags(graph_file, gamma="9999"), "--set", '[["W",-1]]']
        assert bounded(lambda: run(argv), timeout=30) == 3
        assert json.loads(capsys.readouterr().out)["satisfied"] is False

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--lo", "-100000000", "--hi", "0"], "hi - lo must be <= 10000"),
            (["--lo", "-10001", "--hi", "0", "--densest"], "hi - lo must be <= 10000"),
            (["--densest", "--gamma-max", "1000000000"], "gamma_max must be <= 10000"),
            (
                ["--densest", "--gamma-max", "600", "--lo", "-1000"],
                "the unrolling has 1683202 edges, more than the bound of 250000",
            ),
        ],
        ids=["window", "window-densest", "densest-gamma-max", "edge-count"],
    )
    def test_absurd_unroll_exit_4(self, graph_file, capsys, flags, message):
        # The unrolling lists every slice, and the densest template every
        # lag, so both are refused before any template is built.  A window
        # and a gamma_max each within the bound can still ask for millions
        # of edges, counted from the template before any edge is built.
        argv = ["unroll", "--graph", graph_file, *flags]
        assert bounded(lambda: run(argv), timeout=10) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_widest_unroll_window_accepted(self, graph_file, capsys):
        argv = ["unroll", "--graph", graph_file, "--lo", "-10000", "--hi", "0"]
        assert bounded(lambda: run(argv), timeout=10) == 0
        out = capsys.readouterr().out
        assert "X@-10000 -> Y@-10000" in out and "X@0 -> Y@0" in out

    def test_out_of_memory_exit_5(self, graph_file, capsys, monkeypatch):
        def exhausted(g, q):
            raise MemoryError

        monkeypatch.setattr(cli, "canonical_sets", exhausted)
        assert run(["sets", *q_flags(graph_file)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"


class TestUnroll:
    def test_edgelist(self, graph_file, capsys):
        code = run(
            ["unroll", "--graph", graph_file, "--gamma-max", "1", "--lo", "-1", "--hi", "0",
             "--densest", "--format", "edgelist"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "W@-1 -> X@-1" in out
        assert "X@0 -> Y@0" in out

    @pytest.mark.parametrize("densest", [False, True])
    @pytest.mark.parametrize(
        "graph",
        # The 8-ring has more densest templates than the default cap.
        [
            {"nodes": ["X", "Y"], "edges": [["X", "Y"]]},
            {"nodes": ["X", "Y"], "edges": [["X", "Y"], ["Y", "X"]]},
            ring(8),
        ],
        ids=["edge", "2-cycle", "8-ring"],
    )
    def test_gamma_max_zero_exit_4(self, tmp_path, capsys, graph, densest):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(graph))
        argv = ["unroll", "--graph", str(path), "--gamma-max", "0"]
        code = run(argv + ["--densest"] if densest else argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: gamma_max must be >= 1\n"

    def test_over_cap_exit_5(self, feedback_file):
        code = run(
            ["unroll", "--graph", feedback_file, "--gamma-max", "1", "--template-cap", "3"]
        )
        assert code == 5

    def test_over_cap_at_large_gamma_max_exit_5(self, graph_file, capsys):
        assert run(["unroll", "--graph", graph_file, "--gamma-max", "40"]) == 5
        assert capsys.readouterr().out == ""

    def test_over_cap_checked_before_the_walk(self, graph_file, capsys):
        # At gamma_max 10**9 one edge has 2**(10**9) lag sets: the cap test
        # counts the templates by arithmetic before any lag set is listed.
        argv = ["unroll", "--graph", graph_file, "--gamma-max", "1000000000"]
        assert bounded(lambda: run(argv), timeout=10) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: more than 50 compatible templates (stopped at 51)\n"

    @staticmethod
    def ring_file(tmp_path, n):
        path = tmp_path / f"ring{n}.json"
        path.write_text(json.dumps(ring(n)))
        return str(path)

    def test_densest_honours_cap(self, tmp_path, capsys):
        argv = ["unroll", "--graph", self.ring_file(tmp_path, 8), "--densest"]
        assert run(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 254 densest templates, more than the template cap of 50\n"
        assert run(argv + ["--template-cap", "300"]) == 0
        assert run(argv + ["--template-cap", "300", "--template-index", "253"]) == 0
        assert run(argv + ["--template-cap", "0"]) == 4

    def test_densest_over_cap_walks_no_node_order(self, tmp_path, capsys):
        # The cap test counts the 1,022 densest templates by arithmetic,
        # before any of the 10! node orders is walked.
        argv = ["unroll", "--graph", self.ring_file(tmp_path, 10), "--densest"]
        assert bounded(lambda: run(argv), timeout=5) == 5
        assert capsys.readouterr().out == ""

    def test_missing_file_exit_4(self):
        assert run(["identify", *q_flags("/nonexistent/g.json")]) == 4

    UNROLL_DIGEST = "ef99a43cdebe7b500dd5995bb68823f815952e85c7c56cb428498ecce5f4d99f"

    def test_sample_graph_bytes(self, capsys):
        # Every sample graph, plain and densest, in both formats: exit code,
        # stdout and stderr reduced to one SHA-256.
        digest = hashlib.sha256()
        for path in sorted(GRAPHS_DIR.glob("*.json")):
            for flags in ([], ["--densest"], ["--densest", "--gamma-max", "2", "--lo", "-4"]):
                for fmt in ("json", "edgelist"):
                    code = run(["unroll", "--graph", str(path), *flags, "--format", fmt])
                    captured = capsys.readouterr()
                    record = [path.name, flags, fmt, code, captured.out, captured.err]
                    digest.update(json.dumps(record).encode())
        assert digest.hexdigest() == self.UNROLL_DIGEST


class TestValidate:
    def test_small_corpus_clean(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["validate", "--n-graphs", "12", "--seed", "7", "--max-subset-size", "3"]
        assert run([*args, "--out", str(out1)]) == 0
        assert run([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["counterexamples"] == []

    def test_csv_format(self, tmp_path, capsys):
        assert run(["validate", "--n-graphs", "6", "--seed", "7", "--max-subset-size", "2",
                    "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index,")

    def test_condition_c_form_mismatch_exit_1(self, monkeypatch, capsys):
        def mismatched(cfg):
            return dataclasses.replace(soundness_experiment(cfg), condition_c_form_mismatches=2)

        monkeypatch.setattr("scgadjust.oracle.soundness_experiment", mismatched)
        assert run(["validate", "--n-graphs", "3", "--seed", "7", "--max-subset-size", "2"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["counterexamples"] == []
        assert captured.err == "2 condition-C form mismatches\n"

    def test_condition_c_cross_check_exit_1(self, monkeypatch, capsys):
        # The oracle's component test, made to disagree with every verdict,
        # counts each gamma-1 query that reached condition C.
        component = oracle._condition_c_component
        monkeypatch.setattr(oracle, "_condition_c_component", lambda g, q: not component(g, q))
        assert run(["validate", "--n-graphs", "12", "--seed", "7", "--max-subset-size", "2"]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        reached = [r for r in report["rows"] if r["gamma"] == 1 and r["verdict"] in ("CondC", "NotIdentifiable")]
        assert reached and report["counterexamples"] == []
        assert captured.err == f"{len(reached)} condition-C form mismatches\n"


class TestProbe:
    def test_fixture_graph(self, tmp_path, latent_fork_collider, capsys):
        path = tmp_path / "probe.json"
        path.write_text(latent_fork_collider.to_json())
        code = run(
            ["probe", "--graph", str(path), "--treatment", "X", "--outcome", "Y",
             "--gamma", "0", "--max-subset-size", "4"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["n_found"] >= 1
        assert [["U", 0], ["U", -1], ["R", -1], ["X", -1]] in payload["sets"]

    @pytest.mark.parametrize("flags", [["--template-cap", "0"], ["--template-cap", "-3"],
                                       ["--max-subset-size", "-1"]])
    @pytest.mark.parametrize("mode", ["graph", "corpus"])
    def test_bad_bound_exit_4(self, graph_file, capsys, flags, mode):
        argv = ["--graph", graph_file, "--gamma", "1"] if mode == "graph" else ["--n-graphs", "2"]
        assert run(["probe", *argv, *flags]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestSimulate:
    def test_small_run(self, graph_file, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = run(
            ["simulate", *q_flags(graph_file), "--n", "500", "--reps", "8", "--blocks", "2",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload["per_set"]) == {"qopt", "a1", "a2"}
        assert "qopt_le_a1" in payload["ordering"]

    def test_one_replicate_per_block_exit_4(self, graph_file, capsys):
        code = run(["simulate", *q_flags(graph_file), "--n", "300", "--reps", "5"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_set_name_exit_4(self, graph_file):
        code = run(["simulate", *q_flags(graph_file), "--sets", "nope", "--n", "100",
                    "--reps", "4", "--blocks", "2"])
        assert code == 4

    def test_empty_set_list_exit_4(self, graph_file, capsys):
        code = run(["simulate", *q_flags(graph_file), "--sets", ",", "--n", "50", "--reps", "4",
                    "--blocks", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: no adjustment set to compare\n"

    BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    def test_one_blas_thread_by_default(self, graph_file, monkeypatch, capsys):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        assert run(["simulate", *q_flags(graph_file), "--n", "300", "--reps", "10"]) == 0
        assert [os.environ.get(var) for var in self.BLAS_VARS] == ["1", "1", "1"]

    def test_user_blas_thread_count_kept(self, graph_file, monkeypatch, capsys):
        for var in self.BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert run(["simulate", *q_flags(graph_file), "--n", "300", "--reps", "10"]) == 0
        assert [os.environ.get(var) for var in self.BLAS_VARS] == ["1", "3", "1"]


class TestDeterminism:
    def test_identify_bytes(self, feedback_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["identify", *q_flags(feedback_file), "--out", str(a)])
        run(["identify", *q_flags(feedback_file), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_check_error_independent_of_hash_seed(self, graph_file):
        # Several bad variables: the one reported must not follow set order.
        src = str(Path(scgadjust.__file__).resolve().parent.parent)
        argv = [sys.executable, "-m", "scgadjust.cli", "check", *q_flags(graph_file),
                "--set", '[["W",1],["X",-5],["Q",-1]]']
        results = set()
        for seed in range(6):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}
            proc = subprocess.run(argv, capture_output=True, text=True, env=env)
            results.add((proc.returncode, proc.stdout, proc.stderr))
        assert results == {(4, "", "error: W@1 outside adjustment window [-2, 0]\n")}


# Odd JSON for the CLI fuzz test: scalars of every JSON type, short nestings,
# node-name-like strings, and graph- and set-shaped payloads built from them.
NAMES = st.sampled_from(["X", "Y", "W", "", "Q"])
SCALARS = st.none() | st.booleans() | st.integers(-4, 3) | st.floats() | st.text(max_size=3) | NAMES
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def wellformed_graphs(draw) -> dict:
    nodes = draw(st.sampled_from([["X"], ["X", "Y"], ["X", "Y", "W"], ["W", "Y", "X"]]))
    pairs = [(u, w) for u in nodes for w in nodes]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return {"nodes": nodes, "edges": sorted(map(list, edges))}


# Nesting as deep as JSON allows, around the interpreter's recursion limit,
# and beyond it.
DEEP = st.sampled_from([1, 10, 500, 990, 1000, 5000, 100_000]).map(lambda k: "[" * k + "]" * k)

GRAPH_TEXT = st.one_of(
    wellformed_graphs().map(json.dumps),
    wellformed_graphs().map(json.dumps),
    DEEP,
    DEEP.map(lambda deep: f'{{"nodes": {deep}, "edges": []}}'),
    DEEP.map(lambda deep: f'{{"nodes": ["X", "Y"], "edges": [{deep}]}}'),
    st.fixed_dictionaries(
        {
            "nodes": st.lists(SCALARS, max_size=4) | VALUES,
            "edges": st.lists(st.lists(SCALARS, max_size=3) | VALUES, max_size=4) | VALUES,
        }
    ).map(json.dumps),
    VALUES.map(json.dumps),
    st.text(max_size=12),
)
# A valid query half the time, so that odd sets reach the criterion.
QUERIES = st.one_of(
    st.tuples(st.just("X"), st.just("Y"), st.integers(0, 2), st.integers(1, 2)),
    st.tuples(NAMES, NAMES, st.integers(-1, 2), st.integers(0, 2)),
)
SET_TEXT = st.one_of(
    st.lists(st.tuples(st.sampled_from(["X", "Y", "W"]), st.integers(-2, 0)).map(list), max_size=4).map(
        json.dumps
    ),
    st.lists(st.tuples(NAMES, st.integers(-4, 1)).map(list), max_size=4).map(json.dumps),
    DEEP,
    DEEP.map(lambda deep: f'[["X", -1], {deep}]'),
    st.lists(st.tuples(NAMES, st.integers(-4, 1)).map(list), max_size=4).map(json.dumps),
    st.lists(st.lists(SCALARS, max_size=3) | VALUES, max_size=4).map(json.dumps),
    VALUES.map(json.dumps),
    st.text(max_size=12),
)


# Values of the numeric flags, in range half the time.  The flags that size
# a template enumeration or a subset search stay small; the others reach 50.
WIDE = st.integers(1, 50) | st.integers(-50, 50)
SMALL = st.integers(1, 2) | st.integers(-2, 2)
# Sample and replicate counts of the simulate command: enough rows for a
# fit half the time, too few or none the other half.
ROWS = st.integers(10, 60) | st.integers(-2, 10)
REPS = st.integers(2, 12) | st.integers(-2, 4)


@pytest.fixture(scope="module")
def fuzz_graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.json"


class TestCliFuzz:
    @given(
        command=st.sampled_from(["identify", "check", "sets"]),
        graph=GRAPH_TEXT,
        z=SET_TEXT,
        query=QUERIES,
    )
    @settings(max_examples=300)
    def test_clean_exit(self, fuzz_graph_path, command, graph, z, query):
        # Odd input ends in a documented exit code with a one-line error,
        # never in an exception escaping ``run``.
        treatment, outcome, gamma, gamma_max = query
        fuzz_graph_path.write_text(graph, encoding="utf-8")
        argv = [
            command, f"--graph={fuzz_graph_path}", f"--treatment={treatment}",
            f"--outcome={outcome}", f"--gamma={gamma}", f"--gamma-max={gamma_max}",
        ]
        if command == "check":
            argv.append(f"--set={z}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in {0, 2, 3, 4, 5}
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert err.getvalue().startswith("error: ")

    @given(
        command=st.sampled_from(["qopt", "unroll", "probe"]),
        graph=wellformed_graphs().map(json.dumps),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_numeric_flags(self, fuzz_graph_path, command, graph, data):
        def flag(name, values):
            return f"--{name}={data.draw(values, label=name)}"

        fuzz_graph_path.write_text(graph, encoding="utf-8")
        argv = [command, f"--graph={fuzz_graph_path}"]
        if command == "qopt":
            argv += ["--treatment=X", "--outcome=Y", flag("gamma", WIDE), flag("gamma-max", WIDE)]
        elif command == "unroll":
            argv += [flag("gamma-max", SMALL), flag("template-cap", WIDE), flag("template-index", WIDE),
                     flag("lo", WIDE), flag("hi", WIDE)]
            if data.draw(st.booleans(), label="densest"):
                argv.append("--densest")
        else:
            argv += [flag("gamma", SMALL), flag("gamma-max", SMALL), flag("template-cap", WIDE),
                     flag("max-subset-size", SMALL)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in {0, 2, 3, 4, 5}
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert err.getvalue().startswith("error: ")

    @given(graph=wellformed_graphs(), data=st.data())
    @settings(max_examples=100)
    def test_simulate_flags(self, fuzz_graph_path, graph, data):
        # Few rows and replicates reach the fit's row check, the block checks
        # and the set names.  X -> Y is added where both nodes exist, so that
        # most queries have sets to simulate.
        def flag(name, values):
            return f"--{name}={data.draw(values, label=name)}"

        if {"X", "Y"} <= set(graph["nodes"]) and ["X", "Y"] not in graph["edges"]:
            graph["edges"] = sorted(graph["edges"] + [["X", "Y"]])
        fuzz_graph_path.write_text(json.dumps(graph), encoding="utf-8")
        argv = [
            "simulate", f"--graph={fuzz_graph_path}", "--treatment=X", "--outcome=Y",
            flag("gamma", SMALL), flag("gamma-max", SMALL), flag("n", ROWS), flag("reps", REPS),
            flag("blocks", SMALL), flag("sets", st.sampled_from(["qopt", "qopt,a1,a2", "empty", "qopt,nope", ","])),
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in {0, 2, 3, 4, 5}
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert err.getvalue().startswith("error: ")

    @given(data=st.data())
    @settings(max_examples=150)
    def test_validate_flags(self, data):
        # Corpora of at most three small graphs, so that each example runs
        # the whole experiment.  Each flag is drawn in range half the time,
        # from its whole range the other half.
        def flag(name, values):
            return data.draw(values, label=name)

        min_nodes = flag("min-nodes", st.integers(2, 6) | st.integers(1, 6))
        flags = {
            "n-graphs": flag("n-graphs", st.integers(1, 3) | st.integers(0, 3)),
            "min-nodes": min_nodes,
            "max-nodes": flag("max-nodes", st.integers(min_nodes, 6) | st.integers(1, 6)),
            "edge-probability": flag(
                "edge-probability",
                st.floats(0, 1) | st.one_of(st.floats(-0.5, 1.5), st.sampled_from(["nan", "inf"])),
            ),
            "gamma-max": flag("gamma-max", st.integers(1, 2) | st.integers(0, 2)),
            "template-cap": flag("template-cap", st.integers(1, 60) | st.integers(-1, 60)),
            "max-subset-size": flag("max-subset-size", st.integers(0, 2)),
            "seed": flag("seed", st.integers(0, 50)),
            "format": flag("format", st.sampled_from(["json", "csv"])),
        }
        argv = ["validate", *(f"--{name}={value}" for name, value in flags.items())]
        if data.draw(st.booleans(), label="acyclic"):
            argv.append("--acyclic")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in {0, 1, 4, 5}
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert err.getvalue().startswith("error: ")
