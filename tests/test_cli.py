import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scgadjust
from scgadjust.cli import run
from scgadjust.oracle import soundness_experiment


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


class TestMalformedTemplateCap:
    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    @pytest.mark.parametrize("command", ["identify", "validate"])
    def test_exit_4(self, graph_file, monkeypatch, capsys, value, command):
        monkeypatch.setenv("SCGADJUST_TEMPLATE_CAP", value)
        argv = q_flags(graph_file) if command == "identify" else ["--n-graphs", "1"]
        assert run([command, *argv]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: SCGADJUST_TEMPLATE_CAP") and err.count("\n") == 1


class TestColdImport:
    def test_graph_commands_skip_numpy(self):
        src = str(Path(scgadjust.__file__).resolve().parent.parent)
        probe = f"import sys; sys.path.insert(0, {src!r}); import scgadjust.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


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

    def test_over_cap_exit_5(self, feedback_file):
        code = run(
            ["unroll", "--graph", feedback_file, "--gamma-max", "1", "--template-cap", "3"]
        )
        assert code == 5

    def test_missing_file_exit_4(self):
        assert run(["identify", *q_flags("/nonexistent/g.json")]) == 4


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

        monkeypatch.setattr("scgadjust.cli.soundness_experiment", mismatched)
        assert run(["validate", "--n-graphs", "3", "--seed", "7", "--max-subset-size", "2"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["counterexamples"] == []
        assert captured.err == "2 condition-C form mismatches\n"


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
