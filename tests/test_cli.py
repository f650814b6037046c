import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import submatch
from submatch.cli import main
from submatch.encoder import load_checkpoint, save_checkpoint
from submatch.evaluate import make_problem1_instances
from submatch.graphs import LabeledGraph, from_json, load_graph, save_graph, to_json


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run_cli(
        "gen", "--out", str(out), "--seed", "3",
        "--set", "n_graphs=6", "--set", "min_nodes=10", "--set", "max_nodes=14",
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def smoke_model(dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    code = run_cli(
        "train", "--data", str(dataset_dir), "--out", str(out),
        "--epochs", "2", "--seed", "0", "--calibration-pairs", "6",
        "--set", "train.min_iterations=2",
        "--set", "train.val_radius=2",
        "--set", "encoder.layers=2",
        "--set", "encoder.hidden_dim=8",
        "--set", "encoder.output_dim=8",
        "--set", "sampler.max_nodes=6",
    )
    assert code == 0
    return out


class TestGen:
    def test_outputs_and_manifest(self, dataset_dir):
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert len(manifest["graphs"]) == 6
        for name in manifest["graphs"]:
            g = load_graph(dataset_dir / name)
            assert 10 <= g.node_count <= 14

    def test_no_temp_files_left(self, dataset_dir):
        leftovers = [f for f in os.listdir(dataset_dir) if f.startswith(".tmp-")]
        assert leftovers == []

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "--out", str(a), "--seed", "1", "--set", "n_graphs=2")
        run_cli("gen", "--out", str(b), "--seed", "2", "--set", "n_graphs=2")
        ga = (a / "graph_0000.json").read_text()
        gb = (b / "graph_0000.json").read_text()
        assert ga != gb

    def test_same_seed_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_cli("gen", "--out", str(out), "--seed", "5", "--set", "n_graphs=3")
        for name in ("graph_0000.json", "graph_0001.json", "graph_0002.json"):
            assert (a / name).read_text() == (b / name).read_text()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = run_cli("gen", "--out", str(tmp_path / "x"), "--set", "n_grphs=2")
        assert code == 1
        assert "n_grphs" in capsys.readouterr().err


class TestTrainCommand:
    def test_artifacts_exist(self, smoke_model):
        assert (smoke_model / "checkpoint.json").exists()
        history = (smoke_model / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,loss,val_auroc,radius,n_targets,lr"
        assert len(history) == 3  # header + 2 epochs

    def test_checkpoint_loads(self, smoke_model):
        ckpt = load_checkpoint(smoke_model / "checkpoint.json")
        assert ckpt.config.layers == 2

    def test_config_file_with_overrides(self, dataset_dir, tmp_path):
        conf = tmp_path / "train.conf"
        conf.write_text(
            "train.epochs = 1\ntrain.min_iterations = 2\ntrain.val_radius = 2\n"
            "encoder.layers = 2\nencoder.hidden_dim = 8\nencoder.output_dim = 8\n"
            "sampler.max_nodes = 5\n"
        )
        out = tmp_path / "m"
        code = run_cli(
            "train", "--data", str(dataset_dir), "--out", str(out),
            "--config", str(conf), "--calibration-pairs", "4",
            "--set", "sampler.max_nodes=6",
        )
        assert code == 0

    def test_bad_config_lists_all_keys(self, dataset_dir, tmp_path, capsys):
        code = run_cli(
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "m"),
            "--set", "train.epochz=1", "--set", "train.lr=0.1",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "epochz" in err and "lr" in err

    def test_config_not_utf8_exits_one(self, dataset_dir, tmp_path, capsys):
        conf = tmp_path / "train.conf"
        conf.write_bytes(b"train.epochs = 1\n# \xff\xfe is not UTF-8\n")
        code = run_cli("train", "--data", str(dataset_dir), "--out", str(tmp_path / "m"),
                       "--config", str(conf))
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "UTF-8" in err


class TestEmbedAndQuery:
    def test_pipeline_round_trip(self, dataset_dir, smoke_model, tmp_path, capsys):
        ckpt_path = smoke_model / "checkpoint.json"
        target_path = dataset_dir / "graph_0000.json"
        index_path = tmp_path / "index.json"
        assert run_cli(
            "embed", "--graph", str(target_path),
            "--checkpoint", str(ckpt_path), "--out", str(index_path),
        ) == 0
        # query the target against its own index: reflexive subgraph
        align_path = tmp_path / "align.csv"
        code = run_cli(
            "query", "--query", str(target_path), "--index", str(index_path),
            "--checkpoint", str(ckpt_path), "--per-node",
            "--alignment-csv", str(align_path),
        )
        assert code == 0
        # each query node's candidates are its column's entries below the threshold
        rows = [line.split(",")[1:] for line in align_path.read_text().splitlines()[1:]]
        passing = np.array(rows, dtype=float) < load_checkpoint(ckpt_path).margin.threshold
        counts = re.findall(r"query node (\d+): (\d+) candidate targets", capsys.readouterr().out)
        assert [(int(q), int(n)) for q, n in counts] == [
            (q, int(passing[:, q].sum())) for q in range(passing.shape[1])
        ]

    def test_non_finite_checkpoint_exits_one(self, dataset_dir, smoke_model, tmp_path, capsys):
        obj = json.loads((smoke_model / "checkpoint.json").read_text())
        obj["margin"]["threshold"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        target_path = str(dataset_dir / "graph_0000.json")
        code = run_cli(
            "query", "--query", target_path, "--target", target_path, "--checkpoint", str(bad)
        )
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_query_with_target_and_vote(self, dataset_dir, smoke_model, capsys):
        ckpt_path = smoke_model / "checkpoint.json"
        target_path = dataset_dir / "graph_0001.json"
        code = run_cli(
            "query", "--query", str(target_path), "--target", str(target_path),
            "--checkpoint", str(ckpt_path), "--vote",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "decision:" in out and "mean violation:" in out

    def test_vote_needs_target_adjacency(self, dataset_dir, smoke_model, tmp_path):
        ckpt_path = smoke_model / "checkpoint.json"
        target_path = dataset_dir / "graph_0000.json"
        index_path = tmp_path / "index.json"
        run_cli("embed", "--graph", str(target_path), "--checkpoint", str(ckpt_path),
                "--out", str(index_path))
        code = run_cli(
            "query", "--query", str(target_path), "--index", str(index_path),
            "--checkpoint", str(ckpt_path), "--vote",
        )
        assert code == 1

    def test_index_of_another_target_rejected(self, dataset_dir, smoke_model, tmp_path, capsys):
        ckpt_path = smoke_model / "checkpoint.json"
        index_path = tmp_path / "index.json"
        run_cli("embed", "--graph", str(dataset_dir / "graph_0000.json"),
                "--checkpoint", str(ckpt_path), "--out", str(index_path))
        code = run_cli(
            "query", "--query", str(dataset_dir / "graph_0000.json"),
            "--index", str(index_path), "--target", str(dataset_dir / "graph_0001.json"),
            "--checkpoint", str(ckpt_path), "--vote",
        )
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "another graph" in err

    def test_empty_query_clean_error(self, dataset_dir, smoke_model, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"nodes": [], "edges": []}))
        code = run_cli(
            "query", "--query", str(empty), "--target", str(dataset_dir / "graph_0000.json"),
            "--checkpoint", str(smoke_model / "checkpoint.json"),
        )
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "query graph has no nodes" in err

    def test_disconnected_query_exits_one(self, dataset_dir, smoke_model, tmp_path, capsys):
        query = tmp_path / "two_edges.json"
        query.write_text(json.dumps({"nodes": [{"id": i} for i in range(4)],
                                     "edges": [{"u": 0, "v": 1}, {"u": 2, "v": 3}]}))
        code = run_cli(
            "query", "--query", str(query), "--target", str(dataset_dir / "graph_0000.json"),
            "--checkpoint", str(smoke_model / "checkpoint.json"),
        )
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1 and "query graph must be connected" in err

    def test_out_of_alphabet_label_clean_error(self, smoke_model, tmp_path, capsys):
        ckpt_path = smoke_model / "checkpoint.json"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "nodes": [{"id": 0, "label": 7}, {"id": 1, "label": 0}],
            "edges": [{"u": 0, "v": 1}],
            "label_alphabet_size": 8,
        }))
        code = run_cli(
            "query", "--query", str(bad), "--target", str(bad),
            "--checkpoint", str(ckpt_path),
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "7" in err  # names the offending label

    def test_malformed_graph_file_exits_one(self, smoke_model, tmp_path, capsys):
        for text in ['{"nodes": 5, "edges": []}', "[]", "{not json",
                     '{"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]}',
                     '{"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1.5}]}']:
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            code = run_cli("embed", "--graph", str(bad), "--checkpoint",
                           str(smoke_model / "checkpoint.json"), "--out", str(tmp_path / "i.json"))
            err = capsys.readouterr().err.strip()
            assert code == 1, (text, err)
            assert len(err.splitlines()) == 1, (text, err)

    def test_malformed_checkpoint_or_index_exits_one(self, dataset_dir, smoke_model, tmp_path,
                                                     capsys):
        ckpt_path = str(smoke_model / "checkpoint.json")
        target_path = str(dataset_dir / "graph_0000.json")
        bad = tmp_path / "bad.json"
        for text in ["[]", "{", '{"format_version": 1}', '{"format_version": 2}']:
            bad.write_text(text)
            for argv in (["--target", target_path, "--checkpoint", str(bad)],
                         ["--index", str(bad), "--checkpoint", ckpt_path]):
                code = run_cli("query", "--query", target_path, *argv)
                err = capsys.readouterr().err.strip()
                assert code == 1, (text, argv, err)
                assert len(err.splitlines()) == 1, (text, argv, err)

    def test_version_1_index_exits_one(self, dataset_dir, smoke_model, tmp_path, capsys):
        ckpt_path, target_path = smoke_model / "checkpoint.json", dataset_dir / "graph_0000.json"
        index_path = tmp_path / "index.json"
        run_cli("embed", "--graph", str(target_path), "--checkpoint", str(ckpt_path),
                "--out", str(index_path))
        obj = json.loads(index_path.read_text())
        index_path.write_text(json.dumps({**obj, "format_version": 1}))
        capsys.readouterr()
        code = run_cli("query", "--query", str(target_path), "--index", str(index_path),
                       "--checkpoint", str(ckpt_path))
        err = capsys.readouterr().err.strip()
        assert code == 1, err
        assert len(err.splitlines()) == 1 and "format_version 1" in err, err

    def test_missing_file_exits_one(self, smoke_model):
        code = run_cli(
            "query", "--query", "/nonexistent.json", "--target", "/nonexistent.json",
            "--checkpoint", str(smoke_model / "checkpoint.json"),
        )
        assert code == 1

    def test_usage_error_exit_code(self):
        assert run_cli("query", "--query-only-bogus") == 1


class TestBenchCommand:
    def test_smoke(self, dataset_dir, smoke_model, tmp_path):
        code = run_cli(
            "bench", "--data", str(dataset_dir),
            "--checkpoint", str(smoke_model / "checkpoint.json"),
            "--methods", "exact,neural", "--n-instances", "4",
            "--timeout", "5", "--seed", "1",
            "--out-csv", str(tmp_path / "rows.csv"),
            "--out-json", str(tmp_path / "summary.json"),
        )
        assert code == 0
        rows = (tmp_path / "rows.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 8
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["methods"]["exact"]["success_rate"] == 1.0


BAD_INPUTS = {
    "gen-min-above-max": ["gen", "--set", "min_nodes=30", "--set", "max_nodes=16"],
    "gen-eb-m-zero": ["gen", "--set", "eb_m=0", "--set", "family=extended_barabasi"],
    "gen-eb-probabilities": ["gen", "--set", "eb_p_add=0.6", "--set", "eb_p_rewire=0.5"],
    "gen-negative-count": ["gen", "--set", "n_graphs=-3"],
    "gen-negative-seed": ["gen", "--seed", "-1"],
    "gen-removed-er-p": ["gen", "--set", "er_p=0.3"],
    "bench-zero-timeout": ["bench", "--methods", "exact", "--timeout", "0"],
    "bench-unknown-method": ["bench", "--methods", "foo"],
    "bench-neural-without-checkpoint": ["bench", "--methods", "neural"],
    "bench-negative-seed": ["bench", "--methods", "exact", "--seed", "-1"],
    "bench-nan-query-ratio": ["bench", "--methods", "exact", "--query-ratio", "nan"],
    "bench-negative-instances": ["bench", "--methods", "exact", "--n-instances", "-2"],
    "train-negative-calibration-pairs": ["train", "--calibration-pairs", "-3"],
    "train-nan-rate": ["train", "--set", "train.learning_rate=nan"],
    "train-inf-rate": ["train", "--set", "train.learning_rate=inf"],
    "train-nan-beta": ["train", "--set", "train.beta1=nan"],
    "train-removed-neg-pos-ratio": ["train", "--set", "train.neg_pos_ratio=3"],
    "train-removed-beta2": ["train", "--set", "train.beta2=0.99"],
    "train-removed-sampler-seed": ["train", "--set", "sampler.seed=5"],
    "train-negative-edge-labels": ["train", "--set", "encoder.edge_label_count=-1"],
    "train-diverging-margin": ["train", "--set", "train.epochs=1", "--set",
                               "train.min_iterations=1", "--calibration-pairs", "0",
                               "--set", "margin.margin=1e308"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_one_before_writing(argv, dataset_dir, tmp_path, capsys):
    out = tmp_path / "out"
    paths = {
        "gen": ["--out", str(out)],
        "train": ["--data", str(dataset_dir), "--out", str(out)],
        "bench": ["--data", str(dataset_dir), "--out-csv", str(out / "rows.csv"),
                  "--out-json", str(out / "summary.json")],
    }
    # pytest's own warning capture would keep a numpy warning out of capsys
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv, *paths[argv[0]])
    err = capsys.readouterr().err.strip()
    assert code == 1, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


WRONG_KIND_PATHS = {
    "gen-config-dir": lambda data, ckpt, out: ["gen", "--out", out, "--config", data],
    "train-data-file": lambda data, ckpt, out: ["train", "--data", ckpt, "--out", out],
    "embed-graph-dir": lambda data, ckpt, out: [
        "embed", "--graph", data, "--checkpoint", ckpt, "--out", out],
    "embed-checkpoint-dir": lambda data, ckpt, out: [
        "embed", "--graph", f"{data}/graph_0000.json", "--checkpoint", data, "--out", out],
    "embed-out-dir": lambda data, ckpt, out: [
        "embed", "--graph", f"{data}/graph_0000.json", "--checkpoint", ckpt, "--out", data],
    "query-index-dir": lambda data, ckpt, out: [
        "query", "--query", f"{data}/graph_0000.json", "--index", data, "--checkpoint", ckpt],
}


@pytest.mark.parametrize("argv", WRONG_KIND_PATHS.values(), ids=WRONG_KIND_PATHS.keys())
def test_path_of_wrong_kind_exits_one(argv, dataset_dir, smoke_model, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(*argv(str(dataset_dir), str(smoke_model / "checkpoint.json"), str(out)))
    err = capsys.readouterr().err.strip()
    assert code == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("config error:"), err
    assert not out.exists()


DEGENERATE_TRAINING_DATA = {
    # no negative pair can be certified: every ball is one unlabeled node
    "two-nodes-no-edges": [LabeledGraph.from_edges(2, [])],
    "one-node": [LabeledGraph.from_edges(1, [])],
    "one-node-among-good": [LabeledGraph.from_edges(3, [(0, 1), (1, 2)]),
                            LabeledGraph.from_edges(1, [])],
}


@pytest.mark.parametrize("graphs", DEGENERATE_TRAINING_DATA.values(),
                         ids=DEGENERATE_TRAINING_DATA.keys())
def test_degenerate_training_data_exits_one(graphs, tmp_path):
    # a child process, so that a sampler that never gives up fails the test
    # at the timeout instead of stalling the suite
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for i, g in enumerate(graphs):
        save_graph(g, data / f"graph_{i:04d}.json")
    src = str(Path(submatch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "submatch.cli", "train", "--data", str(data),
         "--out", str(out), "--epochs", "1"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    err = done.stderr.strip()
    assert done.returncode == 1, err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert not out.exists()


class TestSelftestCommand:
    def test_fast_selftest_passes(self, capsys):
        assert run_cli("selftest", "--fast") == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 2


class TestTrainedModelQuery:
    def test_sampled_positive_decides_subgraph(self, trained, desk_pool, tmp_path):
        # a sampled subgraph of a training-distribution target must come back
        # as a positive decision through the full CLI path
        ckpt = trained.checkpoint
        save_checkpoint(ckpt, tmp_path / "ckpt.json")
        rng = np.random.default_rng(123)
        instances = make_problem1_instances(desk_pool[:6], 4, rng, query_ratio=0.5)
        positives = [i for i in instances if i.oracle_label]
        assert positives
        hits = 0
        for i, inst in enumerate(positives):
            save_graph(inst.query, tmp_path / f"q{i}.json")
            save_graph(inst.target, tmp_path / f"t{i}.json")
            code = run_cli(
                "query", "--query", str(tmp_path / f"q{i}.json"),
                "--target", str(tmp_path / f"t{i}.json"),
                "--checkpoint", str(tmp_path / "ckpt.json"),
            )
            assert code == 0
        # decisions checked through the API for assertion clarity
        from submatch.query import answer, build_index

        for inst in positives:
            _, verdict = answer(inst.query, build_index(inst.target, ckpt), ckpt)
            hits += int(verdict.decision)
        assert hits >= len(positives) - 1  # allow one borderline miss
