"""The benchmark times the package by wrapping the functions bench/spans.py
names. A renamed or removed target does not fail the benchmark: every metric
built from its span reads null with "missing". This test fails instead. It
also pins the fields bench/checks.py reads off the package's objects, and the
calls bench/workloads.py and bench/test_checks.py make, so that a change that
drops one fails here rather than in a benchmark run."""

import dataclasses
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from submatch.encoder import Checkpoint, EncoderConfig, init_params
from submatch.graphs import LabeledGraph
from submatch.order import MarginConfig
from submatch.query import alignment, build_index, decide, embed_query_nodes, vote_mask_for
from submatch.sampling import SamplerConfig, sample_positive_pair
from submatch.training import EpochStats, TrainConfig

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# per-layer metrics of the traced tour that read exactly 0 on working code:
# the functions they wrap are no longer called on those paths
DARK_METRICS = {
    "train.graphs.validations", "train.graphs.validate_s",
    "index.graphs.validations", "index.graphs.validate_s",
    "index.graphs.khop_calls", "index.graphs.khop_s", "index.graphs.khop_nodes",
}


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_bench_module("spans").TARGETS


@pytest.mark.parametrize(
    "module_name, path",
    [(module_name, path) for _, module_name, path, _ in load_targets()],
    ids=lambda value: value,
)
def test_wrap_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}:{path} has no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)


def test_training_pair_fields_read_by_checks():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    pair = sample_positive_pair(g, 2, SamplerConfig(max_nodes=3), np.random.default_rng(0))
    assert pair.label is True
    for side in (pair.query, pair.target):
        assert isinstance(side.graph, LabeledGraph)
        assert side.node_count == side.graph.node_count
        assert 0 <= side.anchor < side.node_count


def test_epoch_stats_fields_read_by_checks():
    assert {"radius", "n_targets", "loss"} <= {f.name for f in dataclasses.fields(EpochStats)}


def test_train_config_keywords_the_train_workload_sets():
    cfg = TrainConfig(epochs=3, min_iterations=2, plateau_patience=1, plateau_delta=100.0,
                      val_radius=3, seed=5)
    assert (cfg.epochs, cfg.min_iterations, cfg.plateau_patience, cfg.plateau_delta,
            cfg.val_radius, cfg.seed) == (3, 2, 1, 100.0, 3, 5)


def test_checkpoint_fields_the_workloads_set():
    cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4, label_alphabet_size=1)
    params = init_params(cfg, seed=0)
    by_name = Checkpoint(config=cfg, params=params, margin=MarginConfig(threshold=0.3), radius=2)
    by_position = Checkpoint(cfg, params, MarginConfig(threshold=0.3), radius=2)
    for ckpt in (by_name, by_position):
        assert (ckpt.config, ckpt.params, ckpt.margin.threshold, ckpt.radius) == (
            cfg, params, 0.3, 2)
        assert ckpt.decision_cutoff == 0.5  # the workloads leave it at its default


def test_online_calls_the_query_workload_makes():
    cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4, label_alphabet_size=1)
    ckpt = Checkpoint(cfg, init_params(cfg, seed=0), MarginConfig(), radius=2)
    target = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    query = LabeledGraph.from_edges(2, [(0, 1)])
    index = build_index(target, ckpt, k=1)
    assert index.radius == 1
    embs = embed_query_nodes(query, ckpt, index.radius)
    matrix = alignment(query, index, ckpt, query_embs=embs)
    mask = vote_mask_for(matrix, query, target, embs, index, ckpt.margin)
    verdict = decide(matrix, ckpt.margin, ckpt.decision_cutoff, vote_mask=mask)
    assert mask.shape == matrix.values.shape and 0.0 <= verdict.score <= 1.0


def test_epoch_stats_positional_order():
    stats = EpochStats(4, 1.5, 50.0, 2, 8, 1e-3)
    assert (stats.epoch, stats.loss, stats.val_auroc, stats.radius, stats.n_targets,
            stats.lr) == (4, 1.5, 50.0, 2, 8, 1e-3)


def test_traced_tour_sees_every_layer_it_wraps(tmp_path, monkeypatch):
    """A change that stops calling a wrapped function on a path turns that
    path's per-layer metrics to 0 in bench/run.py's traced tour; this fails
    then, rather than only a traced benchmark run."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("run")
    from workloads import WORKLOADS

    out = run.traced_tour(list(WORKLOADS), 1, tmp_path)
    assert out["correct"] and out["failed"] == 0
    values = {key: entry["value"] for key, entry in out["metrics"].items()}
    assert [key for key, value in values.items() if value is None] == []
    dark = {key for key, value in values.items()
            if value == 0 and not key.endswith(".trace.overhead_pct")}
    assert dark == DARK_METRICS
