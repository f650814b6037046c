"""The benchmark times the package by wrapping the functions bench/spans.py
names. A renamed or removed target does not fail the benchmark: every metric
built from its span reads null with "missing". This test fails instead. It
also pins the fields bench/checks.py reads off the package's objects."""

import dataclasses
import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from submatch.graphs import LabeledGraph
from submatch.sampling import SamplerConfig, sample_positive_pair
from submatch.training import EpochStats

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
