import copy
import json

import numpy as np
import pytest
from hypothesis import strategies as st

from submatch import autodiff as ad
from submatch.datasets import gen_er, gen_extended_barabasi
from submatch.encoder import EncoderConfig
from submatch.graphs import LabeledGraph
from submatch.order import MarginConfig
from submatch.sampling import SamplerConfig
from submatch.training import TrainConfig, train


@pytest.fixture
def triangle():
    return LabeledGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path3():
    return LabeledGraph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def star6():
    return LabeledGraph.from_edges(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def k4():
    return LabeledGraph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])


def desk_targets(n_graphs: int = 40, max_nodes: int = 30, base_seed: int = 0):
    """The synthetic target pool used by the trained-model fixtures: an even
    mix of sparse uniform-random and preferential-attachment graphs."""
    rng = np.random.default_rng(base_seed)
    graphs = []
    for i in range(n_graphs // 2):
        n = int(rng.integers(16, max_nodes + 1))
        graphs.append(gen_er(n, 4.0 / n, 1, seed=1000 + i))
    for i in range(n_graphs - n_graphs // 2):
        n = int(rng.integers(16, max_nodes + 1))
        graphs.append(gen_extended_barabasi(n, 1, 2000 + i))
    return graphs


DESK_TRAIN = TrainConfig(
    epochs=55,
    min_iterations=32,
    plateau_patience=6,
    regen_period=20,
    val_radius=3,
    seed=0,
)
DESK_ENCODER = EncoderConfig(
    layers=4, hidden_dim=32, output_dim=32, label_alphabet_size=1
)
DESK_SAMPLER = SamplerConfig(strategy="random_bfs", max_nodes=15)
DESK_MARGIN = MarginConfig()


@pytest.fixture(scope="session")
def desk_pool():
    return desk_targets()


@pytest.fixture(scope="session")
def trained(desk_pool):
    """Desk-scale trained model shared by the acceptance suite and CLI tests.

    Takes a few minutes; session-scoped so it trains once per run. The
    whole-query decision cutoff is calibrated by the same library call the
    train command makes.
    """
    import time

    from submatch.evaluate import calibrate_decision

    start = time.perf_counter()
    result = train(desk_pool, DESK_TRAIN, DESK_ENCODER, DESK_MARGIN, DESK_SAMPLER)
    result.train_seconds = time.perf_counter() - start
    ckpt = result.checkpoint
    ckpt.decision_cutoff = calibrate_decision(ckpt, desk_pool, 40, DESK_TRAIN.seed)
    return result


def with_value(doc: dict, keys: list[str], value) -> str:
    """JSON text of a copy of doc whose entry at the path keys is value."""
    root = inner = copy.deepcopy(doc)
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return json.dumps(root)


def without_key(doc: dict, keys: list[str]) -> str:
    """JSON text of a copy of doc without the entry at the path keys."""
    root = inner = copy.deepcopy(doc)
    for key in keys[:-1]:
        inner = inner[key]
    del inner[keys[-1]]
    return json.dumps(root)


def mutated_json_text(doc, data, keys: list[str]) -> str:
    """A copy of doc after one to three replacements or deletions drawn
    anywhere in it (the whole document included), as JSON text that may be
    cut short. Inserted objects use the given keys."""
    doc = copy.deepcopy(doc)
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
            st.sampled_from(keys), inner, max_size=3),
        max_leaves=6,
    )
    for _ in range(data.draw(st.integers(1, 3))):
        slots = [(None, None)]  # (container, key); None replaces the whole document
        stack = [doc] if isinstance(doc, (dict, list)) else []
        while stack:
            container = stack.pop()
            keys_in = container.keys() if isinstance(container, dict) else range(len(container))
            for key in keys_in:
                slots.append((container, key))
                if isinstance(container[key], (dict, list)):
                    stack.append(container[key])
        container, key = data.draw(st.sampled_from(slots))
        if container is None:
            doc = data.draw(json_values)
        elif data.draw(st.booleans()):
            del container[key]
        else:
            container[key] = data.draw(json_values)
    text = json.dumps(doc)
    return text[:data.draw(st.integers(0, len(text)))] if data.draw(st.booleans()) else text


def pairs_of(groups) -> ad.IndexPairs:
    """The (src, dst) pairs of a per-row listing of source rows: row i sums
    the rows in groups[i]."""
    src = np.array([j for g in groups for j in g], dtype=np.intp)
    dst = np.repeat(np.arange(len(groups), dtype=np.intp), [len(g) for g in groups])
    return ad.IndexPairs(src, dst)


class ReadOnlyGradStore(ad._GradStore):
    """Marks every gradient it keeps read-only, so a backward function that
    writes into one raises."""

    def add(self, t, g):
        super().add(t, g)
        for arr in (g, self.by_id[id(t)]):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
