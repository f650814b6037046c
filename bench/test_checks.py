"""Each benchmark check passes on the program's real output and fails on a
deliberately wrong one.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from submatch import encoder as E  # noqa: E402
from submatch import query as Q  # noqa: E402
from submatch.graphs import k_hop_neighborhood  # noqa: E402
from submatch.order import MarginConfig  # noqa: E402
from submatch.sampling import SamplerConfig, sample_positive_pair  # noqa: E402
from submatch.training import EpochStats  # noqa: E402

CFG = E.EncoderConfig(layers=2, hidden_dim=8, output_dim=8, label_alphabet_size=1)
RADIUS = 2


@pytest.fixture(scope="module")
def target():
    return inputs.attachment_graph(40, 2, np.random.default_rng(0))


@pytest.fixture(scope="module")
def checkpoint():
    return E.Checkpoint(CFG, E.init_params(CFG, seed=0), MarginConfig(), radius=RADIUS)


@pytest.fixture(scope="module")
def answer(target, checkpoint):
    """A query answered with voting at a threshold passing half the entries."""
    q = inputs.bfs_sample(target, 8, np.random.default_rng(1))
    index = Q.build_index(target, checkpoint)
    embs = Q.embed_query_nodes(q, checkpoint, RADIUS)
    matrix = Q.alignment(q, index, checkpoint, query_embs=embs)
    margin = MarginConfig(threshold=float(np.median(matrix.values)))
    mask = Q.vote_mask_for(matrix, q, target, embs, index, margin)
    shells = (checks.hop_shells(q.adjacency, RADIUS), checks.hop_shells(target.adjacency, RADIUS))
    return matrix.values, embs, index.matrix, margin.threshold, mask, shells


def test_alignment_check(answer):
    values, embs, rows, *_ = answer
    assert checks.check_alignment(values, embs, rows) == []
    wrong = values.copy()
    t, q = np.argwhere(values > 0)[0]
    wrong[t, q] *= 1 + 1e-9
    assert checks.check_alignment(wrong, embs, rows)


def test_vote_mask_check(answer):
    values, _, _, threshold, mask, shells = answer
    assert mask.any() and (~mask & (values < threshold)).any()
    assert checks.check_vote_mask(mask, values, threshold, *shells) == []
    passing = np.argwhere(values < threshold)
    for t, q in (passing[0], np.argwhere(values >= threshold)[0]):
        flipped = mask.copy()
        flipped[t, q] = not flipped[t, q]
        assert checks.check_vote_mask(flipped, values, threshold, *shells)


def test_index_check(target, checkpoint):
    index = Q.build_index(target, checkpoint)
    expected = {
        u: E.encode(k_hop_neighborhood(target, u, RADIUS), checkpoint.params, CFG)
        for u in (0, 1, 7)
    }
    assert checks.check_index(index.matrix, expected) == []
    swapped = index.matrix.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert checks.check_index(swapped, expected)
    negative = index.matrix.copy()
    negative[3, 0] = -1.0
    assert checks.check_index(negative, {})


def test_relabelled_index_check(target, checkpoint):
    perm = np.random.default_rng(2).permutation(target.node_count)
    rows = Q.build_index(target, checkpoint).matrix
    copy = Q.build_index(inputs.relabelled(target, perm), checkpoint).matrix
    assert checks.check_relabelled_index(rows, copy, perm) == []
    swapped = copy.copy()
    swapped[[perm[0], perm[1]]] = swapped[[perm[1], perm[0]]]
    assert checks.check_relabelled_index(rows, swapped, perm)


def history(schedule, loss=1.0):
    return [EpochStats(e, loss, 50.0, r, n, 1e-3) for e, (r, n) in enumerate(schedule)]


def test_curriculum_schedule():
    assert checks.curriculum_schedule(8, 40) == list(
        zip([1, 1, 2, 3, 4, 4, 4, 4], [1, 1, 1, 1, 1, 2, 4, 8]))


def test_training_check():
    good = history(checks.curriculum_schedule(8, 40))
    assert checks.check_training(good, 1.0, 0.3, 40) == []
    stalled = history([(1, 1)] * 8)
    assert checks.check_training(stalled, 1.0, 0.3, 40)
    assert checks.check_training(history(checks.curriculum_schedule(8, 40), np.nan), 1.0, 0.3, 40)
    assert checks.check_training(good, 1.0, 0.0, 40)
    assert checks.check_training(good, 1.0, 1.0, 40)


def test_training_pairs_check(target):
    rng = np.random.default_rng(3)
    cfg = SamplerConfig(max_nodes=6)
    pairs = [sample_positive_pair(target, 1, cfg, rng) for _ in range(5)]
    problems, checked = checks.check_training_pairs(pairs, 10**6)
    assert problems == [] and checked == 5
    flipped = [replace(pairs[0], label=False)]
    assert checks.check_training_pairs(flipped, 10**6)[0]
    assert checks.check_training_pairs(flipped, 0) == ([], 0)


def test_exact_check():
    rng = np.random.default_rng(4)
    target = inputs.bipartite_graph(30, 3.0, 5, 1, rng)
    q = inputs.bfs_sample(target, 8, rng)
    odd = inputs.odd_chord(q, rng)
    assert checks.check_exact("true", True, q, target) == []
    assert checks.check_exact("false", False, odd, target) == []
    assert checks.check_exact("false", True, q, target)
    assert checks.check_exact("true", False, odd, target)
    assert checks.check_exact("timeout", True, q, target)
    # a negative needs its proof: an odd cycle in the query
    assert checks.check_exact("false", False, q, target)


def test_missing_wrap_target_is_reported_not_zero():
    recorder = spans.Recorder()
    recorder.install([
        ("graphs.khop", "submatch.graphs", "no_such_function", None),
        ("graphs.validate", "submatch.no_such_module", "f", None),
    ])
    recorder.uninstall()
    assert recorder.missing_spans() == {"graphs.khop", "graphs.validate"}
    out = layers.per_layer("index", spans.Summary([]), recorder.missing_spans())
    assert out["graphs.khop_s"] == {"value": None, "unit": "s", "missing": ["graphs.khop"]}
    assert out["autodiff.matmul_s"] == {"value": 0, "unit": "s"}
