import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_json_text, with_value
from submatch import query as query_module
from submatch.datasets import gen_er
from submatch.encoder import Checkpoint, EncoderConfig, encode, init_params
from submatch.graphs import GraphError, LabeledGraph, k_hop_neighborhood
from submatch.order import MarginConfig, calibrate_decision_cutoff, violation_matrix
from submatch.query import (
    AlignmentMatrix,
    Decision,
    EmbeddingIndex,
    IndexError_,
    alignment,
    answer,
    build_index,
    decide,
    embed_query_nodes,
    load_index,
    save_index,
    vote,
    vote_mask_for,
)

CFG = EncoderConfig(layers=3, hidden_dim=12, output_dim=8, label_alphabet_size=1)


@pytest.fixture(scope="module")
def ckpt():
    return Checkpoint(
        config=CFG,
        params=init_params(CFG, seed=0),
        margin=MarginConfig(margin=1.0, threshold=0.25),
        decision_cutoff=0.5,
        radius=2,
    )


@pytest.fixture(scope="module")
def target():
    return gen_er(25, 0.18, 1, seed=31)


class TestIndex:
    def test_size_and_radius(self, ckpt, target):
        index = build_index(target, ckpt)
        assert index.node_count == target.node_count
        assert index.radius == ckpt.radius
        assert index.graph_fingerprint == target.fingerprint()

    def test_rebuild_byte_identical(self, ckpt, target, tmp_path):
        a = build_index(target, ckpt)
        b = build_index(target, ckpt)
        assert np.array_equal(a.matrix, b.matrix)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        save_index(a, pa)
        save_index(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_matches_direct_encoding(self, ckpt, target):
        index = build_index(target, ckpt)
        for u in (0, 9, 24):
            z = encode(k_hop_neighborhood(target, u, ckpt.radius), ckpt.params, CFG)
            assert np.array_equal(index.matrix[u], z)

    def test_persistence_round_trip(self, ckpt, target, tmp_path):
        index = build_index(target, ckpt)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path, ckpt)
        assert np.array_equal(loaded.matrix, index.matrix)
        assert loaded.radius == index.radius

    def test_empty_graph_round_trip(self, ckpt, tmp_path):
        index = build_index(LabeledGraph.from_edges(0, []), ckpt)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = load_index(path, ckpt)
        assert loaded.matrix.shape == (0, CFG.output_dim)

    def test_non_finite_embedding_rejected(self, ckpt, target, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(target, ckpt), path)
        obj = json.loads(path.read_text())
        obj["embeddings"][3][1] = float("nan")
        path.write_text(json.dumps(obj))
        with pytest.raises(IndexError_, match="finite"):
            load_index(path, ckpt)

    def test_width_mismatch_rejected(self, ckpt, target, tmp_path):
        path = tmp_path / "index.json"
        save_index(build_index(target, ckpt), path)
        obj = json.loads(path.read_text())
        obj["embeddings"] = [row[:-1] for row in obj["embeddings"]]
        path.write_text(json.dumps(obj))
        with pytest.raises(IndexError_, match="width"):
            load_index(path, ckpt)

    def test_fingerprint_mismatch_rejected(self, ckpt, target, tmp_path):
        index = build_index(target, ckpt)
        path = tmp_path / "index.json"
        save_index(index, path)
        other = Checkpoint(
            config=CFG, params=init_params(CFG, seed=99), margin=ckpt.margin, radius=2
        )
        with pytest.raises(IndexError_):
            load_index(path, other)


@pytest.fixture(scope="module")
def index_doc(ckpt, tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("index") / "index.json"
    save_index(build_index(LabeledGraph.from_edges(3, [(0, 1), (1, 2)]), ckpt), path)
    return json.loads(path.read_text())


BAD_INDEXES = {
    "top-level list": lambda doc: "[]",
    "cut short": lambda doc: "{",
    "only format_version": lambda doc: '{"format_version": 2}',
    "ragged embeddings": lambda doc: with_value(doc, ["embeddings"], [[0.5, 0.5], [0.5]]),
    "text embeddings": lambda doc: with_value(doc, ["embeddings"], [["0.5"]]),
    "text radius": lambda doc: with_value(doc, ["radius"], "2"),
    "fractional radius": lambda doc: with_value(doc, ["radius"], 2.5),
    "numeric fingerprint": lambda doc: with_value(doc, ["graph_fingerprint"], 7),
}


class TestMalformedIndex:
    def test_unedited_document_loads(self, index_doc, ckpt, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(json.dumps(index_doc))
        assert load_index(path, ckpt).node_count == 3

    @pytest.mark.parametrize("name", BAD_INDEXES)
    def test_raises_index_error(self, name, index_doc, ckpt, tmp_path):
        path = tmp_path / "index.json"
        path.write_text(BAD_INDEXES[name](index_doc))
        with pytest.raises(IndexError_):
            load_index(path, ckpt)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_index_error(self, index_doc, ckpt, tmp_path_factory,
                                                      data):
        path = tmp_path_factory.mktemp("fuzz") / "index.json"
        path.write_text(mutated_json_text(index_doc, data, [
            "format_version", "graph_fingerprint", "radius", "checkpoint_fingerprint",
            "embeddings"]))
        try:
            load_index(path, ckpt)
        except IndexError_:
            pass


class TestAlignment:
    def test_shape(self, ckpt, target):
        query = gen_er(8, 0.3, 1, seed=5)
        index = build_index(target, ckpt)
        matrix = alignment(query, index, ckpt)
        assert matrix.values.shape == (target.node_count, query.node_count)
        assert np.all(matrix.values >= 0)

    def test_empty_query_rejected(self, ckpt, target):
        empty = LabeledGraph.from_edges(0, [])
        index = build_index(target, ckpt)
        with pytest.raises(GraphError, match="query graph has no nodes"):
            embed_query_nodes(empty, ckpt, index.radius)
        with pytest.raises(GraphError, match="query graph has no nodes"):
            alignment(empty, index, ckpt)

    def test_disconnected_query_rejected(self, ckpt, target):
        query = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        index = build_index(target, ckpt)
        with pytest.raises(GraphError, match="query graph must be connected"):
            alignment(query, index, ckpt)

    def test_self_alignment_diagonal_zero(self, ckpt):
        g = gen_er(10, 0.3, 1, seed=1)  # connected draw
        index = build_index(g, ckpt)
        matrix = alignment(g, index, ckpt)
        # node u's neighborhood vs itself: identical embeddings, violation 0
        assert np.allclose(np.diag(matrix.values), 0.0)

    def test_csv_export(self, ckpt, target):
        query = gen_er(4, 0.6, 1, seed=6)
        assert query.is_connected()
        index = build_index(target, ckpt)
        matrix = alignment(query, index, ckpt)
        text = matrix.to_csv()
        lines = text.strip().split("\n")
        assert lines[0].startswith("target_node,q0")
        assert len(lines) == 1 + target.node_count


def twin_rich_queries() -> list[LabeledGraph]:
    """Connected queries whose twins hold most nodes (a star, K_{2,4} and a
    path with pendant pairs), and random draws."""
    star = LabeledGraph.from_edges(9, [(0, i) for i in range(1, 9)])
    k24 = LabeledGraph.from_edges(6, [(a, b) for a in range(2) for b in range(2, 6)])
    path = [(i, i + 1) for i in range(4)]
    pendants = LabeledGraph.from_edges(
        13, path + [(i, 5 + 2 * i + j) for i in range(4) for j in range(2)])
    return [star, k24, pendants, *(_connected(n, 0.1, seed) for n, seed in
                                   [(6, 1), (10, 2), (14, 3), (20, 4)])]


class TestTwinColumns:
    """alignment computes one column per distinct embedding row of a twin
    class and copies it to the class's other nodes."""

    def test_equals_violation_matrix_when_twin_rows_differ(self, ckpt, target, monkeypatch):
        query = LabeledGraph.from_edges(9, [(0, i) for i in range(1, 9)])  # leaves: one class
        index = build_index(target, ckpt)
        embs = embed_query_nodes(query, ckpt, index.radius)
        assert all(np.array_equal(embs[1], embs[i]) for i in range(2, 9))
        embs[2, 0] += 1e-3  # a caller's row that differs from its representative's
        embs[1:, 1] = 0.0
        embs[3, 1] = -0.0  # equal as numbers, not as bits
        computed = []
        full = query_module.violation_matrix

        def recording(query_embs, target_embs):
            computed.append(len(query_embs))
            return full(query_embs, target_embs)

        monkeypatch.setattr(query_module, "violation_matrix", recording)
        matrix = alignment(query, index, ckpt, query_embs=embs)
        assert computed == [4]  # the hub, leaf 1 for leaves 1 and 4-8, leaf 2, leaf 3
        assert matrix.values.tobytes() == violation_matrix(embs, index.matrix).tobytes()
        assert matrix.values.flags.c_contiguous

    def test_answer_decides_as_the_full_matrix_does(self, ckpt, target):
        index = build_index(target, ckpt)
        for threshold in (1e-3, 1e-2, 0.25):
            margin = MarginConfig(margin=1.0, threshold=threshold)
            for query in twin_rich_queries():
                matrix, verdict = answer(query, index, replace(ckpt, margin=margin))
                full = AlignmentMatrix(violation_matrix(
                    embed_query_nodes(query, ckpt, index.radius), index.matrix))
                want = decide(full, margin, ckpt.decision_cutoff)
                assert matrix.values.flags.c_contiguous
                assert matrix.values.tobytes() == full.values.tobytes()
                assert (verdict.score, verdict.decision) == (want.score, want.decision)
                assert np.float64(verdict.mean_violation).tobytes() == (
                    np.float64(want.mean_violation).tobytes())

    def test_embeddings_of_another_shape_rejected(self, ckpt, target):
        query = _connected(6, 0.3, 6)
        index = build_index(target, ckpt)
        embs = embed_query_nodes(query, ckpt, index.radius)
        for wrong in (embs[:-1], embs[0]):
            with pytest.raises(ValueError, match="query embeddings of shape"):
                alignment(query, index, ckpt, query_embs=wrong)


class TestDecide:
    def test_all_dominated_scores_one(self):
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        matrix = AlignmentMatrix(values=np.zeros((4, 3)))
        verdict = decide(matrix, cfg)
        assert verdict.score == 1.0 and verdict.decision

    def test_none_below_threshold_scores_zero(self):
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        matrix = AlignmentMatrix(values=np.full((4, 3), 2.0))
        verdict = decide(matrix, cfg)
        assert verdict.score == 0.0 and not verdict.decision
        assert verdict.mean_violation == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 2, size=(6, 5))
        cfg = MarginConfig(margin=1.0, threshold=0.5)
        base = decide(AlignmentMatrix(values=vals), cfg)
        shuffled = vals[rng.permutation(6)][:, rng.permutation(5)]
        out = decide(AlignmentMatrix(values=shuffled), cfg)
        assert out.score == base.score
        assert np.isclose(out.mean_violation, base.mean_violation)

    def test_cutoff_calibration_separates(self):
        scores = np.array([0.9, 0.8, 0.75, 0.2, 0.1, 0.3])
        labels = np.array([1, 1, 1, 0, 0, 0])
        cut = calibrate_decision_cutoff(scores, labels)
        assert 0.3 < cut < 0.75
        assert np.array_equal(scores > cut, labels.astype(bool))


class TestVote:
    def test_hop_zero_reduces_to_prediction(self, ckpt, target):
        query = gen_er(8, 0.35, 1, seed=5)
        assert query.is_connected()
        index = build_index(target, ckpt)
        q_embs = embed_query_nodes(query, ckpt, index.radius)
        plain = violation_matrix(q_embs, index.matrix) < ckpt.margin.threshold
        for q in range(query.node_count):
            for u in range(target.node_count):
                voted = vote(query, q, target, u, q_embs, index.matrix, 0, ckpt.margin)
                assert voted == plain[u, q]

    def test_vote_true_implies_plain_true(self, ckpt, target):
        query = gen_er(8, 0.35, 1, seed=10)
        assert query.is_connected()
        index = build_index(target, ckpt)
        q_embs = embed_query_nodes(query, ckpt, index.radius)
        plain = violation_matrix(q_embs, index.matrix) < ckpt.margin.threshold
        for q in range(query.node_count):
            for u in range(target.node_count):
                if vote(query, q, target, u, q_embs, index.matrix, 2, ckpt.margin):
                    assert plain[u, q]

    def test_monotone_in_hops(self, ckpt, target):
        query = gen_er(8, 0.35, 1, seed=12)
        assert query.is_connected()
        index = build_index(target, ckpt)
        q_embs = embed_query_nodes(query, ckpt, index.radius)
        for q in range(query.node_count):
            for u in range(0, target.node_count, 3):
                votes = [
                    vote(query, q, target, u, q_embs, index.matrix, k, ckpt.margin)
                    for k in range(4)
                ]
                # once rejected at hop k, larger hop counts stay rejected
                for a, b in zip(votes, votes[1:]):
                    assert a or not b

    def test_mask_only_refines(self, ckpt, target):
        query = gen_er(6, 0.45, 1, seed=7)
        assert query.is_connected()
        index = build_index(target, ckpt)
        q_embs = embed_query_nodes(query, ckpt, index.radius)
        matrix = alignment(query, index, ckpt, query_embs=q_embs)
        mask = vote_mask_for(matrix, query, target, q_embs, index, ckpt.margin)
        passing = matrix.values < ckpt.margin.threshold
        assert not np.any(mask & ~passing)
        with_vote = decide(matrix, ckpt.margin, vote_mask=mask)
        without = decide(matrix, ckpt.margin)
        assert with_vote.score <= without.score


def test_vote_mask_equals_per_pair_vote(ckpt):
    rng = np.random.default_rng(8)
    for _ in range(10):
        target = gen_er(int(rng.integers(10, 30)), 0.2, 1, seed=int(rng.integers(1 << 30)))
        query = gen_er(int(rng.integers(2, 8)), 0.6, 1, seed=int(rng.integers(1 << 30)))
        if not query.is_connected():
            continue
        hops = int(rng.integers(0, 4))
        index = build_index(target, ckpt, k=hops)
        q_embs = embed_query_nodes(query, ckpt, index.radius)
        matrix = alignment(query, index, ckpt, query_embs=q_embs)
        # a threshold at a random quantile lets a varying share of entries through
        cut = float(np.quantile(matrix.values, rng.uniform(0.2, 0.9)))
        cfg = MarginConfig(margin=max(1.0, 2 * cut), threshold=max(cut, 1e-9))
        mask = vote_mask_for(matrix, query, target, q_embs, index, cfg)
        expected = np.zeros_like(mask)
        for u in range(target.node_count):
            for q in range(query.node_count):
                if matrix.values[u, q] < cfg.threshold:
                    expected[u, q] = vote(query, q, target, u, q_embs, index.matrix, hops, cfg)
        assert np.array_equal(mask, expected)


def test_vote_mask_runs_one_bfs_per_node(ckpt, target, monkeypatch):
    query = gen_er(6, 0.45, 1, seed=7)
    index = build_index(target, ckpt)
    q_embs = embed_query_nodes(query, ckpt, index.radius)
    matrix = alignment(query, index, ckpt, query_embs=q_embs)
    cfg = MarginConfig(margin=10.0, threshold=float(matrix.values.max()) + 1.0)
    calls = []
    original = LabeledGraph.bfs_distances
    monkeypatch.setattr(
        LabeledGraph, "bfs_distances",
        lambda g, *a, **kw: calls.append(1) or original(g, *a, **kw),
    )
    vote_mask_for(matrix, query, target, q_embs, index, cfg)
    assert len(calls) <= query.node_count + target.node_count


@pytest.mark.parametrize("n_vote", [60, 12, 30])
def test_vote_target_must_have_the_index_node_count(ckpt, n_vote):
    indexed = gen_er(30, 0.15, 1, seed=3)
    index = build_index(indexed, ckpt)
    query = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
    if n_vote == indexed.node_count:
        matrix, _ = answer(query, index, ckpt, vote_on=indexed)
        assert matrix.values.shape == (30, 3)
        return
    other = gen_er(n_vote, 0.15, 1, seed=4)
    with pytest.raises(IndexError_, match=f"has {n_vote} nodes and the index 30"):
        answer(query, index, ckpt, vote_on=other)
    q_embs = embed_query_nodes(query, ckpt, index.radius)
    matrix = alignment(query, index, ckpt, query_embs=q_embs)
    with pytest.raises(IndexError_, match=f"has {n_vote} nodes and the index 30"):
        vote_mask_for(matrix, query, other, q_embs, index, ckpt.margin)


def test_decision_dataclass_fields():
    d = Decision(score=0.7, decision=True, mean_violation=0.1)
    assert d.score == 0.7 and d.decision and d.mean_violation == 0.1


def test_index_embedding_matrix_must_be_2d():
    with pytest.raises(IndexError_):
        EmbeddingIndex("fp", 2, np.zeros(5), "cfp")


def _connected(n: int, extra: float, seed: int) -> LabeledGraph:
    """A random tree on n nodes plus each other pair with probability extra."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(v)), v) for v in range(1, n)}
    edges |= {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < extra}
    return LabeledGraph.from_edges(n, sorted(edges))


class TestAnswer:
    # thresholds around the random-init model's violation quantiles, so that
    # plain and voted scores span (0, 1) and voting rejects some entries
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**31), st.booleans(),
           st.sampled_from([1e-4, 3e-3, 1e-2, 0.25]), st.sampled_from([None, 0.0]))
    def test_equals_the_four_steps(self, ckpt, n_q, n_t, seed, voted, threshold, cutoff):
        ckpt = replace(ckpt, margin=MarginConfig(margin=1.0, threshold=threshold))
        if cutoff is not None:
            ckpt = replace(ckpt, decision_cutoff=cutoff)
        query, target = _connected(n_q, 0.4, seed), _connected(n_t, 0.1, seed + 1)
        index = build_index(target, ckpt)
        matrix, verdict = answer(query, index, ckpt, vote_on=target if voted else None)

        q_embs = embed_query_nodes(query, ckpt, index.radius)
        expected = alignment(query, index, ckpt, query_embs=q_embs)
        mask = None
        if voted:
            mask = vote_mask_for(expected, query, target, q_embs, index, ckpt.margin)
        want = decide(expected, ckpt.margin, ckpt.decision_cutoff, vote_mask=mask)
        assert matrix.values.tobytes() == expected.values.tobytes()
        assert (verdict.score, verdict.decision) == (want.score, want.decision)
        assert np.float64(verdict.mean_violation).tobytes() == (
            np.float64(want.mean_violation).tobytes())
