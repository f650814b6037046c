import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_json_text, pairs_of, with_value, without_key
from submatch import autodiff as ad
from submatch import encoder, graphs
from submatch.datasets import gen_er
from submatch.encoder import (
    Checkpoint,
    CheckpointError,
    EncoderConfig,
    build_input_features,
    encode,
    encode_all,
    encode_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    _as_tensors,
)
from submatch.graphs import (
    AnchoredNeighborhood,
    GraphError,
    LabeledGraph,
    adjacency_csr,
    k_hop_balls,
    k_hop_neighborhood,
    node_triangles,
)
from submatch.order import MarginConfig

SMALL = EncoderConfig(layers=3, hidden_dim=12, output_dim=8, label_alphabet_size=2)


def features(nh, cfg):
    """build_input_features of one neighborhood's arrays."""
    g = nh.graph
    indptr, indices = adjacency_csr(g)
    dst = np.repeat(np.arange(g.node_count), np.diff(indptr))
    return build_input_features(
        np.asarray(g.node_labels), np.array([nh.anchor]), indices, dst, cfg)


def permuted_copy(nh, seed):
    """Anchor-preserving random relabeling of a neighborhood."""
    n = nh.graph.node_count
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)]) if n > 1 else np.array([0])
    inv = np.argsort(perm)
    edges = [(int(inv[a]), int(inv[b])) for a, b in nh.graph.edges()]
    labels = [nh.graph.node_labels[int(perm[i])] for i in range(n)]
    g = LabeledGraph.from_edges(n, edges, labels, nh.graph.label_alphabet_size)
    return AnchoredNeighborhood(g, 0)


class TestConfig:
    def test_defaults_match_reported_best(self):
        cfg = EncoderConfig()
        assert cfg.layers == 8 and cfg.hidden_dim == 64 and cfg.output_dim == 64

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            EncoderConfig(layers=0)


class TestInputFeatures:
    def test_two_node_edge_rows(self):
        cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4, label_alphabet_size=2)
        g = LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 1], label_alphabet_size=2)
        feats = features(AnchoredNeighborhood(g, 0), cfg)
        # anchor flag, one-hot label, degree, clustering (0 below degree 2)
        assert np.array_equal(feats, [[1.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0, 0.0]])

    def test_anchor_indicator_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gen_er(10, 0.3, 2, seed=int(rng.integers(1 << 30)))
            u = int(rng.integers(10))
            nh = k_hop_neighborhood(g, u, 2)
            feats = features(nh, SMALL)
            assert feats[:, 0].sum() == 1.0
            assert feats[nh.anchor, 0] == 1.0

    def test_structural_columns(self, triangle):
        nh = AnchoredNeighborhood(triangle, 0)
        cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4, label_alphabet_size=1)
        feats = features(nh, cfg)
        # every triangle node: degree 2, clustering 1.0
        assert np.array_equal(feats[:, -2], [2.0, 2.0, 2.0])
        assert np.array_equal(feats[:, -1], [1.0, 1.0, 1.0])

    def test_label_out_of_alphabet_rejected(self):
        g = LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 4], label_alphabet_size=5)
        cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4, label_alphabet_size=2)
        with pytest.raises(GraphError):
            features(AnchoredNeighborhood(g, 0), cfg)

    def test_row_permutation_equivariance(self):
        g = gen_er(8, 0.4, 2, seed=3)
        nh = k_hop_neighborhood(g, 0, 2)
        feats = features(nh, SMALL)
        copy = permuted_copy(nh, seed=1)
        feats2 = features(copy, SMALL)
        assert sorted(map(tuple, feats)) == sorted(map(tuple, feats2))


class TestEncode:
    def test_shape_and_nonnegativity(self):
        params = init_params(SMALL, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            g = gen_er(int(rng.integers(3, 12)), 0.35, 2, seed=int(rng.integers(1 << 30)))
            nh = k_hop_neighborhood(g, int(rng.integers(g.node_count)), 2)
            z = encode(nh, params, SMALL)
            assert z.shape == (SMALL.output_dim,)
            assert z.min() >= 0.0
            assert np.all(np.isfinite(z))

    def test_isomorphic_inputs_identical_bits(self):
        params = init_params(SMALL, seed=2)
        rng = np.random.default_rng(7)
        for trial in range(15):
            g = gen_er(12, 0.3, 2, seed=int(rng.integers(1 << 30)))
            nh = k_hop_neighborhood(g, int(rng.integers(12)), 2)
            z = encode(nh, params, SMALL)
            z2 = encode(permuted_copy(nh, seed=trial), params, SMALL)
            assert np.array_equal(z, z2)

    def test_cycle_lengths_distinguished_via_anchor_feature(self):
        # every node of C4 and C5 has degree 2 and clustering 0, so only the
        # anchor flag tells the two cycles apart: C4 has more closed walks of
        # length 4 through the anchor, which four layers see
        c4 = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        c5 = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        cfg = EncoderConfig(layers=4, hidden_dim=12, output_dim=8, label_alphabet_size=1)
        nh4, nh5 = k_hop_neighborhood(c4, 0, 3), k_hop_neighborhood(c5, 0, 3)
        assert np.array_equal(np.unique(features(nh4, cfg)[:, 1:], axis=0),
                              np.unique(features(nh5, cfg)[:, 1:], axis=0))
        for seed in range(20):
            params = init_params(cfg, seed=seed)
            assert not np.array_equal(encode(nh4, params, cfg), encode(nh5, params, cfg))

    def test_anchor_sensitivity_on_asymmetric_graph(self):
        # path with a pendant: moving the anchor changes the neighborhood role
        g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        params = init_params(SMALL, seed=4)
        z0 = encode(k_hop_neighborhood(g, 0, 2), params, SMALL)
        z1 = encode(k_hop_neighborhood(g, 1, 2), params, SMALL)
        assert not np.array_equal(z0, z1)

    def test_training_tape_route_records_gradients(self):
        params = init_params(SMALL, seed=0)
        g = gen_er(8, 0.4, 2, seed=9)
        nh = k_hop_neighborhood(g, 0, 2)
        tape = ad.Tape()
        out = encode_batch(tape, [nh], _as_tensors(params), SMALL)
        loss = ad.sum_all(tape, out)
        grads = ad.backward(tape, loss)
        assert "out.w" in grads and np.any(grads["out.w"] != 0)


class TestEncodeAll:
    def test_covers_every_node_and_matches_encode(self):
        g = gen_er(25, 0.2, 2, seed=11)
        params = init_params(SMALL, seed=0)
        embs = encode_all(g, 2, params, SMALL)
        assert len(embs) == g.node_count
        for u in (0, 7, 24):
            direct = encode(k_hop_neighborhood(g, u, 2), params, SMALL)
            assert np.array_equal(embs[u], direct)

    @pytest.mark.parametrize("leaves", [0, 12], ids=["plain", "twins"])
    def test_blocks_match_per_node_encode_bit_for_bit(self, leaves, monkeypatch):
        # leaves on node 0 form twin groups, of which encode_all embeds one node
        cfg = EncoderConfig(layers=3, hidden_dim=12, output_dim=8, label_alphabet_size=3)
        params = init_params(cfg, seed=5)
        rng = np.random.default_rng(17)
        for n in (1, 2, 9, 40, 90):
            g = gen_er(n, min(1.0, 3.0 / n), 3, seed=int(rng.integers(1 << 30)))
            if leaves:
                g = LabeledGraph.from_edges(
                    n + leaves, g.edges() + [(0, n + i) for i in range(leaves)],
                    list(g.node_labels) + [i % 3 for i in range(leaves)], 3,
                )
                n += leaves
            k = int(rng.integers(1, 4))
            direct = np.stack([encode(k_hop_neighborhood(g, u, k), params, cfg)
                               for u in range(n)])
            # one block for the whole graph, and blocks of a few nodes each
            for rows in (4096, int(rng.integers(1, 30))):
                monkeypatch.setattr(encoder, "CHUNK_ROWS", rows)
                assert np.array_equal(encode_all(g, k, params, cfg), direct)

    @pytest.mark.slow
    def test_wall_time_linear_in_edges(self):
        # fixed average degree, growing node count: per-node neighborhoods
        # stay constant-size so total cost tracks the edge count
        params = init_params(SMALL, seed=0)
        sizes = [100, 200, 400]
        times, edge_counts = [], []
        for n in sizes:
            g = gen_er(n, 6.0 / n, 2, seed=17)
            reps = []
            for _ in range(5):  # the best of five sheds one-time costs and scheduler noise
                start = time.perf_counter()
                encode_all(g, 2, params, SMALL)
                reps.append(time.perf_counter() - start)
            times.append(min(reps))
            edge_counts.append(g.edge_count)
        x = np.array(edge_counts, dtype=float)
        y = np.array(times)
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        assert 1 - ss_res / ss_tot > 0.9


def per_node(g, k, params, cfg):
    return np.stack([encode(k_hop_neighborhood(g, u, k), params, cfg)
                     for u in range(g.node_count)])


def block_reference(neighborhoods, cfg):
    """_Block.of_neighborhoods built one neighborhood at a time."""
    labels, anchors, srcs, dsts = [], [], [], []
    offset = 0
    for nh in neighborhoods:
        g = nh.graph
        indptr, indices = adjacency_csr(g)
        labels += g.node_labels
        anchors.append(offset + nh.anchor)
        srcs.append(offset + indices)
        dsts.append(offset + np.repeat(np.arange(g.node_count), np.diff(indptr)))
        offset += g.node_count
    empty = np.empty(0, dtype=np.intp)
    return encoder._Block(
        np.asarray(labels, dtype=np.intp), np.asarray(anchors, dtype=np.intp),
        np.concatenate(srcs) if srcs else empty, np.concatenate(dsts) if dsts else empty, cfg,
    )


def random_neighborhoods(seed, count):
    """k-hop balls of labeled ER graphs, some re-anchored away from row 0."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        g = gen_er(int(rng.integers(1, 16)), float(rng.uniform(0.1, 0.5)), 2,
                   seed=int(rng.integers(2**31)))
        ball = k_hop_neighborhood(g, int(rng.integers(g.node_count)), int(rng.integers(0, 4)))
        out.append(AnchoredNeighborhood(ball.graph, int(rng.integers(ball.node_count))))
    return out


class TestBlockOfNeighborhoods:
    """The one-pass block build gives the per-neighborhood arrays exactly."""

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got.features, want.features)
        for a, b in [(got.anchors, want.anchors), *zip(got.index, want.index)]:
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("unused_labels", [0, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_neighborhoods(self, seed, unused_labels):
        # the nodes draw labels 0 and 1; an alphabet past them leaves columns unused
        cfg = EncoderConfig(layers=2, hidden_dim=4, output_dim=4,
                            label_alphabet_size=2 + unused_labels)
        nhs = random_neighborhoods(seed, 30)
        assert any(nh.node_count == 1 for nh in nhs) and any(nh.anchor for nh in nhs)
        self.assert_same(encoder._Block.of_neighborhoods(nhs, cfg), block_reference(nhs, cfg))

    def test_single_node_and_empty(self):
        cfg = EncoderConfig(layers=2, hidden_dim=4, output_dim=4, label_alphabet_size=2)
        one = AnchoredNeighborhood(LabeledGraph.from_edges(1, [], [1], 2), 0)
        for nhs in ([one], []):
            got = encoder._Block.of_neighborhoods(nhs, cfg)
            self.assert_same(got, block_reference(nhs, cfg))
            assert got.features.shape == (len(nhs), cfg.input_dim)


class TestNeighborSumPlans:
    """Training and inference plan each of a block's neighbor sums once per
    direction, for all its layers; inference's layers mask one plan into dst."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []

        class Counting(ad.RankPlan):
            def __init__(self, n_out, idx, src):
                built.append((idx, src))
                super().__init__(n_out, idx, src)

        monkeypatch.setattr(ad, "RankPlan", Counting)
        return built

    @pytest.mark.parametrize("layers", [2, 4])
    def test_training_step_plans_each_direction_once(self, built, layers):
        cfg = EncoderConfig(layers=layers, hidden_dim=8, output_dim=8, label_alphabet_size=2)
        nhs = random_neighborhoods(1, 12)
        params = _as_tensors(init_params(cfg, seed=0))

        def plans_built(tape):
            built.clear()
            block = encoder._Block.of_neighborhoods(nhs, cfg)
            out = encoder._forward(tape, block, params, cfg)
            if tape.record:
                ad.backward(tape, ad.sum_all(tape, out))
            return [id(idx) for idx, _ in built], block.index, block.anchors

        got, (src, dst), anchors = plans_built(ad.Tape())
        # the forward plan on the first layer; take_rows' one-off plan and the
        # backward plan on the last layer, which backward() reaches first
        assert got == [id(dst), id(anchors), id(src)]
        got, (_, dst), _ = plans_built(ad.Tape(record=False))  # validation
        assert got == [id(dst)]

    def test_encode_all_plans_once_per_block(self, built, monkeypatch):
        per_block = []
        infer = encoder._infer

        def recording(block, *args):
            built.clear()
            out = infer(block, *args)
            per_block.append((block, list(built)))
            return out

        monkeypatch.setattr(encoder, "_infer", recording)
        monkeypatch.setattr(encoder, "CHUNK_ROWS", 64)
        cfg = EncoderConfig(layers=4, hidden_dim=8, output_dim=8, label_alphabet_size=2)
        encode_all(gen_er(40, 0.1, 2, seed=3), 3, init_params(cfg, seed=0), cfg)
        assert len(per_block) > 1
        for block, plans in per_block:
            # one plan, over all the block's (src, dst) pairs into dst
            (idx, src), = plans
            s_all, d_all = block.index
            assert idx is d_all and src is s_all


class TestBallPath:
    """encode_all cuts its blocks from the parent graph's CSR arrays; every
    row must still be what encode() gives for that node's k-hop neighborhood."""

    def test_disconnected_graph_with_isolated_nodes(self):
        # two triangles joined by a path, a separate edge, and two isolated nodes
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6), (8, 9)]
        g = LabeledGraph.from_edges(11, edges, [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0], 2)
        params = init_params(SMALL, seed=1)
        assert np.array_equal(encode_all(g, 2, params, SMALL), per_node(g, 2, params, SMALL))

    @pytest.mark.parametrize("k", [0, 9, 40])
    def test_radius_zero_and_beyond_diameter(self, k):
        g = gen_er(30, 0.12, 2, seed=4)
        params = init_params(SMALL, seed=2)
        assert np.array_equal(encode_all(g, k, params, SMALL), per_node(g, k, params, SMALL))

    def test_ball_larger_than_a_block(self, monkeypatch):
        # the hub's 2-hop ball holds 22 nodes, over four times the block size
        edges = [(0, i) for i in range(1, 21)] + [(i, i + 1) for i in range(20, 25)]
        g = LabeledGraph.from_edges(26, edges, [i % 2 for i in range(26)], 2)
        params = init_params(SMALL, seed=3)
        direct = per_node(g, 2, params, SMALL)
        monkeypatch.setattr(encoder, "CHUNK_ROWS", 5)
        assert np.array_equal(encode_all(g, 2, params, SMALL), direct)

    def test_blocks_stay_within_twice_chunk_rows(self, monkeypatch):
        # a hub puts 200 nodes into the 2-hop ball of every node near it, far
        # more than the graph's mean degree suggests; the path's balls are small
        edges = [(0, i) for i in range(1, 201)] + [(i, i + 1) for i in range(200, 299)]
        g = LabeledGraph.from_edges(300, edges, [i % 2 for i in range(300)], 2)
        params = init_params(SMALL, seed=7)
        direct = per_node(g, 2, params, SMALL)
        blocks = []
        infer = encoder._infer

        def recording(block, *args):
            blocks.append((len(block.features), len(block.anchors)))
            return infer(block, *args)

        monkeypatch.setattr(encoder, "_infer", recording)
        monkeypatch.setattr(encoder, "CHUNK_ROWS", 64)
        assert np.array_equal(encode_all(g, 2, params, SMALL), direct)
        # only twin representatives are embedded: the hub's 199 leaves form two
        # classes, one per label, so 103 of the 300 nodes are anchors
        assert sum(anchors for _, anchors in blocks) == 103
        assert all(rows <= 2 * 64 or anchors == 1 for rows, anchors in blocks)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 14), seed=st.integers(0, 10_000), k=st.integers(0, 3),
           max_rows=st.integers(1, 60), group=st.sampled_from([1, 3, 128]))
    def test_features_are_degree_and_clustering_inside_each_ball(self, n, seed, k, max_rows,
                                                                 group):
        nx = pytest.importorskip("networkx")
        g = gen_er(n, 0.3, 2, seed=seed)
        indptr, indices = adjacency_csr(g)
        balls = k_hop_balls(indptr, indices, np.arange(n), k)
        assert np.all(np.diff(balls.dst) >= 0)  # grouped by dst in row order
        # bitmaps of any number of anchors cut the same balls, and count the
        # triangles inside them that the block's own edges have
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "BITMAP_ANCHORS", group)
            grouped = k_hop_balls(indptr, indices, np.arange(n), k,
                                  triangles=node_triangles(indptr, indices))
        for field in ("nodes", "anchors", "src", "dst"):
            assert np.array_equal(getattr(grouped, field), getattr(balls, field))
        counted = build_input_features(np.asarray(g.node_labels)[balls.nodes], balls.anchors,
                                       balls.src, balls.dst, SMALL, grouped.triangles)
        # a row cap hands back the balls of a prefix of the anchors, unchanged
        capped = k_hop_balls(indptr, indices, np.arange(n), k, max_rows=max_rows)
        kept = len(capped.anchors)
        assert kept >= 1 and (len(capped.nodes) <= max_rows or kept == 1)
        rows = sum(len(g.bfs_distances(u, max_depth=k)) for u in range(kept))
        edges = np.searchsorted(balls.dst, rows)
        assert np.array_equal(capped.nodes, balls.nodes[:rows])
        assert np.array_equal(capped.anchors, balls.anchors[:kept])
        for got, want in ((capped.src, balls.src), (capped.dst, balls.dst)):
            assert np.array_equal(got, want[:edges])
        feats = build_input_features(
            np.asarray(g.node_labels)[balls.nodes], balls.anchors, balls.src, balls.dst, SMALL)
        assert np.array_equal(counted, feats)
        whole = nx.Graph(g.edges())
        whole.add_nodes_from(range(n))
        first = 0
        for u in range(n):
            ball = sorted(g.bfs_distances(u, max_depth=k))
            rows = np.arange(first, first + len(ball))
            first += len(ball)
            assert balls.nodes[rows].tolist() == ball
            assert balls.nodes[balls.anchors[u]] == u
            inside = whole.subgraph(ball)
            clustering = nx.clustering(inside)
            for r in rows:
                v = int(balls.nodes[r])
                assert feats[r, -2] == inside.degree(v)
                assert feats[r, -1] == clustering[v]
        assert first == len(balls.nodes)

    def test_builds_no_graph_objects(self, monkeypatch):
        # from_edges builds without the constructor's check, so both are watched
        g = gen_er(300, 0.015, 2, seed=12)
        built = []
        check, from_edges = LabeledGraph.__post_init__, LabeledGraph.from_edges
        monkeypatch.setattr(LabeledGraph, "__post_init__",
                            lambda self: built.append(1) or check(self))
        monkeypatch.setattr(LabeledGraph, "from_edges",
                            staticmethod(lambda *a, **k: built.append(1) or from_edges(*a, **k)))
        encode_all(g, 3, init_params(SMALL, seed=0), SMALL)
        assert built == []

    def test_label_outside_alphabet_rejected(self):
        g = LabeledGraph.from_edges(3, [(0, 1), (1, 2)], node_labels=[0, 1, 2],
                                    label_alphabet_size=3)
        with pytest.raises(GraphError, match="node label 2 outside encoder alphabet"):
            encode_all(g, 1, init_params(SMALL, seed=0), SMALL)

    def test_negative_radius_rejected(self):
        g = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="hop count must be nonnegative"):
            encode_all(g, -1, init_params(SMALL, seed=0), SMALL)


class TestTwins:
    """encode_all embeds one node per twin class (same label and neighbors);
    every row must still be what encode() gives for it."""

    @staticmethod
    def hub_with_leaves():
        # hub 0 with leaves 1-30 of both labels, and a path 0-31-32-33-34 so
        # that the balls change up to k = 3
        edges = [(0, i) for i in range(1, 31)] + [(0, 31), (31, 32), (32, 33), (33, 34)]
        return LabeledGraph.from_edges(35, edges, [i % 2 for i in range(35)], 2)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_hub_with_leaves_of_both_labels(self, k, monkeypatch):
        g = self.hub_with_leaves()
        params = init_params(SMALL, seed=8)
        anchors = []
        cut = encoder.k_hop_balls

        def recording(indptr, indices, group, *args, **kwargs):
            balls = cut(indptr, indices, group, *args, **kwargs)
            anchors.extend(group[:len(balls.anchors)].tolist())
            return balls

        monkeypatch.setattr(encoder, "k_hop_balls", recording)
        assert np.array_equal(encode_all(g, k, params, SMALL), per_node(g, k, params, SMALL))
        assert anchors == [0, 1, 2, *range(31, 35)]

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_isolated_nodes(self, k):
        # a triangle, a path and nine isolated nodes of both labels
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]
        g = LabeledGraph.from_edges(15, edges, [i % 3 % 2 for i in range(15)], 2)
        params = init_params(SMALL, seed=9)
        assert np.array_equal(encode_all(g, k, params, SMALL), per_node(g, k, params, SMALL))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_twins_encode_to_the_same_bytes(self, k):
        # the rule encode_all relies on: a node's ball embeds exactly as its
        # representative's does, so one row serves the whole class
        g = self.hub_with_leaves()
        reps = graphs.twin_representatives(g)
        assert reps[3] == 1 and reps[4] == 2
        params = init_params(SMALL, seed=10)
        rows = [encode(k_hop_neighborhood(g, u, k), params, SMALL).tobytes()
                for u in range(g.node_count)]
        for u, r in enumerate(reps.tolist()):
            assert rows[u] == rows[r]
        assert encode_all(g, k, params, SMALL).tobytes() == b"".join(rows)


def k5_blocks_on_a_hub(blocks):
    """blocks copies of K5, one node of each joined to the hub, node 0."""
    edges = []
    for b in range(blocks):
        first = 1 + 5 * b
        edges += [(first + i, first + j) for i in range(5) for j in range(i + 1, 5)]
        edges.append((0, first))
    n = 1 + 5 * blocks
    return LabeledGraph.from_edges(n, edges, [i % 2 for i in range(n)], 2)


LOOSE_GRAPHS = {
    "isolated_nodes": lambda: LabeledGraph.from_edges(20_000, [], [i % 2 for i in range(20_000)], 2),
    "disjoint_edges": lambda: LabeledGraph.from_edges(
        20_000, [(2 * i, 2 * i + 1) for i in range(10_000)], [i % 2 for i in range(20_000)], 2),
    "k5_blocks_on_a_hub": lambda: k5_blocks_on_a_hub(60),
}
# tracemalloc peak of encode_all(g, 3, ..., SMALL), in MB: the sorted-key BFS
# that the reach bitmap replaced peaked at 7.9, 6.7 and 3.3 (numpy 2.4); one
# bitmap over all 4000 anchors of an isolated-node block would need 160
PEAK_MB = {"isolated_nodes": 7.9 * 1.25, "disjoint_edges": 6.7 * 1.25,
           "k5_blocks_on_a_hub": 3.3 * 1.25}


def reference_balls(g, anchors, k):
    """(k_hop_balls' contract, rows per ball), one Python BFS per anchor."""
    nodes, rows, src, dst, sizes = [], [], [], [], []
    for u in anchors:
        ball = sorted(g.bfs_distances(int(u), max_depth=k))
        first = len(nodes)
        row = {v: first + j for j, v in enumerate(ball)}
        rows.append(row[u])
        for v in ball:
            for w in g.adjacency[v]:
                if w in row:
                    src.append(row[w])
                    dst.append(row[v])
        nodes += ball
        sizes.append(len(ball))
    arrays = (np.array(x, dtype=np.intp) for x in (nodes, rows, src, dst))
    return graphs.Balls(*arrays), np.array(sizes)


@pytest.fixture(scope="module")
def loose_graphs():
    return {name: build() for name, build in LOOSE_GRAPHS.items()}


class TestInputsNoWorkloadHas:
    """Graphs far from the workloads': many components with one or two nodes
    each, and small dense blocks around a hub."""

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(LOOSE_GRAPHS))
    def test_blocks_match_encode_and_count_on_their_own_edges(self, loose_graphs, name, k,
                                                               monkeypatch):
        g = loose_graphs[name]
        params = init_params(SMALL, seed=4)
        calls = []
        cut = encoder.k_hop_balls

        def recording(*args, block_ids, **kwargs):
            assert np.all(block_ids == -1)
            balls = cut(*args, block_ids=block_ids, **kwargs)
            assert np.all(block_ids == -1)
            calls.append((balls, block_ids))
            return balls

        monkeypatch.setattr(encoder, "k_hop_balls", recording)
        embs = encode_all(g, k, params, SMALL)
        assert len({id(ids) for _, ids in calls}) == 1  # one array per call
        labels = np.asarray(g.node_labels)
        for balls, _ in calls:
            assert balls.triangles is not None
            args = (labels[balls.nodes], balls.anchors, balls.src, balls.dst, SMALL)
            assert np.array_equal(build_input_features(*args, balls.triangles),
                                  build_input_features(*args))
        sampled = np.random.default_rng(k).choice(g.node_count, size=12, replace=False)
        for u in [0, g.node_count - 1, *sampled]:
            assert np.array_equal(embs[u], encode(k_hop_neighborhood(g, int(u), k), params, SMALL))

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", list(LOOSE_GRAPHS))
    def test_balls_are_bfs_balls_with_and_without_row_caps(self, loose_graphs, name, k):
        g = loose_graphs[name]
        indptr, indices = adjacency_csr(g)
        anchors = np.arange(min(g.node_count, 3000))
        balls = k_hop_balls(indptr, indices, anchors, k)
        want, sizes = reference_balls(g, anchors, k)
        for field in ("nodes", "anchors", "src", "dst"):
            assert np.array_equal(getattr(balls, field), getattr(want, field))
        for max_rows in (1, 7, 500, 5000):
            capped = k_hop_balls(indptr, indices, anchors, k, max_rows=max_rows)
            kept = max(1, np.searchsorted(np.cumsum(sizes), max_rows, side="right"))
            rows = sizes[:kept].sum()
            edges = np.searchsorted(balls.dst, rows)
            assert np.array_equal(capped.nodes, balls.nodes[:rows])
            assert np.array_equal(capped.anchors, balls.anchors[:kept])
            for got, full in ((capped.src, balls.src), (capped.dst, balls.dst)):
                assert np.array_equal(got, full[:edges])

    @pytest.mark.parametrize("name", list(LOOSE_GRAPHS))
    def test_peak_memory_stays_near_the_sorted_key_bfs(self, loose_graphs, name):
        g = loose_graphs[name]
        params = init_params(SMALL, seed=0)
        encode_all(g, 3, params, SMALL)  # one-time costs outside the trace
        tracemalloc.start()
        try:
            encode_all(g, 3, params, SMALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_MB[name] * 1e6


class TestOrderPreservationUnderIdentityAggregation:
    def test_matched_sums_stay_dominated(self):
        # query path 0-1-2 mapped into target triangle+tail by the injection
        # {0->0, 1->1, 2->2}: with identity transforms, nonnegative inputs and
        # sum aggregation, dominance at one layer implies dominance at the next
        query = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        target = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        mapping = {0: 0, 1: 1, 2: 2}
        rng = np.random.default_rng(0)
        hq = rng.uniform(0, 1, size=(3, 6))
        ht = np.zeros((4, 6))
        for q, t in mapping.items():
            ht[t] = hq[q] + rng.uniform(0, 0.5, size=6)  # dominance at layer k-1
        ht[3] = rng.uniform(0, 1, size=6)
        tape = ad.Tape(record=False)
        agg_q = ad.add(
            tape,
            ad.Tensor(hq),
            ad.row_sum_aggregate(tape, ad.Tensor(hq), pairs_of(query.adjacency)),
        ).value
        agg_t = ad.add(
            tape,
            ad.Tensor(ht),
            ad.row_sum_aggregate(tape, ad.Tensor(ht), pairs_of(target.adjacency)),
        ).value
        # matched anchors stay dominated at layer k
        assert np.all(agg_q[0] <= agg_t[0] + 1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(SMALL, seed=5)
        ckpt = Checkpoint(
            config=SMALL, params=params,
            margin=MarginConfig(margin=1.0, threshold=0.3),
            decision_cutoff=0.4, radius=3,
        )
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == SMALL
        assert loaded.margin.threshold == 0.3
        assert loaded.decision_cutoff == 0.4
        assert loaded.radius == 3
        assert all(np.array_equal(loaded.params[k], params[k]) for k in params)
        assert loaded.fingerprint() == ckpt.fingerprint()

    def test_shape_validation(self, tmp_path):
        params = init_params(SMALL, seed=5)
        params["out.w"] = params["out.w"][:, :-1]
        ckpt = Checkpoint(config=SMALL, params=params, margin=MarginConfig())
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["threshold", "param", "decision_cutoff"])
    def test_non_finite_values_rejected(self, field, tmp_path):
        ckpt = Checkpoint(config=SMALL, params=init_params(SMALL, seed=5), margin=MarginConfig())
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        obj = json.loads(path.read_text())
        if field == "threshold":
            obj["margin"]["threshold"] = float("nan")
        elif field == "param":
            obj["params"]["out.w"][0][0] = float("inf")
        else:
            obj["decision_cutoff"] = float("nan")
        path.write_text(json.dumps(obj))  # json writes NaN and Infinity, and reads them back
        with pytest.raises(CheckpointError, match="finite"):
            load_checkpoint(path)

    def test_missing_param_rejected(self, tmp_path):
        params = init_params(SMALL, seed=5)
        del params["layer0.b1"]
        ckpt = Checkpoint(config=SMALL, params=params, margin=MarginConfig())
        path = tmp_path / "model.json"
        save_checkpoint(ckpt, path)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)



DESK = EncoderConfig(layers=4, hidden_dim=32, output_dim=32, label_alphabet_size=1)


def desk_checkpoint() -> Checkpoint:
    return Checkpoint(config=DESK, params=init_params(DESK, seed=0),
                      margin=MarginConfig(threshold=0.5), radius=3)


def fresh_copy(ckpt: Checkpoint) -> Checkpoint:
    return Checkpoint(config=ckpt.config, params={k: v.copy() for k, v in ckpt.params.items()},
                      margin=ckpt.margin, decision_cutoff=ckpt.decision_cutoff,
                      radius=ckpt.radius)


class TestFingerprint:
    def test_digest_is_pinned(self):
        # saved indexes record this digest; a change would orphan them
        assert desk_checkpoint().fingerprint() == (
            "fabdba033099abb8e536a4a6d6b7648478554404975a95b7e7ae8c2994a59840")

    def test_follows_mutation(self):
        ckpt = desk_checkpoint()
        digests = [ckpt.fingerprint()]
        ckpt.decision_cutoff = 0.25  # as the train command sets it after calibration
        digests.append(ckpt.fingerprint())
        assert digests[-1] == fresh_copy(ckpt).fingerprint()
        ckpt.params["layer0.w1"][0, 0] += 1.0  # a write into an array, no new object
        digests.append(ckpt.fingerprint())
        assert digests[-1] == fresh_copy(ckpt).fingerprint()
        ckpt.params["out.b"][:] = -0.0 * ckpt.params["out.b"]
        digests.append(ckpt.fingerprint())
        assert digests[-1] == fresh_copy(ckpt).fingerprint()
        assert len(set(digests)) == len(digests)


TINY = EncoderConfig(layers=1, hidden_dim=2, output_dim=2)


@pytest.fixture(scope="module")
def tiny_doc(tmp_path_factory) -> dict:
    path = tmp_path_factory.mktemp("tiny") / "model.json"
    save_checkpoint(Checkpoint(TINY, init_params(TINY, seed=0), MarginConfig(), radius=2), path)
    return json.loads(path.read_text())


BAD_CHECKPOINTS = {
    "top-level list": lambda doc: "[]",
    "cut short": lambda doc: "{",
    "only format_version": lambda doc: '{"format_version": 1}',
    "format 1 params entry": lambda doc: with_value(doc, ["params", "out.b"],
                                                    {"shape": [2], "values": [0.1, 0.1]}),
    "text decision_cutoff": lambda doc: with_value(doc, ["decision_cutoff"], "0.5"),
    "huge decision_cutoff": lambda doc: with_value(doc, ["decision_cutoff"], 10**400),
    "text radius": lambda doc: with_value(doc, ["radius"], "3"),
    "fractional radius": lambda doc: with_value(doc, ["radius"], 2.5),
    "fractional layers": lambda doc: with_value(doc, ["config", "layers"], 1.5),
    "format 2 edge_label_count": lambda doc: with_value(doc, ["config", "edge_label_count"], 0),
    "unknown config key": lambda doc: with_value(doc, ["config", "depth"], 3),
    "text values": lambda doc: with_value(doc, ["params", "out.b"], ["a", "b"]),
    "ragged values": lambda doc: with_value(doc, ["params", "out.b"], [[0.1], []]),
    "too few values": lambda doc: with_value(doc, ["params", "out.b"], [0.1]),
    "flattened matrix": lambda doc: with_value(doc, ["params", "out.w"],
                                               sum(doc["params"]["out.w"], [])),
    "no margin.threshold": lambda doc: without_key(doc, ["margin", "threshold"]),
    "no decision_cutoff": lambda doc: without_key(doc, ["decision_cutoff"]),
    "no radius": lambda doc: without_key(doc, ["radius"]),
    "no config.layers": lambda doc: without_key(doc, ["config", "layers"]),
}


class TestMalformedCheckpoint:
    def test_unedited_document_loads(self, tiny_doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(with_value(tiny_doc, ["radius"], 3))
        assert load_checkpoint(path).radius == 3

    @pytest.mark.parametrize("name", BAD_CHECKPOINTS)
    def test_raises_checkpoint_error(self, name, tiny_doc, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(BAD_CHECKPOINTS[name](tiny_doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "\n" not in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_only_checkpoint_error(self, tiny_doc, tmp_path_factory,
                                                           data):
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        path.write_text(mutated_json_text(tiny_doc, data, [
            "format_version", "config", "margin", "params", "out.w", "out.b", "layer0.w1",
            "layers", "threshold", "radius", "decision_cutoff"]))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def test_batch_matches_loop_within_float_noise():
    params = init_params(SMALL, seed=0)
    g = gen_er(15, 0.3, 2, seed=21)
    nbhds = [k_hop_neighborhood(g, u, 2) for u in range(6)]
    batch = encode_batch(ad.Tape(record=False), nbhds, _as_tensors(params), SMALL)
    singles = np.stack([encode(nh, params, SMALL) for nh in nbhds])
    assert np.allclose(batch.value, singles, rtol=1e-9, atol=1e-12)
