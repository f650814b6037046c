import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submatch.encoder import EncoderConfig, build_input_features
from submatch.exact import is_subgraph
from submatch.graphs import (
    AnchoredNeighborhood,
    GraphError,
    LabeledGraph,
    adjacency_csr,
    from_json,
    k_hop_neighborhood,
    to_json,
)


def er_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        seed = draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        edges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.4
        ]
        return LabeledGraph.from_edges(n, edges)

    return build()


class TestInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_edges(2, [(0, 0)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph(2, ((1,), ()), (0, 0), 1)

    def test_unsorted_adjacency_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph(3, ((2, 1), (0, 2), (0, 1)), (0, 0, 0), 1)

    def test_label_out_of_alphabet_rejected(self):
        with pytest.raises(GraphError):
            LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 5], label_alphabet_size=2)

    def test_duplicate_edges_merged(self):
        g = LabeledGraph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1


class TestKHop:
    def test_path_center_one_hop(self, path3):
        nh = k_hop_neighborhood(path3, 1, 1)
        assert nh.graph.node_count == 3
        assert nh.graph.edge_count == 2
        assert nh.anchor == 0  # anchor renumbered to id 0

    def test_zero_hops_single_node(self, triangle):
        nh = k_hop_neighborhood(triangle, 2, 0)
        assert nh.graph.node_count == 1
        assert nh.graph.edge_count == 0

    def test_star_center(self, star6):
        nh = k_hop_neighborhood(star6, 0, 1)
        assert nh.graph.node_count == 6
        assert nh.graph.edge_count == 5

    def test_invalid_node_rejected(self, path3):
        with pytest.raises(GraphError):
            k_hop_neighborhood(path3, 7, 1)

    @settings(max_examples=40, deadline=None)
    @given(er_strategy(), st.integers(0, 3))
    def test_monotone_in_radius(self, g, k):
        a = k_hop_neighborhood(g, 0, k)
        b = k_hop_neighborhood(g, 0, k + 1)
        assert a.graph.node_count <= b.graph.node_count

    @settings(max_examples=30, deadline=None)
    @given(er_strategy())
    def test_deterministic(self, g):
        a = k_hop_neighborhood(g, 0, 2)
        b = k_hop_neighborhood(g, 0, 2)
        assert a.graph == b.graph and a.anchor == b.anchor

    def test_relabeling_gives_isomorphic_neighborhood(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(4, 9))
            edges = [
                (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4
            ]
            g = LabeledGraph.from_edges(n, edges)
            perm = rng.permutation(n)
            remapped = [(int(perm[a]), int(perm[b])) for a, b in g.edges()]
            g2 = LabeledGraph.from_edges(n, remapped)
            u = int(rng.integers(n))
            nh1 = k_hop_neighborhood(g, u, 2).graph
            nh2 = k_hop_neighborhood(g2, int(perm[u]), 2).graph
            assert nh1.node_count == nh2.node_count
            assert nh1.edge_count == nh2.edge_count
            # isomorphic both ways via the exact matcher
            assert is_subgraph(nh1, nh2).is_true
            assert is_subgraph(nh2, nh1).is_true


def structural_features(g: LabeledGraph, u: int) -> tuple[float, float]:
    """(degree, clustering) of node u, as the encoder's feature routine gives them."""
    indptr, indices = adjacency_csr(g)
    dst = np.repeat(np.arange(g.node_count), np.diff(indptr))
    cfg = EncoderConfig(layers=1, hidden_dim=4, output_dim=4,
                        label_alphabet_size=g.label_alphabet_size)
    feats = build_input_features(np.asarray(g.node_labels), np.array([u]), indices, dst, cfg)
    return tuple(feats[u, -2:])


class TestStructuralFeatures:
    def test_triangle(self, triangle):
        assert structural_features(triangle, 0) == (2, 1.0)

    def test_star_center(self, star6):
        assert structural_features(star6, 0) == (5, 0.0)

    def test_k4(self, k4):
        assert structural_features(k4, 1) == (3, 1.0)

    def test_leaf(self, path3):
        assert structural_features(path3, 0) == (1, 0.0)


class TestNeighborhoodType:
    def test_disconnected_rejected(self):
        g = LabeledGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            AnchoredNeighborhood(g, 0, 1)

    def test_radius_too_small_rejected(self, path3):
        with pytest.raises(GraphError):
            AnchoredNeighborhood(path3, 0, 1)  # node 2 is two hops away

    def test_valid(self, path3):
        nh = AnchoredNeighborhood(path3, 1, 1)
        assert nh.node_count == 3


class TestJsonFormat:
    def test_round_trip(self, star6):
        assert from_json(to_json(star6)) == star6

    def test_round_trip_with_labels(self):
        g = LabeledGraph.from_edges(
            3,
            [(0, 1), (1, 2)],
            node_labels=[1, 0, 1],
            label_alphabet_size=3,
            edge_labels={(0, 1): 2},
        )
        assert from_json(to_json(g)) == g

    def test_ids_must_be_contiguous(self):
        bad = json.dumps({"nodes": [{"id": 0}, {"id": 2}], "edges": []})
        with pytest.raises(GraphError):
            from_json(bad)
