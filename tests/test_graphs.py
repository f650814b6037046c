import json
import time
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_json_text
from submatch.encoder import EncoderConfig, build_input_features
from submatch.exact import MatchBudget, _Search, is_subgraph
from submatch.graphs import (
    AnchoredNeighborhood,
    GraphError,
    LabeledGraph,
    adjacency_csr,
    from_json,
    k_hop_neighborhood,
    node_triangles,
    to_json,
    triangle_counts,
    triangle_list,
    twin_representatives,
)
from submatch.sampling import (
    SampleMemo,
    SamplerConfig,
    _sample_anchored,
    mfinder_sample,
    random_bfs_sample,
    random_walk_sample,
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


def _document(n, edges, labels=None, alphabet=None) -> str:
    nodes = [{"id": i} if labels is None else {"id": i, "label": labels[i]} for i in range(n)]
    obj = {"nodes": nodes, "edges": [{"u": u, "v": v} for u, v in edges]}
    if alphabet is not None:
        obj["label_alphabet_size"] = alphabet
    return json.dumps(obj)


# (case, path, how that path builds it); a path that cannot express a case
# (the JSON format has no node count of its own, and from_edges makes its
# own tuples) has no row for it
REJECTED = [
    ("negative node count", "from_edges", lambda: LabeledGraph.from_edges(-1, [])),
    ("negative node count", "constructor", lambda: LabeledGraph(-1, (), (), 1)),
    ("label count != node count", "from_edges", lambda: LabeledGraph.from_edges(2, [], [0], 1)),
    ("label count != node count", "constructor",
     lambda: LabeledGraph(2, ((), ()), (0, 0, 0), 1)),
    ("label outside alphabet", "from_edges",
     lambda: LabeledGraph.from_edges(2, [(0, 1)], [0, 5], 2)),
    ("label outside alphabet", "constructor", lambda: LabeledGraph(2, ((1,), (0,)), (0, 2), 2)),
    ("label outside alphabet", "from_json", lambda: from_json(_document(2, [], [0, 5], 2))),
    ("zero alphabet", "from_edges", lambda: LabeledGraph.from_edges(0, [], [], 0)),
    ("zero alphabet", "constructor", lambda: LabeledGraph(0, (), (), 0)),
    ("zero alphabet", "from_json", lambda: from_json(_document(0, [], [], 0))),
    ("negative alphabet", "from_edges", lambda: LabeledGraph.from_edges(0, [], [], -1)),
    ("negative alphabet", "constructor", lambda: LabeledGraph(0, (), (), -1)),
    ("negative alphabet", "from_json", lambda: from_json(_document(0, [], [], -1))),
    ("negative label", "from_edges", lambda: LabeledGraph.from_edges(2, [], [0, -1])),
    ("negative label", "constructor", lambda: LabeledGraph(2, ((), ()), (-1, 0), 2)),
    ("negative label", "from_json", lambda: from_json(_document(2, [], [0, -1]))),
    ("endpoint out of range", "from_edges", lambda: LabeledGraph.from_edges(3, [(0, 3)])),
    ("endpoint out of range", "constructor", lambda: LabeledGraph(2, ((2,), ()), (0, 0), 1)),
    ("endpoint out of range", "from_json", lambda: from_json(_document(3, [(3, 0)]))),
    ("negative endpoint", "from_edges", lambda: LabeledGraph.from_edges(3, [(0, -1)])),
    ("negative endpoint", "constructor",
     lambda: LabeledGraph(3, ((-1,), (), (0,)), (0, 0, 0), 1)),
    ("negative endpoint", "from_json", lambda: from_json(_document(3, [(-1, 2)]))),
    ("self-loop", "from_edges", lambda: LabeledGraph.from_edges(2, [(1, 1)])),
    ("self-loop", "constructor", lambda: LabeledGraph(2, ((0, 1), (0,)), (0, 0), 1)),
    ("self-loop", "from_json", lambda: from_json(_document(2, [(0, 1), (1, 1)]))),
    ("repeated neighbor in a sorted tuple", "constructor",
     lambda: LabeledGraph(2, ((1, 1), (0,)), (0, 0), 1)),
    ("unsorted tuple", "constructor",
     lambda: LabeledGraph(3, ((2, 1), (0, 2), (0, 1)), (0, 0, 0), 1)),
    ("asymmetric adjacency", "constructor", lambda: LabeledGraph(2, ((1,), ()), (0, 0), 1)),
    ("asymmetric adjacency", "constructor",
     lambda: LabeledGraph(3, ((1, 2), (0,), (1,)), (0, 0, 0), 1)),
]


class TestInvariants:
    @pytest.mark.parametrize("case,path,build", REJECTED,
                             ids=[f"{case}-{path}" for case, path, _ in REJECTED])
    def test_rejected(self, case, path, build):
        with pytest.raises(GraphError):
            build()

    def test_a_valid_graph_passes_every_path(self):
        g = LabeledGraph.from_edges(3, [(1, 0), (2, 1)], [1, 0, 1], 3)
        assert LabeledGraph(g.node_count, g.adjacency, g.node_labels, g.label_alphabet_size) == g
        assert from_json(_document(3, [(0, 1), (1, 2)], [1, 0, 1], 3)) == g

    def test_duplicate_edges_merged(self):
        g = LabeledGraph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_large_star_builds_in_linear_time(self):
        # a symmetry check that scans a neighbor's whole tuple per edge is
        # quadratic in the hub's degree: about 12 s per path at this size
        leaves = 50_000
        want = (leaves + 1, (tuple(range(1, leaves + 1)),) + ((0,),) * leaves,
                (0,) * (leaves + 1), 1)
        text = _document(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        builds = {
            "from_edges": lambda: LabeledGraph.from_edges(
                leaves + 1, [(v, 0) for v in range(leaves, 0, -1)]),
            "constructor": lambda: LabeledGraph(*want),
            "from_json": lambda: from_json(text),
        }
        for path, build in builds.items():
            start = time.perf_counter()
            g = build()
            elapsed = time.perf_counter() - start
            assert elapsed < 2.0, (path, elapsed)
            assert (g.node_count, g.adjacency, g.node_labels, g.label_alphabet_size) == want


@st.composite
def labeled_graphs(draw, max_n=10):
    """Graphs with node labels."""
    n = draw(st.integers(1, max_n))
    alphabet = draw(st.integers(1, 3))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    labels = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    return LabeledGraph.from_edges(n, edges, labels, alphabet)


def reference_induced_on(g: LabeledGraph, nodes: list[int]) -> LabeledGraph:
    """The edge list -> from_edges rebuild that induced_on replaced."""
    index = {old: new for new, old in enumerate(nodes)}
    edges = [(index[old_u], index[old_v]) for old_u in nodes for old_v in g.adjacency[old_u]
             if old_v in index and old_u < old_v]
    return LabeledGraph.from_edges(
        len(nodes), edges, [g.node_labels[u] for u in nodes], g.label_alphabet_size
    )


def revalidated_graph(g: LabeledGraph) -> LabeledGraph:
    return LabeledGraph(g.node_count, g.adjacency, g.node_labels, g.label_alphabet_size)


def revalidated(nh: AnchoredNeighborhood) -> AnchoredNeighborhood:
    return AnchoredNeighborhood(revalidated_graph(nh.graph), nh.anchor)


SAMPLERS = (random_bfs_sample, random_walk_sample, mfinder_sample)


class TestDerivedGraphs:
    """Induced subgraphs and sampled neighborhoods are built without being
    validated again; they must equal what the validating path builds."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_from_edges_passes_the_validating_constructor(self, data):
        # repeated edges in both orientations, in any order
        n = data.draw(st.integers(0, 10))
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        edges = data.draw(st.lists(st.sampled_from(pairs), max_size=4 * n)) if pairs else []
        labels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        g = LabeledGraph.from_edges(n, edges, labels)
        assert revalidated_graph(g) == g
        assert g.edges() == sorted({(min(e), max(e)) for e in edges})

    @settings(max_examples=100, deadline=None)
    @given(labeled_graphs())
    def test_non_edges_are_the_missing_pairs_in_row_major_order(self, g):
        # the hard negatives and the chord-perturbed bench queries index this list
        edges = set(g.edges())
        assert g.non_edges() == [p for p in combinations(range(g.node_count), 2)
                                 if p not in edges]

    @settings(max_examples=200, deadline=None)
    @given(labeled_graphs(), st.data())
    def test_induced_on_matches_from_edges_rebuild(self, g, data):
        order = data.draw(st.permutations(range(g.node_count)))
        nodes = order[:data.draw(st.integers(0, g.node_count))]
        sub = g.induced_on(nodes)
        assert sub == reference_induced_on(g, nodes)
        assert revalidated_graph(sub) == sub

    @settings(max_examples=60, deadline=None)
    @given(labeled_graphs(), st.integers(0, 3), st.integers(0, 10_000))
    def test_outputs_pass_validating_constructors(self, g, k, seed):
        u = seed % g.node_count
        cfg = SamplerConfig(max_nodes=6)
        rng = np.random.default_rng(seed)
        made = [k_hop_neighborhood(g, u, k), _sample_anchored(g, k, cfg, rng, u, SampleMemo())]
        made += [sampler(g, u, cfg, rng) for sampler in SAMPLERS]
        for nh in made:
            assert revalidated(nh) == nh

    @settings(max_examples=40, deadline=None)
    @given(labeled_graphs(), st.integers(0, 3), st.integers(0, 10_000))
    def test_seeded_samples_match_reference_path(self, g, k, seed):
        def run():
            rng = np.random.default_rng(seed)
            cfg = SamplerConfig(max_nodes=7)
            u = seed % g.node_count
            out = [k_hop_neighborhood(g, u, k), _sample_anchored(g, k, cfg, rng, u, SampleMemo())]
            return out + [sampler(g, u, cfg, rng) for sampler in SAMPLERS]

        fast = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LabeledGraph, "induced_on", reference_induced_on)
            reference = run()
        assert fast == reference  # graph equality compares adjacency tuples

    @pytest.mark.parametrize("nodes", [[-1], [0, 1, 1], [5]])
    def test_induced_on_rejects_bad_node_ids(self, path3, nodes):
        with pytest.raises(GraphError):
            path3.induced_on(nodes)


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


def reference_bfs_distances(g, source, max_depth=None, within=None):
    """A queue BFS, as bfs_distances was before it walked by levels, that
    steps only onto nodes of within when it is given."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if max_depth is not None and dist[u] >= max_depth:
            continue
        for v in g.adjacency[u]:
            if v not in dist and (within is None or v in within):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def sorted_order(g, source, max_depth=None, within=None):
    """The canonical order derived the way it was before bfs_distances gave
    it: a queue BFS's nodes sorted by (distance, id)."""
    dist = reference_bfs_distances(g, source, max_depth, within)
    return sorted(dist, key=lambda n: (dist[n], n))


class TestCanonicalOrder:
    """bfs_distances lists its nodes in (distance, id) order, and every
    order read from it is the one the sort-based derivation gave."""

    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs(max_n=14), st.data())
    def test_bfs_distances_are_a_bfs_in_distance_then_id_order(self, g, data):
        source = data.draw(st.integers(0, g.node_count - 1))
        max_depth = data.draw(st.none() | st.integers(0, 4))
        within = data.draw(st.none() | st.sets(st.integers(0, g.node_count - 1)))
        dist = g.bfs_distances(source, max_depth, within)
        assert dist == reference_bfs_distances(g, source, max_depth, within)
        assert list(dist) == sorted(dist, key=lambda n: (dist[n], n))

    @settings(max_examples=150, deadline=None)
    @given(labeled_graphs(max_n=14), st.data())
    def test_matcher_and_k_hop_orders_equal_the_sorted_ones(self, g, data):
        u = data.draw(st.integers(0, g.node_count - 1))
        k = data.draw(st.integers(0, 4))
        nh = k_hop_neighborhood(g, u, k)
        assert (nh.graph, nh.anchor) == (reference_induced_on(g, sorted_order(g, u, k)), 0)
        if g.is_connected():
            assert _Search(g, g, MatchBudget())._order_from(u) == sorted_order(g, u)


class TestStructuralFeatures:
    def test_triangle(self, triangle):
        assert structural_features(triangle, 0) == (2, 1.0)

    def test_star_center(self, star6):
        assert structural_features(star6, 0) == (5, 0.0)

    def test_k4(self, k4):
        assert structural_features(k4, 1) == (3, 1.0)

    def test_leaf(self, path3):
        assert structural_features(path3, 0) == (1, 0.0)


class TestTriangles:
    @settings(max_examples=60, deadline=None)
    @given(g=er_strategy(max_n=12))
    def test_listed_once_and_grouped_by_corner(self, g):
        n = g.node_count
        want = [t for t in combinations(range(n), 3)
                if all(g.has_edge(a, b) for a, b in combinations(t, 2))]
        indptr, indices = adjacency_csr(g)
        degree = np.diff(indptr)
        dst = np.repeat(np.arange(n), degree)
        listed = sorted(tuple(sorted(t)) for t in zip(*(x.tolist() for x in
                                                         triangle_list(indices, dst, degree))))
        assert listed == want
        by_node = node_triangles(indptr, indices)
        for u in range(n):
            others = by_node.others[by_node.indptr[u]:by_node.indptr[u + 1]].tolist()
            assert sorted(tuple(sorted((u, a, c))) for a, c in others) == [t for t in want if u in t]
        assert np.array_equal(triangle_counts(indices, dst, degree), np.diff(by_node.indptr))


class TestTwins:
    @staticmethod
    def reference(g: LabeledGraph) -> list[int]:
        """Lowest node with the same label and neighbors, by comparing every
        pair."""
        def key(u):
            return g.node_labels[u], g.adjacency[u]
        return [next(v for v in range(u + 1) if key(v) == key(u)) for u in range(g.node_count)]

    @settings(max_examples=150, deadline=None)
    @given(g=labeled_graphs(max_n=9), fill=st.integers(0, 3))
    def test_groups_equal_label_and_neighbors(self, g, fill):
        # pad with leaves on node 0, so that most draws hold twins
        n = g.node_count
        g = LabeledGraph.from_edges(n + fill, g.edges() + [(0, n + i) for i in range(fill)],
                                    list(g.node_labels) + [i % 2 for i in range(fill)],
                                    max(g.label_alphabet_size, 2))
        reps = twin_representatives(g)
        assert reps.tolist() == self.reference(g)
        for u, r in enumerate(reps.tolist()):
            # twins are never adjacent, and swapping them is an automorphism
            swap = list(range(g.node_count))
            swap[u], swap[r] = r, u
            assert not g.has_edge(u, r)
            for a, b in g.edges():
                assert g.has_edge(swap[a], swap[b])

    def test_leaves_of_a_hub_are_twins(self):
        star = LabeledGraph.from_edges(7, [(0, i) for i in range(1, 7)], [0] * 7, 1)
        assert twin_representatives(star).tolist() == [0, 1, 1, 1, 1, 1, 1]

    def test_isolated_nodes_form_one_class_per_label(self):
        g = LabeledGraph.from_edges(6, [(4, 5)], [0, 1, 0, 1, 0, 0], 2)
        assert twin_representatives(g).tolist() == [0, 1, 0, 1, 4, 5]
        assert twin_representatives(LabeledGraph.from_edges(0, [])).tolist() == []


class TestNeighborhoodType:
    def test_disconnected_rejected(self):
        g = LabeledGraph.from_edges(3, [(0, 1)])
        with pytest.raises(GraphError):
            AnchoredNeighborhood(g, 0)

    @pytest.mark.parametrize("anchor", [-1, 3])
    def test_bad_anchor_rejected(self, path3, anchor):
        with pytest.raises(GraphError):
            AnchoredNeighborhood(path3, anchor)

    def test_valid(self, path3):
        nh = AnchoredNeighborhood(path3, 2)  # node 0 is two hops away
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
        )
        assert from_json(to_json(g)) == g

    def test_edge_label_rejected(self):
        # the exact matcher would ignore it, and so answer another question
        text = json.dumps({"nodes": [{"id": 0}, {"id": 1}],
                           "edges": [{"u": 0, "v": 1, "label": 2}]})
        with pytest.raises(GraphError, match="label"):
            from_json(text)

    def test_ids_must_be_contiguous(self):
        bad = json.dumps({"nodes": [{"id": 0}, {"id": 2}], "edges": []})
        with pytest.raises(GraphError):
            from_json(bad)

    @pytest.mark.parametrize("text", [
        '{"nodes": 5, "edges": []}',
        '[{"id": 0}]',
        '{"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]}',
        '{"nodes": [{"id": 0}]}',
        'nodes: 0',
        '{"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1.5}]}',
        '{"nodes": [{"id": 0, "label": "a"}], "edges": []}',
        '{"nodes": [{"id": true}], "edges": []}',
    ])
    def test_malformed_documents_raise_graph_error(self, text):
        with pytest.raises(GraphError):
            from_json(text)

    @settings(max_examples=300, deadline=None)
    @given(labeled_graphs(max_n=5), st.data())
    def test_mutated_documents_raise_only_graph_error(self, g, data):
        text = mutated_json_text(json.loads(to_json(g)), data,
                                 ["id", "label", "u", "v", "nodes", "edges"])
        try:
            from_json(text)
        except GraphError:
            pass
