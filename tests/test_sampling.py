import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submatch.datasets import gen_er
from submatch.exact import MatchBudget, is_subgraph_anchored
from submatch import sampling
from submatch.graphs import AnchoredNeighborhood, LabeledGraph, _trusted
from submatch.sampling import (
    SamplerConfig,
    mfinder_sample,
    random_bfs_sample,
    random_walk_sample,
    sample_negative_pair,
    sample_positive_pair,
    sample_neighborhood,
)

SAMPLERS = {
    "random_bfs": random_bfs_sample,
    "random_walk_restart": random_walk_sample,
    "mfinder_degree_weighted": mfinder_sample,
}


@pytest.fixture
def er20():
    return gen_er(20, 0.2, 1, seed=7)


class TestConfig:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            SamplerConfig(edge_keep_probability=0.0)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            SamplerConfig(max_nodes=0)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            SamplerConfig(strategy="dfs")


@pytest.mark.parametrize("name", sorted(SAMPLERS))
class TestAllSamplers:
    def test_keeps_whole_path_when_forced(self, name, path3):
        # mfinder draws its size from 1 to max_nodes, so only a draw of 3
        # forces it; the other two samplers are forced at every seed
        cfg = SamplerConfig(strategy=name, edge_keep_probability=1.0, max_nodes=3)
        forced = 0
        for seed in range(20):
            size = np.random.default_rng(seed).integers(1, 4)  # mfinder's first draw
            if name == "mfinder_degree_weighted" and size < 3:
                continue
            nh = SAMPLERS[name](path3, 0, cfg, np.random.default_rng(seed))
            assert nh.node_count == 3
            forced += 1
        assert forced > 0

    def test_max_nodes_one(self, name, er20):
        cfg = SamplerConfig(strategy=name, max_nodes=1)
        nh = SAMPLERS[name](er20, 4, cfg, np.random.default_rng(0))
        assert nh.node_count == 1
        assert nh.anchor == 0

    def test_seed_determinism(self, name, er20):
        cfg = SamplerConfig(strategy=name, max_nodes=8)
        a = SAMPLERS[name](er20, 2, cfg, np.random.default_rng(42))
        b = SAMPLERS[name](er20, 2, cfg, np.random.default_rng(42))
        assert a == b

    def test_output_is_connected_anchored_subgraph(self, name, er20):
        cfg = SamplerConfig(strategy=name, max_nodes=9)
        rng = np.random.default_rng(1)
        for _ in range(25):
            u = int(rng.integers(er20.node_count))
            nh = SAMPLERS[name](er20, u, cfg, rng)
            assert nh.graph.is_connected()
            assert nh.node_count <= cfg.max_nodes
            # anchored subgraph of the source graph by construction
            from submatch.graphs import k_hop_neighborhood

            whole = k_hop_neighborhood(er20, u, er20.node_count)
            assert is_subgraph_anchored(nh, whole).is_true


def reference_as_neighborhood(g, u, selected):
    """The samplers' renumbering as it was before the sampler was made cheaper."""
    left = set(selected) - {u}
    order, frontier = [u], [u]
    while frontier:
        reached = []
        for a in frontier:
            for b in g.adjacency[a]:
                if b in left:
                    left.remove(b)
                    reached.append(b)
        frontier = sorted(reached)
        order += frontier
    # connected by construction
    return _trusted(AnchoredNeighborhood, graph=g.induced_on(order), anchor=0)


def reference_random_bfs_sample(g, u, cfg, rng):
    """sampling.random_bfs_sample as it was before the sampler was made cheaper."""
    selected = {u}
    queue = [u]
    while queue and len(selected) < cfg.max_nodes:
        node = queue.pop(0)
        nbrs = [v for v in g.adjacency[node] if v not in selected]
        for i in rng.permutation(len(nbrs)):
            v = nbrs[int(i)]
            if v in selected:
                continue
            if rng.random() < cfg.edge_keep_probability:
                selected.add(v)
                queue.append(v)
                if len(selected) >= cfg.max_nodes:
                    break
    return reference_as_neighborhood(g, u, sorted(selected))


@st.composite
def sampler_graphs(draw):
    """Random graphs with hubs, leaves and isolated nodes."""
    core = draw(st.integers(1, 16))
    pairs = [(a, b) for a in range(core) for b in range(a + 1, core)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * core))
                if pairs else [])
    for hub in draw(st.lists(st.integers(0, core - 1), unique=True, max_size=2)):
        spokes = draw(st.lists(st.integers(0, core - 1), max_size=core))
        edges |= {(min(hub, v), max(hub, v)) for v in spokes if v != hub}
    leaves = draw(st.lists(st.integers(0, core - 1), max_size=5))
    edges |= {(v, core + i) for i, v in enumerate(leaves)}
    n = core + len(leaves) + draw(st.integers(0, 3))  # the rest are isolated
    alphabet = draw(st.integers(1, 3))
    labels = draw(st.lists(st.integers(0, alphabet - 1), min_size=n, max_size=n))
    return LabeledGraph.from_edges(n, sorted(edges), labels, alphabet)


class TestDrawsKept:
    """The samplers draw what the reference implementations draw: the same
    neighborhood, and the rng left in the same state."""

    @settings(max_examples=150, deadline=None)
    @given(sampler_graphs(), st.data())
    def test_same_neighborhoods_and_rng_states(self, g, data):
        for _ in range(4):
            u = data.draw(st.integers(0, g.node_count - 1))
            cfg = SamplerConfig(
                max_nodes=data.draw(st.integers(1, 15)),
                edge_keep_probability=data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0])),
            )
            seed = data.draw(st.integers(0, 2**32))
            for name, sampler in SAMPLERS.items():
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                nh = sampler(g, u, cfg, rng)
                if name == "random_bfs":
                    ref = reference_random_bfs_sample(g, u, cfg, ref_rng)
                else:  # the walk and mfinder draws are unchanged; their renumbering is not
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(sampling, "bfs_neighborhood",
                                   lambda g, u, within: reference_as_neighborhood(g, u, within))
                        ref = sampler(g, u, cfg, ref_rng)
                assert nh.graph == ref.graph and nh.anchor == ref.anchor == 0, name
                assert rng.bit_generator.state == ref_rng.bit_generator.state, name

    def test_permutation_of_fewer_than_two_items_draws_nothing(self):
        for n in (0, 1):
            rng = np.random.default_rng(n)
            state = rng.bit_generator.state
            rng.permutation(n)
            assert rng.bit_generator.state == state

    def test_shuffle_in_place_equals_permutation_indexing(self):
        # random_bfs_sample shuffles its neighbor list in place
        for seed in range(200):
            for k in range(17):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                items = [3 * i + 1 for i in range(k)]
                want = [items[i] for i in ref_rng.permutation(k).tolist()]
                rng.shuffle(items)
                assert items == want, (seed, k)
                assert rng.bit_generator.state == ref_rng.bit_generator.state, (seed, k)


class TestMFinderWeighting:
    # leaves carry distinct labels so the sampled 2-node neighborhood reveals
    # which frontier node was drawn

    def test_star_leaves_uniform(self):
        star = LabeledGraph.from_edges(
            6, [(0, i) for i in range(1, 6)], node_labels=[0, 1, 2, 3, 4, 5],
            label_alphabet_size=6,
        )
        cfg = SamplerConfig(strategy="mfinder_degree_weighted", max_nodes=2)
        rng = np.random.default_rng(0)
        counts = np.zeros(6)
        for _ in range(100_000):
            nh = mfinder_sample(star, 0, cfg, rng)
            if nh.node_count == 2:  # a draw of size 1 picks no frontier node
                counts[nh.graph.node_labels[1]] += 1
        freqs = counts[1:] / counts.sum()
        # all frontier degrees equal 1, so degree weighting means uniform
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_degree_proportional_on_broom(self):
        # hub 0 joins leaf 1 (degree 1) and path node 2 (degree 2 via 2-3)
        broom = LabeledGraph.from_edges(
            4, [(0, 1), (0, 2), (2, 3)], node_labels=[0, 1, 2, 3],
            label_alphabet_size=4,
        )
        cfg = SamplerConfig(strategy="mfinder_degree_weighted", max_nodes=2)
        rng = np.random.default_rng(3)
        picks = {1: 0, 2: 0}
        for _ in range(30_000):
            nh = mfinder_sample(broom, 0, cfg, rng)
            if nh.node_count == 2:  # a draw of size 1 picks no frontier node
                picks[nh.graph.node_labels[1]] += 1
        trials = sum(picks.values())
        # frontier degrees are 1 and 2, so expect a 1:2 split
        assert abs(picks[1] / trials - 1 / 3) < 0.02
        assert abs(picks[2] / trials - 2 / 3) < 0.02


class TestPairs:
    def test_positive_pairs_pass_oracle(self, er20):
        cfg = SamplerConfig(max_nodes=8)
        rng = np.random.default_rng(0)
        budget = MatchBudget(max_states=100_000, wall_timeout=5.0)
        for _ in range(200):
            pair = sample_positive_pair(er20, 2, cfg, rng)
            assert pair.label is True and pair.kind is None
            assert is_subgraph_anchored(pair.query, pair.target, budget).is_true

    def test_query_may_equal_target(self):
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        cfg = SamplerConfig(edge_keep_probability=1.0, max_nodes=2)
        pair = sample_positive_pair(edge, 1, cfg, np.random.default_rng(0))
        assert pair.label is True
        assert pair.query.node_count == pair.target.node_count == 2

    def test_single_edge_graph(self):
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        cfg = SamplerConfig(max_nodes=4)
        pair = sample_positive_pair(edge, 1, cfg, np.random.default_rng(5))
        assert pair.query.node_count in (1, 2)
        assert pair.label is True

    @pytest.mark.parametrize("kind", ["random", "hard"])
    def test_negative_pairs_fail_oracle(self, er20, kind):
        cfg = SamplerConfig(max_nodes=8)
        rng = np.random.default_rng(1)
        budget = MatchBudget(max_states=100_000, wall_timeout=5.0)
        produced = 0
        for _ in range(100):
            pair = sample_negative_pair(er20, 2, kind, cfg, rng)
            if pair is None:
                continue
            produced += 1
            assert pair.label is False and pair.kind == kind
            out = is_subgraph_anchored(pair.query, pair.target, budget)
            assert not out.is_true
        assert produced >= 90

    def test_cross_alphabet_always_negative(self):
        a = gen_er(10, 0.3, 1, seed=1)
        # same topology domain but disjoint labels
        b_raw = gen_er(10, 0.3, 1, seed=2)
        b = LabeledGraph.from_edges(
            10, b_raw.edges(), node_labels=[1] * 10, label_alphabet_size=2
        )
        a = LabeledGraph.from_edges(
            10, a.edges(), node_labels=[0] * 10, label_alphabet_size=2
        )
        cfg = SamplerConfig(max_nodes=5)
        rng = np.random.default_rng(3)
        for _ in range(20):
            pair = sample_negative_pair(a, 2, "random", cfg, rng, query_source=b)
            assert pair is not None and pair.label is False

    def test_hard_negative_falls_back_on_saturated_query(self):
        # complete triangle with two labels: no chord to add, rewiring
        # disconnects, so the label swap is the only escape
        tri = LabeledGraph.from_edges(
            3, [(0, 1), (1, 2), (0, 2)], node_labels=[0, 0, 1], label_alphabet_size=2
        )
        cfg = SamplerConfig(edge_keep_probability=1.0, max_nodes=3)
        rng = np.random.default_rng(0)
        pair = sample_negative_pair(tri, 1, "hard", cfg, rng)
        assert pair is not None
        assert pair.label is False

    def test_hard_negative_certifies_only_perturbed_queries(self, er20, monkeypatch):
        # the oracle never sees a drawn positive's own query, and the pairs
        # and the rng stream are those of a draw that certifies each positive
        draw_positive = sampling._draw_positive

        def draw(certify_positive: bool):
            positives, checked = [], []

            def oracle(query, target, budget):
                checked.append(query)
                return is_subgraph_anchored(query, target, budget)

            def positive(*args):
                pair = draw_positive(*args)
                positives.append(pair.query)
                if certify_positive:
                    oracle(pair.query, pair.target, sampling._VERIFY_BUDGET)
                return pair

            monkeypatch.setattr(sampling, "is_subgraph_anchored", oracle)
            monkeypatch.setattr(sampling, "_draw_positive", positive)
            rng = np.random.default_rng(11)
            pairs = [sample_negative_pair(er20, 2, "hard", SamplerConfig(max_nodes=8), rng)
                     for _ in range(40)]
            monkeypatch.undo()
            unperturbed = sum(any(q is p for p in positives) for q in checked)
            return pairs, rng.integers(2**62), unperturbed

        pairs, state, unperturbed = draw(certify_positive=False)
        ref_pairs, ref_state, ref_unperturbed = draw(certify_positive=True)
        assert unperturbed == 0 and ref_unperturbed > 0
        assert pairs == ref_pairs and state == ref_state

    def test_retry_exhaustion_reports_none(self):
        # unlabeled 2-node graph: the lone feasible perturbation keeps the
        # query inside the target, so every retry fails
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        cfg = SamplerConfig(edge_keep_probability=1.0, max_nodes=2)
        rng = np.random.default_rng(0)
        assert sample_negative_pair(edge, 1, "hard", cfg, rng) is None

    def test_sample_neighborhood_dispatch(self, er20):
        for name in SAMPLERS:
            cfg = SamplerConfig(strategy=name, max_nodes=6)
            nh = sample_neighborhood(er20, 0, cfg, np.random.default_rng(0))
            assert nh.graph.is_connected()
            assert nh == SAMPLERS[name](er20, 0, cfg, np.random.default_rng(0))  # one draw
