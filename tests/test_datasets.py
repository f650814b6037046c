import tracemalloc

import numpy as np
import pytest

from submatch import datasets
from submatch.datasets import gen_er, gen_extended_barabasi
from submatch.graphs import LabeledGraph


def reference_gen_er(n, p, alphabet, seed):
    """gen_er as it was before it drew its coins in blocks: one coin per pair,
    all at once."""
    rng = np.random.default_rng(seed)
    edges = []
    if n > 1 and p > 0.0:
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        edges = [(int(u), int(v)) for u, v in zip(iu[mask], iv[mask])]
    return LabeledGraph.from_edges(
        node_count=n,
        edges=edges,
        node_labels=datasets._random_labels(n, alphabet, rng),
        label_alphabet_size=alphabet,
    )


class TestER:
    def test_p_zero_no_edges(self):
        assert gen_er(10, 0.0, 1, seed=0).edge_count == 0

    def test_p_one_complete(self):
        assert gen_er(10, 1.0, 1, seed=0).edge_count == 45

    def test_mean_edge_count(self):
        # 45 pairs at p=0.3: expect 13.5 within Monte-Carlo noise
        counts = [gen_er(10, 0.3, 1, seed=s).edge_count for s in range(10_000)]
        assert abs(np.mean(counts) - 13.5) < 0.5

    def test_seed_determinism(self):
        a, b = gen_er(20, 0.25, 3, seed=42), gen_er(20, 0.25, 3, seed=42)
        assert a == b

    def test_labels_within_alphabet(self):
        g = gen_er(30, 0.2, 4, seed=1)
        assert all(0 <= lab < 4 for lab in g.node_labels)

    @pytest.mark.parametrize("block", [1, 2, 7, 64, datasets._COINS_PER_CALL])
    def test_equals_one_piece_draw(self, block, monkeypatch):
        # any block size draws the graphs, labels included, that one
        # rng.random call over all pairs drew
        monkeypatch.setattr(datasets, "_COINS_PER_CALL", block)
        for n in [0, 1, 2, 3, 5, 17, 33, 60]:
            for p in (0.0, 0.05, 0.3, 0.7, 1.0):
                for seed in range(3):
                    assert gen_er(n, p, 3, seed) == reference_gen_er(n, p, 3, seed), (n, p, seed)

    def test_memory_is_bounded(self):
        # one coin per pair at once peaks at about 110 MB here (4.5M pairs)
        tracemalloc.start()
        try:
            g = gen_er(3000, 4.0 / 3000, 1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.node_count == 3000 and g.edge_count > 0
        assert peak < 16 * 2**20, peak


def reference_gen_extended_barabasi(n, m=2, p_add=0.2, p_rewire=0.2, alphabet=1, seed=0):
    """gen_extended_barabasi as it was before its picks and rewires were made
    cheaper: candidate lists and weights rebuilt in Python on every pick, and
    a DFS over the whole graph after every rewire."""
    rng = np.random.default_rng(seed)
    seed_size = min(n, m + 1)
    nodes = list(range(seed_size))
    nbrs = [set() for _ in range(seed_size)]
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            nbrs[u].add(v)
            nbrs[v].add(u)

    def pick_preferential(exclude):
        cand = [u for u in nodes if u not in exclude]
        if not cand:
            return None
        weights = np.array([len(nbrs[u]) + 1 for u in cand], dtype=float)
        return cand[int(rng.choice(len(cand), p=weights / weights.sum()))]

    def connected():
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(nodes)

    while len(nodes) < n:
        r = rng.random()
        if r < p_add and len(nodes) > 2:
            for _ in range(m):
                u = int(rng.integers(len(nodes)))
                v = pick_preferential(exclude=nbrs[u] | {u})
                if v is not None:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
        elif r < p_add + p_rewire and len(nodes) > 2:
            for _ in range(m):
                u = int(rng.integers(len(nodes)))
                if not nbrs[u]:
                    continue
                old = sorted(nbrs[u])[int(rng.integers(len(nbrs[u])))]
                new = pick_preferential(exclude=nbrs[u] | {u})
                if new is None:
                    continue
                nbrs[u].discard(old)
                nbrs[old].discard(u)
                nbrs[u].add(new)
                nbrs[new].add(u)
                if not connected():
                    nbrs[u].discard(new)
                    nbrs[new].discard(u)
                    nbrs[u].add(old)
                    nbrs[old].add(u)
        else:
            new_id = len(nodes)
            nodes.append(new_id)
            nbrs.append(set())
            for _ in range(min(m, new_id)):
                v = pick_preferential(exclude=nbrs[new_id] | {new_id})
                if v is not None:
                    nbrs[new_id].add(v)
                    nbrs[v].add(new_id)

    edges = [(u, v) for u in nodes for v in nbrs[u] if u < v]
    return LabeledGraph.from_edges(
        node_count=len(nodes),
        edges=edges,
        node_labels=datasets._random_labels(len(nodes), alphabet, rng),
        label_alphabet_size=alphabet,
    )


class TestExtendedBarabasi:
    @pytest.mark.parametrize("n, alphabet", [(0, 1), (1, 1), (3, 1), (4, 1), (12, 1), (40, 2),
                                             (60, 3)])
    def test_equals_reference_generator(self, n, alphabet):
        for seed in range(200):
            want = reference_gen_extended_barabasi(n, 2, 0.2, 0.2, alphabet, seed)
            assert gen_extended_barabasi(n, alphabet, seed) == want, seed

    def test_seed_clique_only(self):
        g = gen_extended_barabasi(3, 1, 0)
        assert g.edge_count == 3  # complete graph on m+1 nodes

    def test_connectivity_sweep(self):
        for seed in range(1000):
            assert gen_extended_barabasi(25, 1, seed).is_connected()

    def test_right_skewed_degrees(self):
        ratios = []
        for seed in range(1000):
            g = gen_extended_barabasi(200, 1, seed)
            degs = np.array([g.degree(u) for u in range(g.node_count)])
            ratios.append(degs.max() / max(np.median(degs), 1))
        assert np.median(ratios) > 3.0

    def test_seed_determinism(self):
        a = gen_extended_barabasi(40, 1, 9)
        b = gen_extended_barabasi(40, 1, 9)
        assert a == b

