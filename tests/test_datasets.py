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


class TestExtendedBarabasi:
    def test_seed_clique_only(self):
        g = gen_extended_barabasi(3, m=2, seed=0)
        assert g.edge_count == 3  # complete graph on m+1 nodes

    def test_connectivity_sweep(self):
        for seed in range(1000):
            assert gen_extended_barabasi(25, m=2, seed=seed).is_connected()

    def test_right_skewed_degrees(self):
        ratios = []
        for seed in range(1000):
            g = gen_extended_barabasi(200, m=2, seed=seed)
            degs = np.array([g.degree(u) for u in range(g.node_count)])
            ratios.append(degs.max() / max(np.median(degs), 1))
        assert np.median(ratios) > 3.0

    def test_seed_determinism(self):
        a = gen_extended_barabasi(40, m=2, seed=9)
        b = gen_extended_barabasi(40, m=2, seed=9)
        assert a == b

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            gen_extended_barabasi(10, m=2, p_add=0.6, p_rewire=0.5, seed=0)

