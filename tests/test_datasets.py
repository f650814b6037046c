import numpy as np
import pytest

from submatch.datasets import (
    DatasetFormatError,
    gen_er,
    gen_extended_barabasi,
    load_tu_dataset,
)
from submatch.exact import is_subgraph
from submatch.graphs import from_json, to_json


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


TU_A = "1, 2\n2, 3\n1, 3\n4, 5\n"
TU_IND = "1\n1\n1\n2\n2\n"
TU_LABELS = "7\n7\n9\n9\n7\n"


def write_tu(tmp_path, a=TU_A, ind=TU_IND, labels=TU_LABELS, name="DS"):
    (tmp_path / f"{name}_A.txt").write_text(a)
    (tmp_path / f"{name}_graph_indicator.txt").write_text(ind)
    if labels is not None:
        (tmp_path / f"{name}_node_labels.txt").write_text(labels)
    return tmp_path


class TestTULoader:
    def test_two_graph_fixture(self, tmp_path):
        graphs = load_tu_dataset(write_tu(tmp_path))
        assert [g.node_count for g in graphs] == [3, 2]
        assert [g.edge_count for g in graphs] == [3, 1]
        # labels rebased to a contiguous 0-based alphabet
        assert graphs[0].node_labels == (0, 0, 1)
        assert graphs[1].node_labels == (1, 0)
        assert graphs[0].label_alphabet_size == 2

    def test_missing_labels_single_alphabet(self, tmp_path):
        graphs = load_tu_dataset(write_tu(tmp_path, labels=None))
        assert graphs[0].label_alphabet_size == 1
        assert graphs[0].node_labels == (0, 0, 0)

    def test_dangling_node_kept_isolated(self, tmp_path):
        graphs = load_tu_dataset(
            write_tu(tmp_path, a="1, 2\n", ind="1\n1\n1\n", labels=None)
        )
        assert graphs[0].node_count == 3
        assert graphs[0].degree(2) == 0

    def test_duplicate_undirected_edges_merged(self, tmp_path):
        graphs = load_tu_dataset(
            write_tu(tmp_path, a="1, 2\n2, 1\n", ind="1\n1\n", labels=None)
        )
        assert graphs[0].edge_count == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = write_tu(tmp_path, a="1, 2\nbogus\n", ind="1\n1\n", labels=None)
        with pytest.raises(DatasetFormatError, match=":2"):
            load_tu_dataset(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="_A.txt"):
            load_tu_dataset(tmp_path)

    def test_round_trip_preserves_isomorphism(self, tmp_path):
        graphs = load_tu_dataset(write_tu(tmp_path))
        for g in graphs:
            back = from_json(to_json(g))
            assert is_subgraph(back, g).is_true and is_subgraph(g, back).is_true
