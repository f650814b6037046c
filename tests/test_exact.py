import numpy as np
import pytest

from submatch.datasets import gen_er
from submatch.exact import (
    MatchBudget,
    MatchOutcome,
    _Search,
    is_subgraph,
    is_subgraph_anchored,
)
from submatch.graphs import AnchoredNeighborhood, GraphError, LabeledGraph
from submatch.smallgraphs import (
    brute_force_anchored,
    brute_force_is_subgraph,
    small_catalog,
)


def anchored(g, u=0):
    return AnchoredNeighborhood(g, u)


class TestAnchored:
    def test_edge_into_triangle(self, triangle):
        edge = LabeledGraph.from_edges(2, [(0, 1)])
        assert is_subgraph_anchored(anchored(edge), anchored(triangle)).is_true

    def test_triangle_not_in_path(self, triangle):
        path5 = LabeledGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert is_subgraph(triangle, path5) is MatchOutcome.FALSE

    def test_four_cycle_in_k4(self, k4):
        c4 = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_subgraph_anchored(anchored(c4), anchored(k4)).is_true

    def test_anchor_must_map_to_anchor(self, star6, path3):
        # path anchored at its center needs a degree-2 image; star leaves fail
        center = AnchoredNeighborhood(path3, 1)
        leaf = AnchoredNeighborhood(star6, 1)
        assert is_subgraph_anchored(center, leaf) is MatchOutcome.FALSE

    def test_label_preservation(self):
        q = LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 1], label_alphabet_size=2)
        t_match = LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 1], label_alphabet_size=2)
        t_clash = LabeledGraph.from_edges(2, [(0, 1)], node_labels=[0, 0], label_alphabet_size=2)
        assert is_subgraph_anchored(anchored(q), anchored(t_match)).is_true
        assert is_subgraph_anchored(anchored(q), anchored(t_clash)) is MatchOutcome.FALSE

    def test_edge_label_preservation(self):
        q = LabeledGraph.from_edges(2, [(0, 1)], edge_labels={(0, 1): 1})
        t = LabeledGraph.from_edges(2, [(0, 1)], edge_labels={(0, 1): 2})
        assert is_subgraph_anchored(anchored(q), anchored(t)) is MatchOutcome.FALSE


class TestUnanchored:
    def test_two_path_in_any_edge(self):
        q = LabeledGraph.from_edges(2, [(0, 1)])
        t = LabeledGraph.from_edges(4, [(2, 3)])
        assert is_subgraph(q, t).is_true

    def test_pigeonhole(self):
        q = LabeledGraph.from_edges(7, [(i, i + 1) for i in range(6)])
        t = LabeledGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        assert is_subgraph(q, t) is MatchOutcome.FALSE

    def test_disconnected_query_rejected(self):
        q = LabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        t = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphError):
            is_subgraph(q, t)
        with pytest.raises(GraphError):  # even where size alone would decide FALSE
            is_subgraph(q, LabeledGraph.from_edges(2, [(0, 1)]))

    def test_er_pairs_agree_with_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            q = gen_er(int(rng.integers(2, 6)), 0.45, 1, seed=int(rng.integers(1 << 30)))
            if not q.is_connected():
                continue
            t = gen_er(8, 0.3, 1, seed=int(rng.integers(1 << 30)))
            got = is_subgraph(q, t)
            assert got.is_decided
            assert got.is_true == brute_force_is_subgraph(q, t)


class _RecursiveSearch(_Search):
    """Slow reference: the search as plain recursion, one frame per query node."""

    def _extend(self, order, depth, mapping, used):
        if depth == len(order):
            return True
        q = order[depth]
        for t in self._candidates(q, mapping):
            self._tick()
            if self._feasible(q, t, mapping, used):
                mapping[q] = t
                used.add(t)
                if self._extend(order, depth + 1, mapping, used):
                    return True
                del mapping[q]
                used.discard(t)
        return False


class TestIterativeSearch:
    def test_long_path_needs_no_recursion(self):
        q = LabeledGraph.from_edges(1500, [(i, i + 1) for i in range(1499)])
        t = LabeledGraph.from_edges(1600, [(i, i + 1) for i in range(1599)])
        assert is_subgraph(q, t) is MatchOutcome.TRUE

    @pytest.mark.parametrize("max_states", [10_000_000, 60], ids=["decided", "tight"])
    def test_states_equal_recursive_reference(self, max_states):
        budget = MatchBudget(max_states=max_states)
        rng = np.random.default_rng(23)
        outcomes = set()
        for trial in range(80):
            q = gen_er(int(rng.integers(3, 9)), 0.4, 2, seed=int(rng.integers(1 << 30)))
            t = gen_er(int(rng.integers(8, 18)), 0.3, 2, seed=int(rng.integers(1 << 30)))
            if not q.is_connected():
                continue
            got, want = _Search(q, t, budget), _RecursiveSearch(q, t, budget)
            runs = [(got.run_unanchored(), want.run_unanchored())]
            u = int(rng.integers(t.node_count))
            got_a, want_a = _Search(q, t, budget), _RecursiveSearch(q, t, budget)
            runs.append((got_a.run_anchored(0, u), want_a.run_anchored(0, u)))
            assert [a for a, _ in runs] == [b for _, b in runs]
            assert (got.states, got_a.states) == (want.states, want_a.states)
            outcomes.update(a for a, _ in runs)
        assert len(outcomes) >= 2


class TestCount:
    def test_small_pairs_match_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            q = gen_er(int(rng.integers(2, 5)), 0.5, 1, seed=int(rng.integers(1 << 30)))
            t = gen_er(6, 0.4, 1, seed=int(rng.integers(1 << 30)))
            if not q.is_connected() or not t.is_connected():
                continue
            qa, ta = anchored(q), anchored(t, 0)
            want = brute_force_anchored(q, qa.anchor, t, ta.anchor)
            assert is_subgraph_anchored(qa, ta).is_true == want


class TestProperties:
    def test_soundness_small_catalog(self):
        queries, targets = small_catalog(4, 5)
        for q in queries:
            for t in targets:
                got = is_subgraph(q, t)
                assert got.is_decided
                assert got.is_true == brute_force_is_subgraph(q, t)

    def test_anchored_implies_unanchored(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            q = gen_er(4, 0.5, 1, seed=int(rng.integers(1 << 30)))
            t = gen_er(7, 0.35, 1, seed=int(rng.integers(1 << 30)))
            if not q.is_connected() or not t.is_connected():
                continue
            for u in range(t.node_count):
                if is_subgraph_anchored(anchored(q), anchored(t, u)).is_true:
                    assert is_subgraph(q, t).is_true
                    break

    def test_label_sensitivity_flips_to_false(self):
        rng = np.random.default_rng(9)
        flips = 0
        for trial in range(30):
            t = gen_er(7, 0.4, 2, seed=int(rng.integers(1 << 30)))
            q = gen_er(3, 0.8, 2, seed=int(rng.integers(1 << 30)))
            if not q.is_connected() or not is_subgraph(q, t).is_true:
                continue
            # move one query node to a label absent from the target
            labels = list(q.node_labels)
            labels[0] = 2
            q_bad = LabeledGraph.from_edges(
                q.node_count, q.edges(), labels, label_alphabet_size=3
            )
            assert is_subgraph(q_bad, t) is MatchOutcome.FALSE
            flips += 1
        assert flips >= 5


class TestBudget:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchBudget(max_states=0, wall_timeout=1.0)

    def test_exhaustion_is_timeout_not_false(self):
        q = gen_er(12, 0.4, 1, seed=3)
        t = gen_er(20, 0.15, 1, seed=4)
        out = is_subgraph(q, t, MatchBudget(max_states=5, wall_timeout=60.0))
        assert out is MatchOutcome.TIMEOUT

    def test_outcome_flags(self):
        assert MatchOutcome.TRUE.is_true and MatchOutcome.TRUE.is_decided
        assert not MatchOutcome.FALSE.is_true and MatchOutcome.FALSE.is_decided
        assert not MatchOutcome.TIMEOUT.is_decided
