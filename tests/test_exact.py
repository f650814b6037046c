import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from submatch.datasets import gen_er
from submatch.exact import (
    MatchBudget,
    MatchOutcome,
    _ruled_out_by_degrees,
    _Search,
    is_subgraph,
    is_subgraph_anchored,
)
from submatch.graphs import AnchoredNeighborhood, GraphError, LabeledGraph
from submatch.selftest import oracle_equivalence_suite
from submatch.smallgraphs import (
    all_graphs_upto_iso,
    brute_force_anchored,
    brute_force_is_subgraph,
    connected_graphs_upto_iso,
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


class _Exhausted(Exception):
    pass


class _RecursiveReference:
    """Slow reference: the search as plain recursion, one frame per query node.

    Query nodes go in BFS order (ties by id) from the anchor, or from a
    max-degree node (lowest id) when unanchored. A node's candidates are the
    target neighbors of its first mapped query neighbor in adjacency order,
    or every target node for the root. One state per candidate tried. An
    anchored run first applies the counting checks, which settle some FALSE
    answers at no state.
    """

    def __init__(self, query, target, max_states):
        self.query, self.target, self.max_states = query, target, max_states
        self.states = 0

    def _tick(self):
        self.states += 1
        if self.states > self.max_states:
            raise _Exhausted

    def _order_from(self, root):
        dist = self.query.bfs_distances(root)
        return sorted(dist, key=lambda n: (dist[n], n))

    def _candidates(self, q, mapping):
        for qn in self.query.adjacency[q]:
            if qn in mapping:
                return self.target.adjacency[mapping[qn]]
        return range(self.target.node_count)

    def _feasible(self, q, t, mapping):
        if t in mapping.values():
            return False
        if self.query.node_labels[q] != self.target.node_labels[t]:
            return False
        if self.target.degree(t) < self.query.degree(q):
            return False
        return all(self.target.has_edge(t, mapping[qn])
                   for qn in self.query.adjacency[q] if qn in mapping)

    def _extend(self, order, depth, mapping):
        if depth == len(order):
            return True
        q = order[depth]
        for t in self._candidates(q, mapping):
            self._tick()
            if self._feasible(q, t, mapping):
                mapping[q] = t
                if self._extend(order, depth + 1, mapping):
                    return True
                del mapping[q]
        return False

    def _decide(self, order, roots):
        try:
            for t in roots:
                self._tick()
                if self._feasible(order[0], t, {}) and self._extend(order, 1, {order[0]: t}):
                    return MatchOutcome.TRUE
        except _Exhausted:
            return MatchOutcome.TIMEOUT
        return MatchOutcome.FALSE

    def run_anchored(self, q_anchor, t_anchor):
        q_degrees = sorted((self.query.degree(v) for v in range(self.query.node_count)),
                           reverse=True)
        t_degrees = sorted((self.target.degree(v) for v in range(self.target.node_count)),
                           reverse=True)
        if (self.query.node_count > self.target.node_count
                or self.query.degree(q_anchor) > self.target.degree(t_anchor)
                or any(q_degrees[i] > t_degrees[i] for i in range(len(q_degrees)))):
            return MatchOutcome.FALSE
        return self._decide(self._order_from(q_anchor), [t_anchor])

    def run_unanchored(self):
        root = min(range(self.query.node_count), key=lambda n: (-self.query.degree(n), n))
        if self.query.node_count > self.target.node_count:
            return MatchOutcome.FALSE
        return self._decide(self._order_from(root), range(self.target.node_count))


def _permuted(g, perm):
    """g with node i renamed perm[i]."""
    labels = [0] * g.node_count
    for u, lab in enumerate(g.node_labels):
        labels[perm[u]] = lab
    return LabeledGraph.from_edges(
        g.node_count, [(perm[u], perm[v]) for u, v in g.edges()], labels, g.label_alphabet_size
    )


class TestIterativeSearch:
    def test_long_path_needs_no_recursion(self):
        q = LabeledGraph.from_edges(1500, [(i, i + 1) for i in range(1499)])
        t = LabeledGraph.from_edges(1600, [(i, i + 1) for i in range(1599)])
        assert is_subgraph(q, t) is MatchOutcome.TRUE

    @pytest.mark.parametrize(
        "max_states, alphabet",
        [(10_000_000, 2), (60, 2), (1500, 2), (10_000_000, 3), (60, 3)],
        ids=["decided", "tight", "past_clock_stride", "three_labels", "three_labels_tight"],
    )
    def test_states_equal_recursive_reference(self, max_states, alphabet):
        budget = MatchBudget(max_states=max_states)
        rng = np.random.default_rng(23)
        outcomes = set()
        for trial in range(80):
            q = gen_er(int(rng.integers(3, 9)), 0.4, alphabet, seed=int(rng.integers(1 << 30)))
            t = gen_er(int(rng.integers(8, 18)), 0.3, alphabet, seed=int(rng.integers(1 << 30)))
            if not q.is_connected():
                continue
            u = int(rng.integers(t.node_count))
            got, got_a = _Search(q, t, budget), _Search(q, t, budget)
            want, want_a = (_RecursiveReference(q, t, max_states) for _ in range(2))
            runs = [
                (got.run_unanchored(), want.run_unanchored()),
                (got_a.run_anchored(0, u), want_a.run_anchored(0, u)),
            ]
            assert [a for a, _ in runs] == [b for _, b in runs]
            assert (got.states, got_a.states) == (want.states, want_a.states)
            outcomes.update(a for a, _ in runs)
        assert len(outcomes) >= 2


class TestAgainstNetworkx:
    """Independent oracle on graphs too big for brute force: networkx's VF2
    monomorphism test has the same edge-induced semantics."""

    @staticmethod
    def _nx_is_subgraph(nx, query, target, anchors=None):
        """anchors, when given, is (q_anchor, t_anchor): only maps that send
        one onto the other count."""
        q_anchor, t_anchor = anchors or (None, None)

        def to_nx(g, anchor):
            h = nx.Graph()
            h.add_nodes_from((u, {"label": (lab, u == anchor)})
                             for u, lab in enumerate(g.node_labels))
            h.add_edges_from(g.edges())
            return h

        matcher = nx.algorithms.isomorphism.GraphMatcher(
            to_nx(target, t_anchor),
            to_nx(query, q_anchor),
            node_match=lambda a, b: a["label"] == b["label"],
        )
        return matcher.subgraph_is_monomorphic()

    def test_er_pairs_of_ten_to_forty_nodes(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(41)
        budget = MatchBudget(max_states=200_000, wall_timeout=60.0)
        decided = {True: 0, False: 0}
        for trial in range(200):
            n = int(rng.integers(10, 41))
            t = gen_er(n, 3.0 / (n - 1), 2, seed=int(rng.integers(1 << 30)))
            # a connected piece of the target, renumbered, sometimes perturbed
            ball = t.bfs_distances(int(rng.integers(n)))
            nodes = sorted(ball, key=lambda v: (ball[v], v))[: int(rng.integers(4, 13))]
            q = t.induced_on([nodes[i] for i in rng.permutation(len(nodes))])
            if rng.random() < 0.5:
                labels = list(q.node_labels)
                labels[int(rng.integers(q.node_count))] ^= 1
                q = LabeledGraph.from_edges(q.node_count, q.edges(), labels, 2)
            got = is_subgraph(q, t, budget)
            if not got.is_decided:
                continue
            want = self._nx_is_subgraph(nx, q, t)
            assert got.is_true == want, (trial, q.node_count, n)
            decided[want] += 1
        assert min(decided.values()) >= 40, decided


class TestDegreeFilter:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(st.data())
    def test_ruled_out_pairs_are_never_true(self, data):
        nx = pytest.importorskip("networkx")
        seeds = st.integers(0, 1 << 30)
        q = gen_er(data.draw(st.integers(1, 7)), 0.5, 2, seed=data.draw(seeds))
        t = gen_er(data.draw(st.integers(1, 8)), 0.35, 2, seed=data.draw(seeds))
        u = data.draw(st.integers(0, q.node_count - 1))
        v = data.draw(st.integers(0, t.node_count - 1))
        assume(_ruled_out_by_degrees(q, u, t, v))
        assert not brute_force_anchored(q, u, t, v)
        assert not TestAgainstNetworkx._nx_is_subgraph(nx, q, t, anchors=(u, v))
        if q.is_connected():
            search = _Search(q, t, MatchBudget())
            assert search.run_anchored(u, v) is MatchOutcome.FALSE and search.states == 0

    def test_each_check_rules_out(self):
        star = LabeledGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        path4 = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        path3 = LabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        assert _ruled_out_by_degrees(path4, 0, path3, 0)  # more nodes
        assert _ruled_out_by_degrees(path3, 1, path4, 0)  # anchor degree 2 > 1
        assert _ruled_out_by_degrees(star, 1, path4, 0)  # degrees 3,1,1,1 vs 2,2,1,1
        assert not _ruled_out_by_degrees(path3, 1, star, 0)
        assert is_subgraph_anchored(anchored(path3, 1), anchored(star, 0)).is_true


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

    def test_catalog_has_one_graph_per_isomorphism_class(self):
        # OEIS A000088 (all graphs) and A001349 (connected graphs); n = 0 has
        # the one empty graph, which the general enumeration yields
        assert [len(all_graphs_upto_iso(n)) for n in range(6)] == [1, 1, 2, 4, 11, 34]
        assert all_graphs_upto_iso(0) == (LabeledGraph.from_edges(0, []),)
        assert [len(connected_graphs_upto_iso(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]


class TestProperties:
    def test_soundness_small_catalog(self):
        ok, detail = oracle_equivalence_suite(4, 5)
        assert ok, detail

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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabeling_nodes_keeps_the_outcome(self, data):
        seeds = st.integers(0, 1 << 30)
        q = gen_er(data.draw(st.integers(2, 8)), 0.5, 2, seed=data.draw(seeds))
        t = gen_er(data.draw(st.integers(4, 16)), 0.3, 2, seed=data.draw(seeds))
        if not q.is_connected():
            return
        budget = MatchBudget(max_states=100_000)
        before = is_subgraph(q, t, budget)
        q2 = _permuted(q, data.draw(st.permutations(range(q.node_count))))
        t2 = _permuted(t, data.draw(st.permutations(range(t.node_count))))
        for query, target in ((q2, t), (q, t2), (q2, t2)):
            after = is_subgraph(query, target, budget)
            if before.is_decided and after.is_decided:
                assert after is before


def _draw_piece(data):
    """A target and a connected piece of it: the first nodes of a BFS from a
    drawn start, renumbered so that the start is node 0."""
    n = data.draw(st.integers(4, 16))
    t = gen_er(n, 0.35, 2, seed=data.draw(st.integers(0, 1 << 30)))
    start = data.draw(st.integers(0, n - 1))
    dist = t.bfs_distances(start)
    nodes = sorted(dist, key=lambda v: (dist[v], v))
    return t, start, t.induced_on(nodes[: data.draw(st.integers(1, min(8, len(nodes))))])


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_deleting_a_query_edge_keeps_true(self, data):
        t, _, q = _draw_piece(data)
        if q.node_count < 2:
            return
        assert is_subgraph(q, t) is MatchOutcome.TRUE
        edges = q.edges()
        drop = data.draw(st.integers(0, len(edges) - 1))
        smaller = LabeledGraph.from_edges(
            q.node_count, edges[:drop] + edges[drop + 1:], list(q.node_labels), 2
        )
        if smaller.is_connected():
            assert is_subgraph(smaller, t) is MatchOutcome.TRUE

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_anchored_true_implies_unanchored_true(self, data):
        t, start, q = _draw_piece(data)
        if q.node_count < 2:
            return
        # either anchor may be moved; the search itself is called, since a
        # neighborhood needs a connected target
        u = data.draw(st.sampled_from([0, data.draw(st.integers(0, q.node_count - 1))]))
        v = data.draw(st.sampled_from([start, data.draw(st.integers(0, t.node_count - 1))]))
        if _Search(q, t, MatchBudget()).run_anchored(u, v) is MatchOutcome.TRUE:
            assert is_subgraph(q, t) is MatchOutcome.TRUE


class TestBudget:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            MatchBudget(max_states=0, wall_timeout=1.0)

    def test_exhaustion_is_timeout_not_false(self):
        q = gen_er(12, 0.4, 1, seed=3)
        t = gen_er(20, 0.15, 1, seed=4)
        out = is_subgraph(q, t, MatchBudget(max_states=5, wall_timeout=60.0))
        assert out is MatchOutcome.TIMEOUT

    @staticmethod
    def _grid_and_path():
        """A 6x6 grid and a 7-node path whose end label the grid lacks: FALSE
        after exactly 24380 states."""
        edges = [(6 * r + c, 6 * r + c + 1) for r in range(6) for c in range(5)]
        edges += [(6 * r + c, 6 * r + c + 6) for r in range(5) for c in range(6)]
        grid = LabeledGraph.from_edges(36, edges, [0] * 36, 2)
        path = LabeledGraph.from_edges(7, [(i, i + 1) for i in range(6)], [0] * 6 + [1], 2)
        return path, grid

    @pytest.mark.parametrize("max_states", [1, 1023, 1024, 1025, 2048, 5000, 24379])
    def test_exhaustion_counts_exactly_one_state_past_the_budget(self, max_states):
        search = _Search(*self._grid_and_path(), MatchBudget(max_states=max_states))
        assert search.run_unanchored() is MatchOutcome.TIMEOUT
        assert search.states == max_states + 1

    def test_budget_of_exactly_the_states_needed_decides(self):
        search = _Search(*self._grid_and_path(), MatchBudget(max_states=24380))
        assert search.run_unanchored() is MatchOutcome.FALSE
        assert search.states == 24380

    def test_outcome_flags(self):
        assert MatchOutcome.TRUE.is_true and MatchOutcome.TRUE.is_decided
        assert not MatchOutcome.FALSE.is_true and MatchOutcome.FALSE.is_decided
        assert not MatchOutcome.TIMEOUT.is_decided
