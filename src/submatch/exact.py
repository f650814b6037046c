"""Exact anchored subgraph-isomorphism by backtracking search.

Edge-induced semantics: an injective map f from query nodes to target nodes
such that every query edge (a, b) maps to a target edge (f(a), f(b)) and node
labels agree. Target edges outside the image are allowed.

The search places query nodes in BFS order and tries, for each, the target
neighbors of an already placed query neighbor. A state is one candidate
tried: one (query node, target node) pair whose feasibility is checked. The
search is deterministic, so its state count is too, and MatchBudget.max_states
caps that count.

Before an anchored search, counting alone may settle the answer FALSE
(Ullmann's degree filter): a query with more nodes than the target, a query
anchor of higher degree than the target anchor, or a descending degree
sequence that the target's does not dominate elementwise. A FALSE settled by
counting costs no state.

Used as the ground-truth labeler for training data, the correctness oracle in
tests, and the runtime baseline in benchmarks.
"""

from __future__ import annotations

import enum
import time
from collections.abc import Sequence
from dataclasses import dataclass

from .graphs import AnchoredNeighborhood, GraphError, LabeledGraph


class MatchOutcome(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    TIMEOUT = "timeout"

    @property
    def is_true(self) -> bool:
        return self is MatchOutcome.TRUE

    @property
    def is_decided(self) -> bool:
        return self is not MatchOutcome.TIMEOUT


@dataclass(frozen=True)
class MatchBudget:
    """Search budget. Exhaustion surfaces as TIMEOUT, never as FALSE.

    max_states caps the candidates tried (one state each); wall_timeout caps
    seconds, read every 1024 states.
    """

    max_states: int = 10_000_000
    wall_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.max_states <= 0 or self.wall_timeout <= 0:
            raise ValueError("budget fields must be strictly positive")


def _ruled_out_by_degrees(
    query: LabeledGraph, q_anchor: int, target: LabeledGraph, t_anchor: int
) -> bool:
    """True when no anchored embedding can exist by counting alone: the query
    has more nodes than the target, its anchor more neighbors than the
    target's, or its i-th largest degree exceeds the target's for some i."""
    if query.node_count > target.node_count:
        return True
    if len(query.adjacency[q_anchor]) > len(target.adjacency[t_anchor]):
        return True
    q_degrees = sorted(map(len, query.adjacency), reverse=True)
    t_degrees = sorted(map(len, target.adjacency), reverse=True)
    return any(a > b for a, b in zip(q_degrees, t_degrees))


class _Search:
    """One backtracking search over a fixed (query, target) pair.

    Query nodes are placed in BFS order from a root. A node's candidates are
    the target neighbors of its first back-neighbor, the first of its query
    neighbors (in adjacency order) placed before it; the root's candidates
    are the given root pool. Each candidate tried is one state.
    """

    # wall clock checked every this many states to keep overhead low
    _CLOCK_STRIDE = 1024

    def __init__(self, query: LabeledGraph, target: LabeledGraph, budget: MatchBudget):
        self.query = query
        self.target = target
        self.budget = budget
        self.states = 0
        self.deadline = time.monotonic() + budget.wall_timeout

    def _order_from(self, root: int) -> list[int]:
        """Query nodes in (hop distance from root, id) order."""
        order = list(self.query.bfs_distances(root))
        if len(order) != self.query.node_count:
            raise GraphError("query graph must be connected")
        return order

    def _run(self, order: list[int], roots: Sequence[int]) -> MatchOutcome:
        """Map order[0] onto one of roots and the rest depth first, with one
        candidate iterator per placed depth on a stack instead of recursion."""
        query, target = self.query, self.target
        n = len(order)
        depth_of = {q: d for d, q in enumerate(order)}
        # per depth: query label, degree and back-neighbors in adjacency order
        q_labels = [query.node_labels[q] for q in order]
        q_degrees = [len(query.adjacency[q]) for q in order]
        backs = [
            [qn for qn in query.adjacency[q] if depth_of[qn] < d]
            for d, q in enumerate(order)
        ]
        # pool adjacency already implies the first back-neighbor's edge
        checks = [back[1:] for back in backs]
        t_adj, t_labels = target.adjacency, target.node_labels
        t_degrees = [len(nbrs) for nbrs in t_adj]
        mapped = [-1] * query.node_count
        used = bytearray(target.node_count)

        max_states = self.budget.max_states
        stride = self._CLOCK_STRIDE
        deadline, monotonic = self.deadline, time.monotonic
        states = 0
        # the next state count at which the budget is checked: the next
        # clock stride, or the first state past max_states
        limit = min(stride, max_states + 1)

        stack = []
        depth, q, pool = 0, order[0], iter(roots)
        label, degree = q_labels[0], q_degrees[0]
        need: list[int] = []  # target images of checks[depth], fixed at this depth
        while True:
            for t in pool:
                states += 1
                if states >= limit:
                    if states > max_states or monotonic() > deadline:
                        self.states = states
                        return MatchOutcome.TIMEOUT
                    limit = min(states + stride, max_states + 1)
                if used[t] or t_labels[t] != label or t_degrees[t] < degree:
                    continue
                if need:
                    adj = t_adj[t]
                    for tn in need:
                        if tn not in adj:
                            break
                    else:
                        break  # every edge back to a placed neighbor is there
                    continue
                break
            else:
                if not stack:
                    self.states = states
                    return MatchOutcome.FALSE
                pool, need = stack.pop()
                depth -= 1
                q = order[depth]
                used[mapped[q]] = 0
                label, degree = q_labels[depth], q_degrees[depth]
                continue
            # t is feasible for q: place it and descend
            mapped[q] = t
            used[t] = 1
            depth += 1
            if depth == n:
                self.states = states
                return MatchOutcome.TRUE
            stack.append((pool, need))
            q = order[depth]
            label, degree = q_labels[depth], q_degrees[depth]
            pool = iter(t_adj[mapped[backs[depth][0]]])
            check = checks[depth]
            need = [mapped[qn] for qn in check] if check else check

    def run_anchored(self, q_anchor: int, t_anchor: int) -> MatchOutcome:
        if _ruled_out_by_degrees(self.query, q_anchor, self.target, t_anchor):
            return MatchOutcome.FALSE
        return self._run(self._order_from(q_anchor), (t_anchor,))

    def run_unanchored(self) -> MatchOutcome:
        if self.query.node_count == 0:
            return MatchOutcome.TRUE
        # root at a max-degree query node (lowest id on ties) for pruning power
        root = min(
            range(self.query.node_count),
            key=lambda n: (-self.query.degree(n), n),
        )
        order = self._order_from(root)  # raises on a disconnected query
        if self.query.node_count > self.target.node_count:
            return MatchOutcome.FALSE
        return self._run(order, range(self.target.node_count))


def is_subgraph_anchored(
    query: AnchoredNeighborhood,
    target: AnchoredNeighborhood,
    budget: MatchBudget = MatchBudget(),
) -> MatchOutcome:
    """Does query embed into target with query.anchor mapped onto target.anchor?"""
    search = _Search(query.graph, target.graph, budget)
    return search.run_anchored(query.anchor, target.anchor)


def is_subgraph(
    query: LabeledGraph,
    target: LabeledGraph,
    budget: MatchBudget = MatchBudget(),
) -> MatchOutcome:
    """Unanchored decision: does query embed anywhere into target? A
    disconnected query raises GraphError."""
    return _Search(query, target, budget).run_unanchored()
