"""Exact anchored subgraph-isomorphism by backtracking search.

Edge-induced semantics: an injective map f from query nodes to target nodes
such that every query edge (a, b) maps to a target edge (f(a), f(b)) and node
labels (plus edge labels, when both graphs carry them) agree. Target edges
outside the image are allowed.

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
    """Search budget. Exhaustion surfaces as TIMEOUT, never as FALSE."""

    max_states: int = 10_000_000
    wall_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.max_states <= 0 or self.wall_timeout <= 0:
            raise ValueError("budget fields must be strictly positive")


class _BudgetExhausted(Exception):
    pass


class _Search:
    """One backtracking search over a fixed (query, target) pair."""

    # wall clock checked every this many states to keep overhead low
    _CLOCK_STRIDE = 1024

    def __init__(self, query: LabeledGraph, target: LabeledGraph, budget: MatchBudget):
        self.query = query
        self.target = target
        self.budget = budget
        self.states = 0
        self.deadline = time.monotonic() + budget.wall_timeout
        self.check_edge_labels = (
            query.edge_labels is not None and target.edge_labels is not None
        )

    def _tick(self) -> None:
        self.states += 1
        if self.states > self.budget.max_states:
            raise _BudgetExhausted
        if self.states % self._CLOCK_STRIDE == 0 and time.monotonic() > self.deadline:
            raise _BudgetExhausted

    def _order_from(self, root: int) -> list[int]:
        """Query nodes in BFS order from root, ties broken by node id."""
        dist = self.query.bfs_distances(root)
        if len(dist) != self.query.node_count:
            raise GraphError("query graph must be connected")
        return sorted(dist, key=lambda n: (dist[n], n))

    def _feasible(self, q: int, t: int, mapping: dict[int, int], used: set[int]) -> bool:
        if t in used:
            return False
        if self.query.node_labels[q] != self.target.node_labels[t]:
            return False
        if self.target.degree(t) < self.query.degree(q):
            return False
        # every already-mapped query neighbor must land on a target neighbor
        for qn in self.query.adjacency[q]:
            tn = mapping.get(qn)
            if tn is None:
                continue
            if not self.target.has_edge(t, tn):
                return False
            if self.check_edge_labels:
                if self.query.edge_label(q, qn) != self.target.edge_label(t, tn):
                    return False
        return True

    def _extend(self, order: list[int], depth: int, mapping: dict[int, int], used: set[int]) -> bool:
        """Map order[depth:] on top of mapping, depth first, with one candidate
        iterator per mapped level on a stack instead of recursion. Leaves
        mapping as given unless it returns True."""
        n = len(order)
        if depth == n:
            return True
        tick, feasible, candidates = self._tick, self._feasible, self._candidates
        stack = []
        q = order[depth]
        pool = iter(candidates(q, mapping))
        while True:
            for t in pool:
                tick()
                if feasible(q, t, mapping, used):
                    mapping[q] = t
                    used.add(t)
                    depth += 1
                    if depth == n:
                        return True
                    stack.append(pool)
                    q = order[depth]
                    pool = iter(candidates(q, mapping))
                    break
            else:
                if not stack:
                    return False
                pool = stack.pop()
                depth -= 1
                q = order[depth]
                used.discard(mapping.pop(q))

    def _candidates(self, q: int, mapping: dict[int, int]) -> Sequence[int]:
        # prefer the tightest candidate pool: target neighbors of an already
        # mapped query neighbor; fall back to all target nodes
        for qn in self.query.adjacency[q]:
            if qn in mapping:
                return self.target.adjacency[mapping[qn]]
        return range(self.target.node_count)

    def run_anchored(self, q_anchor: int, t_anchor: int) -> MatchOutcome:
        order = self._order_from(q_anchor)
        mapping: dict[int, int] = {}
        used: set[int] = set()
        try:
            self._tick()
            if not self._feasible(q_anchor, t_anchor, mapping, used):
                return MatchOutcome.FALSE
            mapping[q_anchor] = t_anchor
            used.add(t_anchor)
            found = self._extend(order, 1, mapping, used)
        except _BudgetExhausted:
            return MatchOutcome.TIMEOUT
        return MatchOutcome.TRUE if found else MatchOutcome.FALSE

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
        try:
            for t_root in range(self.target.node_count):
                self._tick()
                mapping: dict[int, int] = {}
                used: set[int] = set()
                if not self._feasible(root, t_root, mapping, used):
                    continue
                mapping[root] = t_root
                used.add(t_root)
                if self._extend(order, 1, mapping, used):
                    return MatchOutcome.TRUE
        except _BudgetExhausted:
            return MatchOutcome.TIMEOUT
        return MatchOutcome.FALSE


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
