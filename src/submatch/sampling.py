"""Stochastic subgraph samplers and oracle-verified training-pair constructors.

All samplers return connected neighborhoods anchored at the start node, hold
at most max_nodes nodes, and are deterministic given the rng state. The walk
restarts at its anchor with the fixed probability RESTART_PROBABILITY.
Positive pairs are built by re-running the traversal inside the sampled target
from the same anchor, which makes them subgraph-isomorphic by construction;
every emitted pair is nevertheless re-checked with the exact matcher so no
label noise can enter training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import MatchBudget, MatchOutcome, is_subgraph_anchored
from .graphs import AnchoredNeighborhood, LabeledGraph, _trusted
from .graphs import bfs_neighborhood, k_hop_neighborhood

STRATEGIES = ("random_bfs", "random_walk_restart", "mfinder_degree_weighted")

# oracle budget for verifying sampled pair labels; desk-scale graphs are small
_VERIFY_BUDGET = MatchBudget(max_states=200_000, wall_timeout=5.0)
RESTART_PROBABILITY = 0.15  # chance per step that random_walk_sample returns to its anchor
NEGATIVE_RETRIES = 30  # draws of a negative pair before giving up


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "random_bfs"
    edge_keep_probability: float = 0.5
    max_nodes: int = 15

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 < self.edge_keep_probability <= 1.0:
            raise ValueError("edge_keep_probability must lie in (0, 1]")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")


@dataclass(frozen=True)
class TrainingPair:
    query: AnchoredNeighborhood
    target: AnchoredNeighborhood
    label: bool
    kind: str | None = None  # "random" or "hard" for negatives, None for positives


def random_bfs_sample(
    g: LabeledGraph, u: int, cfg: SamplerConfig, rng: np.random.Generator
) -> AnchoredNeighborhood:
    """Breadth-first traversal from u keeping each scanned edge with fixed
    probability, until max_nodes nodes are collected.

    Each expanded node's unselected neighbors are scanned in the order of one
    rng.shuffle of their list, drawn only for two or more of them. Shuffling
    a list in place makes the same draws as rng.permutation of its length,
    so it gives the order that indexing by that permutation gives."""
    selected = {u}
    queue = [u]
    head = 0
    while head < len(queue) and len(selected) < cfg.max_nodes:
        nbrs = [v for v in g.adjacency[queue[head]] if v not in selected]
        head += 1
        if len(nbrs) > 1:
            rng.shuffle(nbrs)
        for v in nbrs:
            if rng.random() < cfg.edge_keep_probability:
                selected.add(v)
                queue.append(v)
                if len(selected) >= cfg.max_nodes:
                    break
    return bfs_neighborhood(g, u, within=selected)


def random_walk_sample(
    g: LabeledGraph, u: int, cfg: SamplerConfig, rng: np.random.Generator
) -> AnchoredNeighborhood:
    """Random walk with restart at u; keeps the set of distinct visited nodes."""
    selected = {u}
    current = u
    step_cap = max(100, 50 * cfg.max_nodes)
    for _ in range(step_cap):
        if len(selected) >= cfg.max_nodes:
            break
        if rng.random() < RESTART_PROBABILITY or not g.adjacency[current]:
            current = u
            continue
        nbrs = g.adjacency[current]
        current = nbrs[int(rng.integers(len(nbrs)))]
        selected.add(current)
    return bfs_neighborhood(g, u, within=selected)


def mfinder_sample(
    g: LabeledGraph, u: int, cfg: SamplerConfig, rng: np.random.Generator
) -> AnchoredNeighborhood:
    """Grow a connected set from u, drawing each next node from the frontier
    with probability proportional to its degree in g, up to a size drawn
    uniformly from 1 to max_nodes."""
    target_size = int(rng.integers(1, cfg.max_nodes + 1))
    selected = {u}
    frontier = {v for v in g.adjacency[u]}
    while len(selected) < target_size and frontier:
        cand = sorted(frontier)
        weights = np.array([g.degree(v) for v in cand], dtype=float)
        v = cand[int(rng.choice(len(cand), p=weights / weights.sum()))]
        selected.add(v)
        frontier.discard(v)
        frontier.update(w for w in g.adjacency[v] if w not in selected)
    return bfs_neighborhood(g, u, within=selected)


_SAMPLERS = {
    "random_bfs": random_bfs_sample,
    "random_walk_restart": random_walk_sample,
    "mfinder_degree_weighted": mfinder_sample,
}


def sample_neighborhood(
    g: LabeledGraph, u: int, cfg: SamplerConfig, rng: np.random.Generator
) -> AnchoredNeighborhood:
    """One draw of the sampler that cfg.strategy names."""
    return _SAMPLERS[cfg.strategy](g, u, cfg, rng)


class SampleMemo:
    """k-hop balls and anchor candidates of the graphs that one batch-building
    call samples from, computed on first use.

    Both are pure functions of their inputs, so a memo changes no draw. It
    keys graphs by identity and holds each graph it has seen, so an id is not
    reused while the memo lives. Misses call the module's k_hop_neighborhood.
    """

    def __init__(self) -> None:
        self._by_graph: dict[int, tuple[LabeledGraph, list[int], dict]] = {}

    def _entry(self, g: LabeledGraph) -> tuple[LabeledGraph, list[int], dict]:
        entry = self._by_graph.get(id(g))
        if entry is None:
            # isolated nodes are never anchors while g has an edge
            cand = [u for u in range(g.node_count) if g.adjacency[u]] or list(
                range(g.node_count))
            entry = self._by_graph[id(g)] = (g, cand, {})
        return entry

    def anchor_candidates(self, g: LabeledGraph) -> list[int]:
        return self._entry(g)[1]

    def ball(self, g: LabeledGraph, u: int, k: int) -> AnchoredNeighborhood:
        balls = self._entry(g)[2]
        nh = balls.get((u, k))
        if nh is None:
            nh = balls[(u, k)] = k_hop_neighborhood(g, u, k)
        return nh


def _random_anchor(
    g: LabeledGraph, rng: np.random.Generator, memo: SampleMemo, avoid: int | None = None
) -> int:
    """A uniform draw among g's nodes other than avoid (unless it is the only
    one); isolated nodes are never chosen while g has an edge."""
    cand = memo.anchor_candidates(g)
    cand = [u for u in cand if u != avoid] or cand
    return cand[int(rng.integers(len(cand)))]


def _sample_anchored(
    g: LabeledGraph, k: int, cfg: SamplerConfig, rng: np.random.Generator, u: int,
    memo: SampleMemo,
) -> AnchoredNeighborhood:
    """A sampled neighborhood inside the k-hop ball of u, anchored at u."""
    return sample_neighborhood(memo.ball(g, u, k).graph, 0, cfg, rng)


def sample_positive_pair(
    g: LabeledGraph,
    k: int,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    *,
    memo: SampleMemo | None = None,
) -> TrainingPair:
    """Sample target G_u inside a k-hop neighborhood of a random anchor, then
    re-run the traversal inside G_u from the same anchor to get the query.
    memo, when given, is shared with other calls on the same graphs."""
    pair = _draw_positive(g, k, cfg, rng, memo or SampleMemo())
    outcome = is_subgraph_anchored(pair.query, pair.target, _VERIFY_BUDGET)
    if outcome is MatchOutcome.FALSE:  # construction guarantees this cannot happen
        raise AssertionError("positive pair failed oracle verification")
    return pair


def _draw_positive(
    g: LabeledGraph, k: int, cfg: SamplerConfig, rng: np.random.Generator, memo: SampleMemo
) -> TrainingPair:
    """sample_positive_pair's draw, without its oracle check (which uses no rng)."""
    target = _sample_anchored(g, k, cfg, rng, _random_anchor(g, rng, memo), memo)
    query = sample_neighborhood(target.graph, 0, cfg, rng)
    return TrainingPair(query=query, target=target, label=True)


def _perturb_query(
    query: AnchoredNeighborhood, alphabet: int, rng: np.random.Generator
) -> AnchoredNeighborhood | None:
    """One perturbation chosen uniformly among the feasible moves: add an edge
    between non-adjacent nodes, rewire one edge endpoint, or swap a node label.
    Returns None when no move is feasible (a complete query over a
    one-label alphabet)."""
    g = query.graph
    n = g.node_count
    moves = []
    non_edges = g.non_edges()
    if non_edges:
        moves.append("add")
    if g.edges() and n > 2:
        moves.append("rewire")
    if alphabet >= 2 and n > 0:
        moves.append("swap")
    while moves:
        move = moves.pop(int(rng.integers(len(moves))))
        if move == "add":
            a, b = non_edges[int(rng.integers(len(non_edges)))]
            new_g = LabeledGraph.from_edges(
                n, g.edges() + [(a, b)], list(g.node_labels), g.label_alphabet_size
            )
        elif move == "rewire":
            edges = g.edges()
            a, b = edges[int(rng.integers(len(edges)))]
            others = [c for c in range(n) if c not in (a, b) and not g.has_edge(a, c)]
            if not others:
                continue
            c = others[int(rng.integers(len(others)))]
            kept = [e for e in edges if e != (a, b)] + [(min(a, c), max(a, c))]
            new_g = LabeledGraph.from_edges(n, kept, list(g.node_labels), g.label_alphabet_size)
            if not new_g.is_connected():
                continue
        else:  # swap one node label
            node = int(rng.integers(n))
            choices = [lab for lab in range(alphabet) if lab != g.node_labels[node]]
            new_labels = list(g.node_labels)
            new_labels[node] = choices[int(rng.integers(len(choices)))]
            new_g = LabeledGraph.from_edges(n, g.edges(), new_labels, g.label_alphabet_size)
        # adding an edge or swapping a label keeps the query connected, and
        # a rewire that disconnects it was skipped above
        return _trusted(AnchoredNeighborhood, graph=new_g, anchor=0)
    return None


def sample_negative_pair(
    g: LabeledGraph,
    k: int,
    kind: str,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    query_source: LabeledGraph | None = None,
    *,
    memo: SampleMemo | None = None,
) -> TrainingPair | None:
    """Oracle-certified negative pair, or None after NEGATIVE_RETRIES draws.

    kind="random": anchor the query at a different node (of query_source when
    given, enabling cross-target negatives), resampling on accidental
    positives. kind="hard": perturb a positive pair's query until the exact
    matcher confirms it is no longer a subgraph of the target. memo, when
    given, is shared with other calls on the same graphs.
    """
    if kind not in ("random", "hard"):
        raise ValueError(f"unknown negative kind {kind!r}")
    if g.node_count < 2:
        raise ValueError("negative sampling needs a graph with >= 2 nodes")

    memo = memo or SampleMemo()
    if kind == "random":
        source = query_source if query_source is not None else g
        for _ in range(NEGATIVE_RETRIES):
            u = _random_anchor(g, rng, memo)
            target = _sample_anchored(g, k, cfg, rng, u, memo)
            q = _random_anchor(source, rng, memo, avoid=u if query_source is None else None)
            query = _sample_anchored(source, k, cfg, rng, q, memo)
            if is_subgraph_anchored(query, target, _VERIFY_BUDGET) is MatchOutcome.FALSE:
                return TrainingPair(query=query, target=target, label=False, kind="random")
        return None

    # escalate perturbations on top of a positive pair's query until the
    # oracle confirms the relation is broken; restart from a fresh positive
    # when a walk saturates without leaving the target. The positive is not
    # certified: only the perturbed queries are.
    for _ in range(NEGATIVE_RETRIES):
        pair = _draw_positive(g, k, cfg, rng, memo)
        current = pair.query
        for _ in range(5):
            perturbed = _perturb_query(current, g.label_alphabet_size, rng)
            if perturbed is None:
                break
            current = perturbed
            outcome = is_subgraph_anchored(current, pair.target, _VERIFY_BUDGET)
            if outcome is MatchOutcome.FALSE:
                return TrainingPair(
                    query=current, target=pair.target, label=False, kind="hard"
                )
    return None
