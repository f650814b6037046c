"""Seeded input generators for the benchmark.

Every graph, query sample, chord and bipartite instance the benchmark feeds
the program is made here from a numpy Generator, so inputs depend only on the
seed and on this file, never on helpers inside the package under test.
"""

from __future__ import annotations

import numpy as np
from submatch.graphs import LabeledGraph


def uniform_graph(n: int, mean_degree: float, rng: np.random.Generator) -> LabeledGraph:
    """G(n, m) with m = n * mean_degree / 2 distinct edges drawn uniformly."""
    m = int(round(n * mean_degree / 2))
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return LabeledGraph.from_edges(n, sorted(edges))


def attachment_graph(n: int, m: int, rng: np.random.Generator) -> LabeledGraph:
    """Preferential attachment: each new node links to m distinct earlier nodes
    drawn with probability proportional to degree (a triangle seeds it)."""
    edges = [(0, 1), (0, 2), (1, 2)]
    ends = [0, 0, 1, 1, 2, 2]  # every node appears once per incident edge
    for v in range(3, n):
        chosen: set[int] = set()
        while len(chosen) < min(m, v):
            chosen.add(ends[int(rng.integers(len(ends)))])
        for u in sorted(chosen):
            edges.append((u, v))
            ends += [u, v]
    return LabeledGraph.from_edges(n, edges)


def bipartite_graph(
    n: int, mean_degree: float, max_degree: int, labels: int, rng: np.random.Generator
) -> LabeledGraph:
    """Random bipartite graph: sides [0, n/2) and [n/2, n), edges only across,
    no node with more than max_degree edges."""
    half = n // 2
    m = int(round(n * mean_degree / 2))
    edges: set[tuple[int, int]] = set()
    degree = [0] * n
    while len(edges) < m:
        a, b = int(rng.integers(half)), half + int(rng.integers(n - half))
        if (a, b) not in edges and degree[a] < max_degree and degree[b] < max_degree:
            edges.add((a, b))
            degree[a] += 1
            degree[b] += 1
    node_labels = [int(x) for x in rng.integers(labels, size=n)]
    return LabeledGraph.from_edges(n, sorted(edges), node_labels, labels)


def path_graph(n: int) -> LabeledGraph:
    return LabeledGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def bfs_sample(g: LabeledGraph, size: int, rng: np.random.Generator) -> LabeledGraph:
    """Connected edge-induced subgraph on `size` nodes grown breadth-first from
    a random start, visiting each node's unvisited neighbors in random order.
    Starts whose component is too small are redrawn."""
    for _ in range(1000):
        start = int(rng.integers(g.node_count))
        chosen = [start]
        seen = {start}
        head = 0
        while len(chosen) < size and head < len(chosen):
            fresh = [v for v in g.adjacency[chosen[head]] if v not in seen]
            for i in rng.permutation(len(fresh)):
                if len(chosen) == size:
                    break
                chosen.append(fresh[int(i)])
                seen.add(fresh[int(i)])
            head += 1
        if len(chosen) == size:
            return g.induced_on(chosen)
    raise ValueError(f"no connected component with {size} nodes")


def add_chords(q: LabeledGraph, count: int, rng: np.random.Generator) -> LabeledGraph:
    """Copy of q with `count` extra edges between nonadjacent nodes."""
    non_edges = [
        (a, b) for a in range(q.node_count) for b in range(a + 1, q.node_count)
        if not q.has_edge(a, b)
    ]
    picks = rng.choice(len(non_edges), size=min(count, len(non_edges)), replace=False)
    return LabeledGraph.from_edges(
        q.node_count, q.edges() + [non_edges[int(i)] for i in picks],
        list(q.node_labels), q.label_alphabet_size,
    )


def two_colouring(g: LabeledGraph) -> list[int] | None:
    """A proper 2-colouring by BFS, or None when g has an odd cycle."""
    colour = [-1] * g.node_count
    for root in range(g.node_count):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in g.adjacency[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    return None
    return colour


def odd_chord(q: LabeledGraph, rng: np.random.Generator) -> LabeledGraph:
    """Copy of a connected bipartite q with one edge between two same-coloured
    nodes, which closes an odd cycle."""
    colour = two_colouring(q)
    if colour is None:
        raise ValueError("query is not bipartite")
    same = [
        (a, b) for a in range(q.node_count) for b in range(a + 1, q.node_count)
        if colour[a] == colour[b]
    ]
    a, b = same[int(rng.integers(len(same)))]
    return LabeledGraph.from_edges(
        q.node_count, q.edges() + [(a, b)], list(q.node_labels), q.label_alphabet_size
    )


def relabelled(g: LabeledGraph, perm: np.ndarray) -> LabeledGraph:
    """Isomorphic copy in which node u of g becomes node perm[u]."""
    labels = [0] * g.node_count
    for u in range(g.node_count):
        labels[int(perm[u])] = g.node_labels[u]
    return LabeledGraph.from_edges(
        g.node_count, [(int(perm[u]), int(perm[v])) for u, v in g.edges()],
        labels, g.label_alphabet_size,
    )
