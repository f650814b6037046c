"""Exhaustive small-graph catalogs and brute-force matching oracles.

The brute-force routines enumerate raw injections with itertools and share no
code with the backtracking matcher, so they can serve as its independent
correctness oracle in the selftest command and the test suite.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .graphs import LabeledGraph


@lru_cache(maxsize=None)
def all_graphs_upto_iso(n: int) -> tuple[LabeledGraph, ...]:
    """Every simple graph on n unlabeled nodes, one representative per
    isomorphism class (canonical form = minimum edge bitmask over all node
    permutations, evaluated vectorized over all masks at once)."""
    pairs = list(itertools.combinations(range(n), 2))
    n_bits = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    perm_tables = []
    for perm in itertools.permutations(range(n)):
        table = [
            pair_index[tuple(sorted((perm[a], perm[b])))] for (a, b) in pairs
        ]
        perm_tables.append(table)
    masks = np.arange(2**n_bits, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n_bits)) & 1  # (masks, bits)
    weights = 1 << np.arange(n_bits, dtype=np.int64)
    canonical = np.full(masks.shape, np.iinfo(np.int64).max)
    for table in perm_tables:
        remapped = (bits[:, np.argsort(table)] * weights).sum(axis=1)
        np.minimum(canonical, remapped, out=canonical)
    reps = np.unique(canonical)
    graphs = []
    for mask in reps:
        edges = [pairs[i] for i in range(n_bits) if (int(mask) >> i) & 1]
        graphs.append(LabeledGraph.from_edges(n, edges))
    return tuple(graphs)


def connected_graphs_upto_iso(n: int) -> list[LabeledGraph]:
    return [g for g in all_graphs_upto_iso(n) if g.is_connected()]


def small_catalog(max_query_nodes: int, max_target_nodes: int):
    """(connected queries, all targets) for exhaustive oracle comparisons."""
    queries = []
    for n in range(1, max_query_nodes + 1):
        queries.extend(connected_graphs_upto_iso(n))
    targets = []
    for n in range(1, max_target_nodes + 1):
        targets.extend(all_graphs_upto_iso(n))
    return queries, targets


def _injection_ok(query: LabeledGraph, target: LabeledGraph, mapping: dict[int, int]) -> bool:
    for a in range(query.node_count):
        if query.node_labels[a] != target.node_labels[mapping[a]]:
            return False
    return all(target.has_edge(mapping[a], mapping[b]) for a, b in query.edges())


def brute_force_is_subgraph(query: LabeledGraph, target: LabeledGraph) -> bool:
    """Try every injective node map; edge-induced subgraph semantics."""
    if query.node_count > target.node_count:
        return False
    nodes = range(target.node_count)
    for image in itertools.permutations(nodes, query.node_count):
        mapping = dict(enumerate(image))
        if _injection_ok(query, target, mapping):
            return True
    return False


def brute_force_anchored(
    query: LabeledGraph, q_anchor: int, target: LabeledGraph, t_anchor: int
) -> bool:
    """Does query embed into target with q_anchor mapped onto t_anchor? Tries
    every injective node map."""
    if query.node_count > target.node_count:
        return False
    rest_q = [v for v in range(query.node_count) if v != q_anchor]
    rest_t = [v for v in range(target.node_count) if v != t_anchor]
    return any(
        _injection_ok(query, target, {q_anchor: t_anchor, **dict(zip(rest_q, image))})
        for image in itertools.permutations(rest_t, len(rest_q))
    )
