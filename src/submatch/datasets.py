"""Synthetic graph generators."""

from __future__ import annotations

import numpy as np

from .graphs import LabeledGraph


def _random_labels(n: int, alphabet: int, rng: np.random.Generator) -> list[int]:
    if alphabet <= 1:
        return [0] * n
    return [int(x) for x in rng.integers(0, alphabet, size=n)]


_COINS_PER_CALL = 1 << 16  # pairs per rng.random call; bounds gen_er's memory


def gen_er(n: int, p: float, alphabet: int, seed: int) -> LabeledGraph:
    """Erdos-Renyi G(n, p) with uniform-random node labels.

    One coin decides each pair u < v, in the row-major order of
    np.triu_indices(n, 1). The coins are drawn _COINS_PER_CALL at a time:
    rng.random(a) then rng.random(b) gives the values of rng.random(a + b),
    so the graph does not depend on the block size, and memory stays bounded
    however large n is.
    """
    rng = np.random.default_rng(seed)
    edges = []
    if n > 1 and p > 0.0:
        total = n * (n - 1) // 2
        first_row = 0  # the row of the block's first pair
        for start in range(0, total, _COINS_PER_CALL):
            stop = min(start + _COINS_PER_CALL, total)
            # a block spans at most _COINS_PER_CALL rows, and the next block
            # starts in the row after them at the latest
            rows = np.arange(first_row, min(first_row + _COINS_PER_CALL + 1, n - 1))
            row_starts = rows * (2 * n - rows - 1) // 2  # flat index of (u, u + 1)
            hits = start + np.flatnonzero(rng.random(stop - start) < p)
            at = np.searchsorted(row_starts, hits, side="right") - 1
            edges += zip(rows[at].tolist(), (hits - row_starts[at] + rows[at] + 1).tolist())
            first_row = int(rows[np.searchsorted(row_starts, stop, side="right") - 1])
    return LabeledGraph.from_edges(
        node_count=n,
        edges=edges,
        node_labels=_random_labels(n, alphabet, rng),
        label_alphabet_size=alphabet,
    )


# gen_extended_barabasi's step: edges per step, and the chances that a step
# adds edges between existing nodes or rewires them instead of growing a node
ATTACH_M = 2
P_ADD = 0.2
P_REWIRE = 0.2


def gen_extended_barabasi(n: int, alphabet: int, seed: int) -> LabeledGraph:
    """Preferential-attachment growth with extra-edge and rewiring steps.

    Starts from a clique on m+1 nodes, m = ATTACH_M. Each step either adds m
    edges between existing nodes (prob P_ADD), rewires m edges (prob
    P_REWIRE), or grows a new node with m preferentially attached edges.
    Rewires that would disconnect the graph are rolled back so every draw
    stays connected.
    """
    rng = np.random.default_rng(seed)
    seed_size = min(n, ATTACH_M + 1)
    nodes = list(range(seed_size))
    nbrs: list[set[int]] = [set() for _ in range(seed_size)]
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            nbrs[u].add(v)
            nbrs[v].add(u)
    weight = np.ones(max(n, 0))  # len(nbrs[u]) + 1 for every node u
    weight[:seed_size] = seed_size

    def link(u: int, v: int) -> None:
        nbrs[u].add(v)
        nbrs[v].add(u)
        weight[u] += 1.0
        weight[v] += 1.0

    def unlink(u: int, v: int) -> None:
        nbrs[u].discard(v)
        nbrs[v].discard(u)
        weight[u] -= 1.0
        weight[v] -= 1.0

    def pick_preferential(exclude: set[int]) -> int | None:
        """A node outside exclude, drawn with probability proportional to
        its degree plus one; candidates in node order."""
        allowed = np.ones(len(nodes), dtype=bool)
        allowed[list(exclude)] = False
        cand = allowed.nonzero()[0]
        if not len(cand):
            return None
        weights = weight[cand]
        return int(cand[rng.choice(len(cand), p=weights / weights.sum())])

    def reaches(start: int, goal: int) -> bool:
        """Is goal reachable from start (another node)? A BFS that stops
        when it gets there."""
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for a in frontier:
                for b in nbrs[a]:
                    if b == goal:
                        return True
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return False

    # the loop runs only when n > ATTACH_M + 1 = 3, so from the whole seed
    # clique on; the graph stays connected, so every node has a neighbor,
    # and a new node has more than ATTACH_M earlier nodes to link to
    while len(nodes) < n:
        r = rng.random()
        if r < P_ADD:
            for _ in range(ATTACH_M):
                u = int(rng.integers(len(nodes)))
                v = pick_preferential(exclude=nbrs[u] | {u})
                if v is not None:
                    link(u, v)
        elif r < P_ADD + P_REWIRE:
            for _ in range(ATTACH_M):
                u = int(rng.integers(len(nodes)))
                old = sorted(nbrs[u])[int(rng.integers(len(nbrs[u])))]
                new = pick_preferential(exclude=nbrs[u] | {u})
                if new is None:
                    continue
                unlink(u, old)
                link(u, new)
                # the graph was connected, so it still is iff old reaches u
                if not reaches(old, u):
                    unlink(u, new)
                    link(u, old)
        else:
            new_id = len(nodes)
            nodes.append(new_id)
            nbrs.append(set())
            for _ in range(ATTACH_M):
                link(new_id, pick_preferential(exclude=nbrs[new_id] | {new_id}))

    edges = [(u, v) for u in nodes for v in nbrs[u] if u < v]
    return LabeledGraph.from_edges(
        node_count=len(nodes),
        edges=edges,
        node_labels=_random_labels(len(nodes), alphabet, rng),
        label_alphabet_size=alphabet,
    )

