"""Node-labeled undirected graphs and anchored k-hop neighborhoods.

The graph representation is immutable after construction so that samplers,
matchers and encoders can share instances without copying.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .util import atomic_write_text, json_object, json_value


class GraphError(ValueError):
    """Raised when a graph or neighborhood violates a structural invariant."""


def _check_labels(labels, node_count: int, alphabet: int) -> None:
    if len(labels) != node_count:
        raise GraphError("node_labels length does not match node_count")
    for u, lab in enumerate(labels):
        if not 0 <= lab < alphabet:
            raise GraphError(
                f"node {u} has label {lab} outside alphabet of size {alphabet}"
            )


def _trusted(cls, **values):
    """An instance of the frozen dataclass cls that skips __post_init__.

    Only for values whose invariants hold by construction: those derived from
    an already validated graph, and those from_edges builds from the inputs
    it has checked. The dataclass constructors still validate.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected graph with categorical node labels.

    adjacency[u] is the sorted tuple of neighbors of u. Node labels are ids in
    [0, label_alphabet_size). Edges carry no labels.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]
    node_labels: tuple[int, ...]
    label_alphabet_size: int

    def __post_init__(self) -> None:
        n, adjacency = self.node_count, self.adjacency
        if n < 0:
            raise GraphError("node_count must be nonnegative")
        if len(adjacency) != n:
            raise GraphError("adjacency length does not match node_count")
        _check_labels(self.node_labels, n, self.label_alphabet_size)
        for u, nbrs in enumerate(adjacency):
            if any(a >= b for a, b in zip(nbrs, nbrs[1:])):
                raise GraphError(f"adjacency[{u}] must be sorted and duplicate-free")
            if nbrs and not (0 <= nbrs[0] and nbrs[-1] < n):
                bad = nbrs[0] if nbrs[0] < 0 else nbrs[-1]
                raise GraphError(f"neighbor {bad} of node {u} out of range")
        # Walking u upward, the nodes that list v arrive in ascending order,
        # so in a symmetric graph they are adjacency[v] read front to back.
        listed = [0] * n  # how many of v's neighbors have listed v so far
        for u, nbrs in enumerate(adjacency):
            for v in nbrs:
                if v == u:
                    raise GraphError(f"self-loop at node {u}")
                i = listed[v]
                back = adjacency[v]
                if i == len(back) or back[i] != u:
                    raise GraphError(f"edge {u}-{v} is not symmetric")
                listed[v] = i + 1

    @staticmethod
    def from_edges(
        node_count: int,
        edges: list[tuple[int, int]],
        node_labels: list[int] | None = None,
        label_alphabet_size: int | None = None,
    ) -> "LabeledGraph":
        """Build a graph from an edge list, deduplicating undirected edges.

        Validated in O(n + m): the sets it builds are symmetric, and their
        sorted tuples are duplicate-free, so only the inputs are checked.
        """
        if node_count < 0:
            raise GraphError("node_count must be nonnegative")
        nbrs: list[set[int]] = [set() for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"edge ({u},{v}) references a missing node")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        labels = tuple(node_labels) if node_labels is not None else (0,) * node_count
        alphabet = (
            label_alphabet_size
            if label_alphabet_size is not None
            else (max(labels) + 1 if labels else 1)
        )
        _check_labels(labels, node_count, alphabet)
        return _trusted(
            LabeledGraph,
            node_count=node_count,
            adjacency=tuple([tuple(sorted(s)) for s in nbrs]),
            node_labels=labels,
            label_alphabet_size=alphabet,
        )

    @property
    def edge_count(self) -> int:
        return sum(len(n) for n in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.node_count) for v in self.adjacency[u] if u < v]

    def non_edges(self) -> list[tuple[int, int]]:
        """Every pair (a, b) of nodes a < b without an edge, by a then b."""
        n = self.node_count
        return [(a, b) for a in range(n) for b in range(a + 1, n) if not self.has_edge(a, b)]

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def is_connected(self) -> bool:
        return self.node_count == 0 or len(self.bfs_distances(0)) == self.node_count

    def bfs_distances(
        self, source: int, max_depth: int | None = None, within: set[int] | None = None,
    ) -> dict[int, int]:
        """Hop distance from source to every node it reaches in at most
        max_depth hops, stepping only onto nodes of within when it is given.

        The walk goes level by level and inserts each level in id order, so
        the dict lists its nodes in (distance, id) order: the order of every
        anchored neighborhood and of the exact matcher's search.
        """
        if not 0 <= source < self.node_count:
            raise GraphError(f"invalid node id {source}")
        adjacency = self.adjacency
        dist = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            level = set()
            for u in frontier:
                for v in adjacency[u]:
                    if v not in dist and (within is None or v in within):
                        level.add(v)
            frontier = sorted(level)
            for v in frontier:
                dist[v] = depth
        return dist

    def induced_on(self, nodes: list[int]) -> "LabeledGraph":
        """Edge-induced subgraph on distinct node ids, renumbered by list
        position. It is read straight off this graph's sorted adjacency and
        is valid by construction, so it is not validated again."""
        index = {old: new for new, old in enumerate(nodes)}
        if len(index) != len(nodes):
            raise GraphError("induced_on needs distinct node ids")
        if nodes and not (0 <= min(nodes) and max(nodes) < self.node_count):
            raise GraphError(f"induced_on node ids must lie in [0, {self.node_count})")
        adjacency = self.adjacency
        return _trusted(
            LabeledGraph,
            node_count=len(nodes),
            adjacency=tuple([tuple(sorted([index[v] for v in adjacency[u] if v in index]))
                             for u in nodes]),
            node_labels=tuple([self.node_labels[u] for u in nodes]),
            label_alphabet_size=self.label_alphabet_size,
        )

    def fingerprint(self) -> str:
        return hashlib.sha256(to_json(self).encode()).hexdigest()


@dataclass(frozen=True)
class AnchoredNeighborhood:
    """A connected graph with a distinguished anchor node.

    Extraction renumbers nodes so the anchor is id 0.
    """

    graph: LabeledGraph
    anchor: int

    def __post_init__(self) -> None:
        if not 0 <= self.anchor < self.graph.node_count:
            raise GraphError(f"anchor {self.anchor} is not a valid node id")
        if len(self.graph.bfs_distances(self.anchor)) != self.graph.node_count:
            raise GraphError("neighborhood graph is not connected")

    @property
    def node_count(self) -> int:
        return self.graph.node_count


def bfs_neighborhood(
    g: LabeledGraph, u: int, max_depth: int | None = None, within: set[int] | None = None,
) -> AnchoredNeighborhood:
    """Edge-induced subgraph on the nodes g.bfs_distances(u, max_depth,
    within) reaches, renumbered in its (distance, id) order, so u is the
    anchor 0 and identical inputs give identical neighborhoods."""
    order = list(g.bfs_distances(u, max_depth, within))
    # a BFS reach is connected
    return _trusted(AnchoredNeighborhood, graph=g.induced_on(order), anchor=0)


def k_hop_neighborhood(g: LabeledGraph, u: int, k: int) -> AnchoredNeighborhood:
    """Edge-induced subgraph on all nodes within k hops of u, anchored at u
    and numbered as bfs_neighborhood numbers it."""
    if k < 0:
        raise GraphError("hop count must be nonnegative")
    return bfs_neighborhood(g, u, max_depth=k)


def adjacency_csr(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): node u's neighbors are indices[indptr[u]:indptr[u+1]],
    in adjacency order."""
    degrees = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=g.node_count)
    indptr = np.zeros(g.node_count + 1, dtype=np.intp)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.intp, count=indptr[-1])
    return indptr, indices


def twin_representatives(g: LabeledGraph) -> np.ndarray:
    """For each node, the lowest node with the same label and the same
    neighbors.

    Such twins are never adjacent, and swapping two of them is an
    automorphism of g, so their anchored k-hop balls are isomorphic at every
    k. Found in one dict pass (the syntactic equivalence of BoostIso, Ren &
    Wang, PVLDB 2015).
    """
    first: dict = {}
    return np.fromiter((first.setdefault(key, u)
                        for u, key in enumerate(zip(g.node_labels, g.adjacency))),
                       dtype=np.intp, count=g.node_count)


class Balls(NamedTuple):
    """Disjoint union of k-hop balls of one parent graph.

    Ball i occupies consecutive rows, in anchor order, its nodes ordered by
    parent id. src/dst are the ball-internal edges in both directions,
    grouped by dst in row order (src ascending within a group). triangles[r],
    when asked for, counts the triangles through row r's node inside its
    ball.
    """

    nodes: np.ndarray  # parent id of each row
    anchors: np.ndarray  # row of each ball's anchor
    src: np.ndarray
    dst: np.ndarray
    triangles: np.ndarray | None = None


class NodeTriangles(NamedTuple):
    """A graph's triangles by corner: those through node u are
    others[indptr[u]:indptr[u + 1]], each given by its other two corners."""

    indptr: np.ndarray
    others: np.ndarray  # shape (3 * triangle count, 2)


def _expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges [starts[i], starts[i] + counts[i])."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _unmarked(ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The distinct nodes among nodes whose ids are -1, which it marks.
    Whichever write lands for a repeated node, one position matches it."""
    nodes = nodes[ids[nodes] < 0]
    ids[nodes] = np.arange(len(nodes))
    return nodes[ids[nodes] == np.arange(len(nodes))]


BITMAP_ANCHORS = 128  # most anchors per reach bitmap in k_hop_balls


def k_hop_balls(
    indptr: np.ndarray, indices: np.ndarray, anchors: np.ndarray, k: int,
    max_rows: int | None = None, block_ids: np.ndarray | None = None,
    triangles: NodeTriangles | None = None,
) -> Balls:
    """The edge-induced k-hop ball of each anchor.

    The anchors are taken BITMAP_ANCHORS at a time, and one BFS finds the
    balls of each such group in a reach bitmap: a row per anchor and a column
    per node reached so far, so the bitmap holds at most BITMAP_ANCHORS cells
    per row of the group's balls. block_ids maps each parent node reached to
    its column while a group runs. It holds one entry per parent node, all
    -1, as they are again on return (None allocates one), so a caller that
    passes the same array for every call allocates nothing per call that
    grows with the parent.

    With max_rows, the BFS drops the last anchors whenever the balls so far
    exceed max_rows rows (the first ball is always kept), so only a prefix
    of the anchors may come back: len(result.anchors) says how many. With
    triangles, the parent's node_triangles(), a row's triangle count is the
    number of its node's triangles whose other two corners are in its ball.
    """
    if k < 0:
        raise GraphError("hop count must be nonnegative")
    anchors = np.asarray(anchors, dtype=np.intp)
    ids = np.full(len(indptr) - 1, -1, dtype=np.intp) if block_ids is None else block_ids
    cap = np.inf if max_rows is None else max_rows
    parts: list[Balls] = []
    rows = 0
    for start in range(0, max(len(anchors), 1), BITMAP_ANCHORS):
        group = anchors[start:start + BITMAP_ANCHORS]
        part = _group_balls(indptr, indices, group, k, ids, triangles, cap - rows)
        if parts and len(part.nodes) > cap - rows:
            break  # the group's first ball alone exceeds what is left
        parts.append(part)
        rows += len(part.nodes)
        if len(part.anchors) < len(group):
            break
    if len(parts) == 1:
        return parts[0]
    firsts = np.cumsum([0] + [len(part.nodes) for part in parts])
    parts = [part._replace(anchors=part.anchors + first, src=part.src + first,
                           dst=part.dst + first) for part, first in zip(parts, firsts)]
    return Balls(*[None if field[0] is None else np.concatenate(field) for field in zip(*parts)])


def _group_balls(
    indptr: np.ndarray, indices: np.ndarray, anchors: np.ndarray, k: int, ids: np.ndarray,
    triangles: NodeTriangles | None, max_rows: float,
) -> Balls:
    """k_hop_balls of one group of anchors, from one bitmap."""
    members = _unmarked(ids, anchors)  # parent id of each column
    width = len(members)
    ids[members] = np.arange(width)
    reach = np.zeros(len(anchors) * width, dtype=bool)  # cell i * width + c: ball i holds c
    frontier = np.arange(len(anchors)) * width + ids[anchors]
    reach[frontier] = True
    rows = len(anchors)
    for level in range(k + 1):
        if rows > max_rows and len(anchors) > 1:
            ends = np.cumsum(np.count_nonzero(reach.reshape(len(anchors), width), axis=1))
            anchors = anchors[:max(1, np.searchsorted(ends, max_rows, side="right"))]
            rows = ends[len(anchors) - 1]
            reach = reach[:len(anchors) * width]
            frontier = frontier[frontier < len(reach)]
        if level == k:
            break
        ball, col = np.divmod(frontier, width)
        node = members[col]
        starts = indptr[node]
        counts = indptr[node + 1] - starts
        reached = indices[_expand(starts, counts)]
        new = _unmarked(ids, reached)
        if len(new):
            ids[new] = width + np.arange(len(new))
            members = np.concatenate([members, new])
            wider = np.zeros((len(anchors), len(members)), dtype=bool)
            wider[:, :width] = reach.reshape(len(anchors), width)
            reach, width = wider.ravel(), len(members)
        cells = np.repeat(ball * width, counts) + ids[reached]
        fresh = np.zeros(len(reach), dtype=bool)
        fresh[cells[~reach[cells]]] = True
        frontier = np.flatnonzero(fresh)
        if not len(frontier):
            break
        reach[frontier] = True
        rows += len(frontier)

    # keep the columns some kept ball holds, in parent id order
    ids[members] = -1
    reach = reach.reshape(len(anchors), width)
    kept = np.flatnonzero(reach.any(axis=0))
    kept = kept[np.argsort(members[kept])]
    members, width = members[kept], len(kept)
    ids[members] = np.arange(width)
    reach = reach[:, kept].ravel()
    at = np.flatnonzero(reach)  # row r is the cell at[r]
    row_of = np.empty(len(reach), dtype=np.intp)
    row_of[at] = np.arange(len(at))
    ball, col = np.divmod(at, width)
    nodes = members[col]
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    cols = ids[indices[_expand(starts, counts)]]
    cells = np.repeat(ball * width, counts) + cols
    inside = (cols >= 0) & reach[cells]
    links = None
    if triangles is not None:
        starts = triangles.indptr[nodes]
        per_row = triangles.indptr[nodes + 1] - starts
        corners = ids[triangles.others[_expand(starts, per_row)]]
        closed = ((corners >= 0)
                  & reach[np.repeat(ball * width, per_row)[:, None] + corners]).all(axis=1)
        links = np.bincount(np.repeat(np.arange(len(at)), per_row)[closed], minlength=len(at))
    first = row_of[np.arange(len(anchors)) * width + ids[anchors]]
    ids[members] = -1
    return Balls(
        nodes=nodes,
        anchors=first,
        src=row_of[cells[inside]],
        dst=np.repeat(np.arange(len(at)), counts)[inside],
        triangles=links,
    )


def triangle_list(
    src: np.ndarray, dst: np.ndarray, degree: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The corners (v, a, c) of each triangle, listed once, of the graph
    whose edges (src, dst) are listed in both directions.

    Each triangle is found once, as the 2-path v -> a -> c whose nodes rise
    in (degree, id) order, closed when (v, c) is an edge; a search of the
    sorted keys dst * n + src tests that. Walking only rising 2-paths keeps a
    hub from costing the square of its degree (Schank & Wagner, WEA 2005).
    """
    n = len(degree)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), degree))] = np.arange(n)
    up = rank[src] > rank[dst]
    keys = np.sort(dst[up] * n + src[up])  # (v, a) with a above v, grouped by v
    v_of, a_of = np.divmod(keys, n)
    out_degree = np.bincount(v_of, minlength=n)
    hops = out_degree[a_of]
    c = a_of[_expand(np.cumsum(out_degree)[a_of] - hops, hops)]
    v, a = np.repeat(v_of, hops), np.repeat(a_of, hops)
    wanted = v * n + c
    closed = keys[np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)] == wanted
    return v[closed], a[closed], c[closed]


def triangle_counts(src: np.ndarray, dst: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Triangles through each node, i.e. edges among its neighbors, of the
    graph whose edges (src, dst) are listed in both directions."""
    return sum(np.bincount(x, minlength=len(degree)) for x in triangle_list(src, dst, degree))


def node_triangles(indptr: np.ndarray, indices: np.ndarray) -> NodeTriangles:
    """The triangles of the graph with CSR arrays (indptr, indices), by corner."""
    n = len(indptr) - 1
    degree = np.diff(indptr)
    v, a, c = triangle_list(indices, np.repeat(np.arange(n), degree), degree)
    corner = np.concatenate([v, a, c])
    others = np.stack([np.concatenate([a, v, v]), np.concatenate([c, c, a])], axis=1)
    counts = np.bincount(corner, minlength=n)
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(counts, out=ptr[1:])
    return NodeTriangles(indptr=ptr, others=others[np.argsort(corner, kind="stable")])


def to_json(g: LabeledGraph) -> str:
    """Serialize to the JSON interchange format used by the CLI."""
    obj: dict = {
        "nodes": [{"id": i, "label": g.node_labels[i]} for i in range(g.node_count)],
        "edges": [{"u": u, "v": v} for u, v in g.edges()],
    }
    if g.label_alphabet_size != (max(g.node_labels, default=-1) + 1):
        obj["label_alphabet_size"] = g.label_alphabet_size
    return json.dumps(obj, sort_keys=True)


def _integer(obj: dict, key: str, default: int | None = None) -> int:
    return json_value(obj, key, int, GraphError, default)


def from_json(text: str | bytes) -> LabeledGraph:
    """Parse the JSON interchange format; ids must be 0-based and contiguous.
    Every malformed document raises GraphError."""
    obj = json_object(text, GraphError, "graph")
    if not (isinstance(obj.get("nodes"), list) and isinstance(obj.get("edges"), list)):
        raise GraphError('a graph is a JSON object with "nodes" and "edges" lists')
    nodes, edge_objs = obj["nodes"], obj["edges"]
    if not all(isinstance(x, dict) for x in nodes + edge_objs):
        raise GraphError("every node and edge must be a JSON object")
    ids = sorted(_integer(n, "id") for n in nodes)
    if ids != list(range(len(nodes))):
        raise GraphError("node ids must be 0-based and contiguous")
    labels = [0] * len(nodes)
    for n in nodes:
        labels[n["id"]] = _integer(n, "label", 0)
    if any("label" in e for e in edge_objs):
        raise GraphError("edges carry no labels; drop the edge \"label\" key")
    edges = [(_integer(e, "u"), _integer(e, "v")) for e in edge_objs]
    alphabet = obj.get("label_alphabet_size")
    return LabeledGraph.from_edges(
        node_count=len(nodes),
        edges=edges,
        node_labels=labels,
        label_alphabet_size=None if alphabet is None else _integer(obj, "label_alphabet_size"),
    )


def load_graph(path) -> LabeledGraph:
    with open(path, "rb") as fh:
        return from_json(fh.read())


def save_graph(g: LabeledGraph, path) -> None:
    atomic_write_text(path, to_json(g))
