"""Synthetic graph generators and TU-style dataset ingestion."""

from __future__ import annotations

import glob
import os

import numpy as np

from .graphs import GraphError, LabeledGraph


def _random_labels(n: int, alphabet: int, rng: np.random.Generator) -> list[int]:
    if alphabet <= 1:
        return [0] * n
    return [int(x) for x in rng.integers(0, alphabet, size=n)]


def gen_er(n: int, p: float, alphabet: int, seed: int) -> LabeledGraph:
    """Erdos-Renyi G(n, p) with uniform-random node labels."""
    rng = np.random.default_rng(seed)
    edges = []
    if n > 1 and p > 0.0:
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.shape[0]) < p
        edges = [(int(u), int(v)) for u, v in zip(iu[mask], iv[mask])]
    return LabeledGraph.from_edges(
        node_count=n,
        edges=edges,
        node_labels=_random_labels(n, alphabet, rng),
        label_alphabet_size=alphabet,
    )


def gen_extended_barabasi(
    n: int,
    m: int = 2,
    p_add: float = 0.2,
    p_rewire: float = 0.2,
    alphabet: int = 1,
    seed: int = 0,
) -> LabeledGraph:
    """Preferential-attachment growth with extra-edge and rewiring steps.

    Starts from a clique on m+1 nodes. Each step either adds m edges between
    existing nodes (prob p_add), rewires m edges (prob p_rewire), or grows a
    new node with m preferentially attached edges. Rewires that would
    disconnect the graph are rolled back so every draw stays connected.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if p_add + p_rewire >= 1.0:
        raise ValueError("p_add + p_rewire must be < 1")
    rng = np.random.default_rng(seed)
    seed_size = min(n, m + 1)
    nodes = list(range(seed_size))
    nbrs: list[set[int]] = [set() for _ in range(seed_size)]
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            nbrs[u].add(v)
            nbrs[v].add(u)

    def pick_preferential(exclude: set[int]) -> int | None:
        cand = [u for u in nodes if u not in exclude]
        if not cand:
            return None
        weights = np.array([len(nbrs[u]) + 1 for u in cand], dtype=float)
        return cand[int(rng.choice(len(cand), p=weights / weights.sum()))]

    def connected() -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == len(nodes)

    while len(nodes) < n:
        r = rng.random()
        if r < p_add and len(nodes) > 2:
            for _ in range(m):
                u = int(rng.integers(len(nodes)))
                v = pick_preferential(exclude=nbrs[u] | {u})
                if v is not None:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
        elif r < p_add + p_rewire and len(nodes) > 2:
            for _ in range(m):
                u = int(rng.integers(len(nodes)))
                if not nbrs[u]:
                    continue
                old = sorted(nbrs[u])[int(rng.integers(len(nbrs[u])))]
                new = pick_preferential(exclude=nbrs[u] | {u})
                if new is None:
                    continue
                nbrs[u].discard(old)
                nbrs[old].discard(u)
                nbrs[u].add(new)
                nbrs[new].add(u)
                if not connected():
                    nbrs[u].discard(new)
                    nbrs[new].discard(u)
                    nbrs[u].add(old)
                    nbrs[old].add(u)
        else:
            new_id = len(nodes)
            nodes.append(new_id)
            nbrs.append(set())
            for _ in range(min(m, new_id)):
                v = pick_preferential(exclude=nbrs[new_id] | {new_id})
                if v is not None:
                    nbrs[new_id].add(v)
                    nbrs[v].add(new_id)

    edges = [(u, v) for u in nodes for v in nbrs[u] if u < v]
    return LabeledGraph.from_edges(
        node_count=len(nodes),
        edges=edges,
        node_labels=_random_labels(len(nodes), alphabet, rng),
        label_alphabet_size=alphabet,
    )


class DatasetFormatError(GraphError):
    """Raised on malformed TU-format files; message names the offending line."""


def _find_single(directory: str, suffix: str, required: bool) -> str | None:
    matches = sorted(glob.glob(os.path.join(directory, f"*{suffix}")))
    if not matches:
        if required:
            raise DatasetFormatError(f"no *{suffix} file in {directory}")
        return None
    if len(matches) > 1:
        raise DatasetFormatError(f"multiple *{suffix} files in {directory}")
    return matches[0]


def _read_int_rows(path: str, expect_cols: int) -> list[tuple[int, ...]]:
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != expect_cols:
                raise DatasetFormatError(
                    f"{os.path.basename(path)}:{lineno}: expected {expect_cols} "
                    f"comma-separated fields, got {len(parts)}"
                )
            try:
                rows.append(tuple(int(p) for p in parts))
            except ValueError:
                raise DatasetFormatError(
                    f"{os.path.basename(path)}:{lineno}: non-integer field"
                ) from None
    return rows


def load_tu_dataset(directory: str) -> list[LabeledGraph]:
    """Load a TU-style collection: *_A.txt, *_graph_indicator.txt, optional
    *_node_labels.txt. Node ids are 1-based in the files and rebased to 0 per
    graph; undirected duplicates are merged; nodes named only by the indicator
    are kept as isolated nodes.
    """
    a_path = _find_single(directory, "_A.txt", required=True)
    ind_path = _find_single(directory, "_graph_indicator.txt", required=True)
    lab_path = _find_single(directory, "_node_labels.txt", required=False)

    indicator = [row[0] for row in _read_int_rows(ind_path, 1)]
    n_total = len(indicator)
    raw_labels = None
    if lab_path is not None:
        raw_labels = [row[0] for row in _read_int_rows(lab_path, 1)]
        if len(raw_labels) != n_total:
            raise DatasetFormatError(
                "node label count does not match graph indicator count"
            )

    graph_ids = sorted(set(indicator))
    members: dict[int, list[int]] = {gid: [] for gid in graph_ids}
    for node, gid in enumerate(indicator, start=1):
        members[gid].append(node)
    node_to_graph = {node: gid for node, gid in zip(range(1, n_total + 1), indicator)}
    local_id = {}
    for gid in graph_ids:
        for i, node in enumerate(members[gid]):
            local_id[node] = i

    per_graph_edges: dict[int, set[tuple[int, int]]] = {gid: set() for gid in graph_ids}
    for u, v in _read_int_rows(a_path, 2):
        if u not in node_to_graph or v not in node_to_graph:
            raise DatasetFormatError(f"edge ({u},{v}) references an unknown node")
        if node_to_graph[u] != node_to_graph[v]:
            raise DatasetFormatError(f"edge ({u},{v}) crosses graph boundaries")
        if u == v:
            continue
        a, b = local_id[u], local_id[v]
        per_graph_edges[node_to_graph[u]].add((min(a, b), max(a, b)))

    if raw_labels is None:
        label_map = None
        alphabet = 1
    else:
        distinct = sorted(set(raw_labels))
        label_map = {lab: i for i, lab in enumerate(distinct)}
        alphabet = len(distinct)

    graphs = []
    for gid in graph_ids:
        node_labels = (
            [0] * len(members[gid])
            if label_map is None
            else [label_map[raw_labels[node - 1]] for node in members[gid]]
        )
        graphs.append(
            LabeledGraph.from_edges(
                node_count=len(members[gid]),
                edges=sorted(per_graph_edges[gid]),
                node_labels=node_labels,
                label_alphabet_size=alphabet,
            )
        )
    return graphs
