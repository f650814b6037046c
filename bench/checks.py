"""Correctness checks for the benchmark's outputs.

Each check recomputes what the program returned from the definition, with
its own code, or tests a property the method must have. None compares
against a stored copy of an earlier output. Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from inputs import two_colouring
from submatch.smallgraphs import brute_force_anchored

ALIGNMENT_RTOL = 1e-12


def alignment_reference(query_embs: np.ndarray, target_embs: np.ndarray) -> np.ndarray:
    """||max(0, z_q - z_u)||^2 by broadcasting; rows target, columns query."""
    diff = np.maximum(0.0, query_embs[None, :, :] - target_embs[:, None, :])
    return (diff * diff).sum(axis=2)


def check_alignment(values, query_embs, target_embs) -> list[str]:
    ref = alignment_reference(query_embs, target_embs)
    if values.shape != ref.shape:
        return [f"alignment shape {values.shape}, expected {ref.shape}"]
    bad = np.abs(values - ref) > ALIGNMENT_RTOL * np.abs(ref)
    if bad.any():
        t, q = np.argwhere(bad)[0]
        return [f"alignment[{t},{q}] = {values[t, q]!r}, reference {ref[t, q]!r} "
                f"({int(bad.sum())} entries off)"]
    return []


def hop_shells(adjacency, hops: int) -> np.ndarray:
    """shells[k, a, b] is true iff b lies exactly k hops from a (own BFS)."""
    n = len(adjacency)
    shells = np.zeros((hops + 1, n, n), dtype=bool)
    for a in range(n):
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            if dist[u] == hops:
                continue
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for b, d in dist.items():
            shells[d, a, b] = True
    return shells


def vote_mask_reference(values, threshold, query_shells, target_shells) -> np.ndarray:
    """Vote for (u, q) from the definition: the entry passes, and at every hop
    k each query node k hops from q has some target node k hops from u whose
    entry in the returned matrix passes."""
    passing = values < threshold
    mask = passing.copy()
    for k in range(query_shells.shape[0]):
        covered = (target_shells[k].astype(np.int64) @ passing.astype(np.int64)) > 0
        uncovered = (~covered).astype(np.int64) @ query_shells[k].T.astype(np.int64)
        mask &= uncovered == 0
    return mask


def check_vote_mask(mask, values, threshold, query_shells, target_shells) -> list[str]:
    problems = []
    if (mask & ~(values < threshold)).any():
        problems.append("a voted entry does not pass the plain threshold")
    ref = vote_mask_reference(values, threshold, query_shells, target_shells)
    if mask.shape != ref.shape:
        return problems + [f"vote mask shape {mask.shape}, expected {ref.shape}"]
    if (mask != ref).any():
        t, q = np.argwhere(mask != ref)[0]
        problems.append(f"vote mask[{t},{q}] = {bool(mask[t, q])}, definition says "
                        f"{bool(ref[t, q])} ({int((mask != ref).sum())} entries differ)")
    return problems


def check_index(matrix, expected_rows: dict[int, np.ndarray]) -> list[str]:
    """Rows are nonnegative, and row u equals expected_rows[u] bit for bit."""
    problems = []
    if (matrix < 0).any() or not np.isfinite(matrix).all():
        problems.append("index has a negative or non-finite entry")
    for u, row in expected_rows.items():
        if not np.array_equal(matrix[u], row):
            problems.append(f"index row {u} differs from its expected embedding")
            break
    return problems


def check_relabelled_index(matrix, relabelled_matrix, perm) -> list[str]:
    """Node u of the original is node perm[u] of the copy: same row, same bits."""
    if not np.array_equal(relabelled_matrix[perm], matrix):
        return ["index of the relabelled copy differs from the original's rows"]
    return []


def curriculum_schedule(epochs: int, n_graphs: int, max_radius: int = 4):
    """(radius, pool size) per epoch when every epoch after the first advances
    the curriculum: radius grows to max_radius, then the pool doubles."""
    radius, count, out = 1, 1, []
    for epoch in range(epochs):
        out.append((radius, min(count, n_graphs)))
        if epoch >= 1:
            if radius < max_radius:
                radius += 1
            else:
                count *= 2
    return out


def check_training(history, margin: float, threshold: float, n_graphs: int) -> list[str]:
    problems = []
    got = [(h.radius, h.n_targets) for h in history]
    want = curriculum_schedule(len(history), n_graphs)
    if got != want:
        problems.append(f"curriculum went {got}, expected {want}")
    if not all(math.isfinite(h.loss) for h in history):
        problems.append("a training loss is not finite")
    if not 0.0 < threshold < margin:
        problems.append(f"threshold {threshold!r} outside (0, {margin})")
    return problems


def brute_force_size(query_nodes: int, target_nodes: int) -> int:
    """Number of anchored injections brute force enumerates."""
    return math.perm(target_nodes - 1, query_nodes - 1) if query_nodes <= target_nodes else 0


def check_training_pairs(pairs, max_injections: int) -> tuple[list[str], int]:
    """Labels of the pairs small enough for brute force, checked against
    raw injection enumeration; returns (problems, pairs checked)."""
    problems, checked = [], 0
    for pair in pairs:
        q, t = pair.query, pair.target
        if brute_force_size(q.node_count, t.node_count) > max_injections:
            continue
        checked += 1
        truth = brute_force_anchored(q.graph, q.anchor, t.graph, t.anchor)
        if truth != pair.label:
            problems.append(f"training pair labelled {pair.label}, brute force says {truth}")
    return problems, checked


def check_exact(outcome: str, positive: bool, query, target) -> list[str]:
    """Positives are sampled subgraphs, so TRUE. Negatives must be FALSE, and
    the benchmark backs that with a 2-colouring of the target and an odd
    cycle in the query. No decision may time out."""
    if outcome == "timeout":
        return ["exact decision timed out"]
    if positive:
        return [] if outcome == "true" else [f"sampled subgraph decided {outcome}"]
    problems = []
    if two_colouring(target) is None:
        problems.append("negative instance's target is not bipartite")
    if two_colouring(query) is not None:
        problems.append("negative instance's query has no odd cycle")
    if outcome != "false":
        problems.append(f"odd-cycle query into bipartite target decided {outcome}")
    return problems
