"""Online matching: precomputed target-node embeddings, whole-query alignment
matrices of pairwise neighborhood violations, and the neighbor-voting
refinement.

The offline stage embeds every target node once; a query then costs one pass
over its own nodes plus |V_T| * |V_Q| coordinate comparisons, with no search.
`answer` is that online stage, and the one place that turns a query into a
decision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .encoder import Checkpoint, encode_all
from .graphs import GraphError, LabeledGraph, twin_representatives
from .order import MarginConfig, violation_matrix
from .util import atomic_write_text, json_array, json_object, json_value

INDEX_FORMAT_VERSION = 2


class IndexError_(ValueError):
    """Raised when a persisted index does not match the graph or checkpoint."""


@dataclass
class EmbeddingIndex:
    graph_fingerprint: str
    radius: int
    matrix: np.ndarray  # row u = embedding of node u's k-hop neighborhood
    checkpoint_fingerprint: str

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2:
            raise IndexError_("embedding matrix must be 2-D")

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def build_index(g: LabeledGraph, checkpoint: Checkpoint, k: int | None = None) -> EmbeddingIndex:
    """Embed every node of g over its k-hop neighborhood (k defaults to the
    radius the checkpoint was trained at)."""
    return _build_index(g, g.fingerprint(), checkpoint, checkpoint.radius if k is None else k)


def _build_index(
    g: LabeledGraph, fingerprint: str, checkpoint: Checkpoint, radius: int
) -> EmbeddingIndex:
    """build_index for a caller that already holds g.fingerprint()."""
    return EmbeddingIndex(
        graph_fingerprint=fingerprint,
        radius=radius,
        matrix=encode_all(g, radius, checkpoint.params, checkpoint.config),
        checkpoint_fingerprint=checkpoint.fingerprint(),
    )


def save_index(index: EmbeddingIndex, path) -> None:
    obj = {
        "format_version": INDEX_FORMAT_VERSION,
        "graph_fingerprint": index.graph_fingerprint,
        "radius": index.radius,
        "checkpoint_fingerprint": index.checkpoint_fingerprint,
        "embeddings": index.matrix.tolist(),
    }
    atomic_write_text(path, json.dumps(obj))


def load_index(path, checkpoint: Checkpoint) -> EmbeddingIndex:
    """Read an index built with checkpoint; every malformed document, and
    one built with another checkpoint, raises IndexError_."""
    with open(path, "rb") as fh:
        obj = json_object(fh.read(), IndexError_, "index")
    if obj.get("format_version") != INDEX_FORMAT_VERSION:
        raise IndexError_(f"unsupported index format_version {obj.get('format_version')!r}")
    matrix = json_array(obj.get("embeddings"), IndexError_, "index embeddings")
    if matrix.shape == (0,):  # a 0-node graph's (0, D) matrix is saved as []
        matrix = matrix.reshape(0, checkpoint.config.output_dim)
    index = EmbeddingIndex(
        graph_fingerprint=json_value(obj, "graph_fingerprint", str, IndexError_),
        radius=json_value(obj, "radius", int, IndexError_),
        matrix=matrix,
        checkpoint_fingerprint=json_value(obj, "checkpoint_fingerprint", str, IndexError_),
    )
    if index.checkpoint_fingerprint != checkpoint.fingerprint():
        raise IndexError_("index was built with a different checkpoint")
    if index.matrix.shape[1] != checkpoint.config.output_dim:
        raise IndexError_(f"index embeddings have width {index.matrix.shape[1]}, the "
                          f"checkpoint's output_dim is {checkpoint.config.output_dim}")
    return index


def embed_query_nodes(query: LabeledGraph, checkpoint: Checkpoint, k: int) -> np.ndarray:
    """Embedding of every query node's k-hop neighborhood within the query."""
    _require_nodes(query)
    return encode_all(query, k, checkpoint.params, checkpoint.config)


def _require_nodes(query: LabeledGraph) -> None:
    if query.node_count == 0:
        raise GraphError("query graph has no nodes")


@dataclass
class AlignmentMatrix:
    """Violations E(z_q, z_u); rows are target nodes, columns query nodes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or np.any(self.values < 0):
            raise ValueError("alignment entries must form a nonnegative matrix")

    def to_csv(self) -> str:
        n_t, n_q = self.values.shape
        header = "target_node," + ",".join(f"q{j}" for j in range(n_q))
        lines = [header]
        for i in range(n_t):
            lines.append(str(i) + "," + ",".join(f"{v:.8g}" for v in self.values[i]))
        return "\n".join(lines) + "\n"


def alignment(
    query: LabeledGraph,
    index: EmbeddingIndex,
    checkpoint: Checkpoint,
    query_embs: np.ndarray | None = None,
) -> AlignmentMatrix:
    """Fill all |V_T| x |V_Q| violation scores for a connected query.

    A query node whose embedding row has the same bits as its twin
    representative's (graphs.twin_representatives) reuses that node's
    column, so each distinct column is computed once. The bit test keeps
    this exact for embeddings the caller supplies."""
    _require_nodes(query)
    if not query.is_connected():
        raise GraphError("query graph must be connected")
    if query_embs is None:
        query_embs = embed_query_nodes(query, checkpoint, index.radius)
    embs = np.ascontiguousarray(query_embs, dtype=np.float64)
    if embs.ndim != 2 or len(embs) != query.node_count:
        raise ValueError(f"query embeddings of shape {embs.shape} for "
                         f"{query.node_count} query nodes")
    reps = twin_representatives(query)
    bits = embs.view(np.uint64)
    cols = np.where((bits[reps] == bits).all(axis=1), reps, np.arange(len(reps)))
    distinct, which = np.unique(cols, return_inverse=True)
    values = violation_matrix(embs[distinct], index.matrix).take(which, axis=1)
    return AlignmentMatrix(values=values)


@dataclass(frozen=True)
class Decision:
    score: float  # mean of the thresholded indicator over all entries
    decision: bool
    mean_violation: float  # raw mean entry, the threshold-free score for AUROC


def decide(
    matrix: AlignmentMatrix,
    cfg: MarginConfig,
    cutoff: float = 0.5,
    vote_mask: np.ndarray | None = None,
) -> Decision:
    """Aggregate the alignment matrix into a single subgraph decision.

    The score is the mean of the indicator E < threshold (optionally and-ed
    with a voting mask); the decision compares it to a calibrated cutoff.
    """
    indicator = matrix.values < cfg.threshold
    if vote_mask is not None:
        indicator = indicator & vote_mask
    score = float(indicator.mean()) if indicator.size else 0.0
    return Decision(
        score=score,
        decision=score > cutoff,
        mean_violation=float(matrix.values.mean()) if matrix.values.size else 0.0,
    )


def _distance_shells(g: LabeledGraph, source: int, max_hops: int) -> list[list[int]]:
    """The nodes within max_hops of source by hop distance, each shell in id
    order, as bfs_distances lists them."""
    shells: list[list[int]] = [[] for _ in range(max_hops + 1)]
    for node, d in g.bfs_distances(source, max_depth=max_hops).items():
        shells[d].append(node)
    return shells


def vote(
    query: LabeledGraph,
    q: int,
    target: LabeledGraph,
    u: int,
    query_embs: np.ndarray,
    target_embs: np.ndarray,
    hops: int,
    cfg: MarginConfig,
    shells: tuple[list[list[int]], list[list[int]]] | None = None,
) -> bool:
    """Neighbor-consistency vote for matching q onto u.

    Walks hop shells outward (hop 0 first, so a vote refines the plain
    pairwise decision): every query node at hop k must find some target node
    at hop k whose embedding dominates it within the threshold; the first
    query node with no such partner rejects the pair. shells optionally
    passes the hop shells of q and u, as _distance_shells returns them.
    """
    if shells is None:
        shells = _distance_shells(query, q, hops), _distance_shells(target, u, hops)
    q_shells, u_shells = shells
    for k in range(hops + 1):
        if not q_shells[k]:
            break
        if not u_shells[k]:
            return False
        v = violation_matrix(query_embs[q_shells[k]], target_embs[u_shells[k]])
        if np.any(v.min(axis=0) >= cfg.threshold):
            return False
    return True


def vote_mask_for(
    matrix: AlignmentMatrix,
    query: LabeledGraph,
    target: LabeledGraph,
    query_embs: np.ndarray,
    index: EmbeddingIndex,
    cfg: MarginConfig,
) -> np.ndarray:
    """Voting indicator for every alignment entry, over the index's radius.
    Entries already above the threshold are skipped: voting with hop-0
    included can only reject. Each node's hop shells are computed once, on
    first use. A target whose node count is not the index's raises
    IndexError_."""
    if target.node_count != index.node_count:
        raise IndexError_(f"the vote target has {target.node_count} nodes and the index "
                          f"{index.node_count}; vote against the indexed graph")
    hops = index.radius
    passing = matrix.values < cfg.threshold
    mask = np.zeros_like(passing)
    q_shells: dict[int, list[list[int]]] = {}
    u_shells: dict[int, list[list[int]]] = {}
    for t_node, q_node in zip(*np.nonzero(passing)):
        q, u = int(q_node), int(t_node)
        if q not in q_shells:
            q_shells[q] = _distance_shells(query, q, hops)
        if u not in u_shells:
            u_shells[u] = _distance_shells(target, u, hops)
        mask[u, q] = vote(
            query, q, target, u, query_embs, index.matrix, hops, cfg,
            shells=(q_shells[q], u_shells[u]),
        )
    return mask


def answer(
    query: LabeledGraph,
    index: EmbeddingIndex,
    checkpoint: Checkpoint,
    vote_on: LabeledGraph | None = None,
) -> tuple[AlignmentMatrix, Decision]:
    """The online stage: embed the query's nodes at the index radius, fill
    the alignment matrix, vote against vote_on when given (it must be the
    indexed target), and decide with the checkpoint's margin and cutoff."""
    query_embs = embed_query_nodes(query, checkpoint, index.radius)
    matrix = alignment(query, index, checkpoint, query_embs=query_embs)
    vote_mask = None
    if vote_on is not None:
        vote_mask = vote_mask_for(matrix, query, vote_on, query_embs, index, checkpoint.margin)
    return matrix, decide(
        matrix, checkpoint.margin, checkpoint.decision_cutoff, vote_mask=vote_mask
    )
