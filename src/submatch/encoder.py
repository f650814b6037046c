"""Graph neural encoder mapping anchored neighborhoods to order embeddings.

Architecture: GIN-style sum aggregation, h' = MLP(h + sum of neighbor h),
with skip connections realized by concatenating each layer's input onto its
output, so layer k sees all previous scales. Every node carries an anchor
indicator in its input features, which lets the encoder tell apart d-regular
neighborhoods that plain message passing cannot, plus its degree and local
clustering coefficient. The anchor node's final representation goes through a
linear head and a max{0, .} clamp so embeddings stay in the nonnegative orthant
the order geometry requires.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from itertools import chain

import numpy as np

from . import autodiff as ad
from .graphs import (
    AnchoredNeighborhood,
    Balls,
    GraphError,
    LabeledGraph,
    adjacency_csr,
    k_hop_balls,
    k_hop_neighborhood,  # noqa: F401  bench/spans.py wraps encoder.k_hop_neighborhood
    node_triangles,
    triangle_counts,
    twin_representatives,
)
from .order import MarginConfig
from .util import atomic_write_text, json_array, json_object, json_value, keep_freed_heap

CHECKPOINT_FORMAT_VERSION = 3
LEAKY_SLOPE = 0.01  # negative-side slope of every hidden layer's leaky ReLU


@dataclass(frozen=True)
class EncoderConfig:
    layers: int = 8
    hidden_dim: int = 64
    output_dim: int = 64
    label_alphabet_size: int = 1

    def __post_init__(self) -> None:
        if self.layers < 1 or self.hidden_dim < 1 or self.output_dim < 1:
            raise ValueError("layers, hidden_dim, output_dim must be >= 1")
        if self.label_alphabet_size < 1:
            raise ValueError("label_alphabet_size must be >= 1")

    @property
    def input_dim(self) -> int:
        return 3 + self.label_alphabet_size  # anchor flag, labels, degree, clustering

    def layer_input_dim(self, k: int) -> int:
        """Width seen by layer k (0-based): original features plus k skip blocks."""
        return self.input_dim + k * self.hidden_dim

    @property
    def final_dim(self) -> int:
        return self.layer_input_dim(self.layers)


def expected_param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for k in range(cfg.layers):
        d = cfg.layer_input_dim(k)
        shapes[f"layer{k}.w1"] = (d, cfg.hidden_dim)
        shapes[f"layer{k}.b1"] = (cfg.hidden_dim,)
        shapes[f"layer{k}.w2"] = (cfg.hidden_dim, cfg.hidden_dim)
        shapes[f"layer{k}.b2"] = (cfg.hidden_dim,)
    shapes["out.w"] = (cfg.final_dim, cfg.output_dim)
    shapes["out.b"] = (cfg.output_dim,)
    return shapes


def init_params(cfg: EncoderConfig, seed: int) -> dict[str, np.ndarray]:
    """Glorot-uniform weights; zero biases except the output bias at +0.1,
    which keeps fresh models off the clamp's zero-gradient region.

    The output head starts at a fraction of its Glorot bound: concatenated
    skip features have large correlated components, and a full-scale head can
    push every pre-clamp coordinate negative at init, freezing the model.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in expected_param_shapes(cfg).items():
        if name.endswith(".b1") or name.endswith(".b2"):
            params[name] = np.zeros(shape)
        elif name == "out.b":
            params[name] = np.full(shape, 0.1)
        else:
            bound = np.sqrt(6.0 / (shape[0] + shape[-1]))
            if name == "out.w":
                bound *= 0.05
            elif ".w1" in name:
                # sum aggregation scales activations by roughly one plus the
                # average degree per layer; compensate so early training sees
                # violations on the order of the margin instead of exploding
                bound *= 0.2
            params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def build_input_features(
    node_labels: np.ndarray,
    anchors: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    cfg: EncoderConfig,
    triangles: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row features of a block: [anchor flag] + one-hot(label) +
    [degree, clustering], where (src, dst) lists every edge in both
    directions. Clustering is 0 when the degree is below 2. triangles, the
    triangles through each row inside the block, are counted from (src, dst)
    when not given."""
    n = len(node_labels)
    bad = np.flatnonzero(node_labels >= cfg.label_alphabet_size)
    if len(bad):
        raise GraphError(
            f"node label {node_labels[bad[0]]} outside encoder alphabet of size "
            f"{cfg.label_alphabet_size}"
        )
    feats = np.zeros((n, cfg.input_dim))
    feats[anchors, 0] = 1.0
    feats[np.arange(n), 1 + node_labels] = 1.0
    deg = np.bincount(dst, minlength=n)
    links = triangle_counts(src, dst, deg) if triangles is None else triangles
    many = deg >= 2
    feats[:, -2] = deg
    feats[many, -1] = 2.0 * links[many] / (deg[many] * (deg[many] - 1))
    return feats


class _Block:
    """Disjoint union of a batch of neighborhoods, encoded in one pass.

    index is the (src, dst) pair of every directed edge, grouped by dst in
    row order, as an IndexPairs, so training and inference plan their
    neighbor sums once per block and direction. Edge labels are not read:
    the encoder sees only node labels and structure.
    """

    def __init__(self, node_labels: np.ndarray, anchors: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, cfg: EncoderConfig, triangles: np.ndarray | None = None):
        self.features = build_input_features(node_labels, anchors, src, dst, cfg, triangles)
        self.anchors = anchors
        self.index = ad.IndexPairs(src, dst)

    @classmethod
    def of_neighborhoods(cls, neighborhoods: list[AnchoredNeighborhood], cfg: EncoderConfig):
        """Rows in neighborhood order; each neighborhood's edges in adjacency
        order (training's aggregation order depends on it). Built in one pass
        over all rows: a row's edges sit at its CSR positions, shifted by its
        neighborhood's first row."""
        graphs = [nh.graph for nh in neighborhoods]
        sizes = np.fromiter((g.node_count for g in graphs), dtype=np.intp, count=len(graphs))
        starts = np.cumsum(sizes) - sizes
        rows = list(chain.from_iterable(g.adjacency for g in graphs))
        degrees = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        indices = np.fromiter(chain.from_iterable(rows), dtype=np.intp, count=degrees.sum())
        anchors = starts + np.fromiter((nh.anchor for nh in neighborhoods), dtype=np.intp,
                                       count=len(graphs))
        labels = np.fromiter(chain.from_iterable(g.node_labels for g in graphs), dtype=np.intp,
                             count=len(rows))
        src = indices + np.repeat(np.repeat(starts, sizes), degrees)
        dst = np.repeat(np.arange(len(rows), dtype=np.intp), degrees)
        return cls(labels, anchors, src, dst, cfg)

    @classmethod
    def of_balls(cls, balls: Balls, node_labels: np.ndarray, cfg: EncoderConfig):
        """Rows of k_hop_balls(); node_labels are the parent's, per node.
        The balls' triangle counts, when present, stand in for counting them
        on the block's edges."""
        return cls(node_labels[balls.nodes], balls.anchors, balls.src, balls.dst, cfg,
                   balls.triangles)


def _forward(
    tape: ad.Tape, block: _Block, params: dict[str, ad.Tensor], cfg: EncoderConfig
) -> ad.Tensor:
    """Training forward pass: neighbor sums in index order, BLAS matmuls.

    x = concat(h, previous x), so each layer sums only the newest column
    block and appends the previous layer's neighbor sums, as _infer does;
    row_sum_aggregate keeps the full-width backward over x."""
    x = ad.Tensor(block.features)
    sums = None  # neighbor sums of x
    for k in range(cfg.layers):
        sums = ad.row_sum_aggregate(tape, x, block.index, previous=sums)
        agg = ad.add(tape, x, sums)
        h = ad.add(tape, ad.matmul(tape, agg, params[f"layer{k}.w1"]), params[f"layer{k}.b1"])
        h = ad.leaky_relu(tape, h, LEAKY_SLOPE)
        h = ad.add(tape, ad.matmul(tape, h, params[f"layer{k}.w2"]), params[f"layer{k}.b2"])
        x = ad.concat(tape, h, x)
    final = ad.take_rows(tape, x, block.anchors)
    z = ad.add(tape, ad.matmul(tape, final, params["out.w"]), params["out.b"])
    return ad.relu(tape, z)


def _infer(block: _Block, params: dict[str, ad.Tensor], cfg: EncoderConfig) -> np.ndarray:
    """Canonical inference forward pass; row i embeds the block's i-th
    neighborhood.

    A row's bits depend only on the isomorphism class of its anchored
    neighborhood, never on node numbering or on the rest of the block:
    neighbor sums add each column's values in ascending order, and every
    matmul row is computed on its own. Two shortcuts leave the bits alone:
    the neighbor sum of concat(h, x) is concat(sum h, sum x), so each layer
    aggregates only the newest column block; and layer k computes only nodes
    within layers-1-k hops of an anchor, since no other node's layer-k output
    reaches an anchor's embedding. Every layer's sum reads the block's one
    plan, masked to the nodes that layer computes.
    """
    tape = ad.Tape(record=False)

    def dense(a: np.ndarray, name: str) -> np.ndarray:
        return ad.matmul(tape, ad.Tensor(a), params[name], row_stable=True).value

    src, dst = block.index
    reach = np.zeros(len(block.features), dtype=bool)
    reach[block.anchors] = True
    needed = []  # needed[k]: the nodes layer k must compute
    for _ in range(cfg.layers):
        needed.insert(0, reach)
        reach = reach.copy()
        reach[src[reach[dst]]] = True

    xs = [block.features]  # x as column blocks, oldest first; x = concat(reversed(xs))
    sums = []  # the neighbor sums of xs, part by part
    for k in range(cfg.layers):
        sums.append(ad.row_sum_aggregate(tape, ad.Tensor(xs[-1]), block.index, value_sorted=True,
                                         only=needed[k]).value)
        rows = np.flatnonzero(needed[k])
        agg = _gather(xs, rows) + _gather(sums, rows)
        h = dense(agg, f"layer{k}.w1") + params[f"layer{k}.b1"].value
        h = np.maximum(h, h * LEAKY_SLOPE)  # leaky ReLU, as the slope lies in (0, 1)
        fresh = np.zeros((len(block.features), cfg.hidden_dim))
        fresh[rows] = dense(h, f"layer{k}.w2") + params[f"layer{k}.b2"].value
        xs.append(fresh)
    z = dense(_gather(xs, block.anchors), "out.w") + params["out.b"].value
    return np.maximum(z, 0.0)


def _gather(parts: list[np.ndarray], rows: np.ndarray) -> np.ndarray:
    """Rows of concat(reversed(parts)), the newest part's columns first."""
    return np.concatenate([p[rows] for p in reversed(parts)], axis=1)


def _as_tensors(params: dict[str, np.ndarray]) -> dict[str, ad.Tensor]:
    return {k: ad.Tensor(v, name=k) for k, v in params.items()}


def encode_batch(
    tape: ad.Tape,
    neighborhoods: list[AnchoredNeighborhood],
    params: dict[str, ad.Tensor],
    cfg: EncoderConfig,
) -> ad.Tensor:
    """Embed a batch of neighborhoods; returns a (B, D) tensor on the tape."""
    return _forward(tape, _Block.of_neighborhoods(neighborhoods, cfg), params, cfg)


def encode(
    n: AnchoredNeighborhood, params: dict[str, np.ndarray], cfg: EncoderConfig
) -> np.ndarray:
    """Inference embedding of one neighborhood: a (D,) array whose bits
    depend only on the isomorphism class of the anchored neighborhood."""
    return _infer(_Block.of_neighborhoods([n], cfg), _as_tensors(params), cfg)[0]


CHUNK_ROWS = 4096  # nodes per inference block in encode_all


def encode_all(
    g: LabeledGraph, k: int, params: dict[str, np.ndarray], cfg: EncoderConfig
) -> np.ndarray:
    """Embeddings of every node's k-hop neighborhood, row u for node u, each
    bit for bit what encode() returns for it.

    Only the twin representatives (graphs.twin_representatives) are
    embedded; a twin's anchored ball is isomorphic to its representative's,
    so it gets the representative's row. Balls are cut straight from the
    graph's CSR arrays. The anchors left are split evenly into as many
    blocks as the mean ball so far says fill about CHUNK_ROWS rows each. A
    block never holds more than 2 * CHUNK_ROWS rows unless it is one ball
    larger than that: the BFS hands back fewer anchors when the balls
    outgrow the estimate. The graph's triangles are listed
    once per call, and each block's triangle counts are read from them; one
    node-to-column array, allocated once per call, serves every block.

    Each block allocates and frees many arrays of 0.1-2 MB, so the first call
    runs util.keep_freed_heap: from then on the process keeps up to 256 MiB
    of freed heap instead of returning it to the kernel (glibc only).
    """
    keep_freed_heap()
    tensors = _as_tensors(params)
    out = np.zeros((g.node_count, cfg.output_dim))
    indptr, indices = adjacency_csr(g)
    node_labels = np.asarray(g.node_labels, dtype=np.intp)
    triangles = node_triangles(indptr, indices)
    block_ids = np.full(g.node_count, -1, dtype=np.intp)
    # rows per ball: first a tree of the graph's mean degree, then the mean so far
    mean_degree = len(indices) / max(g.node_count, 1)
    per_ball = 1.0
    for _ in range(min(k, g.node_count)):
        per_ball = min(1.0 + mean_degree * per_ball, g.node_count)
    reps = twin_representatives(g)
    anchors = np.flatnonzero(reps == np.arange(g.node_count))
    first = rows = 0
    while first < len(anchors):
        left = len(anchors) - first
        blocks = max(1, round(left * per_ball / CHUNK_ROWS))
        balls = k_hop_balls(indptr, indices, anchors[first:first + -(-left // blocks)], k,
                            max_rows=2 * CHUNK_ROWS, block_ids=block_ids, triangles=triangles)
        last = first + len(balls.anchors)
        out[anchors[first:last]] = _infer(_Block.of_balls(balls, node_labels, cfg), tensors, cfg)
        rows += len(balls.nodes)
        first = last
        per_ball = rows / first
    return out[reps]


@dataclass
class Checkpoint:
    """Trained model artifact: encoder config + parameters + decision config.

    radius records the hop radius the model was trained at and is the default
    neighborhood radius for indexing and querying.
    """

    config: EncoderConfig
    params: dict[str, np.ndarray]
    margin: MarginConfig
    decision_cutoff: float = 0.5
    radius: int = 4

    def fingerprint(self) -> str:
        """sha256 of the config, margin, cutoff and radius and of each
        parameter's name, dtype, shape and raw bytes, as saved indexes record
        it. Setting a field or writing into a parameter array changes it."""
        scalars = [asdict(self.config), asdict(self.margin), self.decision_cutoff, self.radius]
        content = hashlib.sha256(json.dumps(scalars).encode())
        for name, value in sorted(self.params.items()):
            value = np.ascontiguousarray(value)
            content.update(json.dumps([name, value.dtype.str, value.shape]).encode())
            content.update(value)
        return content.hexdigest()


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    obj = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(ckpt.config),
        "margin": asdict(ckpt.margin),
        "decision_cutoff": ckpt.decision_cutoff,
        "radius": ckpt.radius,
        "params": {name: arr.tolist() for name, arr in sorted(ckpt.params.items())},
    }
    atomic_write_text(path, json.dumps(obj))


class CheckpointError(ValueError):
    pass


def _config_from_json(cls, obj):
    """cls built from a JSON object that holds each of cls's fields, with a
    value of its default's type, and no other key."""
    if not isinstance(obj, dict):
        raise CheckpointError(f"checkpoint {cls.__name__} must be a JSON object")
    kinds = {f.name: type(f.default) for f in fields(cls)}
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise CheckpointError(f"unknown checkpoint {cls.__name__} keys: {unknown}")
    values = {name: json_value(obj, name, kind, CheckpointError) for name, kind in kinds.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise CheckpointError(f"bad checkpoint config: {exc}") from None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; every malformed document, one that lacks a field
    included, raises CheckpointError. No field has a default."""
    with open(path, "rb") as fh:
        obj = json_object(fh.read(), CheckpointError, "checkpoint")
    if obj.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {obj.get('format_version')!r}"
        )
    cfg = _config_from_json(EncoderConfig, obj.get("config"))
    margin = _config_from_json(MarginConfig, obj.get("margin"))
    decision_cutoff = json_value(obj, "decision_cutoff", float, CheckpointError)
    if not np.isfinite(decision_cutoff):
        raise CheckpointError("decision_cutoff must be finite")
    radius = json_value(obj, "radius", int, CheckpointError)
    expected = expected_param_shapes(cfg)
    entries = obj.get("params")
    if not isinstance(entries, dict):
        raise CheckpointError("checkpoint params must be a JSON object")
    wrong = sorted(set(entries) ^ set(expected))
    if wrong:
        raise CheckpointError(f"checkpoint params missing or unexpected: {wrong}")
    params = {}
    for name, shape in expected.items():
        params[name] = json_array(entries[name], CheckpointError, f"parameter {name!r}")
        if params[name].shape != shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, expected {shape}")
    return Checkpoint(config=cfg, params=params, margin=margin,
                      decision_cutoff=decision_cutoff, radius=radius)
