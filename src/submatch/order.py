"""Order-embedding geometry: violation energy, max-margin loss, threshold and
decision-cutoff calibration, and the elementwise-minimum intersection.

The violation E(z_q, z_u) = ||max{0, z_q - z_u}||^2 is zero exactly when z_q
is dominated coordinate-wise by z_u, which is how the embedding space encodes
"query neighborhood is a subgraph of target neighborhood".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True)
class MarginConfig:
    margin: float = 1.0  # required violation for negatives in the loss
    threshold: float = 0.5  # violation cutoff for predicting subgraph

    def __post_init__(self) -> None:
        if not (np.isfinite(self.margin) and np.isfinite(self.threshold)):
            raise ValueError("margin and threshold must be finite")
        if self.margin <= 0.0:
            raise ValueError("margin must be positive")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.threshold >= self.margin:
            raise ValueError("threshold must be below the negative margin")


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """The one reduction of E: each last-axis row's np.dot(row, row), bit for bit."""
    return np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0]


def energy(tape: ad.Tape, z_q: ad.Tensor, z_u: ad.Tensor) -> ad.Tensor:
    """E(z_q[i], z_u[i]) of each row pair of two (n, D) tensors, on the tape."""
    if z_q.value.ndim != 2 or z_q.shape != z_u.shape:
        raise ValueError(f"dimension mismatch: {z_q.shape} vs {z_u.shape}")
    pos = np.maximum(0.0, z_q.value - z_u.value)
    out = ad.Tensor(_squared_norms(pos))

    def backward(g, grads):
        grads.add(z_q, 2.0 * pos * g[:, None])
        grads.add(z_u, -2.0 * pos * g[:, None])

    tape.push(out, (z_q, z_u), backward)
    return out


def violation(z_q: np.ndarray, z_u: np.ndarray) -> np.ndarray:
    """E(z_q[i], z_u[i]) of each row pair of two (n, D) arrays."""
    return energy(ad.Tape(record=False), ad.Tensor(z_q), ad.Tensor(z_u)).value


BLOCK_CELLS = 1 << 14  # cap on the (rows, n_q, D) difference buffer


def violation_matrix(query_embs: np.ndarray, target_embs: np.ndarray) -> np.ndarray:
    """All-pairs violations: rows are target nodes, columns query nodes.

    Target rows are broadcast against all query rows in blocks of at most
    BLOCK_CELLS differences, which caps the buffer whatever the graph sizes.
    Each entry is reduced on its own, so its bits do not depend on the block.
    """
    q = np.asarray(query_embs, dtype=np.float64)  # (n_q, D)
    t = np.asarray(target_embs, dtype=np.float64)  # (n_t, D)
    if q.ndim != 2 or t.ndim != 2 or q.shape[1] != t.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape} vs {t.shape}")
    out = np.empty((t.shape[0], q.shape[0]))
    rows = max(1, BLOCK_CELLS // max(1, q.size))
    for start in range(0, t.shape[0], rows):
        diff = np.maximum(0.0, q[None, :, :] - t[start : start + rows, None, :])
        out[start : start + rows] = _squared_norms(diff)
    return out


def intersection(z_1: np.ndarray, z_2: np.ndarray) -> np.ndarray:
    """Elementwise minimum; the greatest lower bound under domination."""
    z_1 = np.asarray(z_1, dtype=np.float64)
    z_2 = np.asarray(z_2, dtype=np.float64)
    if z_1.shape != z_2.shape:
        raise ValueError(f"dimension mismatch: {z_1.shape} vs {z_2.shape}")
    if np.any(z_1 < 0) or np.any(z_2 < 0):
        raise ValueError("intersection requires nonnegative embeddings")
    return np.minimum(z_1, z_2)


def margin_loss(
    tape: ad.Tape,
    z_q: ad.Tensor,
    z_u: ad.Tensor,
    labels: np.ndarray,
    cfg: MarginConfig,
) -> ad.Tensor:
    """Max-margin loss over a batch of embedding pairs, summed within batch.

    Positives contribute E(z_q, z_u); negatives contribute max{0, margin - E}.
    z_q and z_u are (B, D) tensors on the tape, labels is a {0,1} vector.
    """
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("batch must be nonempty")
    energies = energy(tape, z_q, z_u)  # (B,)
    pos_mask = ad.Tensor((labels == 1).astype(np.float64))
    neg_mask = ad.Tensor((labels == 0).astype(np.float64))
    pos_term = ad.mul(tape, energies, pos_mask)
    hinge = ad.relu(tape, ad.add(tape, ad.scale(tape, energies, -1.0),
                                 ad.Tensor(np.full(labels.shape, cfg.margin))))
    neg_term = ad.mul(tape, hinge, neg_mask)
    return ad.sum_all(tape, ad.add(tape, pos_term, neg_term))


THRESHOLD_CANDIDATES = 100  # evenly spaced strictly inside the swept range


def best_balanced_cut(scores: np.ndarray, labels: np.ndarray, cuts: np.ndarray) -> int:
    """Index of the first cut c whose prediction scores > c has the highest
    balanced accuracy, the mean of the true-positive and true-negative rates
    against the boolean labels."""
    best, best_acc = 0, -1.0
    for i, c in enumerate(cuts):
        pred = scores > c
        tpr = float(pred[labels].mean())
        tnr = float((~pred[~labels]).mean())
        balanced = 0.5 * (tpr + tnr)
        if balanced > best_acc:
            best, best_acc = i, balanced
    return best


def calibrate_threshold(
    violations: np.ndarray, labels: np.ndarray, cfg: MarginConfig
) -> float:
    """Sweep candidate thresholds over the observed violation range and pick
    the one maximizing balanced accuracy; respects threshold < margin."""
    violations = np.asarray(violations, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.min() == labels.max():
        raise ValueError("calibration needs both classes")
    lo = float(violations.min())
    hi = min(float(violations.max()), cfg.margin)
    candidates = np.linspace(lo, hi, THRESHOLD_CANDIDATES + 2)[1:-1]
    candidates = candidates[(candidates > 0.0) & (candidates < cfg.margin)]
    if candidates.size == 0:
        candidates = np.array([cfg.margin / 2.0])
    # the prediction v < t, written as -v > -t, which negation leaves exact
    return float(candidates[best_balanced_cut(-violations, labels == 1, -candidates)])


def calibrate_decision_cutoff(scores, labels) -> float:
    """Pick the mean-indicator cutoff maximizing balanced accuracy on labeled
    validation decisions; midpoint between the best separating pair."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if labels.all() or (~labels).all():
        return 0.5
    candidates = np.unique(scores)
    mids = (candidates[:-1] + candidates[1:]) / 2.0 if len(candidates) > 1 else candidates
    return float(mids[best_balanced_cut(scores, labels, mids)])
