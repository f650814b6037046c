"""End-to-end training: curriculum over query radius and target-pool size,
Adam with cosine-annealed restarts, oracle-labeled batch construction with a
fixed negative mix, periodic dataset regeneration, and best-checkpoint
selection by validation AUROC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .encoder import Checkpoint, EncoderConfig, _as_tensors, encode_batch, init_params
from .evaluate import auroc
from .graphs import GraphError, LabeledGraph
from .order import MarginConfig, calibrate_threshold, margin_loss, violation
from .sampling import (
    SampleMemo,
    SamplerConfig,
    TrainingPair,
    sample_negative_pair,
    sample_positive_pair,
)
from .util import atomic_write_text, keep_freed_heap

MAX_RADIUS = 4
MAX_TARGETS = 256
VALIDATION_CHUNK = 128  # pairs encoded per tape-less batch in pair_violations
# consecutive validation negatives that may fail certification before the
# data is declared unable to yield any
MAX_FAILED_NEGATIVES = 100

LEARNING_RATE = 1e-3  # the cosine schedule's peak
# fraction of weight magnitude decayed per step at the peak learning rate
# (anneals with the cosine schedule, biases exempt); counterweight to the
# hinge term's one-sided pressure, without which the embedding scale
# ratchets upward until every pair is either exactly dominated or
# violated far beyond the margin and ranking resolution is lost
WEIGHT_DECAY = 0.02
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
COSINE_RESTART_PERIOD = 100  # epochs
# the fixed negative mix: negatives per positive, the hard share of the
# negatives, and the same-target share of the non-hard ones
NEG_POS_RATIO = 3
HARD_NEGATIVE_FRACTION = 0.10
SAME_TARGET_FRACTION = 0.5
# pairs per batch: BASE_BATCH per pool target, at most MAX_BATCH
BASE_BATCH = 16
MAX_BATCH = 64
# validation pairs drawn per training pair of one epoch (at least 32)
VAL_FRACTION = 0.1


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class CurriculumState:
    current_radius: int = 1
    current_target_count: int = 1
    epochs_since_improvement: int = 0
    best_metric: float = -math.inf

    def __post_init__(self) -> None:
        if not 1 <= self.current_radius <= MAX_RADIUS:
            raise ValueError(f"radius must lie in [1, {MAX_RADIUS}]")
        if not 1 <= self.current_target_count <= MAX_TARGETS:
            raise ValueError(f"target count must lie in [1, {MAX_TARGETS}]")
        if self.epochs_since_improvement < 0:
            raise ValueError("counter must be nonnegative")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    plateau_patience: int = 20
    plateau_delta: float = 0.1  # percentage points of validation AUROC
    regen_period: int = 50
    min_iterations: int = 64
    val_radius: int = MAX_RADIUS
    seed: int = 0

    def __post_init__(self) -> None:
        positive = (
            self.epochs, self.plateau_patience, self.plateau_delta,
            self.regen_period, self.min_iterations,
        )
        if not all(0 < x < math.inf for x in positive):
            raise ValueError("all counts, periods and deltas must be positive and finite")
        if self.val_radius < 1:
            raise ValueError(f"val_radius must be at least 1, got {self.val_radius}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @staticmethod
    def init(params: dict[str, np.ndarray]) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, np.ndarray]:
    """One bias-corrected Adam update. grads holds every parameter's
    gradient: each parameter enters the encoder's forward pass, so backward
    returns it."""
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.t
    correction2 = 1.0 - ADAM_BETA2 ** state.t
    new_params = {}
    for name, p in params.items():
        g = grads[name]
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params


def cosine_lr(epoch: int, base_lr: float) -> float:
    """Cosine annealing restarted every COSINE_RESTART_PERIOD epochs."""
    phase = (epoch % COSINE_RESTART_PERIOD) / COSINE_RESTART_PERIOD
    return base_lr * (1.0 + math.cos(math.pi * phase)) / 2.0


def curriculum_update(
    state: CurriculumState, epoch_metric: float, cfg: TrainConfig
) -> CurriculumState:
    """Advance the curriculum after plateau_patience epochs without a metric
    gain above plateau_delta: radius grows first, then the target pool doubles."""
    if epoch_metric > state.best_metric + cfg.plateau_delta:
        return replace(
            state, epochs_since_improvement=0, best_metric=epoch_metric
        )
    stale = state.epochs_since_improvement + 1
    if stale < cfg.plateau_patience:
        return replace(state, epochs_since_improvement=stale)
    radius = state.current_radius
    count = state.current_target_count
    if radius < MAX_RADIUS:
        radius += 1
    elif count < MAX_TARGETS:
        count *= 2
    return CurriculumState(
        current_radius=radius,
        current_target_count=count,
        epochs_since_improvement=0,
        best_metric=state.best_metric,
    )


def batch_size_for(curriculum: CurriculumState) -> int:
    return min(MAX_BATCH, BASE_BATCH * curriculum.current_target_count)


def _negative(
    pool: list[LabeledGraph],
    kind: str,
    cross_target: bool,
    radius: int,
    sampler_cfg: SamplerConfig,
    rng: np.random.Generator,
    memo: SampleMemo,
) -> TrainingPair | None:
    for _ in range(4):
        gi = int(rng.integers(len(pool)))
        g = pool[gi]
        if cross_target and len(pool) > 1:
            others = [j for j in range(len(pool)) if j != gi]
            source = pool[others[int(rng.integers(len(others)))]]
            pair = sample_negative_pair(
                g, radius, "random", sampler_cfg, rng, query_source=source, memo=memo
            )
        else:
            pair = sample_negative_pair(g, radius, kind, sampler_cfg, rng, memo=memo)
        if pair is not None:
            return pair
    return None


def build_epoch_batches(
    targets: list[LabeledGraph],
    curriculum: CurriculumState,
    cfg: TrainConfig,
    sampler_cfg: SamplerConfig,
    rng: np.random.Generator,
) -> list[list[TrainingPair]]:
    """One epoch of oracle-labeled batches at the fixed negative mix.

    Positives cycle over the curriculum's target pool, one fresh query per
    visit. Negatives split hard / same-target random / cross-target random;
    with a single target in the pool the cross-target share folds into the
    same-target share. Iterations are lower-bounded by cfg.min_iterations.
    One SampleMemo serves the whole epoch.
    """
    if not targets:
        raise ValueError("target pool is empty")
    radius = curriculum.current_radius
    batch = batch_size_for(curriculum)
    n_pos = max(1, round(batch / (1 + NEG_POS_RATIO)))
    n_neg = batch - n_pos
    n_hard = int(round(HARD_NEGATIVE_FRACTION * n_neg))
    n_same = int(round(SAME_TARGET_FRACTION * (n_neg - n_hard)))
    n_cross = n_neg - n_hard - n_same
    iters = max(cfg.min_iterations, math.ceil(len(targets) / n_pos))

    memo = SampleMemo()
    batches = []
    cursor = 0
    for _ in range(iters):
        pairs: list[TrainingPair] = []
        for _ in range(n_pos):
            g = targets[cursor % len(targets)]
            cursor += 1
            pairs.append(sample_positive_pair(g, radius, sampler_cfg, rng, memo=memo))
        for kind, cross, count in (
            ("hard", False, n_hard),
            ("random", False, n_same),
            ("random", True, n_cross),
        ):
            for _ in range(count):
                pair = _negative(targets, kind, cross, radius, sampler_cfg, rng, memo)
                if pair is None and kind == "hard":
                    pair = _negative(targets, "random", False, radius, sampler_cfg, rng, memo)
                if pair is not None:
                    pairs.append(pair)
        batches.append(pairs)
    return batches


def sample_validation_pairs(
    datasets: list[LabeledGraph],
    radius: int,
    sampler_cfg: SamplerConfig,
    rng: np.random.Generator,
    n_pairs: int,
) -> list[TrainingPair]:
    """Balanced held-out pairs drawn with a dedicated rng stream.

    Validation difficulty stays fixed at the given radius (the final task)
    rather than tracking the curriculum, so every epoch is scored at the
    task that matters. train redraws the pairs every regen_period epochs:
    per-epoch AUROCs are measured on the same pairs only within one draw,
    and the best-epoch pick compares them across draws as they are.
    Raises GraphError after MAX_FAILED_NEGATIVES negative draws in a row
    without a certified pair.
    """
    memo = SampleMemo()
    pairs: list[TrainingPair] = []
    n_pos = n_pairs // 2
    for i in range(n_pos):
        g = datasets[int(rng.integers(len(datasets)))]
        pairs.append(sample_positive_pair(g, radius, sampler_cfg, rng, memo=memo))
    failed = 0
    while len(pairs) < n_pairs:
        kind = "hard" if rng.random() < HARD_NEGATIVE_FRACTION else "random"
        cross = kind == "random" and rng.random() < 1.0 - SAME_TARGET_FRACTION
        pair = _negative(datasets, kind, cross, radius, sampler_cfg, rng, memo)
        if pair is None:
            pair = _negative(datasets, "random", False, radius, sampler_cfg, rng, memo)
        if pair is not None:
            pairs.append(pair)
            failed = 0
            continue
        failed += 1
        if failed == MAX_FAILED_NEGATIVES:
            raise GraphError(
                f"no negative validation pair could be certified in {failed} draws "
                "in a row; the training graphs are too small or too uniform"
            )
    return pairs


def pair_violations(
    pairs: list[TrainingPair],
    params: dict[str, np.ndarray],
    cfg: EncoderConfig,
) -> np.ndarray:
    """Violation E(z_query, z_target) per pair, computed without a tape."""
    out = np.empty(len(pairs))
    tensors = _as_tensors(params)
    for start in range(0, len(pairs), VALIDATION_CHUNK):
        block = pairs[start : start + VALIDATION_CHUNK]
        nbhds = [p.query for p in block] + [p.target for p in block]
        embs = encode_batch(ad.Tape(record=False), nbhds, tensors, cfg).value
        out[start : start + len(block)] = violation(embs[: len(block)], embs[len(block) :])
    return out


@dataclass
class EpochStats:
    epoch: int
    loss: float
    val_auroc: float
    radius: int
    n_targets: int
    lr: float


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    history: list[EpochStats]
    best_epoch: int
    best_val_auroc: float


def history_to_csv(history: list[EpochStats]) -> str:
    lines = ["epoch,loss,val_auroc,radius,n_targets,lr"]
    for h in history:
        lines.append(
            f"{h.epoch},{h.loss:.10g},{h.val_auroc:.10g},{h.radius},"
            f"{h.n_targets},{h.lr:.10g}"
        )
    return "\n".join(lines) + "\n"


def save_history(history: list[EpochStats], path) -> None:
    atomic_write_text(path, history_to_csv(history))


def _select_pool(
    datasets: list[LabeledGraph], count: int, rng: np.random.Generator
) -> list[LabeledGraph]:
    count = min(count, len(datasets))
    idx = rng.choice(len(datasets), size=count, replace=False)
    return [datasets[int(i)] for i in sorted(idx)]


def train(
    datasets: list[LabeledGraph],
    cfg: TrainConfig,
    encoder_cfg: EncoderConfig,
    margin_cfg: MarginConfig,
    sampler_cfg: SamplerConfig,
) -> TrainResult:
    """Fit the encoder on the target pool; returns the best-validation
    checkpoint (threshold calibrated on held-out violations) plus per-epoch
    history. Non-finite loss aborts with TrainingDiverged, without a numpy
    warning.

    Each step allocates and frees many arrays of 0.1-2 MB, so the first call
    runs util.keep_freed_heap: from then on the process keeps up to 256 MiB
    of freed heap instead of returning it to the kernel (glibc only)."""
    keep_freed_heap()
    if not datasets:
        raise ValueError("datasets must contain at least one target graph")
    small = [i for i, g in enumerate(datasets) if g.node_count < 2]
    if small:
        raise GraphError(
            f"training graph {small[0]} has {datasets[small[0]].node_count} node(s); "
            "negative sampling needs at least 2"
        )
    params = init_params(encoder_cfg, seed=cfg.seed)
    adam = AdamState.init(params)
    curriculum = CurriculumState()
    data_rng = np.random.default_rng([cfg.seed, 1])
    val_rng = np.random.default_rng([cfg.seed, 2])
    pool_rng = np.random.default_rng([cfg.seed, 3])

    history: list[EpochStats] = []
    best = (-math.inf, -1, params)  # (val auroc pct, epoch, params copy)
    pool: list[LabeledGraph] = []
    val_pairs: list[TrainingPair] = []

    def refresh_pool() -> None:
        nonlocal pool
        pool = _select_pool(datasets, curriculum.current_target_count, pool_rng)

    def refresh_val() -> None:
        nonlocal val_pairs
        per_epoch = cfg.min_iterations * batch_size_for(curriculum)
        n_val = max(32, int(VAL_FRACTION * per_epoch))
        val_pairs = sample_validation_pairs(
            datasets, cfg.val_radius, sampler_cfg, val_rng, n_val
        )

    for epoch in range(cfg.epochs):
        if epoch % cfg.regen_period == 0:
            refresh_pool()
            refresh_val()
        lr = cosine_lr(epoch, LEARNING_RATE)
        batches = build_epoch_batches(pool, curriculum, cfg, sampler_cfg, data_rng)
        epoch_loss = 0.0
        for pairs in batches:
            tape = ad.Tape()
            tensors = _as_tensors(params)
            nbhds = [p.query for p in pairs] + [p.target for p in pairs]
            # the check below reports a forward pass that overflows, so numpy's
            # own warning would only repeat it
            with np.errstate(over="ignore", invalid="ignore"):
                embs = encode_batch(tape, nbhds, tensors, encoder_cfg)
                n = len(pairs)
                z_q = ad.take_rows(tape, embs, np.arange(n))
                z_u = ad.take_rows(tape, embs, np.arange(n, 2 * n))
                labels = np.array([1 if p.label else 0 for p in pairs])
                loss = margin_loss(tape, z_q, z_u, labels, margin_cfg)
            if not np.isfinite(loss.value):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} (lr={lr:.3g}); "
                    "lower the margin or check the data"
                )
            grads = ad.backward(tape, loss)
            params = adam_step(params, grads, adam, lr)
            keep = 1.0 - WEIGHT_DECAY * lr / LEARNING_RATE
            params = {k: v if ".b" in k else v * keep for k, v in params.items()}
            epoch_loss += float(loss.value)

        violations = pair_violations(val_pairs, params, encoder_cfg)
        val_labels = np.array([1 if p.label else 0 for p in val_pairs])
        val_auroc_pct = 100.0 * auroc(-violations, val_labels)
        history.append(
            EpochStats(
                epoch=epoch,
                loss=epoch_loss,
                val_auroc=val_auroc_pct,
                radius=curriculum.current_radius,
                n_targets=len(pool),
                lr=lr,
            )
        )
        if val_auroc_pct > best[0]:
            best = (val_auroc_pct, epoch, {k: v.copy() for k, v in params.items()})

        before = (curriculum.current_radius, curriculum.current_target_count)
        curriculum = curriculum_update(curriculum, val_auroc_pct, cfg)
        if (curriculum.current_radius, curriculum.current_target_count) != before:
            refresh_pool()

    best_auroc, best_epoch, best_params = best
    final_violations = pair_violations(val_pairs, best_params, encoder_cfg)
    val_labels = np.array([1 if p.label else 0 for p in val_pairs])
    threshold = calibrate_threshold(final_violations, val_labels, margin_cfg)
    checkpoint = Checkpoint(
        config=encoder_cfg,
        params=best_params,
        margin=MarginConfig(margin=margin_cfg.margin, threshold=threshold),
        decision_cutoff=0.5,
        radius=cfg.val_radius,  # the difficulty the checkpoint was selected at
    )
    return TrainResult(
        checkpoint=checkpoint,
        history=history,
        best_epoch=best_epoch,
        best_val_auroc=best_auroc,
    )
