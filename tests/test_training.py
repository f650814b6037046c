import hashlib
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import DESK_ENCODER, DESK_SAMPLER
from submatch import autodiff as ad
from submatch import encoder as E
from submatch import sampling
from submatch import training as T
from submatch.datasets import gen_er
from submatch.encoder import EncoderConfig, encode_batch, init_params, _as_tensors
from submatch.exact import _Search, is_subgraph_anchored
from submatch.graphs import k_hop_neighborhood
from submatch.order import MarginConfig, margin_loss
from submatch.sampling import SamplerConfig
from submatch.training import (
    AdamState,
    CurriculumState,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    batch_size_for,
    build_epoch_batches,
    cosine_lr,
    curriculum_update,
    history_to_csv,
    sample_validation_pairs,
    train,
)
from submatch.util import keep_freed_heap

TINY_ENC = EncoderConfig(layers=2, hidden_dim=8, output_dim=8, label_alphabet_size=1)


def tiny_pool(count=4, n=14, seed=0):
    return [gen_er(n, 4.0 / n, 1, seed=seed + i) for i in range(count)]


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.init(params)
        out = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(out["w"], params["w"])
        assert state.t == 1

    def test_backward_gives_every_parameter_a_gradient(self):
        # adam_step reads each parameter's gradient: every parameter enters
        # the encoder's forward pass, so backward returns a gradient for all
        g = gen_er(10, 0.4, 1, seed=0)
        nbhds = [k_hop_neighborhood(g, u, 2) for u in (0, 1)]
        params = init_params(TINY_ENC, seed=0)
        tape = ad.Tape()
        embs = encode_batch(tape, nbhds, _as_tensors(params), TINY_ENC)
        loss = margin_loss(tape, ad.take_rows(tape, embs, [0]), ad.take_rows(tape, embs, [1]),
                           np.array([0]), MarginConfig())
        grads = ad.backward(tape, loss)
        assert grads.keys() == params.keys()
        adam_step(params, grads, AdamState.init(params), lr=0.1)
        with pytest.raises(KeyError):
            adam_step(params, {"out.b": grads["out.b"]}, AdamState.init(params), lr=0.1)

    def test_first_step_is_signed_lr(self):
        # closed form at t=1: update = -lr * g / (|g| + eps) for any g scale
        params = {"w": np.array([0.0, 0.0])}
        state = AdamState.init(params)
        g = np.array([3.7, -0.002])
        out = adam_step(params, {"w": g}, state, lr=0.05)
        assert np.allclose(out["w"], [-0.05, 0.05], atol=1e-6)

    def test_quadratic_bowl_converges(self):
        params = {"x": np.array([4.0])}
        state = AdamState.init(params)
        for _ in range(500):
            grad = {"x": 2.0 * params["x"]}
            params = adam_step(params, grad, state, lr=0.05)
        assert abs(float(params["x"][0])) < 1e-2


class TestCosine:
    def test_epoch_zero_full_rate(self):
        assert cosine_lr(0, 1e-3) == 1e-3

    def test_half_period(self):
        assert math.isclose(cosine_lr(50, 1e-3), 5e-4)

    def test_restart(self):
        assert cosine_lr(100, 1e-3) == 1e-3

    def test_decreasing_within_period(self):
        vals = [cosine_lr(e, 1e-3) for e in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestCurriculum:
    CFG = TrainConfig()

    def test_radius_advances_after_stale_patience(self):
        state = CurriculumState(1, 1, 19, best_metric=90.0)
        out = curriculum_update(state, 90.0, self.CFG)  # no improvement
        assert out.current_radius == 2 and out.current_target_count == 1
        assert out.epochs_since_improvement == 0

    def test_target_count_doubles_after_radius_saturates(self):
        state = CurriculumState(4, 64, 19, best_metric=90.0)
        out = curriculum_update(state, 89.9, self.CFG)
        assert out.current_radius == 4 and out.current_target_count == 128

    def test_saturated_state_unchanged(self):
        state = CurriculumState(4, 256, 19, best_metric=90.0)
        out = curriculum_update(state, 12.0, self.CFG)
        assert out.current_radius == 4 and out.current_target_count == 256

    def test_improvement_resets_counter(self):
        state = CurriculumState(2, 4, 11, best_metric=80.0)
        out = curriculum_update(state, 80.2, self.CFG)  # gain 0.2 > delta 0.1
        assert out.epochs_since_improvement == 0
        assert out.best_metric == 80.2
        assert out.current_radius == 2 and out.current_target_count == 4

    def test_sub_delta_gain_is_stale(self):
        state = CurriculumState(2, 4, 0, best_metric=80.0)
        out = curriculum_update(state, 80.05, self.CFG)
        assert out.epochs_since_improvement == 1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            CurriculumState(current_radius=5)
        with pytest.raises(ValueError):
            CurriculumState(current_target_count=512)

    @pytest.mark.parametrize("radius", [0, -1])
    def test_val_radius_below_one_rejected(self, radius):
        with pytest.raises(ValueError, match="val_radius"):
            TrainConfig(val_radius=radius)

    def test_batch_grows_with_target_count(self):
        assert batch_size_for(CurriculumState(1, 1, 0, 0)) == 16
        assert batch_size_for(CurriculumState(4, 2, 0, 0)) == 32
        assert batch_size_for(CurriculumState(4, 8, 0, 0)) == 64


class TestEpochBatches:
    def test_ratio_and_kinds(self):
        pool = tiny_pool()
        cfg = TrainConfig(min_iterations=4)
        cur = CurriculumState(current_radius=2)
        rng = np.random.default_rng(0)
        batches = build_epoch_batches(pool, cur, cfg, SamplerConfig(max_nodes=8), rng)
        assert len(batches) == 4
        for pairs in batches:
            pos = [p for p in pairs if p.label]
            neg = [p for p in pairs if not p.label]
            assert len(pos) == 4  # 16-pair batch at 3:1
            assert 10 <= len(neg) <= 12  # a few retries may skip
            hard = [p for p in neg if p.kind == "hard"]
            assert 1 <= len(hard) <= 2

    def test_single_target_folds_cross_into_same(self):
        pool = tiny_pool(count=1)
        cfg = TrainConfig(min_iterations=2)
        cur = CurriculumState(current_radius=2)
        batches = build_epoch_batches(
            pool, cur, cfg, SamplerConfig(max_nodes=8), np.random.default_rng(1)
        )
        for pairs in batches:
            assert all(p.kind in (None, "hard", "random") for p in pairs)

    def test_all_labels_oracle_consistent(self):
        pool = tiny_pool(count=2)
        cfg = TrainConfig(min_iterations=2)
        cur = CurriculumState(current_radius=2)
        batches = build_epoch_batches(
            pool, cur, cfg, SamplerConfig(max_nodes=8), np.random.default_rng(2)
        )
        for pairs in batches:
            for p in pairs:
                assert is_subgraph_anchored(p.query, p.target).is_true == p.label

    def test_iterations_lower_bound(self):
        pool = tiny_pool(count=2)
        cfg = TrainConfig(min_iterations=7)
        cur = CurriculumState(current_radius=1)
        batches = build_epoch_batches(
            pool, cur, cfg, SamplerConfig(max_nodes=6), np.random.default_rng(3)
        )
        assert len(batches) == 7

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            build_epoch_batches(
                [], CurriculumState(), TrainConfig(), SamplerConfig(), np.random.default_rng(0)
            )


class _ReferenceMemo:
    """Computes every ball and candidate list on each request, as the
    samplers did before they shared a memo; counts the requests."""

    requests = 0

    def anchor_candidates(self, g):
        return [u for u in range(g.node_count) if g.degree(u) > 0] or list(
            range(g.node_count))

    def ball(self, g, u, k):
        _ReferenceMemo.requests += 1
        return sampling.k_hop_neighborhood(g, u, k)


def _memo_pool():
    # sparse graphs have isolated nodes, three labels make hard negatives
    # label swaps
    return tiny_pool(count=3) + [gen_er(12, 0.12, 3, seed=s) for s in (7, 8)]


class TestSampleMemo:
    def draw(self):
        pool = _memo_pool()
        cfg = TrainConfig(min_iterations=3)
        sampler_cfg = SamplerConfig(max_nodes=8)
        rng = np.random.default_rng(11)
        batches = [build_epoch_batches(pool, CurriculumState(current_radius=r), cfg,
                                       sampler_cfg, rng) for r in (1, 2, 3)]
        val = sample_validation_pairs(pool, 3, sampler_cfg, rng, 40)
        return batches, val

    def test_pairs_equal_memo_less_path(self, monkeypatch):
        fast = self.draw()
        monkeypatch.setattr(T, "SampleMemo", _ReferenceMemo)
        monkeypatch.setattr(sampling, "SampleMemo", _ReferenceMemo)
        _ReferenceMemo.requests = 0
        reference = self.draw()
        assert _ReferenceMemo.requests > 0
        # dataclass equality: query and target graphs and anchors, label, kind
        assert fast == reference

    def test_one_extraction_per_distinct_ball_per_epoch(self, monkeypatch):
        calls = []
        original = sampling.k_hop_neighborhood

        def counted(g, u, k):
            calls.append((id(g), u, k))
            return original(g, u, k)

        monkeypatch.setattr(sampling, "k_hop_neighborhood", counted)
        pool = _memo_pool()
        cfg = TrainConfig(min_iterations=4)
        rng = np.random.default_rng(12)
        for epoch in range(2):
            calls.clear()
            build_epoch_batches(pool, CurriculumState(current_radius=2), cfg,
                                SamplerConfig(max_nodes=8), rng)
            assert calls and len(calls) == len(set(calls)), epoch
        calls.clear()
        sample_validation_pairs(pool, 2, SamplerConfig(max_nodes=8), rng, 60)
        assert calls and len(calls) == len(set(calls))
        # the memo-less path asks for the same balls many times over
        monkeypatch.setattr(T, "SampleMemo", _ReferenceMemo)
        monkeypatch.setattr(sampling, "SampleMemo", _ReferenceMemo)
        calls.clear()
        build_epoch_batches(pool, CurriculumState(current_radius=2), cfg,
                            SamplerConfig(max_nodes=8), rng)
        assert len(calls) > 2 * len(set(calls))


class TestTrainLoop:
    def test_smoke_single_epoch(self):
        pool = tiny_pool()
        cfg = TrainConfig(epochs=1, min_iterations=2, seed=0)
        res = train(pool, cfg, TINY_ENC, MarginConfig(), SamplerConfig(max_nodes=6))
        assert len(res.history) == 1
        assert math.isfinite(res.history[0].loss)

    def test_frozen_batch_loss_decreases(self):
        pool = tiny_pool()
        cfg = TrainConfig(min_iterations=2)
        cur = CurriculumState(current_radius=2)
        rng = np.random.default_rng(4)
        pairs = build_epoch_batches(pool, cur, cfg, SamplerConfig(max_nodes=8), rng)[0]
        params = init_params(TINY_ENC, seed=0)
        adam = AdamState.init(params)
        nbhds = [p.query for p in pairs] + [p.target for p in pairs]
        labels = np.array([1 if p.label else 0 for p in pairs])
        losses = []
        for _ in range(50):
            tape = ad.Tape()
            tensors = _as_tensors(params)
            embs = encode_batch(tape, nbhds, tensors, TINY_ENC)
            n = len(pairs)
            zq = ad.take_rows(tape, embs, np.arange(n))
            zu = ad.take_rows(tape, embs, np.arange(n, 2 * n))
            loss = margin_loss(tape, zq, zu, labels, MarginConfig())
            losses.append(float(loss.value))
            grads = ad.backward(tape, loss)
            params = adam_step(params, grads, adam, 1e-3)
        non_decreasing = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
        assert losses[-1] < losses[0]
        assert non_decreasing <= 5

    def test_seed_determinism(self):
        pool = tiny_pool()
        cfg = TrainConfig(epochs=3, min_iterations=2, seed=7)
        scfg = SamplerConfig(max_nodes=6)
        a = train(pool, cfg, TINY_ENC, MarginConfig(), scfg)
        b = train(pool, cfg, TINY_ENC, MarginConfig(), scfg)
        assert [h.loss for h in a.history] == [h.loss for h in b.history]
        assert [h.val_auroc for h in a.history] == [h.val_auroc for h in b.history]
        assert history_to_csv(a.history) == history_to_csv(b.history)

    def test_curriculum_monotone_and_history_complete(self):
        pool = tiny_pool()
        cfg = TrainConfig(
            epochs=10, min_iterations=2, plateau_patience=2, plateau_delta=50.0, seed=1
        )
        res = train(pool, cfg, TINY_ENC, MarginConfig(), SamplerConfig(max_nodes=6))
        radii = [h.radius for h in res.history]
        counts = [h.n_targets for h in res.history]
        assert all(a <= b for a, b in zip(radii, radii[1:]))
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert radii[-1] > radii[0]  # impossible delta forces advancement
        assert len(res.history) == 10

    def test_best_checkpoint_is_argmax_of_history(self):
        pool = tiny_pool()
        cfg = TrainConfig(epochs=4, min_iterations=2, seed=3)
        res = train(pool, cfg, TINY_ENC, MarginConfig(), SamplerConfig(max_nodes=6))
        best = max(h.val_auroc for h in res.history)
        assert res.best_val_auroc == best
        assert res.history[res.best_epoch].val_auroc == best

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        pool = tiny_pool()
        # a margin this size overflows the hinge term's square
        cfg = TrainConfig(epochs=2, min_iterations=2, seed=0)
        with pytest.raises(TrainingDiverged):
            train(pool, cfg, TINY_ENC, MarginConfig(margin=1e308), SamplerConfig(max_nodes=6))

    def test_regeneration_changes_examples(self):
        pool = tiny_pool(count=6)
        cfg = TrainConfig(min_iterations=2)
        cur = CurriculumState(current_radius=2)
        rng = np.random.default_rng(5)
        first = build_epoch_batches(pool, cur, cfg, SamplerConfig(max_nodes=8), rng)
        second = build_epoch_batches(pool, cur, cfg, SamplerConfig(max_nodes=8), rng)
        a = [p.query.graph for batch in first for p in batch]
        b = [p.query.graph for batch in second for p in batch]
        assert a != b

    def test_validation_pairs_balanced_and_labeled(self):
        pool = tiny_pool()
        pairs = sample_validation_pairs(
            pool, 2, SamplerConfig(max_nodes=6), np.random.default_rng(0), 24
        )
        labels = [p.label for p in pairs]
        assert sum(labels) == 12
        for p in pairs[:8]:
            assert is_subgraph_anchored(p.query, p.target).is_true == p.label


def test_second_training_run_does_not_refault_its_memory():
    """train keeps freed heap memory, so a repeated run reuses the pages the
    first one faulted in instead of faulting its temporaries in afresh."""
    if not keep_freed_heap():
        pytest.skip("the C library has no mallopt")
    rng = np.random.default_rng(0)
    pool = [gen_er(n, 4.0 / n, 1, seed=100 + i)
            for i, n in enumerate(rng.integers(16, 31, size=8))]
    cfg = TrainConfig(epochs=2, min_iterations=4, seed=0)

    def run() -> int:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(pool, cfg, DESK_ENCODER, MarginConfig(), DESK_SAMPLER)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    run()
    assert run() < 500


def test_history_csv_format():
    from submatch.training import EpochStats

    rows = [EpochStats(epoch=0, loss=1.5, val_auroc=88.25, radius=1, n_targets=1, lr=1e-3)]
    text = history_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss,val_auroc,radius,n_targets,lr"
    assert lines[1].startswith("0,1.5,88.25,1,1,")


def _permutation_bfs_sample(g, u, cfg, rng):
    """sampling.random_bfs_sample as it was: neighbor lists re-indexed by
    rng.permutation instead of shuffled in place."""
    _permutation_bfs_sample.calls += 1
    selected = {u}
    queue = [u]
    head = 0
    while head < len(queue) and len(selected) < cfg.max_nodes:
        nbrs = [v for v in g.adjacency[queue[head]] if v not in selected]
        head += 1
        if len(nbrs) > 1:
            nbrs = [nbrs[i] for i in rng.permutation(len(nbrs)).tolist()]
        for v in nbrs:
            if rng.random() < cfg.edge_keep_probability:
                selected.add(v)
                queue.append(v)
                if len(selected) >= cfg.max_nodes:
                    break
    return sampling.bfs_neighborhood(g, u, within=selected)


def _full_width_forward(tape, block, params, cfg):
    """encoder._forward as it was: every layer sums all of x's columns."""
    _full_width_forward.calls += 1
    x = ad.Tensor(block.features)
    for k in range(cfg.layers):
        agg = ad.add(tape, x, ad.row_sum_aggregate(tape, x, block.index))
        h = ad.add(tape, ad.matmul(tape, agg, params[f"layer{k}.w1"]), params[f"layer{k}.b1"])
        h = ad.leaky_relu(tape, h, E.LEAKY_SLOPE)
        h = ad.add(tape, ad.matmul(tape, h, params[f"layer{k}.w2"]), params[f"layer{k}.b2"])
        x = ad.concat(tape, h, x)
    final = ad.take_rows(tape, x, block.anchors)
    z = ad.add(tape, ad.matmul(tape, final, params["out.w"]), params["out.b"])
    return ad.relu(tape, z)


def _search_only_anchored(self, q_anchor, t_anchor):
    """exact._Search.run_anchored without the counting checks."""
    _search_only_anchored.calls += 1
    return self._run(self._order_from(q_anchor), (t_anchor,))


class TestShortcutsKeepTheBits:
    """A small training run is the same, bit for bit, with each shortcut of
    the training path swapped for what it replaced: the shuffled BFS sampler,
    the forward that reuses the previous layer's neighbor sums, and the
    counting checks before the anchored search."""

    @staticmethod
    def run(monkeypatch, pool, enc):
        pairs = []

        def recorded(draw):
            def wrapper(*args, **kwargs):
                out = draw(*args, **kwargs)
                pairs.append(out)
                return out
            return wrapper

        with monkeypatch.context() as mp:
            mp.setattr(T, "build_epoch_batches", recorded(T.build_epoch_batches))
            mp.setattr(T, "sample_validation_pairs", recorded(T.sample_validation_pairs))
            res = train(pool, TrainConfig(epochs=3, min_iterations=3, plateau_patience=1,
                                          plateau_delta=100.0, seed=4),
                        enc, MarginConfig(), SamplerConfig(max_nodes=7))
        return res, pairs

    def test_training_equals_reference_paths(self, monkeypatch):
        pool = tiny_pool(count=3)
        enc = EncoderConfig(layers=3, hidden_dim=8, output_dim=8, label_alphabet_size=1)
        fast, fast_pairs = self.run(monkeypatch, pool, enc)
        references = (_permutation_bfs_sample, _full_width_forward, _search_only_anchored)
        for fn in references:
            monkeypatch.setattr(fn, "calls", 0, raising=False)
        monkeypatch.setitem(sampling._SAMPLERS, "random_bfs", _permutation_bfs_sample)
        monkeypatch.setattr(E, "_forward", _full_width_forward)
        monkeypatch.setattr(_Search, "run_anchored", _search_only_anchored)
        reference, reference_pairs = self.run(monkeypatch, pool, enc)
        assert all(fn.calls > 0 for fn in references)
        assert fast_pairs == reference_pairs  # graphs, anchors, labels and kinds
        assert history_to_csv(fast.history) == history_to_csv(reference.history)
        assert fast.checkpoint.margin == reference.checkpoint.margin
        params, want = fast.checkpoint.params, reference.checkpoint.params
        assert params.keys() == want.keys()
        for name in params:
            assert params[name].tobytes() == want[name].tobytes(), name


# sha256 of checkpoint.json and history.csv from the run below, at one BLAS
# thread. The checkpoint keeps the best validation epoch's parameters; the
# history's losses depend on every epoch's.
PINNED_SHA256 = {
    "checkpoint.json": "5c8b046b5decce7fda4b87c4bc576ee9a311738d29bb2c65a46b8c0ce8959d9b",
    "history.csv": "d2e30f5382b817205904747844b1ff0c5836256f717683cc2579a99f9d7b140d",
}


def test_gen_then_train_writes_pinned_bits(tmp_path):
    """The CLI's gen -> train path, run in a child process with one BLAS
    thread, writes files of pinned bits. The curriculum advances every epoch,
    so all four radii and two pool sizes are trained on. A change meant to
    keep every bit of training (a faster sampler, oracle or forward pass)
    must leave the pins as they are; a change meant to alter training
    updates them."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    data, out = tmp_path / "data", tmp_path / "model"
    for argv in (
        ["gen", "--out", str(data), "--seed", "7", "--set", "n_graphs=8"],
        ["train", "--data", str(data), "--out", str(out), "--epochs", "6", "--seed", "7",
         "--calibration-pairs", "10", "--set", "train.min_iterations=8",
         "--set", "train.plateau_patience=1", "--set", "train.plateau_delta=100",
         "--set", "encoder.layers=3", "--set", "encoder.hidden_dim=16",
         "--set", "encoder.output_dim=16"],
    ):
        subprocess.run([sys.executable, "-m", "submatch.cli", *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in PINNED_SHA256}
    assert digests == PINNED_SHA256
