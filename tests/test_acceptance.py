"""Acceptance gate: every criterion at its stated tolerance, one line each.

The trained fixture in conftest provides the desk-scale model shared by the
learning criteria; runtime-sensitive criteria measure on the spot.
"""

import time

import numpy as np
import pytest

from submatch import autodiff as ad
from submatch.datasets import gen_er
from submatch.encoder import (
    Checkpoint,
    EncoderConfig,
    encode_batch,
    init_params,
)
from submatch.evaluate import (
    auroc,
    bench_exact,
    bench_neural,
    make_problem1_instances,
)
from submatch.order import MarginConfig, margin_loss, violation_matrix
from submatch.query import alignment, build_index, decide, embed_query_nodes, vote, vote_mask_for
from submatch.sampling import SamplerConfig
from submatch.selftest import geometry_suite, oracle_equivalence_suite
from submatch.training import sample_validation_pairs, pair_violations

from conftest import DESK_SAMPLER, DESK_TRAIN, desk_targets


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


def test_criterion_1_oracle_correctness():
    """Exact matcher agrees with exhaustive injection enumeration on the full
    small-graph catalog within five minutes."""
    start = time.perf_counter()
    ok, detail = oracle_equivalence_suite(5, 6)
    elapsed = time.perf_counter() - start
    report("criterion 1 (oracle correctness)", ok and elapsed < 300.0,
           f"{detail}, {elapsed:.1f}s")
    assert ok, detail
    assert elapsed < 300.0


def test_criterion_2_geometry_axioms():
    """Transitivity, anti-symmetry and the intersection lower bound hold on
    ten thousand random nonnegative triples each, with zero violations."""
    ok, detail = geometry_suite(10_000, seed=2024)
    report("criterion 2 (geometry axioms)", ok, detail)
    assert ok, detail


def test_criterion_3_gradient_fidelity():
    """Analytic gradients of the full encoder-plus-loss composition match
    central finite differences within 1e-4 on twenty random tiny batches."""
    cfg = EncoderConfig(
        layers=2, hidden_dim=6, output_dim=5, label_alphabet_size=2
    )
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        graphs = []
        while len(graphs) < 6:
            g = gen_er(int(rng.integers(3, 7)), 0.5, 2, seed=int(rng.integers(1 << 30)))
            if g.is_connected():
                graphs.append(g)
        from submatch.graphs import k_hop_neighborhood

        nbhds = [k_hop_neighborhood(g, 0, 2) for g in graphs]
        labels = np.array([1, 0, 1, 0, 0, 1])[: len(nbhds) // 2 * 2]
        margin = MarginConfig()

        def composition(params, tape):
            embs = encode_batch(tape, nbhds, params, cfg)
            half = len(nbhds) // 2
            zq = ad.take_rows(tape, embs, np.arange(half))
            zu = ad.take_rows(tape, embs, np.arange(half, 2 * half))
            return margin_loss(tape, zq, zu, labels[:half], margin)

        params = init_params(cfg, seed=seed + 100)
        rep = ad.grad_check(composition, params, h=1e-5, tol=1e-4)
        worst = max(worst, rep.worst_rel_err)
    ok = worst < 1e-4
    report("criterion 3 (gradient fidelity)", ok, f"worst relative error {worst:.2e}")
    assert ok


def _balanced_test_pairs(pool, strategy, seed, n_pairs=300):
    cfg = SamplerConfig(
        strategy=strategy,
        edge_keep_probability=DESK_SAMPLER.edge_keep_probability,
        max_nodes=DESK_SAMPLER.max_nodes,
    )
    rng = np.random.default_rng(seed)
    return sample_validation_pairs(pool, DESK_TRAIN.val_radius, cfg, rng, n_pairs)


def _pair_auroc(pairs, ckpt):
    violations = pair_violations(pairs, ckpt.params, ckpt.config)
    labels = np.array([1 if p.label else 0 for p in pairs])
    return auroc(-violations, labels)


def test_criterion_4_problem2_learning(trained, desk_pool):
    """Desk-scale training reaches held-out balanced pair AUROC of at least
    0.85 within the wall budget (paper-scale reference: 93.5 +- 1.1)."""
    ckpt = trained.checkpoint
    test_pairs = _balanced_test_pairs(desk_targets(base_seed=77), "random_bfs", seed=4242)
    score = _pair_auroc(test_pairs, ckpt)
    minutes = trained.train_seconds / 60.0
    ok = score >= 0.85 and trained.train_seconds < 1800
    report(
        "criterion 4 (neighborhood-pair learning)",
        ok,
        f"held-out AUROC {score:.4f} (floor 0.85), trained in {minutes:.1f} min",
    )
    assert score >= 0.85
    assert trained.train_seconds < 1800


def test_criterion_5_sampler_generalization(trained):
    """A model trained on breadth-first queries keeps its AUROC within 0.10
    when tested on walk-sampled and degree-weighted queries."""
    ckpt = trained.checkpoint
    fresh_pool = desk_targets(base_seed=77)
    in_dist = _pair_auroc(_balanced_test_pairs(fresh_pool, "random_bfs", seed=4242), ckpt)
    drops = {}
    for strategy in ("mfinder_degree_weighted", "random_walk_restart"):
        score = _pair_auroc(_balanced_test_pairs(fresh_pool, strategy, seed=4242), ckpt)
        drops[strategy] = in_dist - score
    worst = max(drops.values())
    ok = worst <= 0.10
    report(
        "criterion 5 (sampler generalization)",
        ok,
        f"in-distribution {in_dist:.4f}, drops "
        + ", ".join(f"{k}={v:+.4f}" for k, v in drops.items()),
    )
    assert worst <= 0.10


@pytest.fixture(scope="session")
def problem1_fixture(trained, desk_pool):
    ckpt = trained.checkpoint
    rng = np.random.default_rng(909)
    instances = make_problem1_instances(desk_pool, 200, rng)
    rows = []
    for inst in instances:
        index = build_index(inst.target, ckpt)
        q_embs = embed_query_nodes(inst.query, ckpt, index.radius)
        matrix = alignment(inst.query, index, ckpt, query_embs=q_embs)
        rows.append((inst, index, q_embs, matrix))
    return rows


def test_criterion_6_problem1_decision(trained, problem1_fixture):
    """Mean-violation AUROC of at least 0.80 over two hundred oracle-labeled
    whole-graph decision pairs with a roughly half query:target size ratio."""
    ckpt = trained.checkpoint
    labels, scores, ratios, density, size = [], [], [], [], []
    for inst, _index, _q_embs, matrix in problem1_fixture:
        verdict = decide(matrix, ckpt.margin, ckpt.decision_cutoff)
        scores.append(-verdict.mean_violation)
        labels.append(1 if inst.oracle_label else 0)
        ratios.append(inst.query.node_count / inst.target.node_count)
        # model-free baselines, reported only: sparser and smaller queries
        # are more often contained
        density.append(-inst.query.edge_count / inst.query.node_count)
        size.append(-inst.query.node_count)
    score = auroc(np.array(scores), np.array(labels))
    ratio = float(np.mean(ratios))
    ok = score >= 0.80 and len(labels) == 200
    report(
        "criterion 6 (whole-query decision)",
        ok,
        f"mean-violation AUROC {score:.4f} over {len(labels)} pairs, "
        f"mean query:target ratio {ratio:.2f}; model-free AUROC: "
        f"-(query edges per node) {auroc(np.array(density), np.array(labels)):.4f}, "
        f"-(query node count) {auroc(np.array(size), np.array(labels)):.4f}",
    )
    assert len(labels) == 200
    assert score >= 0.80


def test_criterion_7_voting_refinement(trained, problem1_fixture):
    """Hop-0 inclusion makes a positive vote imply the plain decision on every
    sampled pair, and voting never lowers decision precision."""
    # structural guarantee over ten thousand node pairs with a random model
    cfg = EncoderConfig(layers=2, hidden_dim=8, output_dim=8, label_alphabet_size=1)
    rng = np.random.default_rng(13)
    checked = 0
    ok_structural = True
    while checked < 10_000:
        ck = Checkpoint(
            config=cfg,
            params=init_params(cfg, seed=int(rng.integers(1 << 30))),
            margin=MarginConfig(margin=1.0, threshold=0.25),
            radius=2,
        )
        ga = gen_er(12, 0.25, 1, seed=int(rng.integers(1 << 30)))
        gb = gen_er(12, 0.25, 1, seed=int(rng.integers(1 << 30)))
        if not (ga.is_connected() and gb.is_connected()):
            continue
        ea = embed_query_nodes(ga, ck, 2)
        eb_ = embed_query_nodes(gb, ck, 2)
        plain = violation_matrix(ea, eb_) < ck.margin.threshold
        for q in range(ga.node_count):
            for u in range(gb.node_count):
                voted = vote(ga, q, gb, u, ea, eb_, 2, ck.margin)
                if voted and not plain[u, q]:
                    ok_structural = False
                checked += 1
    # precision comparison on the whole-query fixture
    ckpt = trained.checkpoint
    plain_dec, voted_dec, labels = [], [], []
    for inst, index, q_embs, matrix in problem1_fixture:
        plain = decide(matrix, ckpt.margin, ckpt.decision_cutoff)
        mask = vote_mask_for(matrix, inst.query, inst.target, q_embs, index, ckpt.margin)
        voted = decide(matrix, ckpt.margin, ckpt.decision_cutoff, vote_mask=mask)
        plain_dec.append(plain.decision)
        voted_dec.append(voted.decision)
        labels.append(bool(inst.oracle_label))

    def precision(dec):
        tp = sum(1 for d, l in zip(dec, labels) if d and l)
        fp = sum(1 for d, l in zip(dec, labels) if d and not l)
        return tp / max(tp + fp, 1), tp, fp

    p_plain, tp0, fp0 = precision(plain_dec)
    p_voted, tp1, fp1 = precision(voted_dec)
    ok = ok_structural and p_voted >= p_plain
    report(
        "criterion 7 (voting refinement)",
        ok,
        f"vote=>plain on {checked} pairs: {'all' if ok_structural else 'VIOLATED'}; "
        f"precision plain {p_plain:.4f} (tp={tp0},fp={fp0}) vs voted {p_voted:.4f} "
        f"(tp={tp1},fp={fp1})",
    )
    assert ok_structural
    assert p_voted >= p_plain


def _runtime_instances(rng):
    from submatch.evaluate import BenchInstance, _bfs_subgraph, _perturbed_query

    target = gen_er(200, 5.0 / 199, 1, seed=555)
    while not target.is_connected():  # retry denser until connected
        target = gen_er(200, 6.0 / 199, 1, seed=556)
    instances = []
    i = 0
    for size in (10, 20, 30, 40):
        for kind in ("pos", "pos", "perturbed", "perturbed"):
            base = _bfs_subgraph(target, size, rng, keep_prob=0.9)
            tries = 0
            while base.node_count < size and tries < 20:
                base = _bfs_subgraph(target, size, rng, keep_prob=0.9)
                tries += 1
            query = base if kind == "pos" else _perturbed_query(base, rng, extra_edges=4)
            if not query.is_connected():
                continue
            label = True if kind == "pos" else None
            instances.append(BenchInstance(f"r{i:03d}", query, target, label))
            i += 1
    return instances


@pytest.mark.slow
def test_criterion_8_runtime_crossover(trained):
    """With a prebuilt index the neural path answers every query, at least ten
    times faster than the exact matcher's mean at query sizes of twenty and
    above, whose success rate within a twenty-second budget falls off."""
    ckpt = trained.checkpoint
    rng = np.random.default_rng(808)
    instances = _runtime_instances(rng)
    exact_rows = bench_exact(instances, timeout=20.0)
    neural_rows, offline = bench_neural(instances, ckpt, use_vote=False)

    def mean_time(rows, min_size):
        sel = [r.time_s for r in rows if r.n_query >= min_size]
        return float(np.mean(sel))

    exact_mean = mean_time(exact_rows, 20)
    neural_mean = mean_time(neural_rows, 20)
    ratio = exact_mean / neural_mean
    neural_success = all(r.success for r in neural_rows)

    def success_at(rows, size):
        sel = [r.success for r in rows if r.n_query == size]
        return float(np.mean(sel))

    succ = {s: success_at(exact_rows, s) for s in (10, 20, 30, 40)}
    declines = succ[40] < 1.0 and succ[40] <= succ[10]
    ok = ratio >= 10.0 and neural_success and declines
    report(
        "criterion 8 (runtime crossover)",
        ok,
        f"exact mean {exact_mean:.2f}s vs neural {neural_mean * 1000:.1f}ms at size>=20 "
        f"(ratio {ratio:.0f}x, floor 10x); neural success 100%={neural_success}; "
        f"exact success by size {succ}; index build {offline['index_build_s']:.2f}s",
    )
    assert ratio >= 10.0
    assert neural_success
    assert declines


def test_criterion_9_complexity_shape():
    """Alignment scoring cost grows linearly in the score count, which equals
    the product of the two node counts."""
    rng = np.random.default_rng(31415)
    dim = 32
    sizes_t = (50, 100, 200)
    sizes_q = (5, 10, 20)
    xs, ys = [], []
    for n_t in sizes_t:
        for n_q in sizes_q:
            T = rng.uniform(0, 2, size=(n_t, dim))
            Q = rng.uniform(0, 2, size=(n_q, dim))
            # calibrate repetitions so every timing window spans ~25ms, then
            # take the best of several windows to shed scheduler noise
            start = time.perf_counter()
            m = violation_matrix(Q, T)
            once = max(time.perf_counter() - start, 1e-7)
            inner = max(30, int(0.025 / once))
            reps = []
            for _ in range(9):
                start = time.perf_counter()
                for _ in range(inner):
                    m = violation_matrix(Q, T)
                reps.append((time.perf_counter() - start) / inner)
            assert m.shape == (n_t, n_q)
            assert m.size == n_t * n_q  # score evaluations = product, exactly
            xs.append(n_t * n_q)
            ys.append(min(reps))
    x = np.array(xs, dtype=float)
    y = np.array(ys)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    r2 = 1.0 - float(((y - pred) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    ok = r2 > 0.9
    report(
        "criterion 9 (complexity shape)",
        ok,
        f"linear fit in |V_T|*|V_Q| across 3x3 grid: R^2 = {r2:.4f} (floor 0.9)",
    )
    assert r2 > 0.9


def test_criterion_10_pipeline_determinism(tmp_path):
    """Two full gen -> train -> embed -> query runs from one seed produce
    identical history files and identical decisions."""
    from submatch.cli import main as cli_main

    outputs = []
    for run in ("a", "b"):
        base = tmp_path / run
        data = base / "data"
        model = base / "model"
        assert cli_main([
            "gen", "--out", str(data), "--seed", "11",
            "--set", "n_graphs=4", "--set", "min_nodes=10", "--set", "max_nodes=13",
        ]) == 0
        assert cli_main([
            "train", "--data", str(data), "--out", str(model),
            "--epochs", "2", "--seed", "11", "--calibration-pairs", "4",
            "--set", "train.min_iterations=2", "--set", "train.val_radius=2",
            "--set", "encoder.layers=2", "--set", "encoder.hidden_dim=8",
            "--set", "encoder.output_dim=8", "--set", "sampler.max_nodes=6",
        ]) == 0
        index = base / "index.json"
        assert cli_main([
            "embed", "--graph", str(data / "graph_0001.json"),
            "--checkpoint", str(model / "checkpoint.json"), "--out", str(index),
        ]) == 0
        align = base / "align.csv"
        assert cli_main([
            "query", "--query", str(data / "graph_0002.json"),
            "--index", str(index), "--target", str(data / "graph_0001.json"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--alignment-csv", str(align),
        ]) == 0
        outputs.append({
            "history": (model / "history.csv").read_bytes(),
            "checkpoint": (model / "checkpoint.json").read_bytes(),
            "index": index.read_bytes(),
            "alignment": align.read_bytes(),
        })
    same = {k: outputs[0][k] == outputs[1][k] for k in outputs[0]}
    ok = all(same.values())
    report(
        "criterion 10 (pipeline determinism)",
        ok,
        "identical across reruns: " + ", ".join(f"{k}={v}" for k, v in same.items()),
    )
    assert ok
