import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submatch.datasets import gen_er
from submatch.encoder import Checkpoint, EncoderConfig, init_params
from submatch import evaluate
from submatch.evaluate import (
    BenchInstance,
    BenchResult,
    auroc,
    bench,
    bench_neural,
    calibrate_decision,
    make_problem1_instances,
    results_to_csv,
    summarize,
    write_bench_outputs,
)
from submatch.exact import MatchBudget, is_subgraph
from submatch.graphs import LabeledGraph, from_json, to_json
from submatch.order import MarginConfig, calibrate_decision_cutoff
from submatch.query import _build_index, answer, build_index


def brute_force_auroc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    wins = ties = total = 0
    for i in np.flatnonzero(labels == 1):
        for j in np.flatnonzero(labels == 0):
            total += 1
            if scores[i] > scores[j]:
                wins += 1
            elif scores[i] == scores[j]:
                ties += 1
    return (wins + 0.5 * ties) / total


def tie_loop_auroc(scores, labels):
    """auroc as first written: ranks by a stable argsort, then a Python loop
    that averages them over each run of tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


class TestAuroc:
    def test_perfect_ranking(self):
        assert auroc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_known_mixed_case(self):
        scores = [0.8, 0.7, 0.6, 0.5]
        labels = [1, 0, 1, 0]
        # enumerating the four positive-negative pairs gives 3 wins of 4
        assert brute_force_auroc(scores, labels) == 0.75
        assert auroc(scores, labels) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.booleans()), min_size=4, max_size=40))
    def test_matches_pair_enumeration(self, rows):
        scores = np.array([r[0] for r in rows])
        labels = np.array([1 if r[1] else 0 for r in rows])
        if labels.min() == labels.max():
            return
        assert np.isclose(auroc(scores, labels), brute_force_auroc(scores, labels))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 0.5])
        | st.floats(allow_nan=False), st.booleans()), min_size=2, max_size=60))
    def test_equals_tie_loop(self, rows):
        # ties, signed zeros and infinities; the same float, bit for bit
        scores = np.array([r[0] for r in rows])
        labels = np.array([1 if r[1] else 0 for r in rows])
        if labels.min() == labels.max():
            return
        assert auroc(scores, labels) == tie_loop_auroc(scores, labels)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            auroc([0.1, np.nan, 0.3], [1, 0, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = auroc(scores, labels)
        assert np.isclose(auroc(np.exp(scores), labels), a)
        assert np.isclose(auroc(3 * scores + 7, labels), a)

    def test_negation_complements(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(40).astype(float)  # distinct, no ties
        labels = (rng.random(40) < 0.5).astype(int)
        labels[0], labels[1] = 1, 0
        assert np.isclose(auroc(scores, labels) + auroc(-scores, labels), 1.0)


CFG = EncoderConfig(layers=2, hidden_dim=8, output_dim=8, label_alphabet_size=1)


@pytest.fixture(scope="module")
def ckpt():
    return Checkpoint(
        config=CFG,
        params=init_params(CFG, seed=0),
        margin=MarginConfig(margin=1.0, threshold=0.25),
        radius=2,
    )


class TestInstances:
    def test_labels_are_oracle_certified(self):
        targets = [gen_er(16, 0.25, 1, seed=s) for s in (1, 2, 3)]
        rng = np.random.default_rng(0)
        instances = make_problem1_instances(targets, 12, rng)
        assert len(instances) == 12
        budget = MatchBudget(max_states=3_000_000, wall_timeout=20.0)
        for inst in instances:
            out = is_subgraph(inst.query, inst.target, budget)
            assert out.is_decided and out.is_true == inst.oracle_label

    def test_balanced_and_ratio(self):
        targets = [gen_er(20, 0.2, 1, seed=s) for s in (5, 6)]
        instances = make_problem1_instances(targets, 10, np.random.default_rng(1))
        labels = [i.oracle_label for i in instances]
        assert sum(labels) == 5
        ratios = [i.query.node_count / i.target.node_count for i in instances]
        assert 0.25 < np.mean(ratios) < 0.75


class TestCalibrateDecision:
    def test_one_index_per_distinct_target_and_the_same_cutoff(self, ckpt, monkeypatch):
        targets = [gen_er(14, 0.25, 1, seed=s) for s in (7, 8, 9)]
        instances = make_problem1_instances(targets, 12, np.random.default_rng([3, 4]))
        # the cutoff as calibrated with one index per instance
        scores = [answer(inst.query, build_index(inst.target, ckpt), ckpt)[1].score
                  for inst in instances]
        want = calibrate_decision_cutoff(scores, [inst.oracle_label for inst in instances])
        built = []

        def counted(g, fingerprint, checkpoint, radius):
            built.append(g.fingerprint())
            return _build_index(g, fingerprint, checkpoint, radius)

        monkeypatch.setattr(evaluate, "_build_index", counted)
        got = calibrate_decision(ckpt, targets, 12, 3)
        distinct = {inst.target.fingerprint() for inst in instances}
        assert sorted(built) == sorted(distinct) and len(distinct) < len(instances)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestFingerprints:
    """Fingerprinting serializes and hashes a whole target, so it is paid
    exactly once per distinct target object, never once per instance, and
    building the index does not pay it again."""

    @pytest.fixture
    def fingerprint_calls(self, monkeypatch) -> list:
        """The graphs LabeledGraph.fingerprint is called on, in order."""
        calls = []
        original = LabeledGraph.fingerprint

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(LabeledGraph, "fingerprint", counted)
        return calls

    @pytest.mark.parametrize("use_vote", [False, True])
    def test_bench_neural_count_does_not_grow_with_instances(
            self, ckpt, fingerprint_calls, use_vote):
        targets = [gen_er(12, 0.3, 1, seed=s) for s in (7, 8, 9)]
        query = LabeledGraph.from_edges(2, [(0, 1)])
        counts = []
        for n in (4, 40):
            instances = [BenchInstance(f"i{i}", query, targets[i % 3], True) for i in range(n)]
            before = len(fingerprint_calls)
            _, offline = bench_neural(instances, ckpt, use_vote=use_vote)
            counts.append(len(fingerprint_calls) - before)
            assert offline["n_indexes"] == 3.0
        assert counts[0] == counts[1] == len(targets)

    def test_one_index_per_distinct_content(self, ckpt):
        target = gen_er(12, 0.3, 1, seed=7)
        twin = from_json(to_json(target))  # equal content, another object
        query = LabeledGraph.from_edges(2, [(0, 1)])
        instances = [BenchInstance(f"i{i}", query, t, True)
                     for i, t in enumerate([target, twin] * 3)]
        indexes = evaluate._indexes_by_target(instances, ckpt)
        assert len({id(index) for index in indexes}) == 1

    def test_calibrate_decision_count_does_not_grow_with_instances(self, ckpt, fingerprint_calls):
        targets = [gen_er(14, 0.25, 1, seed=s) for s in (7, 8, 9)]
        calibrate_decision(ckpt, targets, 40, 3)
        # the 40 instances draw on all three targets
        assert sorted(map(id, fingerprint_calls)) == sorted(map(id, targets))


class TestBench:
    def test_exact_and_neural_smoke(self, ckpt):
        targets = [gen_er(14, 0.25, 1, seed=s) for s in (7, 8)]
        instances = make_problem1_instances(targets, 6, np.random.default_rng(2))
        results, summary = bench(["exact", "neural", "neural_vote"], instances, checkpoint=ckpt)
        assert len(results) == 18
        exact_rows = [r for r in results if r.method == "exact"]
        assert all(r.success for r in exact_rows)
        # the exact matcher is right by definition on decided instances
        assert all(r.decision == r.label for r in exact_rows)
        assert set(summary["methods"]) == {"exact", "neural", "neural_vote"}
        assert "index_build_s" in summary["offline"]["neural"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            bench(["quantum"], [])

    def test_neural_needs_checkpoint(self):
        with pytest.raises(ValueError):
            bench(["neural"], [], checkpoint=None)

    def test_csv_and_json_outputs(self, ckpt, tmp_path):
        targets = [gen_er(12, 0.3, 1, seed=9)]
        instances = make_problem1_instances(targets, 4, np.random.default_rng(3))
        results, summary = bench(["neural"], instances, checkpoint=ckpt)
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        write_bench_outputs(results, summary, csv_path, json_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "method,instance_id,n_query,n_target,time_s,success,decision,label"
        assert len(lines) == 5
        parsed = json.loads(json_path.read_text())
        assert "neural" in parsed["methods"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            BenchResult("exact", "i", 1, 1, -0.5, True, None, True)

    def test_timing_excludes_labeling(self, ckpt):
        # labeling happens in instance construction; bench rows only time the
        # decision path, so a prelabeled instance benches without an oracle
        target = gen_er(12, 0.3, 1, seed=10)
        inst = BenchInstance("x", gen_er(3, 1.0, 1, seed=1), target, oracle_label=False)
        results, _ = bench(["neural"], [inst], checkpoint=ckpt)
        assert results[0].label is False
        assert results[0].time_s < 5.0


def test_summarize_success_curve():
    rows = [
        BenchResult("exact", "a", 5, 50, 0.1, True, True, True),
        BenchResult("exact", "b", 5, 50, 0.2, True, False, False),
        BenchResult("exact", "c", 9, 50, 20.0, False, None, True),
    ]
    summary = summarize(rows, {})
    curve = summary["methods"]["exact"]["by_query_size"]
    assert curve[0]["n_query"] == 5 and curve[0]["success_rate"] == 1.0
    assert curve[1]["n_query"] == 9 and curve[1]["success_rate"] == 0.0
    text = results_to_csv(rows)
    assert "exact,c,9,50,20.000000,0,," in text
