"""Metrics, benchmark instances, the whole-query decision-cutoff calibration,
and the runtime/success-rate benchmark harness."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .exact import MatchBudget, MatchOutcome, is_subgraph
from .graphs import GraphError, LabeledGraph
from .order import calibrate_decision_cutoff
from .query import EmbeddingIndex, _build_index, answer
from .util import atomic_write_text


def auroc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, ties
    counting one half (Mann-Whitney U formulation). NaN scores are rejected."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any():
        raise ValueError("auroc needs scores that are not NaN")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs both classes present")
    # each score's rank from 1, averaged over the scores tied with it
    s = np.sort(scores)
    ranks = (np.searchsorted(s, scores, "left") + np.searchsorted(s, scores, "right") + 1) / 2.0
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


@dataclass(frozen=True)
class BenchInstance:
    instance_id: str
    query: LabeledGraph
    target: LabeledGraph
    oracle_label: bool


def _bfs_subgraph(
    g: LabeledGraph, max_nodes: int, rng: np.random.Generator, keep_prob: float = 0.7
) -> LabeledGraph:
    """Connected random-BFS subgraph of g, returned as a standalone graph."""
    from .sampling import SamplerConfig, random_bfs_sample

    starts = [u for u in range(g.node_count) if g.degree(u) > 0]
    u = starts[int(rng.integers(len(starts)))] if starts else 0
    cfg = SamplerConfig(
        strategy="random_bfs",
        edge_keep_probability=keep_prob,
        max_nodes=max(1, max_nodes),
    )
    return random_bfs_sample(g, u, cfg, rng).graph


def _perturbed_query(
    base: LabeledGraph, rng: np.random.Generator, extra_edges: int = 3
) -> LabeledGraph:
    """Densify a sampled subgraph with extra chords; the result usually stops
    being a subgraph of the source and fails fast in the exact matcher."""
    edges = base.edges()
    non_edges = base.non_edges()
    take = min(extra_edges, len(non_edges))
    if take:
        idx = rng.choice(len(non_edges), size=take, replace=False)
        edges = edges + [non_edges[int(i)] for i in idx]
    return LabeledGraph.from_edges(
        base.node_count, edges, list(base.node_labels), base.label_alphabet_size
    )


# certifies each negative instance; a timeout redraws it, never labels it
ORACLE_BUDGET = MatchBudget(max_states=2_000_000, wall_timeout=10.0)
# a query holds at most this share of its target's nodes (and at least 2)
QUERY_RATIO = 0.5
DRAWS_PER_INSTANCE = 50  # make_problem1_instances gives up after this many per instance asked


def make_problem1_instances(
    targets: list[LabeledGraph],
    n_instances: int,
    rng: np.random.Generator,
) -> list[BenchInstance]:
    """Whole-graph (query, target) decision instances, half positive.

    Positives are sampled subgraphs (true by construction). Negatives mix
    chord-densified subgraphs and cross-graph queries, certified non-subgraphs
    by the exact matcher, resampling on accidental positives or oracle
    timeouts. It stops after DRAWS_PER_INSTANCE draws per instance asked, so
    it may return fewer. A target of fewer than 2 nodes, or a pool without an
    edge, raises GraphError.
    """
    small = [i for i, g in enumerate(targets) if g.node_count < 2]
    if small:
        raise GraphError(
            f"target graph {small[0]} has {targets[small[0]].node_count} node(s); "
            "a query instance needs at least 2"
        )
    if not any(g.edge_count for g in targets):
        raise GraphError("no target graph has an edge; every query drawn would be one node")
    instances: list[BenchInstance] = []
    guard = 0
    while len(instances) < n_instances and guard < DRAWS_PER_INSTANCE * n_instances:
        guard += 1
        target = targets[int(rng.integers(len(targets)))]
        max_q = max(2, int(round(QUERY_RATIO * target.node_count)))
        want_positive = len(instances) % 2 == 0
        if want_positive:
            query = _bfs_subgraph(target, max_q, rng)
            if query.node_count < 2:
                continue
            instances.append(
                BenchInstance(f"i{len(instances):04d}", query, target, oracle_label=True)
            )
            continue
        if rng.random() < 0.5 and len(targets) > 1:
            others = [t for t in targets if t is not target]
            query = _bfs_subgraph(others[int(rng.integers(len(others)))], max_q, rng)
        else:
            query = _perturbed_query(_bfs_subgraph(target, max_q, rng), rng)
        if query.node_count < 2 or not query.is_connected():
            continue
        if is_subgraph(query, target, ORACLE_BUDGET) is not MatchOutcome.FALSE:
            continue
        instances.append(
            BenchInstance(f"i{len(instances):04d}", query, target, oracle_label=False)
        )
    return instances


def _indexes_by_target(instances: list[BenchInstance], checkpoint) -> list[EmbeddingIndex]:
    """The index of each instance's target, one per distinct target content.
    Each distinct target object is fingerprinted once."""
    by_object: dict[int, EmbeddingIndex] = {}  # id(target) -> its index
    by_content: dict[str, EmbeddingIndex] = {}  # fingerprint -> its index
    for inst in instances:
        target = inst.target
        if id(target) not in by_object:
            key = target.fingerprint()
            if key not in by_content:
                by_content[key] = _build_index(target, key, checkpoint, checkpoint.radius)
            by_object[id(target)] = by_content[key]
    return [by_object[id(inst.target)] for inst in instances]


def calibrate_decision(checkpoint, targets: list[LabeledGraph], n_pairs: int, seed: int) -> float:
    """Whole-query decision cutoff calibrated on n_pairs oracle-labeled
    instances drawn from targets; the checkpoint's own cutoff when no instance
    could be drawn. Each distinct target is indexed once."""
    instances = make_problem1_instances(targets, n_pairs, np.random.default_rng([seed, 4]))
    if not instances:
        return checkpoint.decision_cutoff
    indexes = _indexes_by_target(instances, checkpoint)
    scores = [answer(inst.query, index, checkpoint)[1].score
              for inst, index in zip(instances, indexes)]
    return calibrate_decision_cutoff(scores, [inst.oracle_label for inst in instances])


@dataclass
class BenchResult:
    method: str
    instance_id: str
    n_query: int
    n_target: int
    time_s: float
    success: bool
    decision: bool | None
    label: bool
    score: float | None = None

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("wall time must be nonnegative")


EXACT_BENCH_MAX_STATES = 500_000_000  # bench_exact's state cap per instance, next to its timeout


def bench_exact(instances: list[BenchInstance], timeout: float) -> list[BenchResult]:
    """Run the backtracking matcher per instance; timing covers only the
    decision, never oracle-label computation."""
    budget = MatchBudget(max_states=EXACT_BENCH_MAX_STATES, wall_timeout=timeout)
    results = []
    for inst in instances:
        start = time.perf_counter()
        outcome = is_subgraph(inst.query, inst.target, budget)
        elapsed = time.perf_counter() - start
        results.append(
            BenchResult(
                method="exact",
                instance_id=inst.instance_id,
                n_query=inst.query.node_count,
                n_target=inst.target.node_count,
                time_s=elapsed,
                success=outcome.is_decided,
                decision=outcome.is_true if outcome.is_decided else None,
                label=inst.oracle_label,
                score=None,
            )
        )
    return results


def bench_neural(
    instances: list[BenchInstance],
    checkpoint,
    use_vote: bool,
) -> tuple[list[BenchResult], dict[str, float]]:
    """Time the online query path with indexes prebuilt. Index-build wall time
    is reported separately as the offline cost."""
    method = "neural_vote" if use_vote else "neural"
    start = time.perf_counter()
    indexes = _indexes_by_target(instances, checkpoint)
    index_time = time.perf_counter() - start
    results = []
    for inst, index in zip(instances, indexes):
        start = time.perf_counter()
        _, verdict = answer(
            inst.query, index, checkpoint, vote_on=inst.target if use_vote else None
        )
        elapsed = time.perf_counter() - start
        results.append(
            BenchResult(
                method=method,
                instance_id=inst.instance_id,
                n_query=inst.query.node_count,
                n_target=inst.target.node_count,
                time_s=elapsed,
                success=True,
                decision=verdict.decision,
                label=inst.oracle_label,
                # threshold-free score for AUROC: low mean violation = likely subgraph
                score=-verdict.mean_violation,
            )
        )
    n_indexes = len({id(index) for index in indexes})
    return results, {"index_build_s": index_time, "n_indexes": float(n_indexes)}


BENCH_METHODS = ("exact", "neural", "neural_vote")
BENCH_TIMEOUT = 20.0  # seconds per exact decision, bench()'s and `bench --timeout`'s default


def check_bench_request(
    methods: list[str],
    has_checkpoint: bool,
    timeout: float,
    *,
    n_instances: int | None = None,
    seed: int | None = None,
) -> None:
    """Raise ConfigError for a request bench() cannot run, before any instance
    is drawn. The make_problem1_instances arguments are checked when given."""
    if not methods:
        raise ConfigError(f"no methods given; choose from {list(BENCH_METHODS)}")
    unknown = sorted(set(methods) - set(BENCH_METHODS))
    if unknown:
        raise ConfigError(f"unknown methods {unknown}; choose from {list(BENCH_METHODS)}")
    if not has_checkpoint and set(methods) - {"exact"}:
        raise ConfigError("the neural methods need a checkpoint")
    if not timeout > 0:
        raise ConfigError(f"timeout must be positive, got {timeout}")
    if n_instances is not None and n_instances < 1:
        raise ConfigError(f"n_instances must be at least 1, got {n_instances}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def bench(
    methods: list[str],
    instances: list[BenchInstance],
    checkpoint=None,
    timeout: float = BENCH_TIMEOUT,
) -> tuple[list[BenchResult], dict]:
    """Run the named methods over shared instances; returns per-instance rows
    plus a summary with success curves binned by query size."""
    check_bench_request(methods, checkpoint is not None, timeout)
    all_results: list[BenchResult] = []
    meta: dict = {}
    for method in methods:
        if method == "exact":
            all_results.extend(bench_exact(instances, timeout=timeout))
        else:
            results, offline = bench_neural(
                instances, checkpoint, use_vote=(method == "neural_vote")
            )
            all_results.extend(results)
            meta[method] = offline
    return all_results, summarize(all_results, meta)


def summarize(results: list[BenchResult], meta: dict) -> dict:
    summary: dict = {"methods": {}, "offline": meta}
    by_method: dict[str, list[BenchResult]] = {}
    for r in results:
        by_method.setdefault(r.method, []).append(r)
    for method, rows in by_method.items():
        sizes = sorted({r.n_query for r in rows})
        curve = []
        for size in sizes:
            at = [r for r in rows if r.n_query == size]
            curve.append(
                {
                    "n_query": size,
                    "success_rate": float(np.mean([r.success for r in at])),
                    "mean_time_s": float(np.mean([r.time_s for r in at])),
                }
            )
        entry: dict = {
            "success_rate": float(np.mean([r.success for r in rows])),
            "mean_time_s": float(np.mean([r.time_s for r in rows])),
            "by_query_size": curve,
        }
        labeled = [r for r in rows if r.score is not None]
        if labeled:
            labels = np.array([1 if r.label else 0 for r in labeled])
            if labels.min() != labels.max():
                entry["auroc"] = auroc(
                    np.array([r.score for r in labeled]), labels
                )
        summary["methods"][method] = entry
    return summary


def results_to_csv(results: list[BenchResult]) -> str:
    lines = ["method,instance_id,n_query,n_target,time_s,success,decision,label"]
    for r in results:
        decision = "" if r.decision is None else str(int(r.decision))
        lines.append(
            f"{r.method},{r.instance_id},{r.n_query},{r.n_target},"
            f"{r.time_s:.6f},{int(r.success)},{decision},{int(r.label)}"
        )
    return "\n".join(lines) + "\n"


def write_bench_outputs(results: list[BenchResult], summary: dict, csv_path, json_path) -> None:
    atomic_write_text(csv_path, results_to_csv(results))
    atomic_write_text(json_path, json.dumps(summary, indent=2, sort_keys=True))
