"""Per-layer metrics of each workload, derived from its traced round.

Every metric names the spans it is computed from; if a wrap target behind
any of them is missing, the metric is reported with a null value and the
list of missing spans, never as zero.
"""

from __future__ import annotations

from spans import Summary

SAMPLING = ("sampling.positive", "sampling.negative")


def _count(name, **where):
    return lambda s: len(s.select(name, **where))


def _total(*names, **where):
    return lambda s: sum(s.total(s.select(n, **where)) for n in names)


def _kept_sum(name, **where):
    return lambda s: sum(s.kept(s.select(name, **where)))


def _emitted(name):
    return lambda s: sum(1 for pair in s.kept(s.select(name)) if pair is not None)


def _unanchored(outcome):
    def value(s):
        idx = [i for i in s.select("exact.unanchored") if s.spans[i][4] == outcome]
        return s.total(idx)
    return value


def _pair_self_s(s: Summary) -> float:
    """Sampler time minus the oracle and k-hop time spent inside it."""
    inner = ("exact.anchored", "graphs.khop")
    own = s.total([i for n in SAMPLING for i in s.select(n)])
    for n in inner:
        for i in s.select(n):
            parent = s.enclosing(i, set(SAMPLING) | set(inner))
            if parent is not None and s.spans[parent][0] in SAMPLING:
                own -= s.duration[i]
    return own


def _oracle_calls_per_pair(s: Summary) -> float:
    calls = sum(1 for i in s.select("exact.anchored")
                if s.enclosing(i, set(SAMPLING)) is not None)
    pairs = sum(_emitted(n)(s) for n in SAMPLING)
    return calls / pairs


def _vote_yield(s: Summary) -> float:
    votes = s.kept(s.select("query.vote"))
    return sum(1 for v in votes if v) / len(votes)


def _self(name):
    return lambda s: s.self_time(s.select(name))


# metric -> (unit, spans it is computed from, value of a Summary)
GRAPHS = {
    "graphs.validations": ("count", ["graphs.validate"], _count("graphs.validate")),
    "graphs.validate_s": ("s", ["graphs.validate"], _total("graphs.validate")),
    "graphs.khop_calls": ("count", ["graphs.khop"], _count("graphs.khop")),
    "graphs.khop_s": ("s", ["graphs.khop"], _total("graphs.khop")),
}
AUTODIFF = {
    "autodiff.aggregate_s": ("s", ["autodiff.aggregate"], _total("autodiff.aggregate")),
    "autodiff.aggregate_cells": ("count", ["autodiff.aggregate"],
                                 _kept_sum("autodiff.aggregate")),
    "autodiff.matmul_s": ("s", ["autodiff.matmul"], _total("autodiff.matmul")),
    "autodiff.matmul_flops": ("count", ["autodiff.matmul"], _kept_sum("autodiff.matmul")),
    "encoder.features_s": ("s", ["encoder.features"], _total("encoder.features")),
}
EMBED = {
    "query.embed_s": ("s", ["query.embed"], _total("query.embed")),
    "query.decide_s": ("s", ["query.decide"], _total("query.decide")),
}

PER_LAYER = {
    "train": {
        **GRAPHS,
        "exact.anchored_calls": ("count", ["exact.anchored"], _count("exact.anchored")),
        "exact.anchored_s": ("s", ["exact.anchored"], _total("exact.anchored")),
        "sampling.positive_pairs": ("count", ["sampling.positive"],
                                    _emitted("sampling.positive")),
        "sampling.negative_pairs": ("count", ["sampling.negative"],
                                    _emitted("sampling.negative")),
        "sampling.pair_self_s": (
            "s", [*SAMPLING, "exact.anchored", "graphs.khop"], _pair_self_s),
        "sampling.oracle_calls_per_pair": (
            "ratio", [*SAMPLING, "exact.anchored"], _oracle_calls_per_pair),
        **AUTODIFF,
        "autodiff.backward_s": ("s", ["autodiff.backward"], _total("autodiff.backward")),
        "encoder.batch_s": ("s", ["encoder.batch"], _total("encoder.batch")),
        "order.loss_s": ("s", ["order.loss"], _total("order.loss")),
        "training.adam_s": ("s", ["training.adam"], _total("training.adam")),
        "training.validate_s": ("s", ["training.validate"], _total("training.validate")),
        "training.iterations": ("count", ["training.adam"], _count("training.adam")),
    },
    "index": {
        **GRAPHS,
        "graphs.khop_nodes": ("count", ["graphs.khop"], _kept_sum("graphs.khop")),
        **AUTODIFF,
        "encoder.index_self_s": ("s", ["encoder.infer"], _self("encoder.infer")),
    },
    "query": {
        **EMBED,
        "order.score_s": ("s", ["order.score"], _total("order.score")),
        "order.score_entries": ("count", ["order.score"], _kept_sum("order.score")),
        **AUTODIFF,
    },
    "vote": {
        **EMBED,
        "query.vote_s": ("s", ["query.vote_mask"], _total("query.vote_mask")),
        "query.vote_entries": ("count", ["query.vote"], _count("query.vote")),
        "query.vote_yield": ("ratio", ["query.vote"], _vote_yield),
        "graphs.bfs_calls": ("count", ["graphs.bfs", "query.vote_mask"],
                             _count("graphs.bfs", under="query.vote_mask")),
        "order.score_s": ("s", ["order.score", "query.vote_mask"],
                          _total("order.score", outside="query.vote_mask")),
    },
    "exact": {
        "exact.unanchored_true_s": ("s", ["exact.unanchored"], _unanchored("true")),
        "exact.unanchored_false_s": ("s", ["exact.unanchored"], _unanchored("false")),
    },
}


def per_layer(workload: str, summary: Summary, missing: set[str]) -> dict:
    """{metric: {"value", "unit"}}, plus "missing" (and a null value) for a
    metric whose spans could not all be recorded."""
    out = {}
    for key, (unit, needs, value) in PER_LAYER[workload].items():
        absent = sorted(set(needs) & missing)
        if absent:
            out[key] = {"value": None, "unit": unit, "missing": absent}
        else:
            out[key] = {"value": value(summary), "unit": unit}
    return out
