"""The two correctness suites that acceptance criteria 1 and 2, their unit
spot checks and the `selftest` command all run, each at its own size."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .exact import MatchBudget, is_subgraph
from .order import MarginConfig, intersection, margin_loss, violation
from .smallgraphs import brute_force_is_subgraph, small_catalog

# the acceptance gate's budget; every pair of its 5x6 catalog decides far below it
ORACLE_BUDGET = MatchBudget(max_states=50_000_000, wall_timeout=60.0)
GEOMETRY_DIM = 16  # embedding width of the geometry suite's random triples


def oracle_equivalence_suite(max_query: int, max_target: int) -> tuple[bool, str]:
    """The exact matcher against brute-force injection enumeration on every
    (connected query, target) pair of the small-graph catalog."""
    queries, targets = small_catalog(max_query, max_target)
    pairs, disagreements, first = 0, 0, ""
    for q in queries:
        for t in targets:
            expected = brute_force_is_subgraph(q, t)
            got = is_subgraph(q, t, ORACLE_BUDGET)
            pairs += 1
            if not got.is_decided or got.is_true != expected:
                disagreements += 1
                first = first or (f"; first: query {q.edges()} vs target {t.edges()}: "
                                  f"matcher={got}, brute force={expected}")
    return disagreements == 0, f"{pairs} pairs, {disagreements} disagreements{first}"


def geometry_suite(trials: int, seed: int = 0) -> tuple[bool, str]:
    """Transitivity, anti-symmetry and the intersection lower bound, each on
    `trials` random nonnegative triples checked together through order.violation
    and order.intersection, then the margin loss at its boundary."""
    rng = np.random.default_rng(seed)
    n, d = trials, GEOMETRY_DIM
    # chains a <= b <= c
    a = rng.uniform(0, 10, size=(n, d))
    b = a + rng.uniform(0, 2, size=(n, d))
    c = b + rng.uniform(0, 2, size=(n, d))
    # y is x with one coordinate raised, so x != y and x <= y
    x = rng.uniform(0, 10, size=(n, d))
    y = x.copy()
    y[np.arange(n), rng.integers(0, d, size=n)] += rng.uniform(1e-9, 2, size=n)
    # w lies below the meet of u and v
    u = rng.uniform(0, 10, size=(n, d))
    v = rng.uniform(0, 10, size=(n, d))
    below = rng.uniform(0, 2, size=(n, d))
    meet = intersection(u, v)
    w = np.maximum(0.0, meet - below)
    bad = {
        "transitivity": (violation(a, b) != 0) | (violation(b, c) != 0) | (violation(a, c) != 0),
        "anti-symmetry": (violation(x, y) == 0) & (violation(y, x) == 0),
        "intersection-glb": (violation(w, meet) != 0) | (violation(meet, u) != 0)
        | (violation(meet, v) != 0),
    }
    cfg = MarginConfig(margin=1.0, threshold=0.5)
    # 1-wide pairs on the boundary: E = 0 for a positive, E = margin for a negative
    z_q = ad.Tensor([[0.0], [np.sqrt(cfg.margin)]])
    z_u = ad.Tensor([[0.0], [0.0]])
    loss_ok = margin_loss(ad.Tape(record=False), z_q, z_u, np.array([1, 0]), cfg).value == 0.0
    counts = ", ".join(f"{name}={np.count_nonzero(hit)}" for name, hit in bad.items())
    detail = f"violations: {counts} over {n} triples each"
    if not loss_ok:
        detail += "; a satisfied pair has nonzero margin loss"
    return loss_ok and not any(hit.any() for hit in bad.values()), detail


def run_selftest(fast: bool) -> bool:
    suites = [
        (
            "oracle-equivalence",
            lambda: oracle_equivalence_suite(3 if fast else 4, 4 if fast else 5),
        ),
        ("order-geometry", lambda: geometry_suite(2_000 if fast else 10_000)),
    ]
    all_ok = True
    for name, runner in suites:
        ok, detail = runner()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
