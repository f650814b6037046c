"""Minimal reverse-mode automatic differentiation on dense float64 arrays.

A Tape records every op of a forward pass; backward() walks it once in
reverse and returns gradients for all named leaf tensors. Only generic ops
are provided; there is no broadcasting beyond bias-add.

Subgradient convention at kinks: relu'(0) = 0, and leaky_relu'(0) = slope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Tensor:
    """A dense float64 array, optionally named so backward() reports its grad."""

    __slots__ = ("value", "name")

    def __init__(self, value, name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


@dataclass
class Tape:
    """Ordered record of forward ops. record=False skips tracking (inference)."""

    record: bool = True
    nodes: list = field(default_factory=list)
    consumed: bool = False

    def push(self, out: Tensor, parents: tuple[Tensor, ...], backward_fn) -> None:
        if self.record:
            self.nodes.append((out, parents, backward_fn))


def _shapes(*tensors: Tensor) -> str:
    return " vs ".join(str(t.shape) for t in tensors)


def matmul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """a @ b, every row computed as its own vector-matrix product, so a row's
    bits depend on that row alone and never on how many rows come with it (a
    BLAS matrix product may change them with the batch size)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {_shapes(a, b)}")
    out = Tensor(np.matmul(a.value[:, None, :], b.value)[:, 0, :])

    def backward(g, grads):
        grads.add(a, g @ b.value.T)
        grads.add(b, a.value.T @ g)

    tape.push(out, (a, b), backward)
    return out


def add(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also supports (n,d) + (d,) bias rows."""
    bias_add = a.value.ndim == 2 and b.value.ndim == 1 and a.shape[1] == b.shape[0]
    if not bias_add and a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {_shapes(a, b)}")
    out = Tensor(a.value + b.value)

    def backward(g, grads):
        grads.add(a, g)
        grads.add(b, g.sum(axis=0) if bias_add else g)

    tape.push(out, (a, b), backward)
    return out


def scale(tape: Tape, a: Tensor, c: float) -> Tensor:
    out = Tensor(a.value * c)
    tape.push(out, (a,), lambda g, grads: grads.add(a, g * c))
    return out


def mul(tape: Tape, a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {_shapes(a, b)}")
    out = Tensor(a.value * b.value)

    def backward(g, grads):
        grads.add(a, g * b.value)
        grads.add(b, g * a.value)

    tape.push(out, (a, b), backward)
    return out


def leaky_relu(tape: Tape, a: Tensor, slope: float) -> Tensor:
    """max(a, slope * a), for a slope in [0, 1]."""
    out = Tensor(np.maximum(a.value, a.value * slope))
    tape.push(out, (a,), lambda g, grads: grads.add(a, np.where(a.value > 0.0, g, g * slope)))
    return out


def relu(tape: Tape, a: Tensor) -> Tensor:
    """max(a, 0); a negative input gives +0.0."""
    out = Tensor(np.maximum(a.value, 0.0))
    tape.push(out, (a,), lambda g, grads: grads.add(a, g * (a.value > 0.0)))
    return out


# Sorting networks with the fewest comparators for 3-8 inputs (Knuth, TAOCP
# vol. 3, sec. 5.3.4): 3, 5, 9, 12, 16 and 19 comparators, each (i, j) with
# i < j putting the smaller value at i.
NETWORKS = {
    3: [(0, 2), (0, 1), (1, 2)],
    4: [(0, 2), (1, 3), (0, 1), (2, 3), (1, 2)],
    5: [(0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)],
    6: [(0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3), (4, 5),
        (1, 2), (3, 4)],
    7: [(0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4), (1, 2),
        (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6)],
    8: [(0, 2), (1, 3), (4, 6), (5, 7), (0, 4), (1, 5), (2, 6), (3, 7), (0, 1), (2, 3),
        (4, 5), (6, 7), (2, 4), (3, 5), (1, 4), (3, 6), (1, 2), (3, 4), (5, 6)],
}
NETWORK_MAX_SIZE = max(NETWORKS)  # RankPlan.sorted_sum sorts larger size classes by np.sort


class RankPlan:
    """The scatter-add out[idx[i]] += values[src[i]] for i = 0, 1, ... over
    zeros of shape (n_out,) + values.shape[1:], planned once for any values.

    The pairs are taken in stable order of idx. Output rows are ordered by
    their number of addends, most first, so the rows with more than r
    addends are a prefix of that order, widths[r] long; sources[r] holds the
    source row of each such row's r-th addend, gathered by the first sum().
    sum() gathers rank 0 and adds 0.0 to it, then adds rank r into its
    prefix in place, for r = 1, 2, ..., and writes the rows out. Every cell
    so gets 0.0 + a0 + a1 + ... in ascending i, the order np.add.at adds
    in: the bits and the sign of zero are the same.

    The rows with exactly s addends are those between the rank-s and the
    rank-(s-1) widths of that order; sorted_sum() adds each such size class
    at once.
    """

    __slots__ = ("n_out", "rows", "widths", "by_idx", "firsts", "sources")

    def __init__(self, n_out: int, idx: np.ndarray, src: np.ndarray):
        counts = np.bincount(idx, minlength=n_out)
        rows = np.argsort(-counts, kind="stable")
        self.n_out = n_out
        self.rows = rows[: np.count_nonzero(counts)]
        self.widths = n_out - np.cumsum(np.bincount(counts))  # rows with more than r addends
        self.firsts = (np.cumsum(counts) - counts)[self.rows]  # each row's first pair in by_idx
        self.by_idx = src[np.argsort(idx, kind="stable")]
        self.sources = None  # sorted_sum() never reads them

    def sum(self, values: np.ndarray) -> np.ndarray:
        if self.sources is None:
            self.sources = [self.by_idx[self.firsts[:w] + r]
                            for r, w in enumerate(self.widths[:-1])]
        out = np.zeros((self.n_out,) + values.shape[1:])
        if self.sources:
            # take() gathers rows faster than fancy indexing
            part = values.take(self.sources[0], axis=0)
            part += 0.0  # as if added to zeros: -0.0 becomes +0.0
            for src in self.sources[1:]:
                part[: len(src)] += values.take(src, axis=0)
            out[self.rows] = part
        return out

    def sorted_sum(self, values: np.ndarray, only: np.ndarray | None = None) -> np.ndarray:
        """sum() of 2-D values with each column's addends in ascending order,
        added left to right from the smallest; a zero sum is +0.0. With only,
        a boolean mask of output rows, the rows outside it are +0.0.

        A size class is gathered into one (size, rows, columns) array, with
        0.0 added to every cell: that turns -0.0 into +0.0 and changes no
        other value, so the result depends on the multiset of a column's
        values and never on their order. Rows of one or two addends are added
        unsorted (a + b == b + a, bit for bit), rows of up to NETWORK_MAX_SIZE
        go through NETWORKS' comparators as np.minimum/np.maximum over the
        whole class at once, and larger ones through np.sort.
        """
        rows, firsts, widths = self.rows, self.firsts, self.widths
        if only is not None:  # kept rows keep their order: count them in each prefix
            keep = only[rows]
            rows, firsts, widths = rows[keep], firsts[keep], np.append(0, keep.cumsum())[widths]
        out = np.zeros((self.n_out, values.shape[1]))
        for size in range(1, len(widths)):
            lo, hi = widths[size], widths[size - 1]
            if lo == hi:
                continue
            cells = values[self.by_idx[firsts[lo:hi] + np.arange(size)[:, None]]]
            cells += 0.0
            if size > NETWORK_MAX_SIZE:
                cells.sort(axis=0)
            cells = list(cells)
            if size in NETWORKS:
                spare = np.empty_like(cells[0])
                for i, j in NETWORKS[size]:
                    low, high = cells[i], cells[j]
                    np.minimum(low, high, out=spare)
                    np.maximum(low, high, out=high)
                    cells[i], spare = spare, low
            total = cells[0] + cells[1] if size > 1 else cells[0]
            for cell in cells[2:]:
                total += cell
            out[rows[lo:hi]] = total
        return out


class IndexPairs(tuple):
    """A (src, dst) pair that keeps the RankPlans built from it: one that
    sums into dst (the forward neighbor sum) and one that sums into src
    (its backward), each built on first use."""

    def __new__(cls, src: np.ndarray, dst: np.ndarray):
        pairs = super().__new__(cls, (src, dst))
        pairs.plans = {}
        return pairs

    def plan(self, n_out: int, into_src: bool) -> RankPlan:
        key = (n_out, into_src)
        if key not in self.plans:
            src, dst = self
            self.plans[key] = RankPlan(n_out, src, dst) if into_src else RankPlan(
                n_out, dst, src)
        return self.plans[key]


def row_sum_aggregate(
    tape: Tape, h: Tensor, pairs: IndexPairs, only: np.ndarray | None = None,
) -> Tensor:
    """out[i] = sum of h[j] over the (j, i) in pairs, a (src, dst) pair of
    index arrays that keeps its plans for the next call; out has h's rows.

    Each column's values within a group are added in ascending order, left
    to right, and a zero sum comes out as +0.0, so every output cell is a
    function of that column's value multiset alone, signed zeros included:
    a column's sums depend neither on the other columns nor on the order of
    the pairs. only, a boolean mask over out's rows, sums just those rows;
    the others are +0.0.
    """
    out = Tensor(pairs.plan(h.shape[0], into_src=False).sorted_sum(h.value, only))

    def backward(g, grads):
        if only is not None:
            g = np.where(only[:, None], g, 0.0)
        grads.add(h, pairs.plan(h.shape[0], into_src=True).sum(g))

    tape.push(out, (h,), backward)
    return out


def take_rows(tape: Tape, parts: list[Tensor], rows) -> Tensor:
    """The given distinct rows of parts, 2-D tensors with the same rows,
    joined along the columns in list order."""
    parts, rows = tuple(parts), np.asarray(rows, dtype=np.intp)  # the caller may grow its list
    out = Tensor(np.concatenate([p.value[rows] for p in parts], axis=1))

    def backward(g, grads):
        start = 0
        for p in parts:
            grad = np.zeros(p.shape)
            grad[rows] = g[:, start:start + p.shape[1]]
            start += p.shape[1]
            grads.add(p, grad)

    tape.push(out, parts, backward)
    return out


def put_rows(tape: Tape, h: Tensor, rows, n: int) -> Tensor:
    """n rows of zeros with h's rows at rows, which are distinct."""
    rows = np.asarray(rows, dtype=np.intp)
    out = Tensor(np.zeros((n,) + h.shape[1:]))
    out.value[rows] = h.value
    tape.push(out, (h,), lambda g, grads: grads.add(h, g[rows]))
    return out


def sum_all(tape: Tape, a: Tensor) -> Tensor:
    out = Tensor(a.value.sum())
    tape.push(out, (a,), lambda g, grads: grads.add(a, np.full_like(a.value, g)))
    return out


class _GradStore:
    """Gradient per tensor. The first one is kept as given, without a copy,
    and later ones are added out of place: no backward function writes into
    an array, so a kept array may be shared with other tensors."""

    def __init__(self):
        self.by_id: dict[int, np.ndarray] = {}

    def add(self, t: Tensor, g: np.ndarray) -> None:
        key = id(t)
        stored = self.by_id.get(key)
        self.by_id[key] = g if stored is None else stored + g

    def get(self, t: Tensor):
        return self.by_id.get(id(t))


def backward(tape: Tape, loss: Tensor) -> dict[str, np.ndarray]:
    """Accumulate gradients of a scalar loss; returns {name: grad} for every
    named tensor reached. A tape can only be walked once."""
    if loss.value.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if tape.consumed:
        raise RuntimeError("tape already consumed; re-record the forward pass")
    if not tape.record:
        raise RuntimeError("tape was created with record=False")
    tape.consumed = True

    grads = _GradStore()
    grads.add(loss, np.asarray(1.0))
    for out, _parents, backward_fn in reversed(tape.nodes):
        g = grads.get(out)
        if g is not None:
            backward_fn(g, grads)
    named: dict[str, np.ndarray] = {}
    for _out, parents, _fn in tape.nodes:
        for p in parents:
            if p.name is not None and grads.get(p) is not None:
                named[p.name] = grads.get(p)
    return named


@dataclass
class GradCheckReport:
    worst_rel_err: float
    worst_param: str
    worst_coord: int
    passed: bool


def grad_check(
    f, params: dict[str, np.ndarray], h: float = 1e-5, tol: float = 1e-4
) -> GradCheckReport:
    """Compare analytic gradients of f against central finite differences.

    f takes (params: dict[str, Tensor], tape) and returns a scalar Tensor.

    The per-coordinate error is relative to the coordinate's own magnitude,
    floored at a small fraction of the whole gradient's scale: differences on
    coordinates many orders below the dominant gradient are indistinguishable
    from finite-difference roundoff in float64 and must not mask real
    disagreements on coordinates that matter.
    """
    tensors = {k: Tensor(v, name=k) for k, v in params.items()}
    tape = Tape()
    loss = f(tensors, tape)
    analytic = backward(tape, loss)
    grad_scale = max(
        (float(np.abs(g).max()) for g in analytic.values() if g.size), default=0.0
    )
    floor = max(1e-8, 1e-4 * (1.0 + grad_scale))

    def value_at(mutated: dict[str, np.ndarray]) -> float:
        t = {k: Tensor(v, name=k) for k, v in mutated.items()}
        return float(f(t, Tape(record=False)).value)

    worst = (0.0, "", -1)
    for name, arr in params.items():
        a_grad = analytic.get(name, np.zeros_like(arr))
        flat = arr.reshape(-1)
        for i in range(flat.size):
            step = np.array(arr, copy=True).reshape(-1)
            step[i] += h
            up = value_at({**params, name: step.reshape(arr.shape)})
            step[i] -= 2 * h
            down = value_at({**params, name: step.reshape(arr.shape)})
            numeric = (up - down) / (2 * h)
            a = float(a_grad.reshape(-1)[i])
            rel = abs(a - numeric) / max(floor, abs(a) + abs(numeric))
            if rel > worst[0]:
                worst = (rel, name, i)
    return GradCheckReport(
        worst_rel_err=worst[0],
        worst_param=worst[1],
        worst_coord=worst[2],
        passed=worst[0] < tol,
    )
