"""Spans recorded from outside the program by wrapping its public functions.

Each wrap target is a function the package looks up as a module or class
attribute at call time, so replacing the attribute routes every call through
a timing wrapper; `Recorder.uninstall` puts the originals back. A target that
no longer exists is listed in `missing`, and every metric that needs it is
reported as missing instead of as zero.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

import numpy as np


def _nodes(args, kwargs, result):
    return result.node_count


def _outcome(args, kwargs, result):
    return result.value


def _returned(args, kwargs, result):
    return result


def _aggregate_cells(args, kwargs, result):
    # gathered rows x width: row_sum_aggregate(tape, h, groups, ...)
    h, groups = args[1], args[2]
    if isinstance(groups, tuple) and len(groups) == 2:
        rows = len(groups[0])
    else:
        rows = sum(len(g) for g in groups)
    width = h.value.shape[1] if h.value.ndim == 2 else 1
    return rows * width


def _matmul_flops(args, kwargs, result):
    a, b = args[1].value, args[2].value
    return 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _score_entries(args, kwargs, result):
    return int(np.size(result))


# (span name, module, attribute path, what to keep from each call)
TARGETS = [
    ("graphs.validate", "submatch.graphs", "LabeledGraph.__post_init__", None),
    ("graphs.bfs", "submatch.graphs", "LabeledGraph.bfs_distances", None),
    ("graphs.khop", "submatch.sampling", "k_hop_neighborhood", _nodes),
    ("graphs.khop", "submatch.encoder", "k_hop_neighborhood", _nodes),
    ("exact.anchored", "submatch.sampling", "is_subgraph_anchored", None),
    ("exact.unanchored", "submatch.exact", "is_subgraph", _outcome),
    ("sampling.positive", "submatch.training", "sample_positive_pair", _returned),
    ("sampling.negative", "submatch.training", "sample_negative_pair", _returned),
    ("autodiff.aggregate", "submatch.autodiff", "row_sum_aggregate", _aggregate_cells),
    ("autodiff.matmul", "submatch.autodiff", "matmul", _matmul_flops),
    ("autodiff.backward", "submatch.autodiff", "backward", None),
    ("encoder.features", "submatch.encoder", "build_input_features", None),
    ("encoder.infer", "submatch.query", "encode_all", None),
    ("encoder.batch", "submatch.training", "encode_batch", None),
    ("order.score", "submatch.query", "violation_matrix", _score_entries),
    ("order.loss", "submatch.training", "margin_loss", None),
    ("training.adam", "submatch.training", "adam_step", None),
    ("training.validate", "submatch.training", "pair_violations", None),
    ("training.validate", "submatch.training", "sample_validation_pairs", None),
    ("query.embed", "submatch.query", "embed_query_nodes", None),
    ("query.decide", "submatch.query", "decide", None),
    ("query.vote_mask", "submatch.query", "vote_mask_for", None),
    ("query.vote", "submatch.query", "vote", _returned),
]


class Recorder:
    """In-memory span list: [name, start, end, parent index, kept value].

    Wrappers record only while `recording` is true, so a workload switches
    recording on around its timed calls and off around its own checks.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[tuple[str, str]] = []  # (span name, "module:attribute")
        self.recording = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, keep in targets:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append((name, f"{module_name}:{path}"))
                continue
            setattr(owner, attr, self._wrapper(name, original, keep))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrapper(self, name, original, keep):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if not self.recording:
                return original(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep is not None:
                span[4] = keep(args, kwargs, result)
            return result

        return timed

    def missing_spans(self) -> set[str]:
        """Span names with at least one absent wrap target."""
        return {name for name, _ in self.missing}

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"missing": [target for _, target in self.missing], "spans": [
                [name, start, end, parent] for name, start, end, parent, _ in self.spans
            ]}, fh)


class Summary:
    """Totals, counts and self times of a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.duration = [s[2] - s[1] for s in spans]
        self.children_time = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.children_time[s[3]] += self.duration[i]

    def select(self, name: str, under: str | None = None, outside: str | None = None):
        """Indices of spans called `name`, optionally only those with (or
        without) an enclosing span called `under` (`outside`)."""
        out = []
        for i, s in enumerate(self.spans):
            if s[0] != name:
                continue
            if under is not None and self.enclosing(i, {under}) is None:
                continue
            if outside is not None and self.enclosing(i, {outside}) is not None:
                continue
            out.append(i)
        return out

    def enclosing(self, i: int, names: set[str]) -> int | None:
        """Nearest ancestor of span i whose name is in names."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return p
            p = self.spans[p][3]
        return None

    def total(self, idx) -> float:
        return sum(self.duration[i] for i in idx)

    def self_time(self, idx) -> float:
        return sum(self.duration[i] - self.children_time[i] for i in idx)

    def kept(self, idx) -> list:
        return [self.spans[i][4] for i in idx]
