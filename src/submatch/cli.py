"""Single command-line entry point: gen, train, embed, query, bench, selftest.

Human-readable summaries go to stdout; machine artifacts only to files, all
written atomically. Exit codes: 0 success, 1 usage/config error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import ConfigError, build_dataclass, parse_kv_file, split_sections
from .datasets import gen_er, gen_extended_barabasi
from .encoder import CheckpointError, EncoderConfig, load_checkpoint, save_checkpoint
from .evaluate import BENCH_TIMEOUT, DRAWS_PER_INSTANCE, bench as run_bench, check_bench_request
from .evaluate import calibrate_decision, make_problem1_instances, write_bench_outputs
from .graphs import GraphError, LabeledGraph, load_graph, save_graph
from .order import MarginConfig
from .query import IndexError_, answer, build_index, load_index, save_index
from .sampling import SamplerConfig
from .training import TrainConfig, TrainingDiverged, save_history, train
from .util import atomic_write_text

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse prints usage and exits 2; we want one line and 1
        raise UsageError(f"{message} (see {self.prog} --help)")


# gen's uniform-random graphs have this mean degree; its attachment graphs
# grow by datasets.ATTACH_M, P_ADD and P_REWIRE
ER_AVG_DEGREE = 4.0


@dataclass(frozen=True)
class GenConfig:
    n_graphs: int = 40
    min_nodes: int = 16
    max_nodes: int = 30
    label_alphabet_size: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.n_graphs, self.label_alphabet_size) < 1 or self.seed < 0:
            raise ValueError("n_graphs and label_alphabet_size must be >= 1, seed >= 0")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")


def _load_config_sections(path: str | None, overrides: list[str], prefixes: list[str]):
    raw = parse_kv_file(path) if path else {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return split_sections(raw, prefixes)


def _load_targets(data_dir: str) -> list[LabeledGraph]:
    files = sorted(
        f for f in os.listdir(data_dir) if f.endswith(".json") and f != "manifest.json"
    )
    if not files:
        raise GraphError(f"no graph .json files in {data_dir}")
    return [load_graph(os.path.join(data_dir, f)) for f in files]


def cmd_gen(args) -> int:
    flat = _load_config_sections(args.config, args.set or [], [])[""]
    if args.seed is not None:
        flat["seed"] = str(args.seed)
    cfg: GenConfig = build_dataclass(GenConfig, flat)
    rng = np.random.default_rng(cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    names = []
    for i in range(cfg.n_graphs):
        n = int(rng.integers(cfg.min_nodes, cfg.max_nodes + 1))
        seed = int(rng.integers(2**31))
        if i % 2 == 0:
            p = min(1.0, ER_AVG_DEGREE / max(n - 1, 1))
            g = gen_er(n, p, cfg.label_alphabet_size, seed)
        else:
            g = gen_extended_barabasi(n, cfg.label_alphabet_size, seed)
        name = f"graph_{i:04d}.json"
        save_graph(g, os.path.join(args.out, name))
        names.append(name)
    atomic_write_text(
        os.path.join(args.out, "manifest.json"),
        json.dumps({"config": asdict(cfg), "graphs": names}, indent=2, sort_keys=True),
    )
    print(f"wrote {len(names)} graphs to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.calibration_pairs < 0:
        raise ConfigError(
            f"--calibration-pairs must be non-negative, got {args.calibration_pairs}"
        )
    sections = _load_config_sections(
        args.config, args.set or [], ["train", "encoder", "margin", "sampler"]
    )
    if sections[""]:
        raise ConfigError(
            "top-level keys must be prefixed (train./encoder./margin./sampler.): "
            + ", ".join(sorted(sections[""]))
        )
    if "threshold" in sections["margin"]:
        raise ConfigError("margin.threshold cannot be set: train calibrates it")
    if "label_alphabet_size" in sections["encoder"]:
        raise ConfigError("encoder.label_alphabet_size cannot be set: "
                          "train reads it from the training graphs")
    if args.epochs is not None:
        sections["train"]["epochs"] = str(args.epochs)
    if args.seed is not None:
        sections["train"]["seed"] = str(args.seed)
    train_cfg: TrainConfig = build_dataclass(TrainConfig, sections["train"])
    encoder_cfg: EncoderConfig = build_dataclass(EncoderConfig, sections["encoder"])
    # the smallest positive float, below any margin, stands in for the threshold
    margin_cfg: MarginConfig = build_dataclass(MarginConfig,
                                               {**sections["margin"], "threshold": "5e-324"})
    sampler_cfg: SamplerConfig = build_dataclass(SamplerConfig, sections["sampler"])

    targets = _load_targets(args.data)
    alphabet = max(g.label_alphabet_size for g in targets)
    encoder_cfg = replace(encoder_cfg, label_alphabet_size=alphabet)
    result = train(targets, train_cfg, encoder_cfg, margin_cfg, sampler_cfg)
    checkpoint = result.checkpoint

    checkpoint.decision_cutoff = calibrate_decision(
        checkpoint, targets, args.calibration_pairs, train_cfg.seed
    )

    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    save_checkpoint(checkpoint, ckpt_path)
    save_history(result.history, os.path.join(args.out, "history.csv"))
    print(
        f"trained {train_cfg.epochs} epochs; best val AUROC "
        f"{result.best_val_auroc / 100:.4f} at epoch {result.best_epoch}"
    )
    print(
        f"threshold {checkpoint.margin.threshold:.4f}, "
        f"decision cutoff {checkpoint.decision_cutoff:.4f}"
    )
    print(f"checkpoint: {ckpt_path}")
    return 0


def cmd_embed(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    g = load_graph(args.graph)
    index = build_index(g, checkpoint)
    save_index(index, args.out)
    print(f"indexed {index.node_count} nodes at radius {index.radius} -> {args.out}")
    return 0


def cmd_query(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    query = load_graph(args.query)
    if args.index:
        index = load_index(args.index, checkpoint)
        if args.vote and not args.target:
            raise ConfigError("--vote needs --target for neighborhood adjacency")
    elif not args.target:
        raise ConfigError("query needs --index or --target")
    target = load_graph(args.target) if args.target else None
    if not args.index:
        index = build_index(target, checkpoint)
    elif target is not None and index.graph_fingerprint != target.fingerprint():
        raise ConfigError(f"index {args.index} was built from another graph than {args.target}")
    matrix, verdict = answer(query, index, checkpoint, vote_on=target if args.vote else None)
    print(f"decision: {'subgraph' if verdict.decision else 'not-subgraph'}")
    print(f"indicator score: {verdict.score:.4f} (cutoff {checkpoint.decision_cutoff:.4f})")
    print(f"mean violation: {verdict.mean_violation:.4f}")
    if args.per_node:
        for q in range(query.node_count):
            matches = np.nonzero(matrix.values[:, q] < checkpoint.margin.threshold)[0]
            head = ", ".join(str(u) for u in matches[:8])
            more = f" (+{len(matches) - 8} more)" if len(matches) > 8 else ""
            print(f"query node {q}: {len(matches)} candidate targets [{head}{more}]")
    if args.alignment_csv:
        atomic_write_text(args.alignment_csv, matrix.to_csv())
        print(f"alignment matrix: {args.alignment_csv}")
    return 0


def cmd_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    check_bench_request(
        methods,
        bool(args.checkpoint),
        args.timeout,
        n_instances=args.n_instances,
        seed=args.seed,
    )
    checkpoint = load_checkpoint(args.checkpoint) if args.checkpoint else None
    targets = _load_targets(args.data)
    rng = np.random.default_rng(args.seed)
    instances = make_problem1_instances(targets, args.n_instances, rng)
    if len(instances) < args.n_instances:
        raise GraphError(f"the graphs in {args.data} gave {len(instances)} of the "
                         f"{args.n_instances} requested instances in "
                         f"{DRAWS_PER_INSTANCE * args.n_instances} draws")
    results, summary = run_bench(
        methods, instances, checkpoint=checkpoint, timeout=args.timeout
    )
    write_bench_outputs(results, summary, args.out_csv, args.out_json)
    for method, entry in summary["methods"].items():
        auroc_txt = f" auroc={entry['auroc']:.4f}" if "auroc" in entry else ""
        print(
            f"{method}: success={entry['success_rate']:.2f} "
            f"mean_time={entry['mean_time_s'] * 1000:.1f}ms{auroc_txt}"
        )
    print(f"rows: {args.out_csv}\nsummary: {args.out_json}")
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    ok = run_selftest(fast=args.fast)
    return 0 if ok else RUNTIME_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="submatch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic dataset files")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model; writes checkpoint + history")
    p.add_argument("--data", required=True, help="directory of graph .json files")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override, e.g. train.epochs=50 or encoder.layers=4")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--calibration-pairs", type=int, default=40,
                   help="oracle-labeled instances that calibrate the whole-query "
                        "decision cutoff; 0 keeps the default cutoff of 0.5")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="build and persist an embedding index")
    p.add_argument("--graph", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("query", help="decide whether a query embeds in a target")
    p.add_argument("--query", required=True)
    p.add_argument("--index")
    p.add_argument("--target")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vote", action="store_true")
    p.add_argument("--per-node", action="store_true")
    p.add_argument("--alignment-csv")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="runtime/accuracy benchmark over methods")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--methods", default="exact,neural")
    p.add_argument("--n-instances", type=int, default=40)
    p.add_argument("--timeout", type=float, default=BENCH_TIMEOUT)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="criteria 1-2's oracle-equivalence and geometry "
                                        "suites, at smaller sizes")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ConfigError, GraphError, CheckpointError, IndexError_, TrainingDiverged,
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
