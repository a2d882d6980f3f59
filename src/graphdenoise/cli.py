"""Command-line entry point: synth | noise | train | eval | denoise | report |
check-submodular.

Every subcommand takes --seed and --out-dir; train also takes --config (a
JSON file of training-config overrides). Each train flag sets one config
field and is parsed only when given, so one merge lays the flags over the
file and TrainConfig.from_dict validates the result once: built-in defaults
< config file < explicit flags, and a key that names no config field is a
validation error. All outputs are deterministic given the seed. Exit codes:
0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import submodular, trainer
from .graph import (NoiseSpec, corrupt_features, generate_planted_partition, inject_edge_noise,
                    load_graph, read_json, save_graph_json, write_json)
from .policy import PPOConfig
from .seeding import spawn_rng
from .trainer import TrainConfig

# (flag, config class, field, type, help): each train flag sets one field, a
# PPOConfig one inside the config's ppo object; help appends the class default
_TRAIN_FLAGS = (
    ("--iters", TrainConfig, "outer_iters", int, "outer training iterations"),
    ("--rep-epochs", TrainConfig, "rep_epochs", int, "representation epochs per iteration"),
    ("--gamma", PPOConfig, "gamma", float, "return discount factor"),
    ("--delta", PPOConfig, "delta", float, "trust-region KL threshold"),
    ("--batch-size", TrainConfig, "batch_size", int, "representation minibatch size"),
    ("--embed-dim", TrainConfig, "embed_dim", int, "embedding dimension"),
    ("--select-all", TrainConfig, "select_all", bool,
     "baseline: keep every neighbor, skip policy learning"),
    ("--seed", TrainConfig, "seed", int, "root random seed"),
)


def _add_graph_input(p):
    p.add_argument("--graph", required=True, help="graph file (json or edge list)")
    p.add_argument("--format", choices=["json", "edge-list+features"], default="json")
    p.add_argument("--features", default=None, help="feature file for edge-list format")
    p.add_argument("--labels", default=None, help="label file for edge-list format")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphdenoise",
        description="Noise-robust node representations via policy-driven neighbor selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, handler, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=handler)
        if name != "train":  # train's seed is a config field, in _TRAIN_FLAGS
            p.add_argument("--seed", type=int, default=0, help="root random seed")
        p.add_argument("--out-dir", default=".", help="directory for output artifacts")
        return p

    p = add_parser("synth", cmd_synth, "generate a planted-partition dataset")
    p.add_argument("--n", type=int, default=200, help="number of nodes")
    p.add_argument("--classes", type=int, default=2, help="number of classes")
    p.add_argument("--p-in", type=float, default=0.1, help="within-class edge probability")
    p.add_argument("--p-out", type=float, default=0.0, help="cross-class edge probability")
    p.add_argument("--dim", type=int, default=8, help="feature dimension")
    p.add_argument("--strength", type=float, default=1.0, help="class-mean scale vs unit noise")

    p = add_parser("noise", cmd_noise, "inject edge / feature noise into a graph")
    _add_graph_input(p)
    p.add_argument("--edge-noise", type=float, default=0.0, help="added cross-class edges as a fraction of edges")
    p.add_argument("--feature-noise", type=float, default=0.0, help="fraction of feature entries corrupted")
    p.add_argument("--corrupt-mode", choices=["zero", "randomize"], default="zero")

    p = add_parser("train", cmd_train, "train the selector and the aggregator")
    _add_graph_input(p)
    for flag, owner, name, kind, text in _TRAIN_FLAGS:  # absent from args unless given
        typed = {"action": "store_true"} if kind is bool else {"type": kind}
        p.add_argument(flag, dest=name, default=argparse.SUPPRESS, **typed,
                       help=f"{text} (config default {getattr(owner, name)})")
    p.add_argument("--config", default=None, help="JSON file of training-config overrides")

    for name, handler, help_text in (
            ("eval", cmd_eval, "score a checkpoint on a mask"),
            ("denoise", cmd_denoise, "export the kept-edge graph"),
            ("report", cmd_report, "selected-neighbor fraction distribution")):
        p = add_parser(name, handler, help_text)
        _add_graph_input(p)
        p.add_argument("--checkpoint", required=True)
        if name == "eval":
            p.add_argument("--mask", choices=["val", "test"], default="test",
                           help="which mask to score")
        p.add_argument("--selection", choices=trainer.SELECTION_MODES, default="policy")

    p = add_parser("check-submodular", cmd_check_submodular, "run the reward-property suites")
    p.add_argument("--trials", type=int, default=1000, help="randomized trials per property")
    p.add_argument("--graph", default=None, help="optional graph json (default: fresh synthetic)")
    return parser


def _load_graph(args):
    return load_graph(args.graph, fmt=args.format,
                      features_path=args.features, labels_path=args.labels)


def _load_graph_and_model(args):
    """The graph and the checkpoint's policy, aggregator and classifier; a
    checkpoint of another feature width than the graph's is a ValueError."""
    g = _load_graph(args)
    policy, agg, clf, _ = trainer.load_checkpoint(args.checkpoint)
    if agg.feature_dim != g.feature_dim:
        raise ValueError(f"checkpoint expects {agg.feature_dim} features per node, "
                         f"graph has {g.feature_dim}")
    return g, policy, agg, clf


def _build_config(args):
    """defaults < --config file < explicit flags, validated once by from_dict."""
    overrides = read_json(args.config) if args.config else {}
    if not isinstance(overrides, dict):
        raise ValueError(f"--config must hold a JSON object, got {type(overrides).__name__}")
    given = vars(args)  # a train flag is present only when given
    for _, owner, name, _, _ in _TRAIN_FLAGS:
        if name in given:
            target = overrides if owner is TrainConfig else overrides.setdefault("ppo", {})
            if isinstance(target, dict):  # from_dict names a ppo that is no object
                target[name] = given[name]
    return TrainConfig.from_dict(overrides)


def cmd_synth(args):
    g = generate_planted_partition(args.n, args.classes, args.p_in, args.p_out,
                                   args.dim, args.strength, args.seed)
    out = os.path.join(args.out_dir, "graph.json")
    save_graph_json(g, out)
    print(f"wrote {out}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes, dim {g.feature_dim}")
    return 0


def cmd_noise(args):
    g = _load_graph(args)
    spec = NoiseSpec(edge_noise_rate=args.edge_noise,
                     feature_corrupt_rate=args.feature_noise, seed=args.seed)
    before = g.num_edges
    g = inject_edge_noise(g, spec)
    g = corrupt_features(g, spec, mode=args.corrupt_mode)
    out = os.path.join(args.out_dir, "graph.json")
    save_graph_json(g, out)
    print(f"wrote {out}: {before} -> {g.num_edges} edges")
    return 0


def cmd_train(args):
    g = _load_graph(args)
    cfg = _build_config(args)
    result = trainer.train(g, cfg)
    ckpt = os.path.join(args.out_dir, "checkpoint.json")
    metrics = os.path.join(args.out_dir, "metrics.jsonl")
    trainer.save_checkpoint(ckpt, result.policy, result.agg, result.clf, cfg.to_dict())
    trainer.write_metrics(metrics, result.history)
    if not result.history:
        print(f"wrote {ckpt}: no iteration ran, so it holds the initial parameters")
        return 0
    # metrics.jsonl writes null for a val_f1 without val nodes
    last_val = result.history[-1]["val_f1"] if g.val_mask.any() else "none (no val nodes)"
    print(f"wrote {ckpt} (best iteration {result.best_iteration}), last val_f1 {last_val}")
    return 0


def cmd_eval(args):
    g, policy, agg, clf = _load_graph_and_model(args)
    score = trainer.evaluate(policy, agg, clf, g, args.mask, args.selection)
    out = os.path.join(args.out_dir, "eval.json")
    write_json(out, {"mask": args.mask, "selection": args.selection, "micro_f1": score})
    print(f"{args.mask} micro_f1 {score}")
    return 0


def cmd_denoise(args):
    g, policy, agg, _ = _load_graph_and_model(args)
    edges_out = os.path.join(args.out_dir, "denoised_edges.txt")
    denoised = trainer.export_denoised_graph(policy, agg, g, edges_out, args.selection)
    save_graph_json(denoised, os.path.join(args.out_dir, "denoised_graph.json"))
    print(f"kept {denoised.num_edges} of {g.num_edges} edges")
    return 0


def cmd_report(args):
    g, policy, agg, _ = _load_graph_and_model(args)
    report = trainer.selection_report(policy, agg, g, args.selection)
    out = os.path.join(args.out_dir, "selection_report.json")
    write_json(out, {"nodes": report.node_ids.tolist(), "fractions": report.fractions.tolist(),
                     "histogram": report.histogram.tolist()})
    print(f"wrote {out}: mean kept fraction "
          f"{float(report.fractions.mean()) if report.fractions.size else 0.0}")
    return 0


def cmd_check_submodular(args):
    g = (load_graph(args.graph) if args.graph
         else generate_planted_partition(50, 2, 0.35, 0.12, 8, 1.0, args.seed))
    if not g.num_nodes:
        raise ValueError(f"{args.graph}: graph has no nodes to check the reward on")
    cfg = TrainConfig(embed_dim=16, seed=args.seed)
    _, agg, clf = trainer.init_params(g, cfg)
    node = max(range(g.num_nodes), key=lambda v: (g.degree(v), -v))
    f = submodular.SelectionRewardFunction(g, node, agg, clf)
    mono = submodular.check_monotone(f, args.trials, spawn_rng(args.seed, 100))
    sub = submodular.check_submodular(f, args.trials, spawn_rng(args.seed, 101))
    spread = f.order_spread(f.ground[:min(8, len(f.ground))], spawn_rng(args.seed, 102))
    payload = {"node": node}
    for check in (mono, sub):  # keyed "monotone" and "submodular"
        payload[check.function] = dataclasses.asdict(check)
    payload["order_spread"] = spread
    if len(f.ground) <= 20:
        _, greedy_val = submodular.greedy_maximize(f)
        _, best_val = submodular.brute_force_optimal(f)
        payload.update(greedy_value=greedy_val, brute_force_value=best_val,
                       bound_ok=bool(greedy_val >= (1.0 - 1.0 / np.e) * best_val - 1e-9))
    out = os.path.join(args.out_dir, "submodular_report.json")
    write_json(out, payload)
    print(f"monotone {mono.passes}/{mono.trials}, submodular {sub.passes}/{sub.trials}")
    return 0 if mono.passed and sub.passed else 1


def run(argv):
    """Parse argv (without the program name) and execute one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if vars(args).get("seed", 0) < 0:  # train's is absent unless given
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        os.makedirs(args.out_dir, exist_ok=True)
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:  # a GraphError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
