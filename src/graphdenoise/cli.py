"""Command-line entry point: synth | noise | train | eval | denoise | report |
check-submodular.

Every subcommand takes --seed and --out-dir; train also takes --config (a
JSON file of training-config overrides; built-in defaults < config file <
explicit flags, and a key that names no config field is a validation
error). All outputs are deterministic given the seed. Exit codes: 0
success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import submodular, trainer
from .graph import (GraphError, NoiseSpec, corrupt_features, generate_planted_partition,
                    inject_edge_noise, load_graph, save_graph_json)
from .seeding import spawn_rng


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="root random seed (config default 0)")
    p.add_argument("--out-dir", default=".", help="directory for output artifacts")


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

    def add_parser(name, help_text):
        return sub.add_parser(name, help=help_text,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)


    p = add_parser("synth", "generate a planted-partition dataset")
    p.add_argument("--n", type=int, default=200, help="number of nodes")
    p.add_argument("--classes", type=int, default=2, help="number of classes")
    p.add_argument("--p-in", type=float, default=0.1, help="within-class edge probability")
    p.add_argument("--p-out", type=float, default=0.0, help="cross-class edge probability")
    p.add_argument("--dim", type=int, default=8, help="feature dimension")
    p.add_argument("--strength", type=float, default=1.0, help="class-mean scale vs unit noise")
    _add_common(p)

    p = add_parser("noise", "inject edge / feature noise into a graph")
    _add_graph_input(p)
    p.add_argument("--edge-noise", type=float, default=0.0, help="added cross-class edges as a fraction of edges")
    p.add_argument("--feature-noise", type=float, default=0.0, help="fraction of feature entries corrupted")
    p.add_argument("--corrupt-mode", choices=["zero", "randomize"], default="zero")
    _add_common(p)

    p = add_parser("train", "train the selector and the aggregator")
    _add_graph_input(p)
    p.add_argument("--iters", type=int, default=None, help="outer training iterations (config default 20)")
    p.add_argument("--rep-epochs", type=int, default=None, help="representation epochs per iteration (config default 80)")
    p.add_argument("--gamma", type=float, default=None, help="return discount factor (config default 0.95)")
    p.add_argument("--delta", type=float, default=None, help="trust-region KL threshold (config default 0.01)")
    p.add_argument("--batch-size", type=int, default=None, help="representation minibatch size (config default 256)")
    p.add_argument("--embed-dim", type=int, default=None, help="embedding dimension (config default 128)")
    p.add_argument("--fc-mode", choices=["soft", "hard"], default=None, help="per-node task score mode (config default soft)")
    p.add_argument("--select-all", action="store_true",
                   help="baseline: keep every neighbor, skip policy learning")
    p.add_argument("--config", default=None, help="JSON file of training-config overrides")
    _add_common(p)

    p = add_parser("eval", "score a checkpoint on a mask")
    _add_graph_input(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mask", choices=["val", "test"], default="test", help="which mask to score")
    p.add_argument("--selection", choices=["policy", "all", "none"], default="policy")
    _add_common(p)

    p = add_parser("denoise", "export the kept-edge graph")
    _add_graph_input(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--selection", choices=["policy", "all", "none"], default="policy")
    _add_common(p)

    p = add_parser("report", "selected-neighbor fraction distribution")
    _add_graph_input(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--selection", choices=["policy", "all", "none"], default="policy")
    _add_common(p)

    p = add_parser("check-submodular", "run the reward-property suites")
    p.add_argument("--trials", type=int, default=1000, help="randomized trials per property")
    p.add_argument("--graph", default=None, help="optional graph json (default: fresh synthetic)")
    _add_common(p)
    return parser


def _seed(args):
    return 0 if args.seed is None else int(args.seed)


def _load_graph(args):
    return load_graph(args.graph, fmt=args.format,
                      features_path=args.features, labels_path=args.labels)


def _build_config(args):
    """defaults < --config file < explicit flags."""
    base = trainer.TrainConfig().to_dict()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            base.update(json.load(fh))
    flag_map = {
        "iters": "outer_iters",
        "rep_epochs": "rep_epochs",
        "batch_size": "batch_size",
        "embed_dim": "embed_dim",
        "fc_mode": "fc_mode",
        "seed": "seed",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag)
        if value is not None:
            base[key] = value
    ppo = dict(base.get("ppo", {}))
    if args.gamma is not None:
        ppo["gamma"] = args.gamma
    if args.delta is not None:
        ppo["delta"] = args.delta
    base["ppo"] = ppo
    if args.select_all:
        base["select_all"] = True
    return trainer.TrainConfig.from_dict(base)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
        fh.write("\n")


def cmd_synth(args):
    g = generate_planted_partition(args.n, args.classes, args.p_in, args.p_out,
                                   args.dim, args.strength, _seed(args))
    out = os.path.join(args.out_dir, "graph.json")
    save_graph_json(g, out)
    print(f"wrote {out}: {g.num_nodes} nodes, {g.num_edges} edges, "
          f"{g.num_classes} classes, dim {g.feature_dim}")
    return 0


def cmd_noise(args):
    g = _load_graph(args)
    spec = NoiseSpec(edge_noise_rate=args.edge_noise,
                     feature_corrupt_rate=args.feature_noise, seed=_seed(args))
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
    last_val = result.history[-1]["val_f1"] if result.history else float("nan")
    print(f"wrote {ckpt} (best iteration {result.best_iteration}), "
          f"last val_f1 {last_val}")
    return 0


def cmd_eval(args):
    g = _load_graph(args)
    policy, agg, clf, _ = trainer.load_checkpoint(args.checkpoint)
    score = trainer.evaluate(policy, agg, clf, g, args.mask, args.selection)
    out = os.path.join(args.out_dir, "eval.json")
    _write_json(out, {"mask": args.mask, "selection": args.selection, "micro_f1": score})
    print(f"{args.mask} micro_f1 {score}")
    return 0


def cmd_denoise(args):
    g = _load_graph(args)
    policy, agg, clf, _ = trainer.load_checkpoint(args.checkpoint)
    edges_out = os.path.join(args.out_dir, "denoised_edges.txt")
    denoised = trainer.export_denoised_graph(policy, agg, g, edges_out, args.selection)
    save_graph_json(denoised, os.path.join(args.out_dir, "denoised_graph.json"))
    print(f"kept {denoised.num_edges} of {g.num_edges} edges")
    return 0


def cmd_report(args):
    g = _load_graph(args)
    policy, agg, clf, _ = trainer.load_checkpoint(args.checkpoint)
    report = trainer.selection_report(policy, agg, g, args.selection)
    out = os.path.join(args.out_dir, "selection_report.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"wrote {out}: mean kept fraction "
          f"{float(report.fractions.mean()) if report.fractions.size else 0.0}")
    return 0


def cmd_check_submodular(args):
    seed = _seed(args)
    if args.graph:
        g = load_graph(args.graph)
    else:
        g = generate_planted_partition(50, 2, 0.35, 0.12, 8, 1.0, seed)
    cfg = trainer.TrainConfig(embed_dim=16, seed=seed)
    _, agg, clf = trainer.init_params(g, cfg)
    node = max(range(g.num_nodes), key=lambda v: (g.degree(v), -v))
    f = submodular.SelectionRewardFunction(g, node, agg, clf)
    mono = submodular.check_monotone(f, args.trials, spawn_rng(seed, 100))
    sub = submodular.check_submodular(f, args.trials, spawn_rng(seed, 101))
    spread = f.order_spread(f.ground[:min(8, len(f.ground))], spawn_rng(seed, 102))
    payload = {
        "node": node,
        "monotone": json.loads(mono.to_json()),
        "submodular": json.loads(sub.to_json()),
        "order_spread": spread,
    }
    if len(f.ground) <= 20:
        greedy_set, greedy_val = submodular.greedy_maximize(f)
        _, best_val = submodular.brute_force_optimal(f)
        payload["greedy_value"] = greedy_val
        payload["brute_force_value"] = best_val
        payload["bound_ok"] = bool(greedy_val >= (1.0 - 1.0 / np.e) * best_val - 1e-9)
    out = os.path.join(args.out_dir, "submodular_report.json")
    _write_json(out, payload)
    ok = mono.passed and sub.passed
    print(f"monotone {mono.passes}/{mono.trials}, "
          f"submodular {sub.passes}/{sub.trials}")
    return 0 if ok else 1


_COMMANDS = {
    "synth": cmd_synth,
    "noise": cmd_noise,
    "train": cmd_train,
    "eval": cmd_eval,
    "denoise": cmd_denoise,
    "report": cmd_report,
    "check-submodular": cmd_check_submodular,
}


def run(argv):
    """Parse argv (without the program name) and execute one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        return _COMMANDS[args.command](args)
    except (GraphError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
