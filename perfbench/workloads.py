"""The three benchmark workloads: set-up, timed body and output checks.

A workload's ``setup(seed, workdir)`` builds its inputs from the seed and
returns them, with the times of any ``trainer.train`` calls it made under
``train_s``; ``body(inputs, rep, workdir)`` runs the user-facing calls
through ``Rep.call`` and records quality numbers and checks on ``rep``.
Library functions are always looked up through their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

from graphdenoise import cli, trainer
from graphdenoise.graph import save_graph_json
from graphdenoise.policy import PPOConfig

import gen

CKPT_SEED = 0  # the infer-skewed checkpoint is one fixed model for every workload seed
CKPT_NODES = 300
CKPT_TRAININGS = 2  # each infer-skewed set-up trains the checkpoint this often
CORA_NODES = 2800
INFER_GRAPHS = 4


class Rep:
    """One execution of a workload body: timings, quality numbers and checks.

    Decode-path blocks that take well under a second run at least ``passes``
    times, and until their passes add up to ``min_s``, through
    ``repeat_infer``; ``blocks`` keeps each block's pass times, so that the
    harness can take their median over every body of a run. ``infer_s``
    and ``run_s`` leave the blocks out (``extra_s`` is their whole time).
    """

    def __init__(self, passes, min_s):
        self.passes = passes
        self.min_s = min_s
        self.train_s = 0.0
        self.infer_s = 0.0
        self.extra_s = 0.0
        self.run_s = 0.0
        self.blocks = {}  # block name -> pass times
        self.ops = 0
        self.quality = {}
        self.checks = []  # (name, passed)

    def call(self, kind, fn, *args, **kwargs):
        """Time one library call; kind "train" or "infer" adds it to that total."""
        self.ops += 1
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if kind == "train":
            self.train_s += elapsed
        elif kind == "infer":
            self.infer_s += elapsed
        return out

    def repeat_infer(self, name, fn, key=lambda out: out):
        """Run a block of decode-path calls repeatedly; returns the first result.

        A block of a few milliseconds is timed by the median of many passes:
        on a shared host the speed of a single pass varies by 25% or more
        from pass to pass. The calls are deterministic, so every pass must
        give the same key(result).
        """
        first, times, same = None, [], True
        while len(times) < self.passes or sum(times) < self.min_s:
            start = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - start)
            if first is None:
                first = out
            else:
                same = same and key(out) == key(first)
        self.blocks[name] = times
        self.extra_s += sum(times)
        self.check("decode-path calls repeat exactly", same)
        return first

    def check(self, name, passed):
        self.checks.append((name, bool(passed)))

    def check_f1(self, name, value):
        self.check(f"{name} in [0, 1]", 0.0 <= value <= 1.0)

    def check_history(self, name, result):
        self.check(f"{name} loss history finite",
                   all(math.isfinite(row["train_loss"]) for row in result.history))

    def record_exports(self, exports):
        """Exported edges must be input edges; count kept signal and noise edges.

        exports holds (clean graph, noisy graph, exported edge list) triples.
        The injected edges are the noisy graph's edges minus the clean ones.
        """
        kept = signal = signal_kept = noise = noise_kept = 0
        for clean, noisy, edges in exports:
            edges = set(edges)
            noisy_edges = noisy.edge_set()
            clean_edges = clean.edge_set()
            injected = noisy_edges - clean_edges
            self.check("exported edges are input edges", edges <= noisy_edges)
            kept += len(edges)
            signal += len(clean_edges)
            signal_kept += len(edges & clean_edges)
            noise += len(injected)
            noise_kept += len(edges & injected)
        self.quality["kept_edges"] = kept
        self.quality["signal_kept_frac"] = signal_kept / signal
        self.quality["noise_kept_frac"] = noise_kept / noise


def _denoise_configs(seed):
    """The acceptance-gate 4/5 configurations (tests/test_acceptance.py)."""
    train_cfg = trainer.TrainConfig(
        outer_iters=20, rep_epochs=40, rep_lr=5e-3, embed_dim=16, batch_size=256,
        ppo=PPOConfig(gamma=0.95, delta=0.01, lr=5e-3, update_epochs=4,
                      minibatch_size=256),
        fc_mode="soft", rollouts_per_node=2, seed=seed)
    base_cfg = trainer.TrainConfig(outer_iters=20, rep_epochs=40, rep_lr=5e-3, embed_dim=16,
                                   batch_size=256, select_all=True, seed=seed)
    return train_cfg, base_cfg


# ---------------------------------------------------------------------------
# denoise-small: gate 4/5 protocol for one seed
#
# The trained policy's behaviour, and with it the work of training, changes
# strongly with the seed: over the gate's seeds 0-4 one training made 44.8k
# to 64.3k episode decisions and 32k to 51k f_c calls. One gate run per
# benchmark run cannot average that out, so this workload always runs the
# gate's first seed and its inputs do not depend on --seed.
GATE_SEED = 0


def setup_denoise_small(seed, workdir):
    clean, noisy = gen.planted_partition_pair(GATE_SEED)
    return {"pairs": [(clean, noisy)], "train_s": []}


def body_denoise_small(inp, rep, workdir):
    [(clean, noisy)] = inp["pairs"]
    train_cfg, base_cfg = _denoise_configs(GATE_SEED)
    learned = rep.call("train", trainer.train, noisy, train_cfg)
    baseline = rep.call(None, trainer.train, noisy, base_cfg)

    def decode():
        return (rep.call(None, trainer.evaluate, learned.policy, learned.agg, learned.clf,
                         noisy, "test"),
                rep.call(None, trainer.evaluate, baseline.policy, baseline.agg, baseline.clf,
                         noisy, "test", selection="all"),
                rep.call(None, trainer.export_denoised_graph, learned.policy, learned.agg,
                         noisy, os.path.join(workdir, "denoised_edges.txt")))
    f1, f1_base, denoised = rep.repeat_infer(
        "decode", decode, key=lambda out: (out[:2], out[2].edge_list()))
    retrained = rep.call(None, trainer.train, denoised, base_cfg)
    f1_re = rep.repeat_infer(
        "retrained evaluate", lambda: rep.call(None, trainer.evaluate, retrained.policy,
                                               retrained.agg, retrained.clf, denoised,
                                               "test", selection="all"))

    for name, value in (("policy F1", f1), ("keep-all F1", f1_base), ("retrained F1", f1_re)):
        rep.check_f1(name, value)
    for name, result in (("policy", learned), ("keep-all", baseline), ("retrain", retrained)):
        rep.check_history(name, result)
    rep.record_exports([(clean, noisy, denoised.edge_list())])
    rep.quality.update(test_f1=f1, denoise_margin=f1 - f1_base, retrain_margin=f1_re - f1_base)


# ---------------------------------------------------------------------------
# infer-skewed: CLI eval / denoise / report of a fixed checkpoint on hub-heavy graphs
#
# How far greedy decode walks a hub's candidate list, and so the cost and the
# kept fractions, differs from graph to graph; each body therefore runs the
# three commands on INFER_GRAPHS graphs made from the seed and pools them.
# The checkpoint is one fixed model (CKPT_SEED), so that the seed changes the
# graphs and not the policy's behaviour. Set-up trains it CKPT_TRAININGS
# times, which doubles the samples of its training time in a run and checks
# that the training gives the same checkpoint every time.

def _checkpoint_config():
    train_cfg, _ = _denoise_configs(CKPT_SEED)
    train_cfg.outer_iters = 10
    train_cfg.rollouts_per_node = 1
    return train_cfg


def setup_infer_skewed(seed, workdir):
    pairs, paths = [], []
    for k in range(INFER_GRAPHS):
        clean, noisy = gen.cora_shaped_pair(CORA_NODES, seed * INFER_GRAPHS + k)
        paths.append(os.path.join(workdir, f"graph{k}.json"))
        save_graph_json(noisy, paths[-1])
        pairs.append((clean, noisy))
    _, ckpt_graph = gen.cora_shaped_pair(CKPT_NODES, CKPT_SEED)
    cfg = _checkpoint_config()
    ckpt_path = os.path.join(workdir, "checkpoint.json")
    train_s, digests = [], []
    for _ in range(CKPT_TRAININGS):
        start = time.perf_counter()
        result = trainer.train(ckpt_graph, cfg)
        train_s.append(time.perf_counter() - start)
        trainer.save_checkpoint(ckpt_path, result.policy, result.agg, result.clf, cfg.to_dict())
        with open(ckpt_path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return {"pairs": pairs, "paths": paths, "checkpoint": ckpt_path, "train_s": train_s,
            "digests": digests}


def body_infer_skewed(inp, rep, workdir):
    f1s, exports, fractions = [], [], []
    for k, ((clean, noisy), path) in enumerate(zip(inp["pairs"], inp["paths"])):
        out = os.path.join(workdir, f"cli{k}")
        common = ["--graph", path, "--checkpoint", inp["checkpoint"], "--out-dir", out]
        for argv in (["eval", "--mask", "test"], ["denoise"], ["report"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = rep.call("infer", cli.run, argv + common)
            rep.check(f"cli {argv[0]} exit code 0", code == 0)

        with open(os.path.join(out, "eval.json"), encoding="utf-8") as fh:
            f1s.append(json.load(fh)["micro_f1"])
        rep.check_f1("eval F1", f1s[-1])
        with open(os.path.join(out, "denoised_edges.txt"), encoding="utf-8") as fh:
            exports.append((clean, noisy, [tuple(int(x) for x in line.split()) for line in fh]))
        with open(os.path.join(out, "selection_report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        non_isolated = sum(1 for v in range(noisy.num_nodes) if noisy.degree(v) > 0)
        rep.check("report fractions in [0, 1]",
                  all(0.0 <= f <= 1.0 for f in report["fractions"]))
        rep.check("report histogram counts non-isolated nodes",
                  sum(report["histogram"]) == non_isolated == len(report["nodes"]))
        fractions.extend(report["fractions"])
    rep.record_exports(exports)
    rep.quality["test_f1"] = sum(f1s) / len(f1s)
    rep.quality["report_mean_kept"] = sum(fractions) / len(fractions)


# ---------------------------------------------------------------------------
# keepall-wide: keep-all fit at the CLI defaults on the hub-heavy graph

def setup_keepall_wide(seed, workdir):
    return {"seed": seed, "pairs": [gen.cora_shaped_pair(CORA_NODES, seed)], "train_s": []}


def body_keepall_wide(inp, rep, workdir):
    [(clean, noisy)] = inp["pairs"]
    cfg = trainer.TrainConfig(select_all=True, seed=inp["seed"])
    result = rep.call("train", trainer.train, noisy, cfg)

    f1 = rep.repeat_infer(
        "evaluate", lambda: rep.call(None, trainer.evaluate, result.policy, result.agg,
                                     result.clf, noisy, "test", selection="all"))
    rep.check_f1("keep-all F1", f1)
    rep.check_history("keep-all", result)
    rep.quality["test_f1"] = f1

    # The result line holds every end-to-end metric, so the kept fractions
    # come from a keep-all export that run_s and infer_s leave out. Keep-all
    # keeps every edge, so they are 1 unless the export is wrong.
    start = time.perf_counter()
    denoised = rep.call(None, trainer.export_denoised_graph, result.policy, result.agg, noisy,
                        os.path.join(workdir, "kept_edges.txt"), selection="all")
    rep.extra_s += time.perf_counter() - start
    rep.check("keep-all export keeps every input edge", denoised.edge_set() == noisy.edge_set())
    rep.record_exports([(clean, noisy, denoised.edge_list())])


WORKLOADS = {
    "denoise-small": (setup_denoise_small, body_denoise_small),
    "infer-skewed": (setup_infer_skewed, body_infer_skewed),
    "keepall-wide": (setup_keepall_wide, body_keepall_wide),
}
