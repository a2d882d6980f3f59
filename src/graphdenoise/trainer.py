"""Iteration-wise optimization: alternate representation learning with policy
improvement, plus evaluation, denoised-graph export and selection statistics.

Each outer iteration first freezes the policy and walks (unpriced) one episode
per training node with env.rollout; the means over the kept sets (built once for
keep-all) fit the aggregator and classifier. Then it freezes those, pays fresh
walks and runs PPO on them, and logs validation micro-F1; the best-validation
parameters are returned. Kept sets travel as CSR arrays (indptr, indices).
Evaluation, export and the report keep what env.greedy_select decodes, also for
unseen nodes; this module calls the two walkers, never an episode step.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np

from . import env, nn
from . import policy as policy_mod
from . import representation as rep
from .env import greedy_select
from .graph import build_graph, write_edge_list
from .policy import PPOConfig
from .seeding import spawn_rng

SELECTION_MODES = ("policy", "all", "none")

# spawn_rng component keys
_K_INIT_POLICY, _K_INIT_AGG, _K_INIT_CLF = 0, 1, 2
_K_SELECT, _K_REP, _K_COLLECT, _K_PPO = 3, 4, 5, 6


@dataclass
class TrainConfig:
    outer_iters: int = 20
    rep_epochs: int = 80
    rep_lr: float = 1e-3
    batch_size: int = 256
    embed_dim: int = 128
    policy_hidden: tuple = (64, 36)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    fc_mode: str = "soft"
    rollouts_per_node: int = 1
    select_all: bool = False
    seed: int = 0

    def __post_init__(self):
        policy_mod.check_field_types(self)
        if self.fc_mode != "soft":  # the only task score; kept so saved configs still load
            raise ValueError(f"fc_mode must be 'soft', got {self.fc_mode!r}")
        for name, low in (("outer_iters", 0), ("rep_lr", 0), ("rep_epochs", 1), ("batch_size", 1),
                          ("embed_dim", 1), ("rollouts_per_node", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        hidden = self.policy_hidden
        if not isinstance(hidden, (list, tuple)) or not all(
                isinstance(h, numbers.Integral) and not isinstance(h, bool) and h >= 1
                for h in hidden):
            raise ValueError(f"policy_hidden must be a list of integer layer sizes >= 1, "
                             f"got {hidden!r}")
        self.policy_hidden = tuple(hidden)

    def to_dict(self):
        d = asdict(self)
        d["policy_hidden"] = list(self.policy_hidden)
        return d

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict; a key that names no field is a ValueError."""
        d = dict(d)
        ppo = d.get("ppo")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if isinstance(ppo, dict):
            ppo_fields = {f.name for f in fields(PPOConfig)}
            unknown += [f"ppo.{k}" for k in sorted(set(ppo) - ppo_fields)]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "ppo" in d and not isinstance(ppo, (dict, PPOConfig)):
            raise ValueError(f"config key ppo must be an object, got {type(ppo).__name__}")
        if isinstance(ppo, dict):
            d["ppo"] = PPOConfig(**ppo)
        return cls(**d)


@dataclass
class TrainResult:
    policy: policy_mod.PolicyParams
    agg: rep.AggregatorParams
    clf: rep.ClassifierParams
    history: list
    best_iteration: int


@dataclass
class SelectionReport:
    """Fraction of each non-isolated node's neighborhood kept by the policy."""

    node_ids: np.ndarray
    fractions: np.ndarray
    histogram: np.ndarray  # 10 bins over [0, 1]


def init_params(graph, cfg):
    """Seeded parameter initialization shared by train() and the CLI."""
    policy = policy_mod.init_policy(env.state_dim(cfg.embed_dim), cfg.policy_hidden,
                                    spawn_rng(cfg.seed, _K_INIT_POLICY))
    agg = rep.init_aggregator(cfg.embed_dim, graph.feature_dim,
                              spawn_rng(cfg.seed, _K_INIT_AGG))
    clf = rep.init_classifier(graph.num_classes, cfg.embed_dim,
                              spawn_rng(cfg.seed, _K_INIT_CLF))
    return policy, agg, clf


def train(graph, cfg):
    """Run the alternating optimization; returns best-validation parameters.

    With cfg.select_all the policy phases are skipped and every neighbor is
    always aggregated (the plain mean-aggregator baseline trained through
    the identical pipeline).
    """
    train_ids = np.flatnonzero(graph.train_mask)
    if train_ids.size == 0:
        raise ValueError("graph has no training nodes")
    val_ids = np.flatnonzero(graph.val_mask)
    has_val = val_ids.size > 0

    policy, agg, clf = init_params(graph, cfg)
    best = (policy, agg, clf)
    best_val, best_iter = -np.inf, -1
    history = []
    labels = graph.labels[train_ids]
    if cfg.select_all:  # keep-all sets never change, so neither do their means
        means, val_means = (rep.node_mean_vectors(graph, ids,
                                                  _kept_sets(graph, policy, agg, "all", ids))
                            for ids in (train_ids, val_ids))

    for it in range(cfg.outer_iters):
        # phase 1: freeze the policy, walk (unpriced) to materialize selection
        # sets, fit the aggregator + classifier on their means
        if not cfg.select_all:
            walks = (env.rollout(graph, int(v), policy, agg, spawn_rng(cfg.seed, _K_SELECT, it, v))
                     for v in train_ids)
            means = rep.node_mean_vectors(graph, train_ids, _csr(
                [[t.candidate for t in w.transitions if t.action == 1] for w in walks]))
        agg, clf, losses = rep.train_representation(
            agg, clf, means, labels, cfg.rep_epochs, cfg.batch_size,
            cfg.rep_lr, spawn_rng(cfg.seed, _K_REP, it))

        # phase 2: freeze the representation, pay fresh walks, improve the policy
        diag = {}  # ppo_update's diagnostics, when a round ran
        if not cfg.select_all:
            trajectories = [
                env.rollout(graph, int(v), policy, agg, spawn_rng(cfg.seed, _K_COLLECT, it, v, r))
                for v in train_ids for r in range(cfg.rollouts_per_node)]
            trajectories = [env.pay_rewards(graph, t, agg, clf)
                            for t in trajectories if t.transitions]
            if trajectories:
                policy, diag = policy_mod.ppo_update(
                    policy, trajectories, cfg=cfg.ppo, rng=spawn_rng(cfg.seed, _K_PPO, it))

        val_f1 = float("nan")
        if has_val:
            val_f1 = (_micro_f1(agg, clf, val_means, graph.labels[val_ids]) if cfg.select_all
                      else evaluate(policy, agg, clf, graph, "val"))
        history.append({"iteration": it, "train_loss": losses[-1] if losses else float("nan"),
                        "val_f1": val_f1, **diag})
        if (has_val and val_f1 > best_val) or not has_val:
            best = (policy, agg, clf)
            best_val, best_iter = val_f1, it

    return TrainResult(best[0], best[1], best[2], history, best_iter)


def _csr(sets):
    """(indptr, indices) of a list of id lists: row i is indices[indptr[i]:indptr[i + 1]]."""
    indptr = np.cumsum([0] + [len(s) for s in sets])
    return indptr, np.fromiter(chain.from_iterable(sets), np.int64, indptr[-1])


def _kept_sets(graph, policy, agg, selection, nodes):
    """The kept neighbors of each of the (k,) node ids as CSR arrays (indptr, indices)."""
    if selection not in SELECTION_MODES:
        raise ValueError(f"selection must be one of {SELECTION_MODES}")
    if selection == "policy":
        return _csr([greedy_select(graph, int(v), policy, agg) for v in nodes])
    starts = graph.indptr[nodes]
    counts = graph.indptr[nodes + 1] - starts if selection == "all" else np.zeros_like(starts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return indptr, graph.indices[np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)]


def evaluate(policy, agg, clf, graph, mask="test", selection="policy"):
    """Micro-F1 over a mask ("val"/"test") or a 1-d array of node ids; an id
    that is no integer or lies outside [0, n) is a ValueError naming it."""
    if isinstance(mask, str):
        if mask not in ("val", "test"):
            raise ValueError(f"mask must be 'val' or 'test', got {mask!r}")
        nodes = np.flatnonzero(graph.val_mask if mask == "val" else graph.test_mask)
    else:
        nodes = np.asarray(mask)
        if nodes.ndim != 1:
            raise ValueError(f"node ids must be a 1-d array, got shape {nodes.shape}")
        if nodes.size and nodes.dtype.kind not in "iu":
            raise ValueError(f"node id {nodes[0].item()!r} is not an integer")
        outside = nodes[(nodes < 0) | (nodes >= graph.num_nodes)]
        if outside.size:
            raise ValueError(f"node id {outside[0]} outside [0, {graph.num_nodes})")
    if nodes.size == 0:
        raise ValueError("evaluation mask is empty")
    labels = graph.labels[nodes]
    if labels.max() >= clf.num_classes:
        raise ValueError(f"label {labels.max()} outside the classifier's {clf.num_classes} classes")
    means = rep.node_mean_vectors(graph, nodes, _kept_sets(graph, policy, agg, selection, nodes))
    return _micro_f1(agg, clf, means, labels)


def _micro_f1(agg, clf, means, labels):
    """Micro-F1 of the classifier on the embedded (m, D) neighbor means."""
    preds = np.argmax(rep.classify_batch(clf, rep.embed_means(agg, means)), axis=1)
    return rep.micro_f1(preds, labels)


def export_denoised_graph(policy, agg, graph, path, selection="policy"):
    """Write the kept-edge list and return the denoised graph.

    Every kept (v, u) pair goes to build_graph, whose symmetrize-and-dedupe
    is the union rule: edge (u, v) survives iff u keeps v or v keeps u.
    Output edges are always a subset of the input edges.
    """
    nodes = np.arange(graph.num_nodes)
    indptr, indices = _kept_sets(graph, policy, agg, selection, nodes)
    edges = np.column_stack([np.repeat(nodes, np.diff(indptr)), indices])
    denoised = build_graph(graph.num_nodes, edges, graph.features, graph.labels,
                           masks={"train": graph.train_mask, "val": graph.val_mask,
                                  "test": graph.test_mask})
    write_edge_list(denoised, path)
    return denoised


def selection_report(policy, agg, graph, selection="policy"):
    """Kept-neighbor fraction per non-isolated node plus a 10-bin histogram."""
    nodes = np.flatnonzero(np.diff(graph.indptr))
    indptr, _ = _kept_sets(graph, policy, agg, selection, nodes)
    fractions = np.diff(indptr) / np.diff(graph.indptr)[nodes]
    histogram, _ = np.histogram(fractions, bins=10, range=(0.0, 1.0))
    return SelectionReport(nodes, fractions, histogram)


def save_checkpoint(path, policy, agg, clf, config=None):
    arrays = {f"policy.w{i}": w for i, w in enumerate(policy.mlp.weights)}
    arrays.update({"agg.W": agg.W, "clf.V": clf.V})
    nn.save_arrays(path, arrays, {"config": config or {}})


def load_checkpoint(path):
    """(policy, agg, clf, config) of a save_checkpoint file. A missing or
    non-matrix array, parts whose shapes do not chain, a config that is not an
    object, or an activation other than relu (written by older versions) is a
    ValueError naming it."""
    arrays, extra = nn.load_arrays(path)
    config = extra.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"checkpoint extra.config must be an object, got {type(config).__name__}")
    for activation in (extra.get("activation"), config.get("activation")):
        if activation not in (None, "relu"):
            raise ValueError(f"checkpoint activation {activation!r} is not supported; "
                             "only relu is")
    num_layers = max(1, sum(n.startswith("policy.w") for n in arrays))
    names = ["agg.W", "clf.V"] + [f"policy.w{i}" for i in range(num_layers)]
    missing = [n for n in names if n not in arrays]
    if missing:
        raise ValueError(f"checkpoint lacks arrays {', '.join(missing)}")
    for n in names:
        if arrays[n].ndim != 2:
            raise ValueError(f"checkpoint array {n} has shape {arrays[n].shape}, not a matrix")
    policy = policy_mod.PolicyParams(nn.MlpParams([arrays[n] for n in names[2:]]))
    agg = rep.AggregatorParams(arrays["agg.W"])
    clf = rep.ClassifierParams(arrays["clf.V"])
    if clf.V.shape[1] != agg.embed_dim:
        raise ValueError(f"checkpoint clf.V has {clf.V.shape[1]} columns, "
                         f"agg.W has {agg.embed_dim} rows")
    if policy.state_dim != env.state_dim(agg.embed_dim):
        raise ValueError(f"checkpoint policy takes {policy.state_dim} inputs, not the "
                         f"{env.state_dim(agg.embed_dim)} of {agg.embed_dim} agg.W rows")
    return policy, agg, clf, config


def write_metrics(path, history):
    """Strict JSON lines, one record per outer iteration, no timestamps; NaN is null."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            row = {k: None if isinstance(x, float) and np.isnan(x) else x for k, x in row.items()}
            fh.write(json.dumps(row, separators=(",", ":"), allow_nan=False))
            fh.write("\n")
