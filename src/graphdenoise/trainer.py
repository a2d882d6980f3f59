"""Iteration-wise optimization: alternate representation learning with policy
improvement, plus evaluation, denoised-graph export and selection statistics.

Each outer iteration first freezes the policy and rolls out selection sets
for every training node to fit the aggregator + classifier, then freezes
those and runs a PPO round on freshly collected trajectories. Validation
micro-F1 is logged per iteration and the best-validation parameters are the
ones returned. Evaluation decodes greedily (priority-ordered candidates,
accept iff the selection probability is at least 0.5, stop at the ending
candidate), so it is deterministic and works for nodes unseen in training.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import env, nn
from . import policy as policy_mod
from . import representation as rep
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
    activation: str = "relu"
    rollouts_per_node: int = 1
    max_steps: int | None = None  # per-episode decision cap; None = degree + 1
    select_all: bool = False
    seed: int = 0

    def __post_init__(self):
        for name in ("outer_iters", "rep_epochs", "batch_size", "embed_dim",
                     "rollouts_per_node"):
            if getattr(self, name) < (0 if name == "outer_iters" else 1):
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

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
        if isinstance(ppo, dict):
            d["ppo"] = PPOConfig(**ppo)
        if "policy_hidden" in d:
            d["policy_hidden"] = tuple(d["policy_hidden"])
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

    def to_json(self):
        return json.dumps({
            "nodes": self.node_ids.tolist(),
            "fractions": self.fractions.tolist(),
            "histogram": self.histogram.tolist(),
        }, separators=(",", ":"))


def init_params(graph, cfg):
    """Seeded parameter initialization shared by train() and the CLI."""
    policy = policy_mod.init_policy(2 * cfg.embed_dim, cfg.policy_hidden,
                                    spawn_rng(cfg.seed, _K_INIT_POLICY))
    agg = rep.init_aggregator(cfg.embed_dim, graph.feature_dim,
                              spawn_rng(cfg.seed, _K_INIT_AGG), cfg.activation)
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
    has_val = bool(graph.val_mask.any())
    selection = "all" if cfg.select_all else "policy"

    policy, agg, clf = init_params(graph, cfg)
    best = (policy.copy(), agg.copy(), clf.copy())
    best_val, best_iter = -np.inf, -1
    history = []

    for it in range(cfg.outer_iters):
        # phase 1: freeze the policy, materialize selection sets, fit the
        # aggregator + classifier on them
        if cfg.select_all:
            selected = {int(v): graph.adjacency[v] for v in train_ids}
        else:
            selected = {}
            for v in train_ids:
                traj = env.rollout(graph, int(v), policy, agg, clf,
                                   spawn_rng(cfg.seed, _K_SELECT, it, v),
                                   max_steps=cfg.max_steps, fc_mode=cfg.fc_mode)
                selected[int(v)] = [t.candidate for t in traj.transitions if t.action == 1]
        agg, clf, losses = rep.train_representation(
            agg, clf, graph, selected, cfg.rep_epochs, cfg.batch_size,
            cfg.rep_lr, spawn_rng(cfg.seed, _K_REP, it))

        # phase 2: freeze the representation, improve the policy
        diag = {"mean_kl": 0.0, "mean_return": 0.0, "objective": 0.0}
        if not cfg.select_all:
            old = policy.copy()
            trajectories = [
                env.rollout(graph, int(v), old, agg, clf,
                            spawn_rng(cfg.seed, _K_COLLECT, it, v, r),
                            max_steps=cfg.max_steps, fc_mode=cfg.fc_mode)
                for v in train_ids for r in range(cfg.rollouts_per_node)]
            trajectories = [t for t in trajectories if t.transitions]
            if trajectories:
                policy, diag = policy_mod.ppo_update(
                    policy, old, trajectories, cfg.ppo,
                    spawn_rng(cfg.seed, _K_PPO, it))

        val_f1 = evaluate(policy, agg, clf, graph, "val", selection) if has_val else float("nan")
        history.append({
            "iteration": it,
            "train_loss": losses[-1] if losses else float("nan"),
            "val_f1": val_f1,
            "mean_reward": diag["mean_return"],
            "mean_kl": diag["mean_kl"],
            "objective": diag["objective"],
        })
        if (has_val and val_f1 > best_val) or not has_val:
            best = (policy.copy(), agg.copy(), clf.copy())
            best_val, best_iter = val_f1, it

    return TrainResult(best[0], best[1], best[2], history, best_iter)


def greedy_select(graph, v, policy, agg):
    """Deterministic decode of a node's kept neighbors.

    Candidates are processed in descending priority order; a candidate is
    kept iff its selection probability is >= 0.5; hitting the ending
    candidate stops the decode. Never touches labels, so it is safe for
    val/test nodes.
    """
    state = env.init_episode(graph, v, agg)
    while any(u != env.END for u in state.candidates):
        scores = env.regret_scores(state, policy)
        idx = int(np.argmax(scores))
        u = state.candidates[idx]
        if u == env.END:
            break
        state.candidates.remove(u)
        if nn.sigmoid(np.array([scores[idx]]))[0] >= 0.5:
            state.accept(graph, agg, u)
    return state.selected


def _decoded_sets(graph, policy, agg, selection, nodes):
    if selection not in SELECTION_MODES:
        raise ValueError(f"selection must be one of {SELECTION_MODES}")
    if selection == "all":
        return {int(v): list(graph.adjacency[v]) for v in nodes}
    if selection == "none":
        return {int(v): [] for v in nodes}
    return {int(v): greedy_select(graph, int(v), policy, agg) for v in nodes}


def predict(policy, agg, clf, graph, nodes, selection="policy"):
    """Greedy-decoded class predictions for the given nodes."""
    selected = _decoded_sets(graph, policy, agg, selection, nodes)
    means = rep.node_mean_vectors(graph, nodes, selected)
    probs = rep.classify_batch(clf, rep.embed_means(agg, means))
    return np.argmax(probs, axis=1)


def evaluate(policy, agg, clf, graph, mask="test", selection="policy"):
    """Micro-F1 over a mask ("val"/"test") or an explicit node id array."""
    if isinstance(mask, str):
        if mask not in ("val", "test"):
            raise ValueError(f"mask must be 'val' or 'test', got {mask!r}")
        nodes = np.flatnonzero(graph.val_mask if mask == "val" else graph.test_mask)
    else:
        nodes = np.asarray(mask, dtype=np.int64)
    if nodes.size == 0:
        raise ValueError("evaluation mask is empty")
    preds = predict(policy, agg, clf, graph, nodes, selection)
    return rep.micro_f1(preds, graph.labels[nodes])


def export_denoised_graph(policy, agg, graph, path, selection="policy"):
    """Write the kept-edge list and return the denoised graph.

    Edge (u, v) survives iff u keeps v or v keeps u (the union preserves
    undirectedness); output edges are always a subset of the input edges.
    """
    all_nodes = np.arange(graph.num_nodes)
    kept_sets = _decoded_sets(graph, policy, agg, selection, all_nodes)
    edges = []
    for u, v in graph.edge_list():
        if v in kept_sets[u] or u in kept_sets[v]:
            edges.append((u, v))
    denoised = build_graph(graph.num_nodes, edges, graph.features, graph.labels,
                           masks={"train": graph.train_mask, "val": graph.val_mask,
                                  "test": graph.test_mask})
    write_edge_list(denoised, path)
    return denoised


def selection_report(policy, agg, graph, selection="policy"):
    """Kept-neighbor fraction per non-isolated node plus a 10-bin histogram."""
    nodes = np.array([v for v in range(graph.num_nodes) if graph.degree(v) > 0],
                     dtype=np.int64)
    kept_sets = _decoded_sets(graph, policy, agg, selection, nodes)
    fractions = np.array([len(kept_sets[int(v)]) / graph.degree(v) for v in nodes])
    histogram, _ = np.histogram(fractions, bins=10, range=(0.0, 1.0))
    return SelectionReport(nodes, fractions, histogram)


def save_checkpoint(path, policy, agg, clf, config=None):
    arrays = {f"policy.w{i}": w for i, w in enumerate(policy.mlp.weights)}
    arrays["agg.W"] = agg.W
    arrays["clf.V"] = clf.V
    extra = {"config": config or {}, "activation": agg.activation}
    nn.save_arrays(path, arrays, extra)


def load_checkpoint(path):
    arrays, extra = nn.load_arrays(path)
    layer_names = sorted((n for n in arrays if n.startswith("policy.w")),
                         key=lambda n: int(n.split("w")[-1]))
    policy = policy_mod.PolicyParams(nn.MlpParams([arrays[n] for n in layer_names]))
    agg = rep.AggregatorParams(arrays["agg.W"], extra.get("activation", "relu"))
    clf = rep.ClassifierParams(arrays["clf.V"])
    return policy, agg, clf, extra.get("config", {})


def write_metrics(path, history):
    """JSON-lines metrics, one record per outer iteration, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row, separators=(",", ":")))
            fh.write("\n")
