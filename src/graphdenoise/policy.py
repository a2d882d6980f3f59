"""Bernoulli selection policy, discounted returns, and the KL-penalty PPO update.

The policy scores a state vector s = [h_v, h_u] through a bias-free ReLU
stack ending in a single scalar. The same stack doubles as the candidate
priority scorer: the priority is the raw scalar, the selection probability
is its sigmoid, so both heads share every weight.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import nn

PROB_CLAMP = 1e-6  # probabilities are pulled inside [1e-6, 1-1e-6] before logs


@dataclass
class PolicyParams:
    """Shared-weight scorer/policy stack mapping a state vector to one scalar."""

    mlp: nn.MlpParams

    def __post_init__(self):
        if self.mlp.out_dim != 1:
            raise ValueError("policy stack must end in a single scalar")

    @property
    def state_dim(self):
        return self.mlp.in_dim


def init_policy(state_dim, hidden, rng):
    sizes = [int(state_dim)] + [int(h) for h in hidden] + [1]
    return PolicyParams(nn.init_mlp(sizes, rng))


def policy_scores_batch(policy, states):
    out, _ = nn.mlp_forward_batch(policy.mlp, states, head="linear")
    return out[:, 0]


def policy_forward_batch(policy, states):
    return nn.sigmoid(policy_scores_batch(policy, states))


def clamp_prob(p):
    return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)


def sample_action(prob, rng):
    """Draw a Bernoulli action; returns (action, log prob of that action).

    The probability is clamped to [1e-6, 1-1e-6] before both the draw and
    the log, so log-probs are always finite.
    """
    prob = float(prob)
    if not 0.0 < prob < 1.0 or not math.isfinite(prob):
        raise ValueError(f"probability must lie strictly in (0, 1), got {prob}")
    p = min(max(prob, PROB_CLAMP), 1.0 - PROB_CLAMP)  # clamp_prob on a float
    action = 1 if rng.random() < p else 0
    return action, math.log(p if action == 1 else 1.0 - p)


def discounted_returns(rewards, gamma):
    """Suffix sums Q_t = sum_i gamma^(i-t) r_i, computed by backward recursion."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.zeros_like(rewards)
    acc = 0.0
    for t in range(rewards.size - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def kl_bernoulli(p_old, p_new):
    """Elementwise KL(Bernoulli(p_old) || Bernoulli(p_new)); callers clamp away 0 and 1."""
    for p in (p_old, p_new):
        if not np.all((0.0 < p) & (p < 1.0)):
            raise ValueError("kl_bernoulli needs probabilities strictly inside (0, 1)")
    return (p_old * np.log(p_old / p_new)
            + (1.0 - p_old) * np.log((1.0 - p_old) / (1.0 - p_new)))


def check_field_types(cfg):
    """Raise ValueError naming the first int, float or bool field of a config
    dataclass whose value has another type, or a float field that is not
    finite; a bool is neither int nor float."""
    kinds = {"int": numbers.Integral, "float": numbers.Real, "bool": bool}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in kinds and (not isinstance(value, kinds[f.type])
                                or (isinstance(value, bool) and f.type != "bool")):
            raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        if f.type == "float" and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass
class PPOConfig:
    gamma: float = 0.95
    delta: float = 0.01  # trust-region threshold on mean KL(old || new)
    kl_coeff: float = 1.0  # initial adaptive penalty coefficient
    update_epochs: int = 4
    minibatch_size: int = 64
    lr: float = 1e-3

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        for name in ("delta", "kl_coeff"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name, low in (("update_epochs", 0), ("minibatch_size", 1), ("lr", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")


def surrogate_and_grads(policy, states, actions, behavior_logp, returns, p_old, kl_coeff):
    """The PPO loss, a KL penalty minus the importance-weighted return, and its gradient.

    loss = kl_coeff * mean(KL(p_old || p_new)) - mean(ratio * return),
    where ratio = pi(a|s) / q(a|s) against the stored behavior log-probs.
    Returns (loss value, gradient list aligned with policy weights), for a
    caller that descends the loss.
    """
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    behavior_logp = np.asarray(behavior_logp, dtype=np.float64)
    returns = np.asarray(returns, dtype=np.float64)
    p_old = clamp_prob(np.asarray(p_old, dtype=np.float64))
    m = states.shape[0]

    scores, cache = nn.mlp_forward_batch(policy.mlp, states, head="linear")
    p = clamp_prob(nn.sigmoid(scores[:, 0]))
    logp = np.where(actions == 1.0, np.log(p), np.log(1.0 - p))
    ratio = np.exp(logp - behavior_logp)
    kl = kl_bernoulli(p_old, p)
    loss = float(kl_coeff * np.mean(kl) - np.mean(ratio * returns))
    if not math.isfinite(loss):
        raise ValueError("non-finite PPO loss")

    # d loss / d score, per sample: the KL penalty contributes p - p_old;
    # the ratio term contributes -ratio * return * (a - p).
    dscore = (kl_coeff * (p - p_old) - ratio * returns * (actions - p)) / m
    grads = nn.mlp_backward_batch(policy.mlp, cache, dscore[:, None])
    return loss, grads


def ppo_update(policy, trajectories, *, cfg, rng):
    """One trust-region policy improvement round over a trajectory batch.

    Returns are discounted per trajectory and then mean/std-normalized across
    the batch; Adam descends surrogate_and_grads' loss over minibatches drawn
    from rng. After each epoch the mean KL(policy || new) over all batch
    states is checked: above 1.5 * delta the epoch is rolled back, the penalty
    coefficient doubles and the epoch is retried once; a retry that still
    violates the threshold is rolled back for good. An Adam second moment
    that overflowed in the round is a ValueError. Returns (new PolicyParams,
    diagnostics dict, whose objective is minus the final loss); the new holder
    may share weight arrays with `policy`, whose arrays are never written.
    """
    batch = [t for traj in trajectories for t in traj.transitions]
    if not batch:
        raise ValueError("ppo_update needs at least one non-empty trajectory")
    states = np.array([t.state for t in batch], dtype=np.float64)
    actions = np.array([t.action for t in batch], dtype=np.float64)
    logq = np.array([t.log_prob for t in batch], dtype=np.float64)
    raw_returns = np.concatenate([discounted_returns([t.reward for t in traj.transitions],
                                                     cfg.gamma) for traj in trajectories])
    std = raw_returns.std()
    norm_returns = (raw_returns - raw_returns.mean()) / (std + 1e-8)

    p_old = clamp_prob(policy_forward_batch(policy, states))
    work = PolicyParams(nn.MlpParams(policy.mlp.weights))
    opt = nn.adam_init(work.mlp.weights, lr=cfg.lr)
    beta = cfg.kl_coeff
    m = states.shape[0]

    def mean_kl():
        p_new = clamp_prob(policy_forward_batch(work, states))
        return float(np.mean(kl_bernoulli(p_old, p_new)))

    with np.errstate(over="ignore"):  # an overflowed g * g is named just below
        for _ in range(int(cfg.update_epochs)):
            # adam_step writes into no array and no state, so this pair snapshots the epoch's start
            snapshot = work.mlp.weights, opt
            for retry in (False, True):
                if retry:  # the epoch left the trust region: roll back, double the penalty
                    beta *= 2.0
                work.mlp.weights, opt = snapshot
                order = rng.permutation(m)
                for start in range(0, m, cfg.minibatch_size):
                    rows = order[start:start + cfg.minibatch_size]
                    _, grads = surrogate_and_grads(work, states[rows], actions[rows],
                                                   logq[rows], norm_returns[rows],
                                                   p_old[rows], beta)
                    work.mlp.weights, opt = nn.adam_step(opt, work.mlp.weights, grads)
                if not mean_kl() > 1.5 * cfg.delta:
                    break
            else:  # the retry still left the trust region: reject the epoch
                work.mlp.weights, opt = snapshot
    nn.check_second_moments(opt, "PPO round")

    loss, _ = surrogate_and_grads(work, states, actions, logq, norm_returns, p_old, beta)
    diagnostics = {
        "mean_kl": mean_kl(),
        "objective": -loss,
        "kl_coeff": beta,
        "mean_return": float(raw_returns.mean()),
        "num_transitions": int(m),
    }
    return work, diagnostics
