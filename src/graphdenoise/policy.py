"""Bernoulli selection policy, discounted returns, and the KL-penalty PPO update.

The policy scores a state vector s = [h_v, h_u] through a bias-free ReLU
stack ending in a single scalar. The same stack doubles as the candidate
priority scorer: the priority is the raw scalar, the selection probability
is its sigmoid, so both heads share every weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def copy(self):
        return PolicyParams(self.mlp.copy())


def init_policy(state_dim, hidden=(64, 36), rng=None):
    rng = rng or np.random.default_rng(0)
    sizes = [int(state_dim)] + [int(h) for h in hidden] + [1]
    return PolicyParams(nn.init_mlp(sizes, rng))


def policy_score(policy, s):
    """Raw pre-sigmoid scalar for one state; the candidate priority score."""
    out, _ = nn.mlp_forward(policy.mlp, s, head="linear")
    return float(out[0])


def policy_scores_batch(policy, states):
    out, _ = nn.mlp_forward_batch(policy.mlp, states, head="linear")
    return out[:, 0]


def policy_forward(policy, s):
    """Probability of selecting (action 1) in state s; strictly inside (0, 1)."""
    return float(nn.sigmoid(np.array([policy_score(policy, s)]))[0])


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
    p = float(clamp_prob(prob))
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
    """KL(Bernoulli(p_old) || Bernoulli(p_new)); callers clamp away 0 and 1."""
    if not (0.0 < p_old < 1.0 and 0.0 < p_new < 1.0):
        raise ValueError("kl_bernoulli needs probabilities strictly inside (0, 1)")
    return (p_old * math.log(p_old / p_new)
            + (1.0 - p_old) * math.log((1.0 - p_old) / (1.0 - p_new)))


def _kl_bernoulli_vec(p_old, p_new):
    return (p_old * np.log(p_old / p_new)
            + (1.0 - p_old) * np.log((1.0 - p_old) / (1.0 - p_new)))


@dataclass
class PPOConfig:
    gamma: float = 0.95
    delta: float = 0.01  # trust-region threshold on mean KL(old || new)
    kl_coeff: float = 1.0  # initial adaptive penalty coefficient
    update_epochs: int = 4
    minibatch_size: int = 64
    lr: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")


def surrogate_and_grads(policy, states, actions, behavior_logp, returns, p_old, kl_coeff):
    """Importance-weighted return objective with a KL penalty, plus its gradient.

    objective = mean(ratio * return) - kl_coeff * mean(KL(p_old || p_new)),
    where ratio = pi(a|s) / q(a|s) against the stored behavior log-probs.
    Returns (objective value, gradient list aligned with policy weights);
    gradients point uphill (caller maximizes).
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
    kl = _kl_bernoulli_vec(p_old, p)
    objective = float(np.mean(ratio * returns) - kl_coeff * np.mean(kl))
    if not math.isfinite(objective):
        raise ValueError("non-finite PPO objective")

    # d objective / d score, per sample: the ratio term contributes
    # ratio * return * (a - p); the KL penalty contributes -(p - p_old).
    dscore = (ratio * returns * (actions - p) - kl_coeff * (p - p_old)) / m
    grads = nn.mlp_backward_batch(policy.mlp, cache, dscore[:, None])
    return objective, grads


def _flatten_batch(trajectories):
    states, actions, logq, returns_parts = [], [], [], []
    for traj in trajectories:
        if not traj.transitions:
            continue
        states.extend(t.state for t in traj.transitions)
        actions.extend(t.action for t in traj.transitions)
        logq.extend(t.log_prob for t in traj.transitions)
        returns_parts.append([t.reward for t in traj.transitions])
    return states, actions, logq, returns_parts


def ppo_update(policy, old_policy, trajectories, cfg, rng=None):
    """One trust-region policy improvement round over a trajectory batch.

    Returns are discounted per trajectory and then mean/std-normalized
    across the batch. After each update epoch the mean KL(old || new) over
    all batch states is checked: above 1.5 * delta the epoch is rolled
    back, the penalty coefficient doubles and the epoch is retried once;
    a retry that still violates the threshold is rolled back for good.
    Returns (new PolicyParams, diagnostics dict).
    """
    rng = rng or np.random.default_rng(0)
    states, actions, logq, reward_seqs = _flatten_batch(trajectories)
    if not states:
        raise ValueError("ppo_update needs at least one non-empty trajectory")
    states = np.asarray(states, dtype=np.float64)
    actions = np.asarray(actions, dtype=np.float64)
    logq = np.asarray(logq, dtype=np.float64)
    raw_returns = np.concatenate([discounted_returns(seq, cfg.gamma) for seq in reward_seqs])
    std = raw_returns.std()
    norm_returns = (raw_returns - raw_returns.mean()) / (std + 1e-8)

    p_old = clamp_prob(policy_forward_batch(old_policy, states))
    work = policy.copy()
    opt = nn.adam_init(work.mlp.weights, lr=cfg.lr)
    beta = cfg.kl_coeff
    m = states.shape[0]

    def run_epoch():
        order = rng.permutation(m)
        for start in range(0, m, cfg.minibatch_size):
            rows = order[start:start + cfg.minibatch_size]
            _, grads = surrogate_and_grads(work, states[rows], actions[rows],
                                           logq[rows], norm_returns[rows],
                                           p_old[rows], beta)
            work.mlp.weights = nn.adam_step(opt, work.mlp.weights, grads,
                                            direction="maximize")

    def mean_kl():
        p_new = clamp_prob(policy_forward_batch(work, states))
        return float(np.mean(_kl_bernoulli_vec(p_old, p_new)))

    for _ in range(int(cfg.update_epochs)):
        snap_weights = [w.copy() for w in work.mlp.weights]
        snap_opt = opt.copy()
        run_epoch()
        if mean_kl() > 1.5 * cfg.delta:
            work.mlp.weights = [w.copy() for w in snap_weights]
            opt = snap_opt.copy()
            beta *= 2.0
            run_epoch()
            if mean_kl() > 1.5 * cfg.delta:
                # the retry still left the trust region: reject the epoch
                work.mlp.weights = snap_weights
                opt = snap_opt

    objective, _ = surrogate_and_grads(work, states, actions, logq,
                                       norm_returns, p_old, beta)
    diagnostics = {
        "mean_kl": mean_kl(),
        "objective": objective,
        "kl_coeff": beta,
        "mean_return": float(raw_returns.mean()),
        "num_transitions": int(m),
    }
    return work, diagnostics
