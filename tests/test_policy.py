import math
import warnings

import numpy as np
import pytest

from graphdenoise import nn
from graphdenoise import policy as policy_mod
from graphdenoise.env import Trajectory, Transition
from graphdenoise.policy import (PPOConfig, PolicyParams, discounted_returns,
                                 kl_bernoulli, policy_forward_batch, ppo_update,
                                 sample_action, surrogate_and_grads)


def make_policy(state_dim=6, hidden=(5, 4), seed=0):
    return policy_mod.init_policy(state_dim, hidden, np.random.default_rng(seed))


def make_batch(policy, n_states=40, seed=0, reward_fn=None):
    """Single-transition trajectories with recorded behavior log-probs."""
    rng = np.random.default_rng(seed)
    trajectories = []
    for _ in range(n_states):
        s = rng.standard_normal(policy.state_dim)
        p = policy_forward_batch(policy, s[None, :])[0]
        a, logp = sample_action(p, rng)
        r = reward_fn(a) if reward_fn else float(rng.random())
        trajectories.append(Trajectory(0, [Transition(s, a, r, logp, 0)], "exhausted_candidates"))
    return trajectories


def test_policy_forward_zero_weights_is_half():
    p = PolicyParams(nn.MlpParams([np.zeros((4, 6)), np.zeros((1, 4))]))
    assert policy_forward_batch(p, np.ones((3, 6))).tolist() == [0.5, 0.5, 0.5]


def test_policy_forward_is_pure_and_in_open_interval():
    p = make_policy()
    states = np.random.default_rng(1).standard_normal((20, 6))
    a = policy_forward_batch(p, states)
    assert np.array_equal(a, policy_forward_batch(p, states))
    assert np.all((0.0 < a) & (a < 1.0))


def test_policy_forward_matches_manual_formula():
    p = make_policy(seed=2)
    states = np.random.default_rng(3).standard_normal((5, 6))
    probs = policy_forward_batch(p, states)
    for s, prob in zip(states, probs):
        h = s
        for w in p.mlp.weights[:-1]:
            h = np.maximum(w @ h, 0.0)
        z = float((p.mlp.weights[-1] @ h)[0])
        assert prob == pytest.approx(1.0 / (1.0 + math.exp(-z)), abs=1e-12)


def test_policy_stack_uses_configured_hidden_sizes():
    p = policy_mod.init_policy(256, (64, 36), np.random.default_rng(0))
    shapes = [w.shape for w in p.mlp.weights]
    assert shapes == [(64, 256), (36, 64), (1, 36)]


def test_sample_action_monte_carlo_mean():
    rng = np.random.default_rng(4)
    draws = [sample_action(0.5, rng)[0] for _ in range(10000)]
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_sample_action_log_prob_is_log_of_prob():
    rng = np.random.default_rng(5)
    for prob in (0.25, 0.5, 0.9):
        for _ in range(20):
            a, logp = sample_action(prob, rng)
            assert logp == pytest.approx(math.log(prob if a == 1 else 1.0 - prob))


def test_sample_action_clamps_extreme_probs_to_finite_logs():
    rng = np.random.default_rng(6)
    a, logp = sample_action(1e-12, rng)
    assert math.isfinite(logp)
    assert logp >= math.log(1e-6) - 1e-12
    with pytest.raises(ValueError):
        sample_action(0.0, rng)
    with pytest.raises(ValueError):
        sample_action(1.0, rng)


def test_sample_action_matches_array_clamp_on_same_stream():
    # the float clamp draws and logs exactly as np.clip on the probability did
    rng = np.random.default_rng(8)
    probs = list(rng.uniform(0.0, 1.0, 2000)) + [1e-300, 1e-12, 1e-6, 0.5, 1.0 - 1e-6,
                                                 1.0 - 1e-12, np.nextafter(1.0, 0.0)]
    new, old = np.random.default_rng(9), np.random.default_rng(9)
    for prob in probs:
        p = float(np.clip(prob, 1e-6, 1.0 - 1e-6))
        action = 1 if old.random() < p else 0
        assert sample_action(prob, new) == (action, math.log(p if action == 1 else 1.0 - p))
    assert new.random() == old.random()


def test_discounted_returns_undiscounted_suffix_sums():
    assert discounted_returns([1.0, 1.0, 1.0], 1.0).tolist() == [3.0, 2.0, 1.0]


def test_discounted_returns_gamma_zero_is_rewards():
    r = [0.3, 0.7, 0.1]
    assert discounted_returns(r, 0.0).tolist() == r


def test_discounted_returns_half_discount():
    assert discounted_returns([1.0, 1.0], 0.5).tolist() == [1.5, 1.0]


def test_discounted_returns_satisfy_recursion_exactly():
    rng = np.random.default_rng(7)
    for gamma in (0.0, 0.3, 0.9, 1.0):
        r = rng.random(12)
        q = discounted_returns(r, gamma)
        for t in range(11):
            assert q[t] == r[t] + gamma * q[t + 1]
        assert q[-1] == r[-1]


def test_discounted_returns_invalid_gamma():
    with pytest.raises(ValueError):
        discounted_returns([1.0], 1.5)


def test_kl_bernoulli_zero_iff_equal():
    rng = np.random.default_rng(8)
    p = rng.uniform(0.01, 0.99, 50)
    q = rng.uniform(0.01, 0.99, 50)
    assert np.all(kl_bernoulli(p, p) == 0.0)
    k = kl_bernoulli(p, q)
    assert np.all(k >= 0.0)
    assert np.all(k[np.abs(p - q) > 1e-6] > 0.0)
    # elementwise: each entry is the KL of its own pair
    for i in range(50):
        assert k[i] == pytest.approx(kl_bernoulli(p[i], q[i]), rel=1e-12)


def test_kl_bernoulli_known_value():
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(expected, abs=1e-12)
    assert kl_bernoulli(0.5, 0.25) == pytest.approx(0.143841, abs=1e-6)


def test_kl_bernoulli_is_asymmetric():
    # note kl(p, q) == kl(1-p, 1-q), so complementary pairs like (0.9, 0.1)
    # coincide under swapping; a non-complementary pair shows the asymmetry
    assert kl_bernoulli(0.9, 0.5) != kl_bernoulli(0.5, 0.9)
    assert kl_bernoulli(0.9, 0.1) == pytest.approx(kl_bernoulli(0.1, 0.9))


def test_kl_bernoulli_rejects_boundary():
    with pytest.raises(ValueError):
        kl_bernoulli(0.0, 0.5)
    with pytest.raises(ValueError):
        kl_bernoulli(0.5, 1.0)
    with pytest.raises(ValueError):
        kl_bernoulli(np.array([0.5, 0.2]), np.array([0.5, 1.0]))


def test_ppo_zero_epochs_is_identity_with_zero_kl():
    policy = make_policy(seed=9)
    batch = make_batch(policy, seed=10)
    cfg = PPOConfig(update_epochs=0)
    new, diag = ppo_update(policy, batch, cfg=cfg, rng=np.random.default_rng(0))
    for a, b in zip(new.mlp.weights, policy.mlp.weights):
        assert np.array_equal(a, b)
    assert diag["mean_kl"] == 0.0


def test_ppo_zero_learning_rate_is_identity():
    policy = make_policy(seed=11)
    batch = make_batch(policy, seed=12)
    cfg = PPOConfig(update_epochs=3, lr=0.0)
    new, _ = ppo_update(policy, batch, cfg=cfg, rng=np.random.default_rng(0))
    for a, b in zip(new.mlp.weights, policy.mlp.weights):
        assert np.array_equal(a, b)


def test_policy_stack_must_end_in_one_scalar():
    with pytest.raises(ValueError, match="policy stack must end in a single scalar"):
        PolicyParams(nn.init_mlp([6, 4, 2], np.random.default_rng(0)))


def test_ppo_empty_batch_rejected():
    policy = make_policy()
    with pytest.raises(ValueError):
        ppo_update(policy, [], cfg=PPOConfig(), rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        ppo_update(policy, [Trajectory(0, [], "exhausted_candidates")], cfg=PPOConfig(),
                   rng=np.random.default_rng(0))


def test_ppo_moves_policy_toward_rewarded_action():
    # select always pays 1, reject always pays 0; normalized returns are +-1,
    # so the mean selection probability must strictly increase
    policy = make_policy(seed=13)
    batch = make_batch(policy, n_states=60, seed=14, reward_fn=lambda a: float(a))
    actions = [t.transitions[0].action for t in batch]
    assert 0 < sum(actions) < len(actions)
    states = np.array([t.transitions[0].state for t in batch])
    before = policy_mod.policy_forward_batch(policy, states).mean()
    cfg = PPOConfig(gamma=0.9, delta=0.05, update_epochs=4, minibatch_size=16, lr=5e-3)
    new, diag = ppo_update(policy, batch, cfg=cfg, rng=np.random.default_rng(1))
    after = policy_mod.policy_forward_batch(new, states).mean()
    assert after > before
    assert math.isfinite(diag["objective"])


def test_ppo_update_leaves_caller_arrays_untouched():
    # the returned policy is a new holder; the caller's weights and states keep their bits
    policy = make_policy(seed=13)
    batch = make_batch(policy, n_states=60, seed=14, reward_fn=lambda a: float(a))
    arrays = [*policy.mlp.weights, *(t.state for traj in batch for t in traj.transitions)]
    before = [a.copy() for a in arrays]
    cfg = PPOConfig(update_epochs=3, minibatch_size=16, lr=5e-3)
    new, _ = ppo_update(policy, batch, cfg=cfg, rng=np.random.default_rng(1))
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in before]
    assert not all(np.array_equal(a, b) for a, b in zip(new.mlp.weights, before))


def test_ppo_tiny_trust_region_keeps_policy_in_place():
    policy = make_policy(seed=15)
    batch = make_batch(policy, n_states=50, seed=16, reward_fn=lambda a: float(a))
    cfg = PPOConfig(delta=1e-9, update_epochs=4, minibatch_size=16, lr=1e-2)
    new, diag = ppo_update(policy, batch, cfg=cfg, rng=np.random.default_rng(2))
    assert diag["mean_kl"] <= 1e-6


def test_ppo_normalized_returns_balanced_signs():
    # equal counts of return 1 and 0 normalize to exactly +-1, so a batch
    # where both actions appear gets opposite-signed weights
    policy = make_policy(seed=17)
    rng = np.random.default_rng(18)
    trajs = []
    for i in range(10):
        s = rng.standard_normal(policy.state_dim)
        a = i % 2
        p = policy_forward_batch(policy, s[None, :])[0]
        logp = math.log(p if a else 1.0 - p)
        trajs.append(Trajectory(0, [Transition(s, a, float(a), logp, 0)], "x"))
    _, diag = ppo_update(policy, trajs, cfg=PPOConfig(update_epochs=0),
                         rng=np.random.default_rng(0))
    assert diag["mean_return"] == pytest.approx(0.5)


def test_ppo_adam_overflow_is_named_before_any_warning():
    # states of magnitude 1e200 square past float64 in the weight gradients
    policy = make_policy()
    batch = make_batch(policy, seed=4)
    for traj in batch:
        for t in traj.transitions:
            t.state = t.state * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="PPO round: Adam second moment overflowed"):
            ppo_update(policy, batch, cfg=PPOConfig(update_epochs=2, minibatch_size=32),
                       rng=np.random.default_rng(0))


def test_surrogate_gradient_matches_finite_differences():
    # one-state two-action bandit: analytic surrogate gradient vs centered differences
    policy = make_policy(state_dim=4, hidden=(3,), seed=19)
    rng = np.random.default_rng(20)
    states = rng.standard_normal((2, 4))
    actions = np.array([1.0, 0.0])
    p0 = policy_mod.policy_forward_batch(policy, states)
    logq = np.log(np.where(actions == 1.0, p0, 1.0 - p0))
    returns = np.array([1.0, -1.0])
    p_old = p0.copy()
    beta = 0.7

    _, analytic = surrogate_and_grads(policy, states, actions, logq, returns, p_old, beta)
    h = 1e-6
    for k, w in enumerate(policy.mlp.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up, _ = surrogate_and_grads(policy, states, actions, logq, returns, p_old, beta)
            w[idx] = orig - h
            down, _ = surrogate_and_grads(policy, states, actions, logq, returns, p_old, beta)
            w[idx] = orig
            num = (up - down) / (2 * h)
            denom = max(abs(num), abs(analytic[k][idx]), 1e-7)
            assert abs(analytic[k][idx] - num) / denom < 1e-4


def test_ppo_config_validation():
    with pytest.raises(ValueError):
        PPOConfig(gamma=1.5)
    with pytest.raises(ValueError):
        PPOConfig(delta=0.0)
    for size in (0, -1):
        with pytest.raises(ValueError, match="minibatch_size"):
            PPOConfig(minibatch_size=size)
    with pytest.raises(ValueError, match="update_epochs"):
        PPOConfig(update_epochs=-1)
    assert PPOConfig(update_epochs=0, minibatch_size=1).update_epochs == 0
    # a NaN trust region would never roll an epoch back: every bound is finite
    for name, values in (("delta", (-0.01, math.nan, math.inf)),
                         ("kl_coeff", (0.0, -1.0, math.nan, math.inf)),
                         ("gamma", (math.nan,)),
                         ("lr", (-1e-3, math.nan, math.inf))):
        for value in values:
            with pytest.raises(ValueError, match=name):
                PPOConfig(**{name: value})
    assert PPOConfig(lr=0.0).lr == 0.0
