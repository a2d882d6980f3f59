import numpy as np
import pytest

from graphdenoise import env
from graphdenoise import nn
from graphdenoise import policy as policy_mod
from graphdenoise import representation as rep
from graphdenoise.graph import build_graph, generate_planted_partition


def make_setup(seed=0, n=30, classes=2, p_in=0.4, p_out=0.1, dim=4, embed=6):
    g = generate_planted_partition(n, classes, p_in, p_out, dim, 1.5, seed=seed)
    rng = np.random.default_rng(seed + 1)
    agg = rep.init_aggregator(embed, dim, rng)
    clf = rep.init_classifier(classes, embed, rng)
    policy = policy_mod.init_policy(2 * embed, (8, 5), rng)
    return g, agg, clf, policy


def isolated_node_graph():
    masks = {"train": np.array([True, True, False]),
             "val": np.array([False, False, False]),
             "test": np.array([False, False, True])}
    return build_graph(3, [(0, 1)], np.eye(3), [0, 1, 1], masks=masks)


def test_init_isolated_node_has_only_ending_candidate():
    g = isolated_node_graph()
    agg = rep.AggregatorParams(np.eye(3))
    state = env.init_episode(g, 2, agg)
    assert state.candidates == [env.END]
    assert state.selected == []


def test_init_candidate_count_includes_ending_candidate():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)], np.eye(4), [0, 0, 1, 1])
    agg = rep.AggregatorParams(np.eye(4))
    state = env.init_episode(g, 0, agg)
    assert len(state.candidates) == 4
    assert state.candidates[-1] == env.END


def test_init_embedding_is_self_only_aggregate():
    g, agg, _, _ = make_setup()
    state = env.init_episode(g, 5, agg)
    assert np.allclose(state.h_v, rep.aggregate(agg, g.features[5], []))
    for u in g.neighbors(5):
        assert np.allclose(state.cand_embed[int(u)],
                           rep.aggregate(agg, g.features[u], []))


def test_init_rejects_bad_node():
    g, agg, _, _ = make_setup()
    with pytest.raises(ValueError):
        env.init_episode(g, g.num_nodes, agg)


def test_regret_scores_zero_weights_are_zero_and_softmax_uniform():
    g, agg, _, _ = make_setup()
    policy = policy_mod.PolicyParams(nn.MlpParams([np.zeros((4, 12)), np.zeros((1, 4))]))
    state = env.init_episode(g, 0, agg)
    scores = env.regret_scores(state, policy)
    assert np.all(scores == 0.0)
    assert np.allclose(nn.softmax(scores), 1.0 / len(state.candidates))


def test_regret_scores_identical_features_tie():
    g = build_graph(3, [(0, 1), (0, 2)], np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]),
                    [0, 1, 1])
    rng = np.random.default_rng(3)
    agg = rep.init_aggregator(4, 2, rng)
    policy = policy_mod.init_policy(8, (6, 4), rng)
    state = env.init_episode(g, 0, agg)
    scores = env.regret_scores(state, policy)
    assert scores[0] == pytest.approx(scores[1], abs=1e-12)


def test_regret_scores_match_per_candidate_forward():
    g, agg, _, policy = make_setup(seed=4)
    state = env.init_episode(g, 1, agg)
    scores = env.regret_scores(state, policy)
    for i, u in enumerate(state.candidates):
        s = np.concatenate([state.h_v, state.cand_embed[u]])
        assert scores[i] == pytest.approx(policy_mod.policy_score(policy, s), abs=1e-12)


def test_sample_next_candidate_single_candidate_always_picked():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert env.sample_next_candidate([7], np.array([0.3]), rng) == 7


def test_sample_next_candidate_uniform_scores_are_fair():
    rng = np.random.default_rng(1)
    picks = [env.sample_next_candidate([0, 1], np.zeros(2), rng) for _ in range(10000)]
    freq = np.mean(np.array(picks) == 0)
    assert abs(freq - 0.5) < 0.02


def test_sample_next_candidate_saturated_end_score():
    rng = np.random.default_rng(2)
    scores = np.array([0.0, 0.0, 50.0])
    picks = [env.sample_next_candidate([4, 9, env.END], scores, rng) for _ in range(1000)]
    assert np.mean(np.array(picks) == env.END) > 0.99


def test_sample_next_candidate_rejects_non_finite():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        env.sample_next_candidate([0, 1], np.array([np.inf, 0.0]), rng)
    with pytest.raises(ValueError):
        env.sample_next_candidate([], np.array([]), rng)


def test_step_first_acceptance_reward_is_exactly_one():
    g, agg, clf, _ = make_setup(seed=5)
    v = next(v for v in range(g.num_nodes) if g.degree(v) >= 2)
    state = env.init_episode(g, v, agg)
    env.advance_to_candidate(state, int(g.neighbors(v)[0]))
    _, reward = env.step(g, state, 1, agg, clf)
    assert reward == 1.0


def test_step_equal_scores_reward_is_one_over_count():
    # three neighbors with identical features -> identical per-item scores
    feats = np.array([[1.0, 0.0], [0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)], feats, [0, 1, 1, 1])
    rng = np.random.default_rng(6)
    agg = rep.init_aggregator(4, 2, rng)
    clf = rep.init_classifier(2, 4, rng)
    state = env.init_episode(g, 0, agg)
    rewards = []
    for u in (1, 2, 3):
        env.advance_to_candidate(state, u)
        _, r = env.step(g, state, 1, agg, clf)
        rewards.append(r)
    assert rewards[0] == pytest.approx(1.0, abs=1e-12)
    assert rewards[1] == pytest.approx(0.5, abs=1e-12)
    assert rewards[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_step_reject_leaves_embedding_untouched_and_pays_zero():
    g, agg, clf, _ = make_setup(seed=7)
    v = next(v for v in range(g.num_nodes) if g.degree(v) >= 2)
    state = env.init_episode(g, v, agg)
    before = state.h_v.copy()
    env.advance_to_candidate(state, int(g.neighbors(v)[0]))
    _, reward = env.step(g, state, 0, agg, clf)
    assert reward == 0.0
    assert np.array_equal(state.h_v, before)
    assert state.selected == []


def test_step_without_staged_candidate_rejected():
    g, agg, clf, _ = make_setup(seed=8)
    state = env.init_episode(g, 0, agg)
    with pytest.raises(ValueError):
        env.step(g, state, 1, agg, clf)


def test_step_rejects_bad_action():
    g, agg, clf, _ = make_setup(seed=8)
    v = next(v for v in range(g.num_nodes) if g.degree(v) >= 1)
    state = env.init_episode(g, v, agg)
    env.advance_to_candidate(state, int(g.neighbors(v)[0]))
    with pytest.raises(ValueError):
        env.step(g, state, 2, agg, clf)


def test_rollout_isolated_node_is_empty_and_exhausted():
    g = isolated_node_graph()
    rng = np.random.default_rng(0)
    agg = rep.AggregatorParams(np.eye(3))
    clf = rep.ClassifierParams(np.zeros((2, 3)))
    policy = policy_mod.init_policy(6, (4,), np.random.default_rng(1))
    traj = env.rollout(g, 2, policy, agg, clf, rng)
    assert traj.transitions == []
    assert traj.terminated_by == env.TERMINATED_EXHAUSTED


def test_rollout_invariants_hold_on_random_episodes():
    g, agg, clf, policy = make_setup(seed=10)
    rng = np.random.default_rng(4)
    for v in range(g.num_nodes):
        traj = env.rollout(g, v, policy, agg, clf, rng)
        assert len(traj.transitions) <= g.degree(v) + 1
        seen = [t.candidate for t in traj.transitions]
        assert len(seen) == len(set(seen))  # each candidate decided at most once
        rewards = [t.reward for t in traj.transitions]
        assert all(r >= 0.0 for r in rewards)
        prefix = np.cumsum(rewards) if rewards else np.array([])
        assert np.all(np.diff(prefix) >= 0.0) if prefix.size > 1 else True
        assert all(np.isfinite(t.log_prob) for t in traj.transitions)


def test_rollout_respects_max_steps():
    # a capped episode is the uncapped one, with the same stream, cut short
    g, agg, clf, policy = make_setup(seed=11)
    v = max(range(g.num_nodes), key=g.degree)
    longest = 0
    for seed in range(10):
        full = env.rollout(g, v, policy, agg, clf, np.random.default_rng(seed))
        capped = env.rollout(g, v, policy, agg, clf, np.random.default_rng(seed),
                             max_steps=2)
        assert ([(t.candidate, t.action, t.reward) for t in capped.transitions]
                == [(t.candidate, t.action, t.reward) for t in full.transitions[:2]])
        longest = max(longest, len(full.transitions))
    assert longest > 2  # the cap cut at least one episode
    with pytest.raises(ValueError):
        env.rollout(g, v, policy, agg, clf, np.random.default_rng(0), max_steps=0)


def test_rollout_is_deterministic_given_seed():
    g, agg, clf, policy = make_setup(seed=12)
    v = max(range(g.num_nodes), key=g.degree)
    t1 = env.rollout(g, v, policy, agg, clf, np.random.default_rng(77))
    t2 = env.rollout(g, v, policy, agg, clf, np.random.default_rng(77))
    assert [t.candidate for t in t1.transitions] == [t.candidate for t in t2.transitions]
    assert [t.action for t in t1.transitions] == [t.action for t in t2.transitions]
    assert [t.reward for t in t1.transitions] == [t.reward for t in t2.transitions]


def test_incremental_embedding_matches_recomputation():
    g, agg, clf, policy = make_setup(seed=13)
    v = max(range(g.num_nodes), key=g.degree)
    state = env.init_episode(g, v, agg)
    rng = np.random.default_rng(5)
    for u in list(g.neighbors(v)):
        env.advance_to_candidate(state, int(u))
        env.step(g, state, int(rng.integers(2)), agg, clf)
        scratch = rep.aggregate(agg, g.features[v],
                                [g.features[w] for w in state.selected])
        assert np.max(np.abs(state.h_v - scratch)) < 1e-12


def test_state_vectors_always_twice_embedding_dim(tmp_path):
    g, agg, clf, policy = make_setup(seed=15, embed=6)
    rng = np.random.default_rng(6)
    for v in range(0, g.num_nodes, 3):
        traj = env.rollout(g, v, policy, agg, clf, rng)
        for t in traj.transitions:
            assert t.state.shape == (12,)


def test_trajectory_dump_format(tmp_path):
    import json

    g, agg, clf, policy = make_setup(seed=14)
    trajs = [env.rollout(g, v, policy, agg, clf, np.random.default_rng(v))
             for v in range(3)]
    path = tmp_path / "trajs.jsonl"
    env.dump_trajectories(path, trajs)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    row = json.loads(lines[0])
    assert set(row) == {"node", "candidates", "actions", "rewards", "terminated_by"}
