import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdenoise import env, trainer
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


def self_embedding(agg, x):
    """relu(W x): a node's embedding with nothing kept."""
    return np.maximum(agg.W @ x, 0.0)


def batch_embedding(g, agg, v, selected):
    """h_v from the batch path: the CSR kept set's mean, embedded."""
    kept = (np.array([0, len(selected)]), np.array(selected, dtype=np.int64))
    return rep.embed_means(agg, rep.node_mean_vectors(g, [v], kept))[0]


def test_init_embedding_is_self_only_aggregate():
    g, agg, _, policy = make_setup()
    state = env.init_episode(g, 5, agg)
    # one state row [h_v, h_u] per candidate, END's last, in candidate order
    assert state.table.shape == (len(state.candidates), 12)
    # every row is pending, so the scored rows are the whole table, in place
    _, states = state.candidate_scores(policy)
    assert states.shape == state.table.shape and np.shares_memory(states, state.table)
    assert np.array_equal(state.total, g.features[5])
    for h_v in state.table[:, :6]:
        assert np.allclose(h_v, self_embedding(agg, g.features[5]))
    for i, u in enumerate(state.candidates[:-1]):
        assert np.allclose(state.table[i, 6:], self_embedding(agg, g.features[u]))
    assert np.array_equal(state.table[-1, 6:], np.zeros(6))


def test_init_rejects_bad_node():
    g, agg, _, _ = make_setup()
    with pytest.raises(ValueError):
        env.init_episode(g, g.num_nodes, agg)


def end_saturating_policy(embed, weight):
    """Scores a candidate weight * relu(sum h_u): END (h_u = 0) scores 0, and a
    neighbor with positive embedding scores far above (weight > 0) or below it."""
    return policy_mod.PolicyParams(nn.MlpParams([
        np.hstack([np.zeros((1, embed)), np.ones((1, embed))]), np.array([[weight]])]))


def star_graph(neighbor_features):
    """Node 0 joined to one node per row of neighbor_features (positive rows)."""
    feats = np.vstack([[1.0, 0.0], neighbor_features])
    n = feats.shape[0]
    return build_graph(n, [(0, u) for u in range(1, n)], feats, [0] + [1] * (n - 1))


def test_regret_scores_zero_weights_are_zero_and_softmax_uniform():
    g, agg, _, _ = make_setup()
    policy = policy_mod.PolicyParams(nn.MlpParams([np.zeros((4, 12)), np.zeros((1, 4))]))
    state = env.init_episode(g, 0, agg)
    scores, _ = state.candidate_scores(policy)
    assert np.all(scores == 0.0)
    assert all(nn.sigmoid(s) == 0.5 for s in scores)
    assert np.allclose(nn.softmax(scores), 1.0 / len(state.candidates))


def test_regret_scores_identical_features_tie():
    g = build_graph(3, [(0, 1), (0, 2)], np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5]]),
                    [0, 1, 1])
    rng = np.random.default_rng(3)
    agg = rep.init_aggregator(4, 2, rng)
    policy = policy_mod.init_policy(8, (6, 4), rng)
    state = env.init_episode(g, 0, agg)
    scores, _ = state.candidate_scores(policy)
    assert scores[0] == pytest.approx(scores[1], abs=1e-12)


def test_regret_scores_match_per_candidate_forward():
    g, agg, _, policy = make_setup(seed=4)
    state = env.init_episode(g, 1, agg)
    scores, states = state.candidate_scores(policy)
    states = states.copy()  # a view of the table, which take overwrites
    h_v = self_embedding(agg, g.features[1])
    for i, u in enumerate(state.candidates):
        h_u = np.zeros(6) if u == env.END else self_embedding(agg, g.features[u])
        assert np.allclose(states[i], np.concatenate([h_v, h_u]), rtol=0, atol=1e-12)
        out, _ = nn.mlp_forward(policy.mlp, states[i], head="linear")
        assert scores[i] == pytest.approx(out[0], abs=1e-12)
        # the walkers' scalar accept probability is the array sigmoid's, bit for bit
        assert nn.sigmoid(scores[i]) == nn.sigmoid(np.array([scores[i]]))[0]
    # taking a candidate drops its id and its table row together, and the
    # pending rows stay compacted at the front in candidate order
    first = state.candidates[0]
    assert state.take(0) == first
    rest, rest_states = state.candidate_scores(policy)
    assert first not in state.candidates
    assert np.array_equal(rest_states, states[1:])
    assert np.allclose(rest, scores[1:], atol=1e-12)
    middle = state.candidates[2]
    assert state.take(2) == middle
    _, rest_states = state.candidate_scores(policy)
    assert middle not in state.candidates
    assert np.array_equal(rest_states, np.delete(states[1:], 2, axis=0))


def test_sample_next_candidate_single_candidate_always_picked():
    # a neighbor scoring far above END is drawn first on every stream
    g = star_graph([[0.3, 0.7]])
    agg = rep.AggregatorParams(np.eye(2))
    policy = end_saturating_policy(2, 50.0)
    for seed in range(10):
        traj = env.rollout(g, 0, policy, agg, np.random.default_rng(seed))
        assert [t.candidate for t in traj.transitions] == [1]
        assert traj.terminated_by == env.TERMINATED_EXHAUSTED


def test_sample_next_candidate_uniform_scores_are_fair():
    # equal scores: the first draw is uniform over two neighbors and END
    g = star_graph([[0.3, 0.7], [0.6, 0.4]])
    agg = rep.AggregatorParams(np.eye(2))
    policy = policy_mod.PolicyParams(nn.MlpParams([np.zeros((3, 4)), np.zeros((1, 3))]))
    rng = np.random.default_rng(1)
    firsts = []
    for _ in range(3000):
        traj = env.rollout(g, 0, policy, agg, rng)
        firsts.append(traj.transitions[0].candidate if traj.transitions else env.END)
    for u in (1, 2, env.END):
        assert abs(np.mean(np.array(firsts) == u) - 1.0 / 3.0) < 0.03


def test_sample_next_candidate_saturated_end_score():
    g = star_graph([[0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
    agg = rep.AggregatorParams(np.eye(2))
    policy = end_saturating_policy(2, -50.0)
    rng = np.random.default_rng(2)
    trajs = [env.rollout(g, 0, policy, agg, rng) for _ in range(200)]
    ended = [not t.transitions and t.terminated_by == env.TERMINATED_ENDING for t in trajs]
    assert np.mean(ended) > 0.99
    assert trainer.greedy_select(g, 0, policy, agg) == []


def test_sample_next_candidate_rejects_non_finite():
    g, agg, _, policy = make_setup(seed=3)
    v = next(v for v in range(g.num_nodes) if g.degree(v) >= 1)
    policy.mlp.weights[-1][:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        env.rollout(g, v, policy, agg, np.random.default_rng(0))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        trainer.greedy_select(g, v, policy, agg)


def test_step_first_acceptance_reward_is_exactly_one():
    g, agg, clf, policy = make_setup(seed=5)
    rng = np.random.default_rng(5)
    accepted = 0
    for v in range(g.num_nodes):
        traj = env.pay_rewards(g, env.rollout(g, v, policy, agg, rng), agg, clf)
        first = next((t for t in traj.transitions if t.action == 1), None)
        if first is not None:
            assert first.reward == 1.0
            accepted += 1
    assert accepted > 0


def test_step_equal_scores_reward_is_one_over_count():
    # three neighbors with identical features -> identical per-item scores;
    # the policy draws and accepts them before END
    g = star_graph([[0.3, 0.7], [0.3, 0.7], [0.3, 0.7]])
    agg = rep.AggregatorParams(np.eye(2))
    clf = rep.init_classifier(2, 2, np.random.default_rng(6))
    traj = env.pay_rewards(g, env.rollout(g, 0, end_saturating_policy(2, 50.0), agg,
                                          np.random.default_rng(6)), agg, clf)
    assert [t.action for t in traj.transitions] == [1, 1, 1]
    rewards = [t.reward for t in traj.transitions]
    assert rewards[0] == pytest.approx(1.0, abs=1e-12)
    assert rewards[1] == pytest.approx(0.5, abs=1e-12)
    assert rewards[2] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_step_reject_leaves_embedding_untouched_and_pays_zero():
    # the h_v half of each state is the target's embedding when it was decided
    g, agg, clf, policy = make_setup(seed=7)
    rng = np.random.default_rng(7)
    followed = 0
    for v in range(g.num_nodes):
        traj = env.pay_rewards(g, env.rollout(g, v, policy, agg, rng), agg, clf)
        for t, nxt in zip(traj.transitions, traj.transitions[1:] + [None]):
            if t.action == 0:
                assert t.reward == 0.0
                if nxt is not None:
                    assert np.array_equal(nxt.state[:6], t.state[:6])
                    followed += 1
    assert followed > 0


def test_rollout_isolated_node_is_empty_and_exhausted():
    g = isolated_node_graph()
    rng = np.random.default_rng(0)
    agg = rep.AggregatorParams(np.eye(3))
    policy = policy_mod.init_policy(6, (4,), np.random.default_rng(1))
    traj = env.rollout(g, 2, policy, agg, rng)
    assert traj.transitions == []
    assert traj.terminated_by == env.TERMINATED_EXHAUSTED


def test_rollout_invariants_hold_on_random_episodes():
    g, agg, clf, policy = make_setup(seed=10)
    rng = np.random.default_rng(4)
    for v in range(g.num_nodes):
        traj = env.pay_rewards(g, env.rollout(g, v, policy, agg, rng), agg, clf)
        assert len(traj.transitions) <= g.degree(v) + 1
        seen = [t.candidate for t in traj.transitions]
        assert len(seen) == len(set(seen))  # each candidate decided at most once
        rewards = [t.reward for t in traj.transitions]
        assert all(r >= 0.0 for r in rewards)
        prefix = np.cumsum(rewards) if rewards else np.array([])
        assert np.all(np.diff(prefix) >= 0.0) if prefix.size > 1 else True
        assert all(np.isfinite(t.log_prob) for t in traj.transitions)


def test_rollout_only_walks_and_pay_rewards_scores_each_accept_once(monkeypatch):
    g, agg, clf, policy = make_setup(seed=8)
    real = rep.f_c_score
    calls = []
    monkeypatch.setattr(rep, "f_c_score", lambda *a, **k: calls.append(a[4]) or real(*a, **k))
    for v in range(g.num_nodes):
        traj = env.rollout(g, v, policy, agg, np.random.default_rng(v))
        assert all(t.reward == 0.0 for t in traj.transitions)
        assert calls == []
        decisions = [(t.candidate, t.action) for t in traj.transitions]
        assert env.pay_rewards(g, traj, agg, clf) is traj
        assert [(t.candidate, t.action) for t in traj.transitions] == decisions
        assert calls == [g.labels[v]] * sum(a for _, a in decisions)
        assert all(t.reward == 0.0 for t in traj.transitions if t.action == 0)
        calls.clear()


def test_marginal_rewards_recurrence():
    assert env.marginal_rewards([]) == []
    assert env.marginal_rewards([2.0, 2.0, 4.0]) == [1.0, 0.5, 0.5]
    # a running total below the guard pays 0 instead of dividing by it
    assert env.marginal_rewards([0.0, 1e-13, 1.0]) == [0.0, 0.0, 1.0 / (1e-13 + 1.0)]


def test_rollout_is_deterministic_given_seed():
    g, agg, clf, policy = make_setup(seed=12)
    v = max(range(g.num_nodes), key=g.degree)
    t1 = env.pay_rewards(g, env.rollout(g, v, policy, agg, np.random.default_rng(77)), agg, clf)
    t2 = env.pay_rewards(g, env.rollout(g, v, policy, agg, np.random.default_rng(77)), agg, clf)
    assert [t.candidate for t in t1.transitions] == [t.candidate for t in t2.transitions]
    assert [t.action for t in t1.transitions] == [t.action for t in t2.transitions]
    assert [t.reward for t in t1.transitions] == [t.reward for t in t2.transitions]


def test_incremental_embedding_matches_recomputation():
    # one mean: the episode's running total and the batch's segment sum give
    # the same bits, and for D >= 2 so does the re-averaged stack they replaced
    g, agg, _, policy = make_setup(seed=13)
    v = max(range(g.num_nodes), key=g.degree)
    state = env.init_episode(g, v, agg)
    rng = np.random.default_rng(5)
    while len(state.candidates) > 1:
        u = state.take(0)
        if rng.integers(2):
            state.accept(g, agg, u)
        rows = g.features[state.selected]
        stacked = np.concatenate([g.features[v][None], rows]).sum(axis=0) / (len(rows) + 1)
        assert np.array_equal(state.total / (len(rows) + 1), stacked)
        for h_v in state.table[:, :6]:
            assert np.array_equal(h_v, batch_embedding(g, agg, v, state.selected))
    assert len(state.selected) >= 2
    # rollout states carry the same incremental embedding
    traj = env.rollout(g, v, policy, agg, np.random.default_rng(6))
    selected = []
    for t in traj.transitions:
        assert np.array_equal(t.state[:6], batch_embedding(g, agg, v, selected))
        if t.action == 1:
            selected.append(t.candidate)


def test_one_column_hub_episode_matches_batch_mean():
    # with D = 1 numpy's sum(axis=0) adds pairwise past 8 rows; the episode's
    # total and the batch's np.add.at both add in order, so they still agree
    rng = np.random.default_rng(7)
    n = 14
    g = build_graph(n, [(0, u) for u in range(1, n)], rng.standard_normal((n, 1)) * 1e3,
                    [0] * n)
    agg = rep.init_aggregator(3, 1, rng)
    state = env.init_episode(g, 0, agg)
    assert g.degree(0) > 8
    while len(state.candidates) > 1:
        state.accept(g, agg, state.take(0))
        for h_v in state.table[:, :3]:
            assert np.array_equal(h_v, batch_embedding(g, agg, 0, state.selected))
    assert len(state.selected) == n - 1


def test_state_vectors_always_twice_embedding_dim(tmp_path):
    g, agg, _, policy = make_setup(seed=15, embed=6)
    rng = np.random.default_rng(6)
    for v in range(0, g.num_nodes, 3):
        traj = env.rollout(g, v, policy, agg, rng)
        for t in traj.transitions:
            assert t.state.shape == (12,)
            # a view would keep the whole gathered state block of its step alive
            assert t.state.base is None



# Decisions of the seeded episode below, recorded before the episode API was
# folded into EpisodeState, with each transition's reward as an exact float.
# Any change to how an episode scores, orders, samples or accepts candidates,
# or to the reward's arithmetic, shows up here as a changed tuple.
PINNED_ROLLOUTS = {
    2: [(5, 0, 0.0), (22, 1, 1.0), (16, 0, 0.0)],
    5: [(19, 0, 0.0), (2, 1, 1.0), (16, 1, 0.5195883832605166)],
    11: [(2, 1, 1.0), (15, 0, 0.0)],
    17: [(22, 1, 1.0), (13, 1, 0.6290598285850706), (8, 1, 0.3579336906254477),
         (19, 1, 0.23372135244635628), (2, 0, 0.0)],
    21: [(19, 1, 1.0), (22, 0, 0.0), (14, 0, 0.0), (9, 0, 0.0), (8, 1, 0.5435648901362226),
         (20, 0, 0.0)],
}
PINNED_GREEDY = {
    0: [4], 1: [19, 2], 2: [22, 1], 3: [17, 1], 4: [8], 5: [2, 16], 6: [23, 17],
    7: [2, 18], 11: [2, 14, 18], 15: [2], 16: [2, 4, 5], 23: [22],
}


def test_episode_decisions_are_pinned():
    g = generate_planted_partition(24, 3, 0.35, 0.1, 4, 1.5, seed=21)
    rng = np.random.default_rng(22)
    agg = rep.init_aggregator(6, 4, rng)
    clf = rep.init_classifier(3, 6, rng)
    policy = policy_mod.init_policy(12, (8, 5), rng)
    for v, decisions in PINNED_ROLLOUTS.items():
        walk = env.rollout(g, v, policy, agg, np.random.default_rng(100 + v))
        traj = env.pay_rewards(g, walk, agg, clf)
        assert [(t.candidate, t.action, t.reward) for t in traj.transitions] == decisions
        assert traj.terminated_by == env.TERMINATED_ENDING
    for v in range(g.num_nodes):
        assert trainer.greedy_select(g, v, policy, agg) == PINNED_GREEDY.get(v, [])


def reference_rollout(graph, v, policy, agg, clf, rng):
    """The episode as it ran before the state table: the state matrix is
    re-stacked every step, a taken row is np.delete-d, the candidate is drawn
    by rng.choice, and the means, softmax and clamp use their vstack, clip
    forms, and each accept is paid as it is taken against the running score
    total. Returns ((candidate, action, reward, log_prob, state) list, reason)."""
    def softmax(z):
        e = np.exp(np.clip(z - z.max(), -700.0, 0.0))
        return e / e.sum()

    def embed(rows):
        return rep.embed_means(agg, np.vstack([graph.features[v], rows]).mean(axis=0)[None])[0]

    candidates = graph.neighbors(v).tolist() + [env.END]
    cand_embed = np.vstack([rep.embed_means(agg, graph.features[graph.neighbors(v)]),
                            np.zeros(agg.embed_dim)])
    h_v = embed(np.empty((0, graph.feature_dim)))
    selected, out, score_sum = [], [], 0.0
    while len(candidates) > 1:
        states = np.hstack([np.broadcast_to(h_v, cand_embed.shape), cand_embed])
        scores = policy_mod.policy_scores_batch(policy, states)
        i = int(rng.choice(len(scores), p=softmax(scores)))
        cand_embed = np.delete(cand_embed, i, axis=0)
        u = candidates.pop(i)
        if u == env.END:
            return out, env.TERMINATED_ENDING
        p = float(np.clip(float(nn.sigmoid(scores)[i]), 1e-6, 1.0 - 1e-6))
        action = 1 if rng.random() < p else 0
        reward = 0.0
        if action == 1:
            probs = rep.classify_batch(clf, embed(graph.features[[u]])[None])[0]
            score = float(probs[graph.labels[v]])
            score_sum += score
            selected.append(u)
            h_v = embed(graph.features[selected])
            reward = 0.0 if score_sum < 1e-12 else score / score_sum
        out.append((u, action, reward, math.log(p if action == 1 else 1.0 - p), states[i]))
    return out, env.TERMINATED_EXHAUSTED


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), density=st.floats(0.1, 0.9),
       scale=st.sampled_from([1.0, 30.0, 1e3]), bias=st.floats(-5.0, 1.0))
def test_rollout_matches_restacking_reference(seed, n, density, scale, bias):
    # a large scale saturates the sigmoid and pushes score gaps past the
    # softmax floor; a negative bias on the last layer makes rejects common
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    g = build_graph(n, edges, rng.standard_normal((n, 3)), rng.integers(0, 2, n))
    agg = rep.init_aggregator(4, 3, rng)
    clf = rep.init_classifier(2, 4, rng)
    policy = policy_mod.init_policy(8, (6, 5), rng)
    policy.mlp.weights[-1] = policy.mlp.weights[-1] * scale + bias
    for v in range(n):
        rng_new, rng_ref = np.random.default_rng(seed + v), np.random.default_rng(seed + v)
        traj = env.pay_rewards(g, env.rollout(g, v, policy, agg, rng_new), agg, clf)
        expected, reason = reference_rollout(g, v, policy, agg, clf, rng_ref)
        assert [(t.candidate, t.action, t.reward, t.log_prob) for t in traj.transitions] \
            == [step[:4] for step in expected]
        assert [t.state.tobytes() for t in traj.transitions] \
            == [step[4].tobytes() for step in expected]
        assert traj.terminated_by == reason
        assert rng_new.random() == rng_ref.random()
