import numpy as np
import pytest

from graphdenoise import env
from graphdenoise import policy as policy_mod
from graphdenoise import representation as rep
from graphdenoise.graph import generate_planted_partition
from graphdenoise.submodular import (CoverageFunction, SelectionRewardFunction,
                                     LambdaSetFunction, ModularFunction,
                                     brute_force_optimal, check_monotone,
                                     check_submodular, greedy_maximize)

BOUND = 1.0 - 1.0 / np.e


def make_reward_fn(seed=0, embed=8, fc_mode="soft", min_degree=3, max_degree=None):
    g = generate_planted_partition(50, 2, 0.35, 0.12, 8, 1.0, seed=seed)
    rng = np.random.default_rng(seed + 100)
    agg = rep.init_aggregator(embed, 8, rng)
    clf = rep.init_classifier(2, embed, rng)
    for v in range(g.num_nodes):
        deg = g.degree(v)
        if deg >= min_degree and (max_degree is None or deg <= max_degree):
            return SelectionRewardFunction(g, v, agg, clf, fc_mode=fc_mode), g, v, agg, clf
    raise AssertionError("no node with requested degree")


def test_greedy_modular_returns_top_k_items():
    f = ModularFunction({0: 5.0, 1: 1.0, 2: 3.0, 3: 4.0}, k_max=2)
    subset, value = greedy_maximize(f)
    assert subset == frozenset({0, 3})
    assert value == 9.0


def test_greedy_full_cardinality_reaches_ground_value():
    f = ModularFunction({i: float(i + 1) for i in range(5)}, k_max=5)
    subset, value = greedy_maximize(f)
    assert subset == frozenset(range(5))
    assert value == f.evaluate(frozenset(range(5)))


def test_greedy_stops_at_no_positive_gain():
    f = ModularFunction({0: 2.0, 1: -1.0, 2: 0.5}, k_max=3)
    subset, _ = greedy_maximize(f)
    assert subset == frozenset({0, 2})


def test_greedy_tie_breaks_toward_smallest_id():
    f = ModularFunction({3: 1.0, 7: 1.0, 9: 1.0}, k_max=2)
    subset, _ = greedy_maximize(f)
    assert subset == frozenset({3, 7})


def test_greedy_empty_ground_rejected():
    with pytest.raises(ValueError):
        greedy_maximize(LambdaSetFunction([], lambda s: 0.0, k_max=1))


def test_brute_force_single_item_cases():
    gains = LambdaSetFunction([4], lambda s: float(len(s)), k_max=1)
    subset, value = brute_force_optimal(gains)
    assert subset == frozenset({4}) and value == 1.0
    losses = LambdaSetFunction([4], lambda s: -float(len(s)), k_max=1)
    subset, value = brute_force_optimal(losses)
    assert subset == frozenset() and value == 0.0


def test_brute_force_modular_matches_greedy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        values = {i: float(rng.uniform(0.1, 5.0)) for i in range(8)}
        k = int(rng.integers(1, 8))
        f = ModularFunction(values, k_max=k)
        g_set, g_val = greedy_maximize(f)
        b_set, b_val = brute_force_optimal(f)
        assert g_set == b_set
        assert g_val == pytest.approx(b_val)


def test_brute_force_relabeling_invariance():
    rng = np.random.default_rng(1)
    weights = {e: float(w) for e, w in enumerate(rng.uniform(0.1, 1.0, 10))}
    covers = {i: frozenset(rng.choice(10, size=4, replace=False).tolist()) for i in range(6)}
    f = CoverageFunction(covers, weights, k_max=3)
    shifted = CoverageFunction({i + 100: c for i, c in covers.items()}, weights, k_max=3)
    assert brute_force_optimal(f)[1] == pytest.approx(brute_force_optimal(shifted)[1])


def test_brute_force_rejects_large_ground():
    f = ModularFunction({i: 1.0 for i in range(21)}, k_max=2)
    with pytest.raises(ValueError):
        brute_force_optimal(f)


def test_check_monotone_passes_cardinality():
    f = LambdaSetFunction(range(8), lambda s: float(len(s)), k_max=8)
    report = check_monotone(f, 200, np.random.default_rng(0))
    assert report.passed and report.first_witness is None


def test_check_monotone_fails_decreasing_function_with_witness():
    f = LambdaSetFunction(range(6), lambda s: -float(len(s)), k_max=6)
    report = check_monotone(f, 200, np.random.default_rng(1))
    assert not report.passed
    assert report.first_witness is not None
    a, b = set(report.first_witness["set_a"]), set(report.first_witness["set_b"])
    assert a <= b
    assert f.evaluate(b) < f.evaluate(a)


def test_check_submodular_passes_coverage():
    f = CoverageFunction.random(np.random.default_rng(2), 10, 15, k_max=5)
    report = check_submodular(f, 300, np.random.default_rng(3))
    assert report.passed


def test_check_submodular_fails_supermodular_with_witness():
    f = LambdaSetFunction(range(6), lambda s: float(len(s)) ** 2, k_max=6)
    report = check_submodular(f, 200, np.random.default_rng(4))
    assert not report.passed
    w = report.first_witness
    assert w is not None
    small, large = frozenset(w["set_a"]), frozenset(w["set_b"])
    assert small <= large and w["item"] not in large
    assert f.marginal(w["item"], small) < f.marginal(w["item"], large)


def test_check_report_json_schema():
    import json

    f = LambdaSetFunction(range(4), lambda s: float(len(s)), k_max=4)
    report = check_monotone(f, 10, np.random.default_rng(0))
    blob = json.loads(report.to_json())
    assert set(blob) == {"function", "trials", "passes", "first_witness"}
    assert blob["passes"] == 10


def test_reward_function_basics():
    f, *_ = make_reward_fn(seed=0)
    assert f.evaluate(frozenset()) == 0.0
    assert all(v >= 0.0 for v in f.values.values())
    first = f.ground[0]
    assert f.evaluate(frozenset({first})) == pytest.approx(1.0)
    assert f.marginal(first, frozenset()) == pytest.approx(1.0)


def test_reward_function_marginal_rejects_member():
    f, *_ = make_reward_fn(seed=0)
    first = f.ground[0]
    with pytest.raises(ValueError):
        f.marginal(first, frozenset({first}))


def test_reward_function_properties_hold_on_random_snapshots():
    rng = np.random.default_rng(5)
    for seed in range(3):
        f, *_ = make_reward_fn(seed=seed)
        assert check_monotone(f, 300, rng).passed
        assert check_submodular(f, 300, rng).passed


def test_reward_function_hard_mode_properties():
    f, *_ = make_reward_fn(seed=1, fc_mode="hard")
    rng = np.random.default_rng(6)
    assert check_monotone(f, 200, rng).passed
    assert check_submodular(f, 200, rng).passed


def test_reward_marginal_equals_environment_step_reward():
    # dual route: the set-function gain must reproduce the rollout reward
    # when the same subset is accepted in the same order
    f, g, v, agg, clf = make_reward_fn(seed=2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        perm = rng.permutation(len(f.ground))
        take = [f.ground[i] for i in perm[: rng.integers(1, len(f.ground) + 1)]]
        state = env.init_episode(g, v, agg)
        accumulated, rewards = [], []
        for u in take:
            expected = f.marginal(u, frozenset(accumulated))
            env.advance_to_candidate(state, u)
            _, reward = env.step(g, state, 1, agg, clf)
            assert abs(reward - expected) < 1e-9
            accumulated.append(u)
            rewards.append(reward)
        assert sum(rewards) == f.order_value(take)


def test_reward_evaluate_matches_appended_marginal():
    # when the new item has the largest id the canonical order appends it,
    # so the evaluate difference equals the marginal exactly
    f, *_ = make_reward_fn(seed=3)
    items = sorted(f.ground)
    base = frozenset(items[:3])
    c = items[-1]
    diff = f.evaluate(base | {c}) - f.evaluate(base)
    assert diff == pytest.approx(f.marginal(c, base), abs=1e-12)


def test_reward_order_spread_reported_not_assumed():
    f, *_ = make_reward_fn(seed=4)
    spread = f.order_spread(f.ground[: min(6, len(f.ground))], np.random.default_rng(8))
    assert np.isfinite(spread)
    assert spread >= 0.0


def test_coverage_bound_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n_items = int(rng.integers(3, 13))
        k = int(rng.integers(1, 7))
        f = CoverageFunction.random(rng, n_items, int(rng.integers(6, 21)), k_max=k)
        _, greedy_val = greedy_maximize(f)
        _, best_val = brute_force_optimal(f)
        assert greedy_val >= BOUND * best_val - 1e-12


def test_reward_function_bound_against_brute_force():
    for seed in range(3):
        f, *_ = make_reward_fn(seed=seed, max_degree=12)
        f.k_max = min(6, len(f.ground))
        _, greedy_val = greedy_maximize(f)
        _, best_val = brute_force_optimal(f)
        assert greedy_val >= BOUND * best_val - 1e-9
