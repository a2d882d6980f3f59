import json

import numpy as np
import pytest

from graphdenoise import env
from graphdenoise import policy as policy_mod
from graphdenoise import representation as rep
from graphdenoise.cli import run
from graphdenoise.graph import generate_planted_partition
from graphdenoise.submodular import (CoverageFunction, SelectionRewardFunction, SetFunction,
                                     brute_force_optimal, check_monotone, check_submodular,
                                     greedy_maximize)

BOUND = 1.0 - 1.0 / np.e


class LambdaSetFunction(SetFunction):
    def __init__(self, ground, fn, k_max):
        super().__init__(ground, k_max)
        self._fn = fn

    def evaluate(self, subset):
        return float(self._fn(frozenset(subset)))


def modular(values, k_max):
    """Additive item values; the textbook case where greedy is exactly optimal."""
    return LambdaSetFunction(values.keys(), lambda s: sum(values[i] for i in s), k_max)


def make_reward_fn(seed=0, embed=8, min_degree=3, max_degree=None):
    g = generate_planted_partition(50, 2, 0.35, 0.12, 8, 1.0, seed=seed)
    rng = np.random.default_rng(seed + 100)
    agg = rep.init_aggregator(embed, 8, rng)
    clf = rep.init_classifier(2, embed, rng)
    for v in range(g.num_nodes):
        deg = g.degree(v)
        if deg >= min_degree and (max_degree is None or deg <= max_degree):
            return SelectionRewardFunction(g, v, agg, clf), g, v, agg, clf
    raise AssertionError("no node with requested degree")


def test_greedy_modular_returns_top_k_items():
    f = modular({0: 5.0, 1: 1.0, 2: 3.0, 3: 4.0}, k_max=2)
    subset, value = greedy_maximize(f)
    assert subset == frozenset({0, 3})
    assert value == 9.0


def test_greedy_full_cardinality_reaches_ground_value():
    f = modular({i: float(i + 1) for i in range(5)}, k_max=5)
    subset, value = greedy_maximize(f)
    assert subset == frozenset(range(5))
    assert value == f.evaluate(frozenset(range(5)))


def test_greedy_stops_at_no_positive_gain():
    f = modular({0: 2.0, 1: -1.0, 2: 0.5}, k_max=3)
    subset, _ = greedy_maximize(f)
    assert subset == frozenset({0, 2})


def test_greedy_tie_breaks_toward_smallest_id():
    f = modular({3: 1.0, 7: 1.0, 9: 1.0}, k_max=2)
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
        f = modular(values, k_max=k)
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
    f = modular({i: 1.0 for i in range(21)}, k_max=2)
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


def test_check_report_json_schema(tmp_path):
    assert run(["check-submodular", "--trials", "10", "--out-dir", str(tmp_path)]) == 0
    blob = json.loads((tmp_path / "submodular_report.json").read_text())
    for name in ("monotone", "submodular"):
        assert set(blob[name]) == {"function", "trials", "passes", "first_witness"}
        assert blob[name]["function"] == name and blob[name]["passes"] == 10


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


def test_reward_marginal_equals_environment_step_reward():
    # dual route: the set-function gain must reproduce the rollout reward
    # of each accepted neighbor, given the neighbors accepted before it
    f, g, v, agg, clf = make_reward_fn(seed=2)
    policy = policy_mod.init_policy(2 * agg.embed_dim, (8, 5), np.random.default_rng(7))
    longest = 0
    for seed in range(20):
        traj = env.pay_rewards(g, env.rollout(g, v, policy, agg, np.random.default_rng(seed)),
                               agg, clf)
        accepted = [t for t in traj.transitions if t.action == 1]
        take = [t.candidate for t in accepted]
        for i, t in enumerate(accepted):
            assert abs(t.reward - f.marginal(t.candidate, frozenset(take[:i]))) < 1e-9
        assert sum(t.reward for t in accepted) == f.order_value(take)
        longest = max(longest, len(take))
    assert longest >= 2


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


# passes and first witness of each check, pinned as exact literals: the draw
# order from rng, the first failing trial and each witness's keys and floats
def _decreasing():
    return LambdaSetFunction(range(6), lambda s: -float(len(s)), k_max=6)


def _supermodular():
    return LambdaSetFunction(range(6), lambda s: float(len(s)) ** 2, k_max=6)


def _reward():
    return make_reward_fn()[0]


@pytest.mark.parametrize("make, check, seed, tol, passes, witness", [
    (_decreasing, check_monotone, 1, 1e-9, 70,
     {"set_a": [0, 2], "set_b": [0, 1, 2, 3, 4, 5], "delta": -4.0}),
    (_supermodular, check_submodular, 4, 1e-9, 87,
     {"item": 1, "set_a": [], "set_b": [0, 2], "gain_a": 1.0, "gain_b": 5.0}),
    (_reward, check_monotone, 0, 1e-9, 200, None),
    (_reward, check_submodular, 0, 1e-9, 200, None),
    (_reward, check_monotone, 0, -1.2, 28,
     {"set_a": [4, 12, 14, 19, 21], "set_b": [2, 4, 12, 14, 16, 19, 21, 49],
      "delta": 0.31915503668224576}),
    (_reward, check_submodular, 0, -0.1, 60,
     {"item": 14, "set_a": [4, 12, 16, 19, 21], "set_b": [2, 4, 12, 16, 19, 21, 22, 49],
      "gain_a": 0.16985643591884786, "gain_b": 0.11962983335991918}),
], ids=["monotone-decreasing", "submodular-supermodular", "monotone-reward", "submodular-reward",
        "monotone-reward-strict", "submodular-reward-strict"])
def test_check_reports_are_pinned(make, check, seed, tol, passes, witness):
    report = check(make(), 200, np.random.default_rng(seed), tol=tol)
    assert (report.trials, report.passes) == (200, passes)
    assert report.first_witness == witness
    assert list(report.first_witness or {}) == list(witness or {})


def test_a_nan_gain_fails_both_checks():
    f = LambdaSetFunction(range(4), lambda s: float("nan") if s else 0.0, k_max=4)
    assert not check_monotone(f, 50, np.random.default_rng(0)).passed
    assert not check_submodular(f, 50, np.random.default_rng(0)).passed
