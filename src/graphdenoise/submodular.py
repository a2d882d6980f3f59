"""Set-function oracles: greedy and exhaustive maximizers plus empirical
monotonicity / diminishing-returns checkers.

The episode reward exposes a set-function view here (SelectionRewardFunction): a
subset's value is the accumulated marginal-value reward of accepting its
members one at a time. Because each acceptance is divided by the running
score total, the accumulated value depends on the insertion order, so the
evaluator fixes a canonical ascending-id order to make it a well-defined
function, and order_spread() reports how much reordering actually moves the
value instead of assuming it does not.

The property checkers work on single-item marginal gains. For an ordinary
set function the gain defaults to evaluate(S + c) - evaluate(S), which makes
the checks the textbook definitions (the monotone check telescopes to
f(B) - f(A) exactly). SelectionRewardFunction overrides the gain with the episode
reward of accepting c on top of S, which is the form in which the
nonnegativity and diminishing-returns guarantees hold identically.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import env
from . import representation as rep

_TOL = 1e-9


class SetFunction:
    """Finite ground set, a deterministic subset evaluator, a cardinality cap."""

    def __init__(self, ground, k_max):
        self.ground = tuple(sorted(int(g) for g in ground))
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground set contains duplicates")
        self.k_max = int(k_max)
        if self.k_max < 1:
            raise ValueError(f"cardinality cap must be >= 1, got {k_max}")

    def evaluate(self, subset):
        raise NotImplementedError

    def marginal(self, item, subset):
        """Gain of adding item to subset; defaults to the evaluate difference."""
        subset = frozenset(subset)
        return self.evaluate(subset | {item}) - self.evaluate(subset)


class LambdaSetFunction(SetFunction):
    def __init__(self, ground, fn, k_max):
        super().__init__(ground, k_max)
        self._fn = fn

    def evaluate(self, subset):
        return float(self._fn(frozenset(subset)))


class ModularFunction(SetFunction):
    """Additive item values; the textbook case where greedy is exactly optimal."""

    def __init__(self, values, k_max):
        super().__init__(values.keys(), k_max)
        self.values = {int(k): float(v) for k, v in values.items()}

    def evaluate(self, subset):
        return sum(self.values[i] for i in subset)


class CoverageFunction(SetFunction):
    """Weighted coverage: f(A) = total weight of universe elements covered by A."""

    def __init__(self, item_covers, weights, k_max):
        super().__init__(item_covers.keys(), k_max)
        self.item_covers = {int(k): frozenset(v) for k, v in item_covers.items()}
        self.weights = {int(k): float(w) for k, w in weights.items()}

    def evaluate(self, subset):
        covered = set()
        for i in subset:
            covered |= self.item_covers[i]
        return sum(self.weights[e] for e in covered)

    @classmethod
    def random(cls, rng, n_items, universe_size, k_max, density=0.35):
        """Random monotone submodular instance for bound tests."""
        covers = {}
        for i in range(n_items):
            mask = rng.random(universe_size) < density
            if not mask.any():
                mask[rng.integers(universe_size)] = True
            covers[i] = frozenset(np.flatnonzero(mask).tolist())
        weights = {e: float(w) for e, w in enumerate(rng.uniform(0.1, 1.0, universe_size))}
        return cls(covers, weights, k_max)


class SelectionRewardFunction(SetFunction):
    """Accumulated episode reward of a node's neighbor subset.

    Per-item values are the frozen per-neighbor task scores
    f_c(aggregate(x_v, {x_u})); they are nonnegative, so every single-item
    gain val(c) / (sum over S of val + val(c)) is nonnegative and shrinks
    as S grows, which is exactly what the checkers probe.
    """

    def __init__(self, graph, node, agg, clf, fc_mode="soft", k_max=None):
        neighbors = [int(u) for u in graph.adjacency[node]]
        if not neighbors:
            raise ValueError(f"node {node} has no neighbors to select from")
        super().__init__(neighbors, k_max if k_max is not None else len(neighbors))
        self.node = int(node)
        self.values = {
            u: rep.f_c_score(clf, agg, graph.features[node], [graph.features[u]],
                             graph.labels[node], mode=fc_mode)
            for u in neighbors
        }

    def order_value(self, sequence):
        """Accumulated reward of accepting the given ids in the given order."""
        rewards = []
        acc = 0.0
        for u in sequence:
            acc += self.values[u]
            rewards.append(env.marginal_reward(self.values[u], acc))
        return sum(rewards)

    def evaluate(self, subset):
        return self.order_value(sorted(subset))

    def marginal(self, item, subset):
        """Episode reward of accepting item when subset is already selected."""
        item = int(item)
        subset = frozenset(subset)
        if item in subset:
            raise ValueError(f"item {item} already selected")
        total = sum(self.values[u] for u in subset) + self.values[item]
        return env.marginal_reward(self.values[item], total)

    def order_spread(self, subset, rng, permutations=20):
        """Max minus min accumulated reward over sampled insertion orders.

        Reported, not assumed: quantifies how far the canonical-order value
        is from being insertion-order independent on this subset.
        """
        items = sorted(subset)
        if len(items) < 2:
            return 0.0
        vals = [self.order_value(items)]
        for _ in range(permutations):
            perm = [items[i] for i in rng.permutation(len(items))]
            vals.append(self.order_value(perm))
        return float(max(vals) - min(vals))


def greedy_maximize(f):
    """Standard greedy: grow by the best marginal gain until the cap or no
    positive gain remains; ties break toward the smallest item id."""
    if not f.ground:
        raise ValueError("empty ground set")
    chosen = set()
    for _ in range(min(f.k_max, len(f.ground))):
        best_item, best_gain = None, -np.inf
        # ground is sorted, so strict > keeps the smallest id on ties
        for c in f.ground:
            if c in chosen:
                continue
            gain = f.marginal(c, chosen)
            if gain > best_gain:
                best_item, best_gain = c, gain
        if best_item is None or best_gain <= 0.0:
            break
        chosen.add(best_item)
    chosen = frozenset(chosen)
    return chosen, f.evaluate(chosen)


def brute_force_optimal(f):
    """Exhaustive maximizer over all subsets of size <= k_max (ground <= 20)."""
    if not f.ground:
        raise ValueError("empty ground set")
    if len(f.ground) > 20:
        raise ValueError(f"ground set too large for brute force: {len(f.ground)} > 20")
    best_set = frozenset()
    best_val = f.evaluate(best_set)
    for size in range(1, min(f.k_max, len(f.ground)) + 1):
        for combo in itertools.combinations(f.ground, size):
            val = f.evaluate(frozenset(combo))
            if val > best_val:
                best_set, best_val = frozenset(combo), val
    return best_set, best_val


@dataclass
class CheckReport:
    name: str
    trials: int
    passes: int
    first_witness: dict | None

    @property
    def passed(self):
        return self.passes == self.trials

    def to_json(self):
        return json.dumps({"function": self.name, "trials": self.trials,
                           "passes": self.passes, "first_witness": self.first_witness},
                          separators=(",", ":"))


def _random_chain(ground, rng):
    perm = [ground[i] for i in rng.permutation(len(ground))]
    a_cut = int(rng.integers(0, len(ground) + 1))
    b_cut = int(rng.integers(a_cut, len(ground) + 1))
    return perm, a_cut, b_cut


def check_monotone(f, trials, rng, tol=_TOL):
    """Sample random chains A <= B and demand f never loses value along them.

    The difference is accumulated as single-item gains down the chain, which
    telescopes to f(B) - f(A) for ordinary set functions and to the summed
    episode rewards for SelectionRewardFunction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    passes = 0
    witness = None
    for _ in range(int(trials)):
        perm, a_cut, b_cut = _random_chain(f.ground, rng)
        current = set(perm[:a_cut])
        delta = 0.0
        for i in range(a_cut, b_cut):
            delta += f.marginal(perm[i], current)
            current.add(perm[i])
        if delta >= -tol:
            passes += 1
        elif witness is None:
            witness = {"set_a": sorted(perm[:a_cut]), "set_b": sorted(perm[:b_cut]),
                       "delta": delta}
    return CheckReport("monotone", int(trials), passes, witness)


def check_submodular(f, trials, rng, tol=_TOL):
    """Sample A <= B and c outside B; demand the gain of c does not grow with
    the base set (diminishing returns)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if len(f.ground) < 1:
        raise ValueError("empty ground set")
    passes = 0
    witness = None
    for _ in range(int(trials)):
        perm = [f.ground[i] for i in rng.permutation(len(f.ground))]
        c, rest = perm[0], perm[1:]
        a_cut = int(rng.integers(0, len(rest) + 1))
        b_cut = int(rng.integers(a_cut, len(rest) + 1))
        gain_small = f.marginal(c, frozenset(rest[:a_cut]))
        gain_large = f.marginal(c, frozenset(rest[:b_cut]))
        if gain_small >= gain_large - tol:
            passes += 1
        elif witness is None:
            witness = {"item": c, "set_a": sorted(rest[:a_cut]), "set_b": sorted(rest[:b_cut]),
                       "gain_a": gain_small, "gain_b": gain_large}
    return CheckReport("submodular", int(trials), passes, witness)
