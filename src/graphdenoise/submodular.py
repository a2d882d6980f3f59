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
from dataclasses import dataclass

import numpy as np

from . import env

_TOL = 1e-9


class SetFunction:
    """Finite nonempty ground set, a deterministic subset evaluator, a cardinality cap."""

    def __init__(self, ground, k_max):
        self.ground = tuple(sorted(int(g) for g in ground))
        if not self.ground:
            raise ValueError("empty ground set")
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
    def random(cls, rng, n_items, universe_size, k_max):
        """Random monotone submodular instance; items cover elements with probability 0.35."""
        covers = {}
        for i in range(n_items):
            mask = rng.random(universe_size) < 0.35
            if not mask.any():
                mask[rng.integers(universe_size)] = True
            covers[i] = frozenset(np.flatnonzero(mask).tolist())
        weights = {e: float(w) for e, w in enumerate(rng.uniform(0.1, 1.0, universe_size))}
        return cls(covers, weights, k_max)


class SelectionRewardFunction(SetFunction):
    """Accumulated episode reward of a node's neighbor subset.

    Per-item values are the episode's frozen per-neighbor task scores
    (env.task_scores); they are nonnegative, so every single-item
    gain val(c) / (sum over S of val + val(c)) is nonnegative and shrinks
    as S grows, which is exactly what the checkers probe.
    """

    def __init__(self, graph, node, agg, clf):
        neighbors = [int(u) for u in graph.neighbors(node)]
        if not neighbors:
            raise ValueError(f"node {node} has no neighbors to select from")
        super().__init__(neighbors, len(neighbors))
        self.node = int(node)
        self.values = dict(zip(neighbors, env.task_scores(graph, node, neighbors, agg, clf)))

    def order_value(self, sequence):
        """Accumulated reward of accepting the given ids in the given order."""
        return sum(env.marginal_rewards([self.values[u] for u in sequence]))

    def evaluate(self, subset):
        return self.order_value(sorted(subset))

    def marginal(self, item, subset):
        """Episode reward of accepting item when subset is already selected."""
        item = int(item)
        subset = frozenset(subset)
        if item in subset:
            raise ValueError(f"item {item} already selected")
        return env.marginal_rewards([self.values[u] for u in subset] + [self.values[item]])[-1]

    def order_spread(self, subset, rng):
        """Max minus min accumulated reward over the canonical order and 20 drawn from rng.

        Reported, not assumed: quantifies how far the canonical-order value
        is from being insertion-order independent on this subset.
        """
        items = sorted(subset)
        vals = [self.order_value(items)]
        for _ in range(20):
            perm = [items[i] for i in rng.permutation(len(items))]
            vals.append(self.order_value(perm))
        return float(max(vals) - min(vals))


def greedy_maximize(f):
    """Standard greedy: grow by the best marginal gain until the cap or no
    positive gain remains; ties break toward the smallest item id."""
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
    function: str
    trials: int
    passes: int
    first_witness: dict | None

    @property
    def passed(self):
        return self.passes == self.trials


def _run_trials(function, trials, trial):
    """Report of `trials` calls of trial(), which returns None on a pass and its
    witness on a failure; the first failing trial's witness is reported."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    failures = [w for w in (trial() for _ in range(int(trials))) if w is not None]
    return CheckReport(function, int(trials), int(trials) - len(failures),
                       failures[0] if failures else None)


def check_monotone(f, trials, rng, tol=_TOL):
    """Sample random chains A <= B and demand f never loses value along them.

    The difference is accumulated as single-item gains down the chain, which
    telescopes to f(B) - f(A) for ordinary set functions and to the summed
    episode rewards for SelectionRewardFunction.
    """
    def trial():
        perm = [f.ground[i] for i in rng.permutation(len(f.ground))]
        a_cut = int(rng.integers(0, len(perm) + 1))
        b_cut = int(rng.integers(a_cut, len(perm) + 1))
        current = set(perm[:a_cut])
        delta = 0.0
        for c in perm[a_cut:b_cut]:
            delta += f.marginal(c, current)
            current.add(c)
        if not delta >= -tol:  # a NaN fails too
            return {"set_a": sorted(perm[:a_cut]), "set_b": sorted(perm[:b_cut]), "delta": delta}
    return _run_trials("monotone", trials, trial)


def check_submodular(f, trials, rng, tol=_TOL):
    """Sample A <= B and c outside B; demand the gain of c does not grow with
    the base set (diminishing returns)."""
    def trial():
        perm = [f.ground[i] for i in rng.permutation(len(f.ground))]
        c, rest = perm[0], perm[1:]
        a_cut = int(rng.integers(0, len(rest) + 1))
        b_cut = int(rng.integers(a_cut, len(rest) + 1))
        gain_small = f.marginal(c, frozenset(rest[:a_cut]))
        gain_large = f.marginal(c, frozenset(rest[:b_cut]))
        if not gain_small >= gain_large - tol:  # a NaN fails too
            return {"item": c, "set_a": sorted(rest[:a_cut]), "set_b": sorted(rest[:b_cut]),
                    "gain_a": gain_small, "gain_b": gain_large}
    return _run_trials("submodular", trials, trial)
