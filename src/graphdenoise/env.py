"""Markov decision process for sequential signal-neighbor selection.

One episode walks a single node's one-hop neighborhood, held in an
EpisodeState of states [h_v, h_u] (width state_dim), where h_v embeds the mean
of a running feature total (representation's one mean). At each step the pending
candidates (plus a synthetic ending candidate), whose rows sit compacted at the
front of the table, are scored in place, one is taken, and the policy accepts or
rejects it by the sigmoid of its score. Both walkers live here: rollout
softmax-samples the order for training and records decisions only,
greedy_select decodes any node in priority order. pay_rewards then pays each
accept the marginal-value reward (marginal_rewards): its per-neighbor task
score (task_scores, also the set-function view's) over the summed scores of
everything selected so far, itself included, so the first acceptance is worth 1
and later ones progressively less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import policy as policy_mod
from . import representation as rep

END = -1  # sentinel candidate; drawing it ends the episode early

TERMINATED_ENDING = "ending_neighbor"
TERMINATED_EXHAUSTED = "exhausted_candidates"

_DENOM_GUARD = 1e-12


def state_dim(embed_dim):
    """Width of a state [h_v, h_u], the policy's input."""
    return 2 * embed_dim


@dataclass
class Transition:
    state: np.ndarray  # s_t = [h_v, h_u], length state_dim(embed_dim)
    action: int
    reward: float
    log_prob: float
    candidate: int


@dataclass
class Trajectory:
    target: int
    transitions: list
    terminated_by: str


def marginal_rewards(scores):
    """Reward of each accept given the task scores in acceptance order: its score
    over the running total (its own included), 0 while that total underflows."""
    rewards, total = [], 0.0
    for score in scores:
        total += score
        rewards.append(0.0 if total < _DENOM_GUARD else score / total)
    return rewards


@dataclass
class EpisodeState:
    """Mutable bookkeeping for one node's selection episode."""

    selected: list  # accepted neighbor ids, in acceptance order
    total: np.ndarray  # the target's features plus each accepted neighbor's, in that order
    candidates: list  # not-yet-decided candidate ids; END is last
    table: np.ndarray  # row i: candidates[i]'s state [h_v, h_u] (END's [h_v, 0]); taken rows trail

    def candidate_scores(self, policy):
        """Priority score and state row [h_v, h_u] (a view the next take overwrites) of
        every pending candidate; the accept probability is the score's sigmoid, so
        ordering and the accept/reject decision share every weight of the policy."""
        states = self.table[:len(self.candidates)]
        scores = policy_mod.policy_scores_batch(policy, states)
        if not np.isfinite(scores).all():
            raise ValueError("non-finite candidate score")
        return scores, states

    def take(self, i):
        """Remove pending candidate i, shifting the rows below its row up one; returns its id."""
        self.table[i:len(self.candidates) - 1] = self.table[i + 1:len(self.candidates)]
        return self.candidates.pop(i)

    def accept(self, graph, agg, u):
        """Add u to the selected set and re-embed every row's h_v from total / (k + 1)."""
        self.selected.append(u)
        self.total += graph.features[u]
        mean = self.total / (len(self.selected) + 1)
        self.table[:, :agg.embed_dim] = rep.embed_means(agg, mean[None])[0]


def init_episode(graph, v, agg):
    """Fresh episode: nothing selected, all neighbors plus END pending."""
    if not 0 <= v < graph.num_nodes:
        raise ValueError(f"node {v} outside [0, {graph.num_nodes})")
    neighbors = graph.neighbors(v)
    # END carries an all-zero feature vector, so its embedding relu(W 0) is zero
    table = np.zeros((neighbors.size + 1, state_dim(agg.embed_dim)))
    table[:-1, agg.embed_dim:] = rep.embed_means(agg, graph.features[neighbors])
    table[:, :agg.embed_dim] = rep.embed_means(agg, graph.features[v][None])[0]
    return EpisodeState(selected=[], total=graph.features[v].copy(),
                        candidates=neighbors.tolist() + [END], table=table)


def rollout(graph, v, policy, agg, rng):
    """Walk one full episode for node v under the (frozen) policy.

    Records every decision with reward 0; pay_rewards prices the accepts.
    Stops when the ending candidate is drawn or the real candidates are
    exhausted, so an episode makes at most deg(v) decisions.
    """
    state = init_episode(graph, v, agg)
    transitions = []
    terminated = TERMINATED_EXHAUSTED
    while len(state.candidates) > 1:
        scores, states = state.candidate_scores(policy)
        cdf = nn.softmax(scores).cumsum()  # rng.choice(p=softmax)'s draw, without its checks
        i = int((cdf / cdf[-1]).searchsorted(rng.random(), side="right"))
        row = states[i].copy()
        u = state.take(i)
        if u == END:
            terminated = TERMINATED_ENDING
            break
        action, log_prob = policy_mod.sample_action(nn.sigmoid(scores[i]), rng)
        if action == 1:
            state.accept(graph, agg, u)
        transitions.append(Transition(state=row, action=action, reward=0.0,
                                      log_prob=log_prob, candidate=u))
    return Trajectory(target=int(v), transitions=transitions, terminated_by=terminated)


def greedy_select(graph, v, policy, agg):
    """Deterministic decode of a node's kept neighbors.

    The top-priority candidate is kept while its selection probability is
    >= 0.5; END, exhaustion or the first reject stops the decode. A reject
    leaves h_v and every pending score unchanged and the sigmoid is monotone,
    so no later candidate could be accepted. Never touches labels, so it is
    safe for val/test nodes.
    """
    state = init_episode(graph, v, agg)
    while len(state.candidates) > 1:
        scores, _ = state.candidate_scores(policy)
        i = int(np.argmax(scores))
        u = state.take(i)
        if u == END or nn.sigmoid(scores[i]) < 0.5:
            break
        state.accept(graph, agg, u)
    return state.selected


def task_scores(graph, v, candidates, agg, clf):
    """Task score f_c of each candidate for target v, in order; the only scorer of a pair."""
    x_v, label = graph.features[v], graph.labels[v]
    return [rep.f_c_score(clf, agg, x_v, graph.features[u], label) for u in candidates]


def pay_rewards(graph, traj, agg, clf):
    """Score each accept of traj once with task_scores and set its reward in
    place from marginal_rewards (rejects keep 0); returns traj."""
    accepts = [t for t in traj.transitions if t.action == 1]
    scores = task_scores(graph, traj.target, [t.candidate for t in accepts], agg, clf)
    for t, reward in zip(accepts, marginal_rewards(scores)):
        t.reward = reward
    return traj
