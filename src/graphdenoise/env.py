"""Markov decision process for sequential signal-neighbor selection.

One episode walks a single node's one-hop neighborhood. At each step the
remaining candidates (plus a synthetic ending candidate) are scored,
softmax-sampled to pick which neighbor to decide on next, and the policy
then accepts or rejects it. Accepting neighbor u pays the marginal-value
reward: the node's per-neighbor task score for u divided by the summed
scores of everything selected so far (u included), so the first acceptance
is always worth 1 and later acceptances are worth progressively less.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import policy as policy_mod
from . import representation as rep

END = -1  # sentinel candidate; drawing it ends the episode early

TERMINATED_ENDING = "ending_neighbor"
TERMINATED_EXHAUSTED = "exhausted_candidates"

_DENOM_GUARD = 1e-12


@dataclass
class Transition:
    state: np.ndarray  # s_t = [h_v, h_u], length 2 * embed_dim
    action: int
    reward: float
    log_prob: float
    candidate: int


@dataclass
class Trajectory:
    target: int
    transitions: list
    terminated_by: str


def marginal_reward(score, total):
    """Reward for accepting a neighbor with task score `score` when the
    selected set's scores, that neighbor's included, sum to `total`; 0 if
    the total underflows."""
    return 0.0 if total < _DENOM_GUARD else score / total


@dataclass
class EpisodeState:
    """Mutable bookkeeping for one node's selection episode."""

    target: int
    selected: list  # accepted neighbor ids, in acceptance order
    candidates: list  # not-yet-decided candidate ids; END is last
    h_v: np.ndarray  # current embedding of the target
    current_candidate: int | None = None
    s: np.ndarray | None = None  # state vector for the pending candidate
    cand_embed: dict = field(default_factory=dict)  # candidate id -> h_u
    score_total: float = 0.0  # summed task scores of the selected set

    def accept(self, graph, agg, u):
        """Add u to the selected set and re-embed the target from it."""
        self.selected.append(u)
        self.h_v = rep.aggregate(agg, graph.features[self.target],
                                 graph.features[self.selected])


def init_episode(graph, v, agg):
    """Fresh episode: nothing selected, all neighbors plus END pending."""
    if not 0 <= v < graph.num_nodes:
        raise ValueError(f"node {v} outside [0, {graph.num_nodes})")
    neighbors = [int(u) for u in graph.adjacency[v]]
    cand_embed = {}
    if neighbors:
        embeds = rep.embed_means(agg, graph.features[np.asarray(neighbors)])
        cand_embed = {u: embeds[i] for i, u in enumerate(neighbors)}
    # the ending candidate carries an all-zero feature vector
    cand_embed[END] = rep.aggregate(agg, np.zeros(graph.feature_dim), [])
    candidates = neighbors + [END]
    h_v = rep.aggregate(agg, graph.features[v], [])
    return EpisodeState(target=int(v), selected=[], candidates=candidates,
                        h_v=h_v, cand_embed=cand_embed)


def candidate_state_matrix(state):
    """State vectors [h_v, h_u] for every remaining candidate, row-aligned."""
    if not state.candidates:
        raise ValueError("no remaining candidates")
    return np.vstack([np.concatenate([state.h_v, state.cand_embed[u]])
                      for u in state.candidates])


def regret_scores(state, policy):
    """Selection-priority scalar per remaining candidate (END included).

    The scores come from the policy stack without the final sigmoid, so
    candidate ordering and the accept/reject decision share every weight.
    """
    return policy_mod.policy_scores_batch(policy, candidate_state_matrix(state))


def sample_next_candidate(candidates, scores, rng):
    """Softmax-sample which candidate to decide on next."""
    scores = np.asarray(scores, dtype=np.float64)
    if len(candidates) == 0:
        raise ValueError("cannot sample from an empty candidate set")
    if not np.isfinite(scores).all():
        raise ValueError("non-finite candidate score")
    idx = int(rng.choice(len(candidates), p=nn.softmax(scores)))
    return candidates[idx]


def advance_to_candidate(state, u):
    """Remove u from the pending set and stage it as the current decision."""
    state.candidates.remove(u)
    if u == END:
        state.current_candidate = None
        state.s = None
        return
    state.current_candidate = int(u)
    state.s = np.concatenate([state.h_v, state.cand_embed[u]])


def step(graph, state, action, agg, clf, fc_mode="soft"):
    """Apply the accept/reject decision for the staged candidate.

    Accepting scores the candidate once, adds it to the selected set and
    pays marginal_reward of that score against the selected set's running
    score total. Rejecting pays 0 and leaves h_v alone. Mutates state;
    returns (state, reward).
    """
    if state.current_candidate is None:
        raise ValueError("no staged candidate: episode finished or none drawn")
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action}")
    u = state.current_candidate
    state.current_candidate = None
    if action == 0:
        return state, 0.0
    score = rep.f_c_score(clf, agg, graph.features[state.target], [graph.features[u]],
                          graph.labels[state.target], mode=fc_mode)
    state.score_total += score
    state.accept(graph, agg, u)
    return state, marginal_reward(score, state.score_total)


def rollout(graph, v, policy, agg, clf, rng, max_steps=None, fc_mode="soft"):
    """Run one full episode for node v under the (frozen) parameters.

    Stops when the ending candidate is drawn, the real candidates are
    exhausted, or max_steps decisions have been made.
    """
    state = init_episode(graph, v, agg)
    if max_steps is None:
        max_steps = len(graph.adjacency[v]) + 1
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    transitions = []
    terminated = TERMINATED_EXHAUSTED
    while len(transitions) < max_steps:
        if not any(u != END for u in state.candidates):
            break
        scores = regret_scores(state, policy)
        u = sample_next_candidate(state.candidates, scores, rng)
        score_u = float(scores[state.candidates.index(u)])
        advance_to_candidate(state, u)
        if u == END:
            terminated = TERMINATED_ENDING
            break
        # shared weights make pi(1|s) the sigmoid of the priority score
        prob = float(nn.sigmoid(np.array([score_u]))[0])
        action, log_prob = policy_mod.sample_action(prob, rng)
        s_t = state.s.copy()
        _, reward = step(graph, state, action, agg, clf, fc_mode=fc_mode)
        transitions.append(Transition(state=s_t, action=action, reward=reward,
                                      log_prob=log_prob, candidate=u))
    return Trajectory(target=int(v), transitions=transitions, terminated_by=terminated)


def dump_trajectories(path, trajectories):
    """Debug export: one JSON line per episode."""
    with open(path, "w", encoding="utf-8") as fh:
        for traj in trajectories:
            fh.write(json.dumps({
                "node": traj.target,
                "candidates": [t.candidate for t in traj.transitions],
                "actions": [t.action for t in traj.transitions],
                "rewards": [t.reward for t in traj.transitions],
                "terminated_by": traj.terminated_by,
            }, separators=(",", ":")))
            fh.write("\n")
