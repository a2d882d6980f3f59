"""Input generators for the benchmark workloads.

The Cora-shaped graphs are built only through the library's public
``build_graph`` and ``inject_edge_noise``. Each generator returns the clean
graph alongside the noisy one, so the benchmark knows which edges were
injected without asking the program.
"""

from __future__ import annotations

import numpy as np

from graphdenoise.graph import NoiseSpec, build_graph, generate_planted_partition, inject_edge_noise

NOISE_RATE = 0.3  # injected cross-class edges as a share of clean edges

# Cora-shaped synthetic graph. Published figures for Cora (Planetoid release):
# 2,708 nodes, 5,278 undirected edges (mean degree 3.9), 7 classes, largest
# degree 168; edge homophily 0.81 (Zhu et al., "Beyond Homophily in Graph
# Neural Networks", NeurIPS 2020).
CORA_CLASSES = 7
CORA_HOMOPHILY = 0.81  # share of edge draws that join same-class nodes
# CORA_MEAN_DEGREE * n / 2 edges are drawn; 4.0 is above Cora's 3.9 because
# duplicate draws collapse (5,273 edges on average over seeds 0-4 of 2,800 nodes).
CORA_MEAN_DEGREE = 4.0
# Chung-Lu exponent, chosen so that the largest degree matches Cora's 168
# (164-183 over seeds 0-4 of 2,800 nodes); no published exponent is used.
CORA_POWER = 2.5
# Features are a chosen model, not Cora's 1,433-dim bag of words: a 32-dim
# Gaussian around a class mean of norm CORA_STRENGTH.
CORA_DIM = 32
CORA_STRENGTH = 1.0


def planted_partition_pair(seed):
    """The acceptance-gate 4/5 input: (clean, noisy) 200-node planted partition."""
    clean = generate_planted_partition(200, 2, 0.1, 0.0, 8, 1.0, seed=seed)
    noisy = inject_edge_noise(clean, NoiseSpec(edge_noise_rate=NOISE_RATE, seed=seed + 1000))
    return clean, noisy


def cora_shaped_pair(num_nodes, seed):
    """(clean, noisy) heavy-tailed, homophilous graph with 7 classes.

    Expected degrees follow fixed Chung-Lu weights w_i ~ (i + 1)^(-1/(power - 1))
    assigned to nodes in a seeded random order, so every seed has the same
    degree profile (the largest hub has ~45x the mean degree) while node
    identities, labels, features and edges change with the seed. Class means
    are fixed orthogonal directions, so parameters trained on one graph from
    this generator apply to another of the same dimensions.
    """
    rng = np.random.default_rng(seed)
    n = int(num_nodes)
    labels = rng.permutation(np.arange(n) % CORA_CLASSES)
    weights = np.empty(n)
    weights[rng.permutation(n)] = (np.arange(n) + 1.0) ** (-1.0 / (CORA_POWER - 1.0))

    num_draws = int(round(CORA_MEAN_DEGREE * n / 2))
    src = rng.choice(n, size=num_draws, p=weights / weights.sum())
    same = rng.random(num_draws) < CORA_HOMOPHILY
    dst = np.empty(num_draws, dtype=np.int64)
    for c in range(CORA_CLASSES):
        members = np.flatnonzero(labels == c)
        others = np.flatnonzero(labels != c)
        for pool, pick in ((members, same), (others, ~same)):
            rows = np.flatnonzero((labels[src] == c) & pick)
            p = weights[pool] / weights[pool].sum()
            dst[rows] = pool[rng.choice(pool.size, size=rows.size, p=p)]
    edges = np.stack([src, dst], axis=1)

    means = np.zeros((CORA_CLASSES, CORA_DIM))
    means[np.arange(CORA_CLASSES), np.arange(CORA_CLASSES)] = CORA_STRENGTH
    features = means[labels] + rng.standard_normal((n, CORA_DIM))

    clean = build_graph(n, edges.tolist(), features, labels, split_seed=seed)
    noisy = inject_edge_noise(clean, NoiseSpec(edge_noise_rate=NOISE_RATE, seed=seed + 1000))
    return clean, noisy
