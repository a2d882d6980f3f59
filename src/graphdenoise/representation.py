"""Mean-aggregator node embeddings, the softmax classifier, per-node task
scores, and micro-averaged F1.

A node's embedding is relu(W @ mean({x_v} union neighbor features)); with no
neighbors the mean collapses to the node's own feature vector. node_mean_vectors
is the one place that averages kept sets; the fit trains the aggregator and the
linear softmax head by cross-entropy on the means its caller passes. That maths
runs only in embed_means and classify_batch; single nodes are one-row batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass
class AggregatorParams:
    W: np.ndarray  # (embed_dim, feature_dim)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)

    @property
    def embed_dim(self):
        return self.W.shape[0]

    @property
    def feature_dim(self):
        return self.W.shape[1]


@dataclass
class ClassifierParams:
    V: np.ndarray  # (num_classes, embed_dim)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=np.float64)

    @property
    def num_classes(self):
        return self.V.shape[0]


def init_aggregator(embed_dim, feature_dim, rng):
    return AggregatorParams(nn.glorot(embed_dim, feature_dim, rng))


def init_classifier(num_classes, embed_dim, rng):
    return ClassifierParams(nn.glorot(num_classes, embed_dim, rng))


def mean_with_self(x, rows):
    """Mean of the node's own (D,) features x and its neighbors' (m, D) rows;
    self-only if m is 0."""
    if len(rows) == 0:
        return x.copy()
    if rows.shape[1:] != x.shape:
        raise ValueError(f"neighbor feature shape {rows.shape[1:]} != {x.shape}")
    return np.concatenate([x[None], rows]).sum(axis=0) / (len(rows) + 1)  # mean(0), bit for bit


def aggregate(agg, x, rows):
    """Embed a node from its own (D,) features plus its neighbors' (m, D) rows."""
    m = mean_with_self(x, rows)
    if m.shape[0] != agg.feature_dim:
        raise ValueError(f"feature dim {m.shape[0]} != aggregator dim {agg.feature_dim}")
    return embed_means(agg, m[None])[0]


def embed_means(agg, means):
    """Embeddings relu(W m), one row per row of the (m, D) mean vectors."""
    z = np.asarray(means, dtype=np.float64) @ agg.W.T
    return np.maximum(z, 0.0, out=z)  # in place: a second buffer slowed the fit


def classify_batch(clf, H):
    return nn.softmax(np.asarray(H, dtype=np.float64) @ clf.V.T, axis=1)


def f_c_score(clf, agg, x_v, x_u, true_label):
    """Per-neighbor task score in [0, 1], the reward building block: the
    predicted probability of v's true class when v aggregates neighbor u alone."""
    true_label = int(true_label)
    if not 0 <= true_label < clf.num_classes:
        raise ValueError(f"label {true_label} outside [0, {clf.num_classes})")
    return float(classify_batch(clf, aggregate(agg, x_v, x_u[None])[None])[0, true_label])


def micro_f1(predictions, labels):
    """Micro-averaged F1 from global TP/FP/FN counts.

    With one label per sample every miss is one false positive (for the
    predicted class) and one false negative (for the true class), so this
    equals plain accuracy.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("predictions and labels must be equal-length 1-d arrays")
    if predictions.size == 0:
        raise ValueError("micro_f1 needs at least one sample")
    tp = int(np.sum(predictions == labels))
    fp = fn = predictions.size - tp
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def prediction_loss_grads(agg, clf, means, labels):
    """Mean cross-entropy over a batch of precomputed mean vectors.

    Returns (loss, dL/dW, dL/dV) by reverse accumulation through the
    classifier head, the relu, and the aggregator matrix.
    """
    means = np.asarray(means, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = means.shape[0]
    h = embed_means(agg, means)
    probs = classify_batch(clf, h)
    picked = np.clip(probs[np.arange(m), labels], 1e-300, None)
    loss = float(-np.log(picked).mean())

    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    d_v = dlogits.T @ h
    dh = dlogits @ clf.V
    dz = dh * (h > 0).astype(np.float64)  # a float mask multiplies faster than a bool
    d_w = dz.T @ means
    return loss, d_w, d_v


def node_mean_vectors(graph, node_ids, neighbor_sets):
    """Stack mean_with_self for each node given its selected neighbor ids."""
    means = np.empty((len(node_ids), graph.feature_dim))
    for i, v in enumerate(node_ids):
        means[i] = mean_with_self(graph.features[v],
                                  graph.features[np.asarray(neighbor_sets[v], dtype=np.int64)])
    return means


def train_representation(agg, clf, means, labels, epochs, batch_size=256, lr=1e-3, rng=None):
    """Fit aggregator + classifier on (m, D) mean vectors and their m labels.

    Returns (new agg, new clf, per-epoch mean loss history). The new holders
    may share arrays with `agg` and `clf`, whose arrays are never written.
    An empty batch, m labels for another m, a width other than
    agg.feature_dim, a label outside the classes or an Adam second moment
    that overflowed during the fit is a ValueError.
    """
    rng = rng or np.random.default_rng(0)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"means must be a non-empty (m, D) batch, got shape {means.shape}")
    if labels.shape != means.shape[:1]:
        raise ValueError(f"labels of shape {labels.shape} for {means.shape[0]} mean vectors")
    if means.shape[1] != agg.feature_dim:
        raise ValueError(f"mean width {means.shape[1]} != aggregator dim {agg.feature_dim}")
    outside = labels[(labels < 0) | (labels >= clf.num_classes)]
    if outside.size:
        raise ValueError(f"label {outside[0]} outside [0, {clf.num_classes})")

    agg, clf = AggregatorParams(agg.W), ClassifierParams(clf.V)
    if epochs <= 0:
        return agg, clf, []

    opt = nn.adam_init([agg.W, clf.V], lr=lr)
    history = []
    with np.errstate(over="ignore"):  # an overflowed g * g is named just below
        for _ in range(int(epochs)):
            order = rng.permutation(labels.size)
            total = 0.0
            for start in range(0, labels.size, batch_size):
                rows = order[start:start + batch_size]
                loss, d_w, d_v = prediction_loss_grads(agg, clf, means[rows], labels[rows])
                agg.W, clf.V = nn.adam_step(opt, [agg.W, clf.V], [d_w, d_v])
                total += loss * rows.size
            history.append(total / labels.size)
    nn.check_second_moments(opt, "representation fit")
    return agg, clf, history
