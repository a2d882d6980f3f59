"""Mean-aggregator node embeddings, the softmax classifier, per-node task
scores, and micro-averaged F1.

A node's embedding is relu(W @ mean). The mean is one running total, the node's
own features plus each kept neighbor's in order, over the count: episodes keep
it as they accept (env.EpisodeState), and node_mean_vectors adds the same rows
in the same order for a batch of CSR kept sets, so both give the same bits. The
fit trains the aggregator and the linear softmax head by cross-entropy on the
means its caller passes. That maths runs only in embed_means and classify_batch.
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


def embed_means(agg, means):
    """Embeddings relu(W m), one row per row of the (m, D) mean vectors; a
    width D other than agg.feature_dim is a ValueError naming both."""
    means = np.asarray(means, dtype=np.float64)
    if means.shape[-1] != agg.feature_dim:
        raise ValueError(f"feature width {means.shape[-1]} != aggregator width {agg.feature_dim}")
    z = means @ agg.W.T
    return np.maximum(z, 0.0, out=z)  # in place: a second buffer slowed the fit


def classify_batch(clf, H):
    return nn.softmax(np.asarray(H, dtype=np.float64) @ clf.V.T)


def f_c_score(clf, agg, x_v, x_u, true_label):
    """Per-neighbor task score in [0, 1], the reward building block: the
    predicted probability of v's true class when v aggregates neighbor u alone."""
    true_label = int(true_label)
    if not 0 <= true_label < clf.num_classes:
        raise ValueError(f"label {true_label} outside [0, {clf.num_classes})")
    return float(classify_batch(clf, embed_means(agg, ((x_v + x_u) / 2)[None]))[0, true_label])


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
    if tp == 0:
        return 0.0
    p = tp / predictions.size  # precision = recall: tp + fp = tp + fn = n
    return 2.0 * p * p / (p + p)


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

    dlogits = probs  # in place: loss and picked no longer read probs
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    d_v = dlogits.T @ h
    dh = dlogits @ clf.V
    dz = dh * (h > 0).astype(np.float64)  # a float mask multiplies faster than a bool
    d_w = dz.T @ means
    return loss, d_w, d_v


def node_mean_vectors(graph, node_ids, kept):
    """Mean of each node's own features and its kept neighbors' (ids
    indices[indptr[i]:indptr[i + 1]] of kept = (indptr, indices) for node_ids[i]).
    np.add.at adds rows one at a time in index order, as an episode's running
    total does; reduceat would sum each segment pairwise and move the last bit."""
    indptr, indices = kept
    counts = np.diff(indptr)
    total = graph.features[node_ids]  # a copy: fancy indexing
    np.add.at(total, np.repeat(np.arange(counts.size), counts), graph.features[indices])
    return total / (counts + 1)[:, None]


def train_representation(agg, clf, means, labels, epochs, batch_size, lr, rng):
    """Fit aggregator + classifier on (m, D) mean vectors and their m labels.

    Returns (new agg, new clf, per-epoch mean loss history). The new holders
    may share arrays with `agg` and `clf`, whose arrays are never written.
    An empty batch, m labels for another m, a width other than
    agg.feature_dim, a label outside the classes or an Adam second moment
    that overflowed during the fit is a ValueError.
    """
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
                (agg.W, clf.V), opt = nn.adam_step(opt, [agg.W, clf.V], [d_w, d_v])
                total += loss * rows.size
            history.append(total / labels.size)
    nn.check_second_moments(opt, "representation fit")
    return agg, clf, history
