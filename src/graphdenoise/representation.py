"""Mean-aggregator node embeddings, the softmax classifier, per-node task
scores, and micro-averaged F1.

A node's embedding is act(W @ mean({x_v} union neighbor features)); with no
neighbors the mean collapses to the node's own feature vector. The
classifier is a linear softmax head over embeddings, trained jointly with
the aggregator by cross-entropy on training nodes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

ACTIVATIONS = ("relu", "tanh")


@dataclass
class AggregatorParams:
    W: np.ndarray  # (embed_dim, feature_dim)
    activation: str = "relu"

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def embed_dim(self):
        return self.W.shape[0]

    @property
    def feature_dim(self):
        return self.W.shape[1]

    def copy(self):
        return AggregatorParams(self.W.copy(), self.activation)


@dataclass
class ClassifierParams:
    V: np.ndarray  # (num_classes, embed_dim)

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=np.float64)

    @property
    def num_classes(self):
        return self.V.shape[0]

    def copy(self):
        return ClassifierParams(self.V.copy())


def init_aggregator(embed_dim, feature_dim, rng, activation="relu"):
    return AggregatorParams(nn.glorot(embed_dim, feature_dim, rng), activation)


def init_classifier(num_classes, embed_dim, rng):
    return ClassifierParams(nn.glorot(num_classes, embed_dim, rng))


def _act(agg, z):
    return np.tanh(z) if agg.activation == "tanh" else nn.relu(z)


def _act_grad(agg, z, h):
    return 1.0 - h * h if agg.activation == "tanh" else (z > 0).astype(np.float64)


def mean_with_self(x, neighbor_features):
    """Mean of the node's own features and its neighbors'; self-only if none.

    neighbor_features is an (m, D) array or a list of m length-D rows.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(neighbor_features, dtype=np.float64)
    if len(rows) == 0:
        return x.copy()
    if rows.shape[1:] != x.shape:
        raise ValueError(f"neighbor feature shape {rows.shape[1:]} != {x.shape}")
    return np.vstack([x, rows]).mean(axis=0)


def aggregate(agg, x, neighbor_features):
    """Embed a node from its own features plus a set of neighbor features."""
    m = mean_with_self(x, neighbor_features)
    if m.shape[0] != agg.feature_dim:
        raise ValueError(f"feature dim {m.shape[0]} != aggregator dim {agg.feature_dim}")
    return _act(agg, agg.W @ m)


def embed_means(agg, means):
    """Batch form of aggregate for precomputed mean vectors, shape (m, D)."""
    means = np.asarray(means, dtype=np.float64)
    return _act(agg, means @ agg.W.T)


def classify(clf, h):
    """Class probability vector for one embedding."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != clf.V.shape[1]:
        raise ValueError(f"embedding dim {h.shape[0]} != classifier dim {clf.V.shape[1]}")
    return nn.softmax(clf.V @ h)


def classify_batch(clf, H):
    return nn.softmax(np.asarray(H, dtype=np.float64) @ clf.V.T, axis=1)


def f_c_score(clf, agg, x, neighbor_features, true_label, mode="soft"):
    """Per-node task score in [0, 1] used as the reward building block.

    "soft" returns the predicted probability of the true class; "hard"
    returns 1.0 when the argmax prediction is correct, else 0.0 (the
    one-sample micro-F1).
    """
    if mode not in ("soft", "hard"):
        raise ValueError(f"unknown f_c mode {mode!r}")
    true_label = int(true_label)
    if not 0 <= true_label < clf.num_classes:
        raise ValueError(f"label {true_label} outside [0, {clf.num_classes})")
    probs = classify(clf, aggregate(agg, x, neighbor_features))
    if mode == "hard":
        return 1.0 if int(np.argmax(probs)) == true_label else 0.0
    return float(probs[true_label])


def micro_f1(predictions, labels):
    """Micro-averaged F1 from global TP/FP/FN counts.

    For single-label multi-class input this equals plain accuracy.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ValueError("predictions and labels must be equal-length 1-d arrays")
    if predictions.size == 0:
        raise ValueError("micro_f1 needs at least one sample")
    classes = np.union1d(predictions, labels)
    tp = fp = fn = 0
    for c in classes:
        tp += int(np.sum((predictions == c) & (labels == c)))
        fp += int(np.sum((predictions == c) & (labels != c)))
        fn += int(np.sum((predictions != c) & (labels == c)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def prediction_loss_grads(agg, clf, means, labels):
    """Mean cross-entropy over a batch of precomputed mean vectors.

    Returns (loss, dL/dW, dL/dV) by reverse accumulation through the
    classifier head, the activation, and the aggregator matrix.
    """
    means = np.asarray(means, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    m = means.shape[0]
    z = means @ agg.W.T
    h = _act(agg, z)
    probs = nn.softmax(h @ clf.V.T, axis=1)
    picked = np.clip(probs[np.arange(m), labels], 1e-300, None)
    loss = float(-np.log(picked).mean())

    dlogits = probs.copy()
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    d_v = dlogits.T @ h
    dh = dlogits @ clf.V
    dz = dh * _act_grad(agg, z, h)
    d_w = dz.T @ means
    return loss, d_w, d_v


def node_mean_vectors(graph, node_ids, neighbor_sets):
    """Stack mean_with_self for each node given its selected neighbor ids."""
    means = np.empty((len(node_ids), graph.feature_dim))
    for i, v in enumerate(node_ids):
        means[i] = mean_with_self(graph.features[v],
                                  graph.features[np.asarray(neighbor_sets[v], dtype=np.int64)])
    return means


def train_representation(agg, clf, graph, selected_sets, epochs, batch_size=256,
                         lr=1e-3, rng=None):
    """Fit aggregator + classifier on train-mask nodes over fixed neighbor sets.

    selected_sets maps node id -> ids of the neighbors to aggregate (must be
    a subset of the node's adjacency). Returns (new agg, new clf, per-epoch
    mean loss history); the inputs are not mutated.
    """
    rng = rng or np.random.default_rng(0)
    train_ids = np.flatnonzero(graph.train_mask)
    if train_ids.size == 0:
        raise ValueError("graph has no training nodes")
    for v in train_ids:
        sel = np.asarray(selected_sets[v], dtype=np.int64)
        if sel.size and not np.isin(sel, graph.adjacency[v]).all():
            raise ValueError(f"selected set of node {v} is not a subset of its neighbors")

    agg = agg.copy()
    clf = clf.copy()
    if epochs <= 0:
        return agg, clf, []

    means = node_mean_vectors(graph, train_ids, selected_sets)
    labels = graph.labels[train_ids]
    opt = nn.adam_init([agg.W, clf.V], lr=lr)
    history = []
    for _ in range(int(epochs)):
        order = rng.permutation(train_ids.size)
        total = 0.0
        for start in range(0, train_ids.size, batch_size):
            rows = order[start:start + batch_size]
            loss, d_w, d_v = prediction_loss_grads(agg, clf, means[rows], labels[rows])
            agg.W, clf.V = nn.adam_step(opt, [agg.W, clf.V], [d_w, d_v])
            total += loss * rows.size
        history.append(total / train_ids.size)
    return agg, clf, history


def write_embeddings(path, node_ids, embeddings):
    """Tab-separated export: node id then the embedding values, one node per line."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        for v, row in zip(node_ids, embeddings):
            fh.write("\t".join([str(int(v))] + [repr(float(x)) for x in row]))
            fh.write("\n")
