import math
import re

import numpy as np
import pytest

from graphdenoise import representation as rep
from graphdenoise.graph import build_graph, generate_planted_partition


def csr(sets):
    """(indptr, indices) kept-set arrays of a list of id lists."""
    indptr = np.cumsum([0] + [len(s) for s in sets])
    return indptr, np.array([u for s in sets for u in s], dtype=np.int64)


def star(x, rows):
    """Node 0 with features x, joined to one node per row of rows."""
    feats = np.vstack([x, np.reshape(rows, (-1, len(x)))])
    n = feats.shape[0]
    return build_graph(n, [(0, u) for u in range(1, n)], feats, [0] * n)


def embed_kept(agg, g, kept):
    """Node 0's embedding through the one mean, keeping the given neighbor ids."""
    return rep.embed_means(agg, rep.node_mean_vectors(g, [0], csr([kept])))[0]


def test_aggregate_empty_neighbors_is_self_embedding():
    rng = np.random.default_rng(0)
    agg = rep.init_aggregator(5, 3, rng)
    x = rng.standard_normal(3)
    g = star(x, rng.standard_normal((2, 3)))
    assert np.allclose(embed_kept(agg, g, []), np.maximum(agg.W @ x, 0.0))


def test_aggregate_identical_neighbors_match_empty_set():
    rng = np.random.default_rng(1)
    agg = rep.init_aggregator(4, 3, rng)
    x = rng.standard_normal(3)
    g = star(x, np.stack([x, x]))
    assert np.allclose(embed_kept(agg, g, [1, 2]), embed_kept(agg, g, []), atol=1e-12)


def test_aggregate_zero_weights_give_zero_embedding():
    agg = rep.AggregatorParams(np.zeros((4, 3)))
    out = embed_kept(agg, star(np.array([9.0, -3.0, 2.0]), np.ones((1, 3))), [1])
    assert np.all(out == 0.0)


def test_aggregate_is_permutation_invariant():
    rng = np.random.default_rng(2)
    agg = rep.init_aggregator(6, 4, rng)
    g = star(rng.standard_normal(4), rng.standard_normal((5, 4)))
    base = embed_kept(agg, g, [1, 2, 3, 4, 5])
    for _ in range(5):
        order = rng.permutation(5) + 1
        assert np.allclose(embed_kept(agg, g, order.tolist()), base, atol=1e-12)


def test_aggregate_rejects_dimension_mismatch():
    agg = rep.AggregatorParams(np.zeros((4, 3)))
    for means in (np.zeros((1, 5)), np.zeros((0, 2))):
        with pytest.raises(ValueError, match=f"feature width {means.shape[1]} != "
                                             "aggregator width 3"):
            rep.embed_means(agg, means)


def test_node_mean_vectors_add_kept_rows_in_order():
    # the segment sum adds each kept row in order onto the node's own, so for
    # D >= 2 it matches the stacked sum(axis=0) mean bit for bit
    g = generate_planted_partition(60, 3, 0.3, 0.05, 5, 1.5, seed=4)
    rng = np.random.default_rng(5)
    nodes = rng.permutation(g.num_nodes)[:40]
    sets = [[u for u in g.neighbors(v) if rng.random() < 0.6] for v in nodes]
    means = rep.node_mean_vectors(g, nodes, csr(sets))
    for v, kept, mean in zip(nodes, sets, means):
        rows = np.concatenate([g.features[v][None], g.features[kept]])
        assert np.array_equal(mean, rows.sum(axis=0) / len(rows))


def test_classify_zero_weights_is_uniform():
    clf = rep.ClassifierParams(np.zeros((4, 3)))
    assert np.allclose(rep.classify_batch(clf, np.ones((1, 3))), 0.25)


def test_classify_saturates_with_huge_margin():
    v = np.zeros((3, 2))
    v[1] = [1e3, 1e3]
    clf = rep.ClassifierParams(v)
    probs = rep.classify_batch(clf, np.ones((1, 2)))[0]
    assert probs[1] > 0.999


def test_classify_matches_straight_line_softmax():
    rng = np.random.default_rng(3)
    clf = rep.init_classifier(4, 5, rng)
    h = rng.standard_normal(5)
    logits = [sum(float(clf.V[i, j]) * float(h[j]) for j in range(5)) for i in range(4)]
    mx = max(logits)
    e = [math.exp(z - mx) for z in logits]
    expected = np.array(e) / sum(e)
    assert np.max(np.abs(rep.classify_batch(clf, h[None])[0] - expected)) < 1e-12


def test_f_c_confident_correct_scores_one():
    agg = rep.AggregatorParams(np.eye(2))
    v = np.array([[1e3, 0.0], [-1e3, 0.0]])
    clf = rep.ClassifierParams(v)
    x = np.array([5.0, 0.0])
    # u = x: (x + x) / 2 is exactly x, so this scores x on its own
    assert rep.f_c_score(clf, agg, x, x, 0) == pytest.approx(1.0, abs=1e-9)


def test_f_c_uniform_classifier_soft_is_one_over_c():
    agg = rep.AggregatorParams(np.eye(3))
    clf = rep.ClassifierParams(np.zeros((3, 3)))
    assert rep.f_c_score(clf, agg, np.ones(3), np.ones(3), 2) == pytest.approx(1 / 3)


def test_f_c_score_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    agg = rep.init_aggregator(4, 3, rng)
    clf = rep.init_classifier(3, 4, rng)
    for _ in range(50):
        s = rep.f_c_score(clf, agg, rng.standard_normal(3),
                          rng.standard_normal(3), int(rng.integers(3)))
        assert 0.0 <= s <= 1.0


def test_f_c_invalid_label_rejected():
    agg = rep.AggregatorParams(np.eye(2))
    clf = rep.ClassifierParams(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rep.f_c_score(clf, agg, np.zeros(2), np.zeros(2), 2)


def test_micro_f1_all_correct_and_all_wrong():
    assert rep.micro_f1([0, 1, 2], [0, 1, 2]) == 1.0
    assert rep.micro_f1([1, 2, 0], [0, 1, 2]) == 0.0


def test_micro_f1_hand_computed_case():
    # confusion counts by hand: tp=3, fp=1, fn=1 -> precision=recall=f1=0.75
    preds = [0, 1, 1, 2]
    labels = [0, 1, 2, 2]
    tp = sum(1 for p, l in zip(preds, labels) if p == l)
    fp = sum(1 for p, l in zip(preds, labels) if p != l)
    fn = fp  # single-label: every miss is one fp and one fn
    expected = 2 * (tp / (tp + fp)) * (tp / (tp + fn)) / ((tp / (tp + fp)) + (tp / (tp + fn)))
    assert expected == 0.75
    assert rep.micro_f1(preds, labels) == pytest.approx(0.75)


def test_micro_f1_equals_accuracy_for_single_label():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        preds = rng.integers(0, 4, size=n)
        labels = rng.integers(0, 4, size=n)
        assert rep.micro_f1(preds, labels) == pytest.approx(float(np.mean(preds == labels)))


def per_class_micro_f1(predictions, labels):
    """Reference micro-F1 that sums TP/FP/FN class by class."""
    tp = fp = fn = 0
    for c in np.union1d(predictions, labels):
        tp += int(np.sum((predictions == c) & (labels == c)))
        fp += int(np.sum((predictions == c) & (labels != c)))
        fn += int(np.sum((predictions != c) & (labels == c)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def test_micro_f1_equals_per_class_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    for _ in range(500):
        classes, n = int(rng.integers(2, 8)), int(rng.integers(1, 40))
        preds = rng.integers(0, classes, size=n)
        labels = rng.integers(0, classes, size=n)
        assert rep.micro_f1(preds, labels) == per_class_micro_f1(preds, labels)


def test_micro_f1_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        rep.micro_f1([], [])
    with pytest.raises(ValueError):
        rep.micro_f1([0, 1], [0])


def _train_means(g):
    """Keep-all mean vectors and labels of g's training nodes."""
    train_ids = np.flatnonzero(g.train_mask)
    sets = csr([g.neighbors(v) for v in train_ids])
    return rep.node_mean_vectors(g, train_ids, sets), g.labels[train_ids]


def test_train_representation_learns_separable_data():
    g = generate_planted_partition(90, 3, 0.3, 0.0, 6, 3.0, seed=0)
    rng = np.random.default_rng(1)
    agg = rep.init_aggregator(8, 6, rng)
    clf = rep.init_classifier(3, 8, rng)
    means, labels = _train_means(g)
    agg, clf, losses = rep.train_representation(agg, clf, means, labels, epochs=100,
                                                batch_size=256, lr=1e-2,
                                                rng=np.random.default_rng(2))
    preds = np.argmax(rep.classify_batch(clf, rep.embed_means(agg, means)), axis=1)
    assert rep.micro_f1(preds, labels) > 0.95
    assert losses[-1] < losses[0]


def test_train_representation_zero_epochs_is_identity():
    g = generate_planted_partition(30, 2, 0.3, 0.0, 4, 1.0, seed=3)
    rng = np.random.default_rng(0)
    agg = rep.init_aggregator(4, 4, rng)
    clf = rep.init_classifier(2, 4, rng)
    agg2, clf2, losses = rep.train_representation(agg, clf, *_train_means(g), epochs=0,
                                                  batch_size=256, lr=1e-3,
                                                  rng=np.random.default_rng(1))
    assert losses == []
    assert np.array_equal(agg2.W, agg.W)
    assert np.array_equal(clf2.V, clf.V)


def test_train_representation_leaves_caller_arrays_untouched():
    # the returned agg and clf are new holders; the caller's arrays keep their bits
    g = generate_planted_partition(30, 2, 0.3, 0.0, 4, 1.0, seed=3)
    rng = np.random.default_rng(0)
    agg = rep.init_aggregator(4, 4, rng)
    clf = rep.init_classifier(2, 4, rng)
    means, labels = _train_means(g)
    arrays = [agg.W, clf.V, means, labels]
    before = [a.copy() for a in arrays]
    agg2, clf2, _ = rep.train_representation(agg, clf, means, labels, epochs=3, batch_size=8,
                                             lr=1e-2, rng=np.random.default_rng(1))
    assert [a.tobytes() for a in arrays] == [a.tobytes() for a in before]
    assert not np.array_equal(agg2.W, agg.W) and not np.array_equal(clf2.V, clf.V)


def test_train_representation_loss_decreases_over_first_epochs():
    curves = []
    for seed in range(5):
        g = generate_planted_partition(60, 2, 0.3, 0.0, 4, 1.5, seed=seed)
        rng = np.random.default_rng(seed + 10)
        agg = rep.init_aggregator(6, 4, rng)
        clf = rep.init_classifier(2, 6, rng)
        _, _, losses = rep.train_representation(agg, clf, *_train_means(g), epochs=10,
                                                batch_size=256, lr=1e-3,
                                                rng=np.random.default_rng(seed))
        assert np.isfinite(losses).all()
        curves.append(losses)
    mean_curve = np.mean(curves, axis=0)
    assert np.all(np.diff(mean_curve) < 0.0)


def test_train_representation_loss_history_is_pinned():
    # a seeded fit's losses as exact floats: any change to the forward, the
    # gradients or Adam's arithmetic shows up as a changed float
    g = generate_planted_partition(60, 3, 0.3, 0.05, 6, 1.5, seed=31)
    rng = np.random.default_rng(32)
    agg = rep.init_aggregator(8, 6, rng)
    clf = rep.init_classifier(3, 8, rng)
    _, _, losses = rep.train_representation(agg, clf, *_train_means(g), epochs=5,
                                            batch_size=16, lr=1e-2,
                                            rng=np.random.default_rng(33))
    assert losses == [1.221160828186611, 1.1315738451123474, 1.0466326318779957,
                      0.9770788619706442, 0.9094115105356422]


@pytest.mark.parametrize("means, labels, named", [
    (np.zeros((0, 3)), np.zeros(0, dtype=np.int64), "non-empty"),
    (np.zeros(3), np.zeros(1, dtype=np.int64), "non-empty"),
    (np.zeros((4, 3)), np.zeros(3, dtype=np.int64), "labels of shape (3,) for 4"),
    (np.zeros((2, 5)), np.zeros(2, dtype=np.int64), "mean width 5 != aggregator dim 3"),
    (np.zeros((2, 3)), np.array([0, 2]), "label 2 outside [0, 2)"),
    (np.zeros((2, 3)), np.array([-1, 0]), "label -1 outside [0, 2)"),
], ids=["empty", "one-d", "length-mismatch", "width", "label-high", "label-negative"])
def test_train_representation_rejects_bad_batches(means, labels, named):
    rng = np.random.default_rng(0)
    agg = rep.init_aggregator(2, 3, rng)
    clf = rep.init_classifier(2, 2, rng)
    with pytest.raises(ValueError, match=re.escape(named)):
        rep.train_representation(agg, clf, means, labels, epochs=1, batch_size=256, lr=1e-3,
                                 rng=np.random.default_rng(1))


def test_prediction_loss_grads_match_finite_differences():
    rng = np.random.default_rng(8)
    agg = rep.init_aggregator(5, 4, rng)
    clf = rep.init_classifier(3, 5, rng)
    means = rng.standard_normal((6, 4))
    labels = rng.integers(0, 3, size=6)

    loss, d_w, d_v = rep.prediction_loss_grads(agg, clf, means, labels)
    h = 1e-5
    for mat, grad in ((agg.W, d_w), (clf.V, d_v)):
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + h
            up = rep.prediction_loss_grads(agg, clf, means, labels)[0]
            mat[idx] = orig - h
            down = rep.prediction_loss_grads(agg, clf, means, labels)[0]
            mat[idx] = orig
            num = (up - down) / (2 * h)
            denom = max(abs(num), abs(grad[idx]), 1e-7)
            assert abs(grad[idx] - num) / denom < 1e-4
