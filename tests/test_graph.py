import hashlib
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdenoise.graph import (Graph, GraphError, NoiseSpec, build_graph,
                                corrupt_features, generate_planted_partition,
                                inject_edge_noise, load_graph, save_graph_json,
                                stratified_split, validate_graph, write_edge_list, write_json)


def graphs_equal(a, b):
    return (a.num_nodes == b.num_nodes
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.train_mask, b.train_mask)
            and np.array_equal(a.val_mask, b.val_mask)
            and np.array_equal(a.test_mask, b.test_mask))


def test_smallest_symmetric_case():
    g = build_graph(2, [(0, 1)], [[1.0], [2.0]], [0, 1])
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0]
    assert g.num_edges == 1


def test_directed_input_is_symmetrized_and_deduped():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1), (2, 1)], np.eye(3), [0, 0, 1])
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0, 2]
    assert g.num_edges == 2


def test_dangling_edge_id_rejected():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 5)], np.eye(3), [0, 0, 1])


def test_feature_row_count_must_match():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1)], np.eye(2), [0, 0, 1])


def test_self_loops_dropped():
    g = build_graph(2, [(0, 0), (0, 1)], np.eye(2), [0, 1])
    assert g.neighbors(0).tolist() == [1]


def test_masks_must_be_disjoint():
    m = np.array([True, False])
    with pytest.raises(GraphError):
        build_graph(2, [(0, 1)], np.eye(2), [0, 1],
                    masks={"train": m, "val": m, "test": ~m})


def test_stratified_split_is_60_20_20():
    labels = np.repeat([0, 1], 100)
    train, val, test = stratified_split(labels, rng=np.random.default_rng(0))
    for c in (0, 1):
        ids = labels == c
        assert train[ids].sum() == 60
        assert val[ids].sum() == 20
        assert test[ids].sum() == 20
    assert not np.any(train & val) and not np.any(train & test) and not np.any(val & test)


def test_planted_partition_extremes_give_two_cliques():
    g = generate_planted_partition(4, 2, 1.0, 0.0, 2, 10.0, seed=0)
    assert g.edge_set() == {(0, 1), (2, 3)}
    # class means are far apart relative to unit noise
    gap = g.features[:2, 0].mean() - g.features[2:, 0].mean()
    assert gap > 5.0


def test_planted_partition_edge_count_matches_expectation():
    # expected within-class edges: 2 * C(100, 2) * 0.1 = 990
    counts = [generate_planted_partition(200, 2, 0.1, 0.0, 4, 1.0, seed=s).num_edges
              for s in range(20)]
    assert abs(np.mean(counts) - 990.0) / 990.0 < 0.05


def test_planted_partition_deterministic():
    a = generate_planted_partition(60, 3, 0.3, 0.05, 5, 1.0, seed=42)
    b = generate_planted_partition(60, 3, 0.3, 0.05, 5, 1.0, seed=42)
    assert graphs_equal(a, b)


def test_planted_partition_memory_is_linear_in_nodes():
    # all n(n - 1)/2 pairs at 3,000 nodes take 72 MB of int64 indices alone
    tracemalloc.start()
    try:
        g = generate_planted_partition(3000, 2, 0.01, 0.0, 8, 1.0, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_edges > 0
    assert peak < 30 * 2**20


# sha256 of save_graph_json for the gate-4/5 graphs (200 nodes plus 30% edge noise)
GATE_GRAPH_DIGESTS = {
    0: "6946039208911736ef776b0b1a22e898734998d796b2c422ffcdfafc928abef0",
    1: "e7da1e079de41a7277bb32c8ec5385c703d473c149a85c76c8d17bd416b44cb5",
    2: "86e27909683bc2020b92decad62381d018062f6e1af7424854d20e079b3fcc0c",
    3: "ccbc1949635aa7238f68f3e9d6e335eb974e5448c78c559caec2b45b45c61bd3",
    4: "b5c10d1bfe853c5516b84a60f3c2c4bbfc5bd43d9e72675fe837c15e3ff545c8",
}


@pytest.mark.parametrize("seed", sorted(GATE_GRAPH_DIGESTS))
def test_gate_graphs_are_pinned(tmp_path, seed):
    clean = generate_planted_partition(200, 2, 0.1, 0.0, 8, 1.0, seed=seed)
    save_graph_json(inject_edge_noise(clean, NoiseSpec(edge_noise_rate=0.3, seed=seed + 1000)),
                    tmp_path / "gate.json")
    digest = hashlib.sha256((tmp_path / "gate.json").read_bytes()).hexdigest()
    assert digest == GATE_GRAPH_DIGESTS[seed]


def test_planted_partition_validates_inputs():
    with pytest.raises(GraphError):
        generate_planted_partition(10, 2, 0.1, 0.5, 4, 1.0, seed=0)  # p_out > p_in
    with pytest.raises(GraphError):
        generate_planted_partition(10, 3, 0.5, 0.1, 4, 1.0, seed=0)  # n % classes
    with pytest.raises(GraphError):
        generate_planted_partition(10, 5, 0.5, 0.1, 3, 1.0, seed=0)  # dim < classes
    for n, classes, named in ((10, 0, "classes"), (10, -1, "classes"), (-2, 2, "n")):
        with pytest.raises(GraphError, match=f"{named} must be"):
            generate_planted_partition(n, classes, 0.5, 0.1, 4, 1.0, seed=0)


def test_generated_graphs_always_pass_invariants():
    for s in range(10):
        g = generate_planted_partition(30, 3, 0.5, 0.2, 4, 1.0, seed=s)
        validate_graph(g)
        for u in range(g.num_nodes):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)
                assert v != u


def test_edge_noise_zero_rate_is_identity():
    g = generate_planted_partition(40, 2, 0.3, 0.0, 4, 1.0, seed=1)
    assert graphs_equal(inject_edge_noise(g, NoiseSpec(edge_noise_rate=0.0, seed=3)), g)


def test_edge_noise_adds_exact_count_of_cross_class_edges():
    g = generate_planted_partition(100, 2, 0.42, 0.0, 4, 1.0, seed=7)
    noisy = inject_edge_noise(g, NoiseSpec(edge_noise_rate=0.3, seed=5))
    added = noisy.edge_set() - g.edge_set()
    assert len(added) == round(0.3 * g.num_edges)
    assert noisy.edge_set() >= g.edge_set()  # originals untouched
    for u, v in added:
        assert noisy.labels[u] != noisy.labels[v]
    assert np.array_equal(noisy.labels, g.labels)
    assert np.array_equal(noisy.features, g.features)


def test_edge_noise_deterministic():
    g = generate_planted_partition(50, 2, 0.4, 0.0, 4, 1.0, seed=2)
    spec = NoiseSpec(edge_noise_rate=0.25, seed=9)
    assert graphs_equal(inject_edge_noise(g, spec), inject_edge_noise(g, spec))


def test_edge_noise_insufficient_pairs_rejected():
    # complete bipartite between the two classes: no absent cross pair remains
    edges = [(u, v) for u in range(2) for v in range(2, 4)]
    g = build_graph(4, edges, np.eye(4), [0, 0, 1, 1])
    with pytest.raises(GraphError):
        inject_edge_noise(g, NoiseSpec(edge_noise_rate=0.5, seed=0))


def dense_edge_noise(g, spec):
    """Reference sampler: list every free cross-class pair (u < v) in row-major
    order with an n x n adjacency matrix, then draw k of them."""
    k = int(round(spec.edge_noise_rate * g.num_edges))
    if k == 0:
        return g
    iu, ju = np.triu_indices(g.num_nodes, k=1)
    adj = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
    adj[tuple(np.array(g.edge_list(), dtype=np.int64).reshape(-1, 2).T)] = True
    free = (g.labels[iu] != g.labels[ju]) & ~adj[iu, ju]
    available = int(free.sum())
    if k > available:
        raise GraphError(f"cannot add {k} cross-class edges, only {available} pairs are absent")
    pick = np.random.default_rng(spec.seed).choice(available, size=k, replace=False)
    added = np.stack([iu[free][pick], ju[free][pick]], axis=1)
    return build_graph(g.num_nodes, g.edge_list() + added.tolist(), g.features, g.labels,
                       masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 40) | st.integers(150, 300), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.0, 1.0), rate=st.floats(0.0, 1.0) | st.just(1.0),
       classes=st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
def test_edge_noise_matches_dense_reference(n, seed, density, rate, classes):
    # up to 40 nodes rng.choice always runs Floyd's algorithm; 150-300 nodes
    # give it over 10,000 pairs, where a draw of more than 1/50 of them runs a
    # tail shuffle instead; labels need not be contiguous
    rng = np.random.default_rng(seed)
    m = int(density * min(n * (n - 1) / 2, 4 * n))  # sparse: many isolated nodes
    g = build_graph(n, rng.integers(0, n, (m, 2)), np.zeros((n, 1)), rng.choice(classes, n))
    spec = NoiseSpec(edge_noise_rate=rate, seed=seed % 1000)
    try:
        expected = dense_edge_noise(g, spec)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            inject_edge_noise(g, spec)
        assert str(got.value) == str(exc)
        return
    noisy = inject_edge_noise(g, spec)
    assert noisy.indptr.tobytes() == expected.indptr.tobytes()
    assert noisy.indices.tobytes() == expected.indices.tobytes()


def random_graph(n, avg_degree, classes, seed):
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, (avg_degree * n // 2, 2))
    return build_graph(n, edges, rng.standard_normal((n, 4)), rng.integers(0, classes, n))


def test_edge_noise_on_a_large_graph_adds_distinct_free_cross_class_edges():
    g = random_graph(3200, 4, 7, seed=3)
    spec = NoiseSpec(edge_noise_rate=0.5, seed=11)
    noisy = inject_edge_noise(g, spec)
    added = noisy.edge_set() - g.edge_set()
    assert noisy.edge_set() >= g.edge_set()
    assert len(added) == noisy.num_edges - g.num_edges == round(0.5 * g.num_edges)
    assert all(g.labels[u] != g.labels[v] for u, v in added)
    assert graphs_equal(inject_edge_noise(g, spec), noisy)


def test_edge_noise_memory_is_linear_in_graph_size():
    # at 3,000 nodes an n x n adjacency matrix takes 9 MB, and the two int64
    # index arrays of all n(n - 1)/2 pairs take 72 MB
    g = random_graph(3000, 4, 7, seed=4)
    tracemalloc.start()
    try:
        inject_edge_noise(g, NoiseSpec(edge_noise_rate=1.0, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_noise_spec_rates_validated():
    with pytest.raises(GraphError):
        NoiseSpec(edge_noise_rate=1.5)
    with pytest.raises(GraphError):
        NoiseSpec(feature_corrupt_rate=-0.1)


def test_corrupt_features_zero_and_full_rates():
    g = generate_planted_partition(20, 2, 0.3, 0.0, 5, 1.0, seed=3)
    same = corrupt_features(g, NoiseSpec(feature_corrupt_rate=0.0, seed=1))
    assert np.array_equal(same.features, g.features)
    wiped = corrupt_features(g, NoiseSpec(feature_corrupt_rate=1.0, seed=1))
    assert np.all(wiped.features == 0.0)


def test_corrupt_features_exact_count():
    g = build_graph(10, [(0, 1)], np.ones((10, 10)), [0] * 10)
    out = corrupt_features(g, NoiseSpec(feature_corrupt_rate=0.5, seed=4))
    assert int((out.features == 0.0).sum()) == 50
    again = corrupt_features(g, NoiseSpec(feature_corrupt_rate=0.5, seed=4))
    assert np.array_equal(out.features, again.features)


def test_corrupt_features_randomize_mode():
    g = build_graph(4, [(0, 1)], np.zeros((4, 4)), [0] * 4)
    out = corrupt_features(g, NoiseSpec(feature_corrupt_rate=0.5, seed=4), mode="randomize")
    assert int((out.features != 0.0).sum()) == 8


def test_corrupt_features_rejects_an_unknown_mode():
    g = build_graph(2, [(0, 1)], np.eye(2), [0, 1])
    with pytest.raises(GraphError, match="unknown corruption mode 'bogus'"):
        corrupt_features(g, NoiseSpec(feature_corrupt_rate=0.5), mode="bogus")


def test_json_round_trip(tmp_path):
    g = generate_planted_partition(30, 2, 0.4, 0.1, 4, 1.0, seed=6)
    path = tmp_path / "g.json"
    save_graph_json(g, path)
    assert graphs_equal(load_graph(path), g)
    # deterministic bytes
    path2 = tmp_path / "g2.json"
    save_graph_json(g, path2)
    assert path.read_bytes() == path2.read_bytes()


def compact(obj):
    """The one-shot encoding every JSON artifact must equal, byte for byte."""
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def graph_blob(g):
    """save_graph_json's object, every array as nested lists."""
    return {"n": g.num_nodes, "edges": [[u, v] for u, v in g.edge_list()],
            "features": [row.tolist() for row in g.features], "labels": g.labels.tolist(),
            "masks": {"train": g.train_mask.tolist(), "val": g.val_mask.tolist(),
                      "test": g.test_mask.tolist()}}


@pytest.mark.parametrize("n, dim", [(0, 3), (1, 1), (7, 1), (256, 2), (257, 1), (1025, 3)])
def test_save_graph_json_bytes_are_the_one_shot_encoding(tmp_path, n, dim):
    # the feature table is written in blocks of rows; counts on, past and across
    # several block edges, D = 1 and extreme floats must not move a byte
    rng = np.random.default_rng(n)
    features = rng.standard_normal((n, dim))
    features.ravel()[:3] = [-0.0, 1e-300, 1e300][:features.size]
    edges = [(u, v) for u in range(n) for v in (u + 1, u + 5) if v < n]
    g = build_graph(n, edges, features, rng.integers(0, 3, n))
    save_graph_json(g, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_bytes() == compact(graph_blob(g))


def test_write_json_bytes_are_the_one_shot_encoding(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.standard_normal((600, 2))
    payloads = [
        {},  # checkpoint, eval and report shaped payloads
        {"version": 1, "extra": {"config": {"embed_dim": 4, "policy_hidden": [8, 5]}},
         "arrays": {"agg.W": {"shape": [2, 3], "data": rng.standard_normal(6).tolist()}}},
        {"mask": "test", "selection": "policy", "micro_f1": 0.1 + 0.2},
        {"nodes": list(range(40)), "fractions": (rng.random(40) / 3).tolist(),
         "histogram": [3, 0, 37]},
        {1: None, "unicode": "\u00e9\n", "flag": True, "x": -0.0, "tiny": 1e-300},
    ]
    for k, payload in enumerate(payloads):
        write_json(tmp_path / f"{k}.json", payload)
        assert (tmp_path / f"{k}.json").read_bytes() == compact(payload)
    # a 2-D array value, first or last, with an empty one between
    write_json(tmp_path / "t.json", {"a": table, "e": np.zeros((0, 2)), "z": table[:1]})
    assert (tmp_path / "t.json").read_bytes() == compact(
        {"a": table.tolist(), "e": [], "z": table[:1].tolist()})


def streamed_save_graph_json(g, path):
    """The writer that write_json's blocks replaced: the pure-Python encoder
    streaming a blob of nested lists."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_blob(g), fh, separators=(",", ":"))
        fh.write("\n")


def test_save_graph_json_peak_memory_is_within_the_streamed_writer(tmp_path):
    # one-shot encoding of the whole feature table would build its nested lists
    # and its whole string at once
    g = generate_planted_partition(2800, 7, 0.004, 0.0005, 32, 1.0, seed=3)
    peaks = []
    for write in (streamed_save_graph_json, save_graph_json):
        tracemalloc.start()
        try:
            write(g, tmp_path / f"{write.__name__}.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert ((tmp_path / "save_graph_json.json").read_bytes()
            == (tmp_path / "streamed_save_graph_json.json").read_bytes())


def test_feature_integer_past_float64_range_is_named():
    # numpy's OverflowError says only "int too large to convert to float"
    for big in (10**400, -10**400):
        with pytest.raises(GraphError, match=re.escape(f"table of numbers, got {big}")):
            build_graph(3, [(0, 1)], [[1.0], [big], [0.5]], [0, 1, 1])


def test_json_without_features_gets_one_hot_identity(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text('{"n": 3, "edges": [[0, 1]], "labels": [0, 1, 1]}')
    g = load_graph(path)
    assert np.array_equal(g.features, np.eye(3))


def test_edge_list_without_features_gets_one_hot_identity(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "labels.txt").write_text("0\n1\n0\n")
    g = load_graph(tmp_path / "edges.txt", fmt="edge-list+features",
                   labels_path=tmp_path / "labels.txt")
    assert g.num_nodes == 3
    assert np.array_equal(g.features, np.eye(3))


def test_json_missing_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "edges": []}')
    with pytest.raises(GraphError):
        load_graph(path)


def test_edge_list_format_loader(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n1 2\n")
    (tmp_path / "feats.tsv").write_text("1.0\t0.0\n0.0\t1.0\n1.0\t1.0\n")
    (tmp_path / "labels.txt").write_text("0\n1\n1\n")
    g = load_graph(tmp_path / "edges.txt", fmt="edge-list+features",
                   features_path=tmp_path / "feats.tsv",
                   labels_path=tmp_path / "labels.txt")
    assert g.num_nodes == 3 and g.num_edges == 2
    assert g.feature_dim == 2


def test_edge_list_loader_rejects_ragged_features(tmp_path):
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "feats.tsv").write_text("1.0\t0.0\n0.0\n")
    (tmp_path / "labels.txt").write_text("0\n1\n")
    with pytest.raises(GraphError):
        load_graph(tmp_path / "edges.txt", fmt="edge-list+features",
                   features_path=tmp_path / "feats.tsv",
                   labels_path=tmp_path / "labels.txt")


@pytest.mark.parametrize("kwargs, named", [
    ({"features_path": "feats.tsv"}, "edge-list format needs labels_path"),
    ({"features_path": "feats.tsv", "labels_path": "labels.txt"}, "2 feature rows but 3 labels"),
    ({"fmt": "csv", "labels_path": "labels.txt"}, "unknown graph format 'csv'"),
], ids=["no-labels", "short-features", "unknown-format"])
def test_load_graph_names_its_bad_arguments(tmp_path, kwargs, named):
    (tmp_path / "edges.txt").write_text("0 1\n")
    (tmp_path / "feats.tsv").write_text("1.0\t0.0\n0.0\t1.0\n")
    (tmp_path / "labels.txt").write_text("0\n1\n1\n")
    kwargs = {k: v if k == "fmt" else tmp_path / v for k, v in kwargs.items()}
    with pytest.raises(GraphError, match=re.escape(named)):
        load_graph(tmp_path / "edges.txt", **{"fmt": "edge-list+features", **kwargs})


def test_empty_graph_json_round_trips_byte_for_byte(tmp_path):
    # an empty feature list reads as a (0, 0) table, as an empty edge list reads as (0, 2)
    save_graph_json(generate_planted_partition(0, 2, 0.1, 0.0, 8, 1.0, seed=0), tmp_path / "a.json")
    g = load_graph(tmp_path / "a.json")
    assert g.num_nodes == 0 and g.features.shape == (0, 0)
    save_graph_json(g, tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


def test_edge_list_export(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)], np.eye(3), [0, 0, 1])
    write_edge_list(g, tmp_path / "e.txt")
    assert (tmp_path / "e.txt").read_text() == "0 1\n1 2\n"


def test_graph_arrays_are_read_only():
    g = build_graph(2, [(0, 1)], np.eye(2), [0, 1])
    with pytest.raises(ValueError):
        g.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.neighbors(0)[0] = 9
    with pytest.raises(ValueError):
        g.indptr[0] = 1


def hand_graph(indptr, indices):
    """A 3-node Graph made without build_graph, so any CSR layout can be checked."""
    m = np.zeros(3, dtype=bool)
    return Graph(3, np.array(indptr), np.array(indices), np.eye(3),
                 np.zeros(3, dtype=np.int64), m, m, m)


def test_validate_accepts_a_canonical_hand_built_graph():
    validate_graph(hand_graph([0, 1, 3, 4], [1, 0, 2, 1]))  # edges (0, 1), (1, 2)


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 1, 3], [1, 0, 2, 1], "indptr must be 4"),  # wrong length
    ([0, 3, 1, 4], [1, 0, 2, 1], "non-decreasing"),  # decreasing
    ([0, 1, 3, 3], [1, 0, 2, 1], "offsets from 0 to 4"),  # short of the last entry
    ([0, 1, 3, 4], [1, 0, 3, 1], "neighbor 3 of node 1 out of range"),
    ([0, 1, 3, 4], [1, 0, 1, 1], "self-loop at node 1"),
    ([0, 1, 3, 4], [1, 2, 0, 1], "neighbor list of node 1 not sorted"),
    ([0, 1, 4, 5], [1, 0, 0, 2, 1], "node 1 not sorted or not duplicate-free"),
    ([0, 1, 2, 3], [1, 0, 0], r"asymmetric edge \(2, 0\)"),
])
def test_validate_names_each_broken_invariant(indptr, indices, message):
    with pytest.raises(GraphError, match=message):
        validate_graph(hand_graph(indptr, indices))


@pytest.mark.parametrize("edges, features, labels, named", [
    ([[0, 1]], [["1.5"], [0.0], [1.0]], [0, 1, 1], "table of numbers, got '1.5'"),
    ([[0, 1]], [[True], [0.0], [1.0]], [0, 1, 1], "table of numbers, got True"),
    ([[0, True]], [[1.0], [0.0], [1.0]], [0, 1, 1], "integer node ids, got True"),
    ([[0, 1]], [[1.0], [0.0], [1.0]], [0, True, 1], "integer class ids, got True"),
    ([[0, 1]], [[1.0], [0.0], [1.0]], [0, "1", 1], "integer class ids, got '1'"),
], ids=["string-feature", "bool-feature", "bool-edge", "bool-label", "string-label"])
def test_build_graph_rejects_values_numpy_would_coerce(edges, features, labels, named):
    # judged by the parsed values' types: numpy reads "1.5" as 1.5 and True as 1
    with pytest.raises(GraphError, match=re.escape(named)):
        build_graph(3, edges, features, labels)


def test_json_edge_rows_ignore_extra_columns(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, 7]], "labels": [0, 1, 1]}')
    assert load_graph(path).edge_list() == [(0, 1)]


def test_edge_list_parsing_rules(tmp_path):
    (tmp_path / "labels.txt").write_text("0\n\n1\n1\n")
    (tmp_path / "edges.txt").write_text("0 1 9.5 x\n\n1\t2\n")

    def load(edges="edges.txt", labels="labels.txt"):
        return load_graph(tmp_path / edges, fmt="edge-list+features",
                          labels_path=tmp_path / labels)

    assert load().edge_list() == [(0, 1), (1, 2)]  # blank line skipped, extra columns ignored
    (tmp_path / "feats.tsv").write_text("1\t2\n \t \n3\t4\n5\t6\n")
    g = load_graph(tmp_path / "edges.txt", fmt="edge-list+features",
                   features_path=tmp_path / "feats.tsv", labels_path=tmp_path / "labels.txt")
    assert g.features.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    (tmp_path / "empty.txt").write_text("")
    assert load("empty.txt").num_edges == 0
    for name, text in (("hash.txt", "# comment\n0 1\n"), ("short.txt", "0\n"),
                       ("float.txt", "0 1.0\n")):
        (tmp_path / name).write_text(text)
        with pytest.raises(GraphError, match=name):
            load(name)
    for name, text in (("l_float.txt", "0\n1.0\n1\n"), ("l_two.txt", "0 1\n")):
        (tmp_path / name).write_text(text)
        with pytest.raises(GraphError, match=name):
            load(labels=name)


@st.composite
def edge_inputs(draw):
    """(n, edges, labels): duplicate, reversed and self-loop pairs, isolated nodes."""
    n = draw(st.integers(0, 9))
    node = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2) if draw(st.booleans()) else pairs
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return n, edges, labels


@settings(max_examples=150, deadline=None)
@given(edge_inputs())
@example((0, [], []))
@example((1, [(0, 0), (0, 0)], [0]))
def test_csr_layout_matches_set_reference(case):
    n, edges, labels = case
    features = np.random.default_rng(n).standard_normal((n, 2))
    g = build_graph(n, edges, features, labels)
    validate_graph(g)
    ref = {v: set() for v in range(n)}
    for u, v in (tuple(e) for e in np.asarray(edges, dtype=np.int64).reshape(-1, 2)):
        if u != v:
            ref[int(u)].add(int(v))
            ref[int(v)].add(int(u))
    for v in range(n):
        assert g.neighbors(v).tolist() == sorted(ref[v])
        assert g.degree(v) == len(ref[v])
    pairs = sorted((u, v) for u in ref for v in ref[u] if u < v)
    assert g.edge_list() == pairs
    assert g.edge_set() == set(pairs)
    assert g.num_edges == len(pairs)
    if n == 0:
        return  # an empty feature file is rejected, so there is no edge-list twin
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_graph_json(g, tmp / "a.json")
        save_graph_json(load_graph(tmp / "a.json"), tmp / "json.json")
        write_edge_list(g, tmp / "edges.txt")
        np.savetxt(tmp / "feats.tsv", g.features, fmt="%.17g", delimiter="\t")
        np.savetxt(tmp / "labels.txt", g.labels, fmt="%d")
        twin = load_graph(tmp / "edges.txt", fmt="edge-list+features",
                          features_path=tmp / "feats.tsv", labels_path=tmp / "labels.txt")
        save_graph_json(twin, tmp / "edge_list.json")
        assert (tmp / "edge_list.json").read_bytes() == (tmp / "json.json").read_bytes()
        assert (tmp / "json.json").read_bytes() == (tmp / "a.json").read_bytes()
