"""Graph container plus loaders, a planted-partition generator, and noise injectors.

Graphs are undirected, unweighted, with dense 0-based node ids, per-node
feature rows, integer class labels, and disjoint train/val/test masks.
Instances are frozen after construction: the arrays are marked read-only and
every producer returns a fresh value, so graphs can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or an unsatisfiable graph operation."""


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    adjacency: tuple  # per node: sorted np.int64 array of neighbor ids
    features: np.ndarray  # (n, D) float64
    labels: np.ndarray  # (n,) int64
    train_mask: np.ndarray  # (n,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def feature_dim(self):
        return self.features.shape[1]

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1 if self.num_nodes else 0

    @property
    def num_edges(self):
        return sum(len(a) for a in self.adjacency) // 2

    def neighbors(self, v):
        return self.adjacency[v]

    def degree(self, v):
        return len(self.adjacency[v])

    def edge_list(self):
        """All undirected edges as sorted (u, v) pairs with u < v."""
        out = []
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    out.append((u, int(v)))
        return out

    def edge_set(self):
        return set(self.edge_list())


def _read_only(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def build_graph(num_nodes, edges, features, labels, masks=None, split_seed=0):
    """Assemble and validate a Graph.

    Edges are symmetrized and de-duplicated; self-loops are dropped. When
    masks is None a stratified 60/20/20 split (seeded) is generated.
    """
    n = int(num_nodes)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(f"features must be ({n}, D), got {features.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise GraphError(f"labels must have shape ({n},), got {labels.shape}")
    if n and labels.min() < 0:
        raise GraphError("labels must be non-negative class ids")

    nbr_sets = [set() for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) references a node outside [0, {n})")
        if u == v:
            continue
        nbr_sets[u].add(v)
        nbr_sets[v].add(u)
    adjacency = tuple(_read_only(np.array(sorted(s), dtype=np.int64)) for s in nbr_sets)

    if masks is None:
        rng = np.random.default_rng(split_seed)
        train, val, test = stratified_split(labels, rng=rng)
    else:
        train = np.asarray(masks["train"], dtype=bool)
        val = np.asarray(masks["val"], dtype=bool)
        test = np.asarray(masks["test"], dtype=bool)

    g = Graph(n, adjacency, _read_only(features), _read_only(labels),
              _read_only(train), _read_only(val), _read_only(test))
    validate_graph(g)
    return g


def validate_graph(g):
    """Raise GraphError unless every structural invariant holds."""
    if len(g.adjacency) != g.num_nodes:
        raise GraphError("adjacency length != num_nodes")
    for u, nbrs in enumerate(g.adjacency):
        if len(nbrs) > 1 and np.any(np.diff(nbrs) <= 0):
            raise GraphError(f"neighbor list of node {u} not sorted or not duplicate-free")
        for v in nbrs:
            if v == u:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= v < g.num_nodes):
                raise GraphError(f"neighbor {v} of node {u} out of range")
            if u not in g.adjacency[v]:
                raise GraphError(f"asymmetric edge ({u}, {v})")
    for name in ("train_mask", "val_mask", "test_mask"):
        m = getattr(g, name)
        if m.shape != (g.num_nodes,) or m.dtype != np.bool_:
            raise GraphError(f"{name} must be a boolean vector of length {g.num_nodes}")
    overlap = (g.train_mask.astype(int) + g.val_mask.astype(int) + g.test_mask.astype(int))
    if overlap.max(initial=0) > 1:
        raise GraphError("train/val/test masks overlap")
    if not np.isfinite(g.features).all():
        raise GraphError("non-finite feature values")


def stratified_split(labels, fractions=(0.6, 0.2, 0.2), rng=None):
    """Per-class shuffled split into train/val/test boolean masks."""
    rng = rng or np.random.default_rng(0)
    n = len(labels)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        ids = ids[rng.permutation(len(ids))]
        n_tr = int(fractions[0] * len(ids))
        n_va = int(fractions[1] * len(ids))
        train[ids[:n_tr]] = True
        val[ids[n_tr:n_tr + n_va]] = True
        test[ids[n_tr + n_va:]] = True
    return train, val, test


@dataclass(frozen=True)
class NoiseSpec:
    """How much structural / attribute noise to inject, and the seed."""

    edge_noise_rate: float = 0.0
    feature_corrupt_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("edge_noise_rate", "feature_corrupt_rate"):
            r = getattr(self, name)
            if not 0.0 <= r <= 1.0:
                raise GraphError(f"{name} must be in [0, 1], got {r}")


# ---------------------------------------------------------------------------
# loading / saving

def load_graph(path, fmt="json", features_path=None, labels_path=None, split_seed=0):
    """Load a graph from disk.

    fmt="json": single file with keys n, edges, features, labels and
    optional masks. fmt="edge-list+features": whitespace edge pairs in
    `path`, tab-separated feature rows in `features_path`, one integer label
    per line in `labels_path`; node count is the number of feature rows.
    """
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                blob = json.load(fh)
            except json.JSONDecodeError as exc:
                raise GraphError(f"cannot parse {path}: {exc}") from exc
        for key in ("n", "edges", "labels"):
            if key not in blob:
                raise GraphError(f"graph json missing key {key!r}")
        features = blob.get("features")
        if features is None:
            # attribute-free graph: fall back to one-hot identity features
            features = np.eye(int(blob["n"]))
        return build_graph(blob["n"], blob["edges"], features, blob["labels"],
                           masks=blob.get("masks"), split_seed=split_seed)
    if fmt == "edge-list+features":
        if labels_path is None:
            raise GraphError("edge-list format needs labels_path")
        labels = _read_labels(labels_path)
        if features_path is None:
            features = np.eye(len(labels))
        else:
            features = _read_matrix(features_path)
            if len(labels) != len(features):
                raise GraphError(f"{len(features)} feature rows but {len(labels)} labels")
        edges = _read_edges(path)
        return build_graph(len(labels), edges, features, labels, split_seed=split_seed)
    raise GraphError(f"unknown graph format {fmt!r}")


def _read_edges(path):
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphError(f"{path}:{lineno}: expected 'src dst'")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-integer node id") from exc
    return edges


def _read_matrix(path):
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            try:
                row = [float(tok) for tok in line.split("\t")]
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-numeric feature value") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise GraphError(f"{path}:{lineno}: feature row has {len(row)} values, expected {width}")
            rows.append(row)
    if not rows:
        raise GraphError(f"{path}: empty feature file")
    return np.array(rows, dtype=np.float64)


def _read_labels(path):
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                labels.append(int(line))
            except ValueError as exc:
                raise GraphError(f"{path}:{lineno}: non-integer label") from exc
    return np.array(labels, dtype=np.int64)


def save_graph_json(g, path):
    """Serialize to the json format accepted by load_graph; deterministic bytes."""
    blob = {
        "n": g.num_nodes,
        "edges": [[u, v] for u, v in g.edge_list()],
        "features": [row.tolist() for row in g.features],
        "labels": g.labels.tolist(),
        "masks": {
            "train": g.train_mask.tolist(),
            "val": g.val_mask.tolist(),
            "test": g.test_mask.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, separators=(",", ":"))
        fh.write("\n")


def write_edge_list(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edge_list():
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# synthesis and noise

def generate_planted_partition(n, classes, p_in, p_out, dim, signal_strength, seed):
    """Random graph with intra-class edge probability p_in and cross-class p_out.

    Features are the node's class mean (orthogonal unit directions scaled by
    signal_strength) plus unit Gaussian noise. Masks are a stratified
    60/20/20 split. Fully determined by the seed.
    """
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise GraphError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if n % classes != 0:
        raise GraphError(f"n={n} not divisible by classes={classes}")
    if dim < classes:
        raise GraphError(f"dim={dim} too small for {classes} orthogonal class means")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes, dtype=np.int64), n // classes)

    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    probs = np.where(same, p_in, p_out)
    keep = rng.random(iu.size) < probs
    edges = list(zip(iu[keep].tolist(), ju[keep].tolist()))

    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = float(signal_strength)
    features = means[labels] + rng.standard_normal((n, dim))

    train, val, test = stratified_split(labels, rng=rng)
    return build_graph(n, edges, features, labels,
                       masks={"train": train, "val": val, "test": test})


def inject_edge_noise(g, spec):
    """Add round(rate * |E|) edges between non-adjacent, differently-labeled nodes.

    Original edges, features, labels and masks are untouched. Deterministic
    from spec.seed. Up to 3,000 nodes the edges are drawn without
    replacement from all free cross-class pairs (an n x n matrix); above
    that, random pairs are redrawn until cross-class and free, with no
    quadratic memory. Both paths stay: they draw different edges from one
    seed, the first defines every seeded test and benchmark input, and only
    the second fits large graphs.
    """
    k = int(round(spec.edge_noise_rate * g.num_edges))
    if k == 0:
        return g
    rng = np.random.default_rng(spec.seed)
    labels = g.labels
    existing = g.edge_set()

    counts = np.bincount(labels, minlength=g.num_classes)
    total_cross = (g.num_nodes * g.num_nodes - int(np.sum(counts.astype(np.int64) ** 2))) // 2
    existing_cross = sum(1 for u, v in existing if labels[u] != labels[v])
    available = total_cross - existing_cross
    if k > available:
        raise GraphError(f"cannot add {k} cross-class edges, only {available} pairs are absent")

    if g.num_nodes <= 3000:
        iu, ju = np.triu_indices(g.num_nodes, k=1)
        cross = labels[iu] != labels[ju]
        adj = np.zeros((g.num_nodes, g.num_nodes), dtype=bool)
        for u, v in existing:
            adj[u, v] = True
        free = cross & ~adj[iu, ju]
        cand_u, cand_v = iu[free], ju[free]
        pick = rng.choice(cand_u.size, size=k, replace=False)
        added = list(zip(cand_u[pick].tolist(), cand_v[pick].tolist()))
    else:
        added_set = set()
        while len(added_set) < k:
            u = int(rng.integers(g.num_nodes))
            v = int(rng.integers(g.num_nodes))
            if u == v or labels[u] == labels[v]:
                continue
            pair = (min(u, v), max(u, v))
            if pair in existing or pair in added_set:
                continue
            added_set.add(pair)
        added = sorted(added_set)

    edges = list(existing) + added
    return build_graph(g.num_nodes, edges, g.features, g.labels,
                       masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})


def corrupt_features(g, spec, mode="zero"):
    """Overwrite round(rate * n * D) uniformly chosen feature entries.

    mode="zero" blanks them (models missing values); mode="randomize"
    redraws them from a unit Gaussian. Deterministic from spec.seed.
    """
    if mode not in ("zero", "randomize"):
        raise GraphError(f"unknown corruption mode {mode!r}")
    total = g.num_nodes * g.feature_dim
    k = int(round(spec.feature_corrupt_rate * total))
    if k == 0:
        return g
    rng = np.random.default_rng(spec.seed)
    idx = rng.choice(total, size=k, replace=False)
    feats = g.features.copy()
    flat = feats.ravel()
    flat[idx] = 0.0 if mode == "zero" else rng.standard_normal(k)
    return build_graph(g.num_nodes, g.edge_list(), feats, g.labels,
                       masks={"train": g.train_mask, "val": g.val_mask, "test": g.test_mask})
