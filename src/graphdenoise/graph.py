"""Graph container plus loaders, a planted-partition generator, and noise injectors.

Graphs are undirected, unweighted, with dense 0-based node ids, per-node
feature rows, integer class labels, and disjoint train/val/test masks.
Neighbor lists are compressed sparse rows: node v's neighbors are
``indices[indptr[v]:indptr[v + 1]]``, ascending and duplicate-free, and each
edge appears from both ends; ``trainer`` slices them into kept sets directly.
Instances are frozen after construction: the arrays are marked read-only and
every producer returns a fresh value, so graphs can be shared freely.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or an unsatisfiable graph operation."""


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    indptr: np.ndarray  # (n + 1,) int64 offsets of each node's neighbors in indices
    indices: np.ndarray  # (2|E|,) int64 neighbor ids, ascending within each node
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
        return self.indices.size // 2

    def neighbors(self, v):
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    def edge_list(self):
        """All undirected edges as sorted (u, v) pairs with u < v."""
        src = _sources(self.indptr)
        upper = src < self.indices
        return list(zip(src[upper].tolist(), self.indices[upper].tolist()))

    def edge_set(self):
        return set(self.edge_list())


def _read_only(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def _sources(indptr):
    """The node each entry of indices belongs to."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _node_count(n):
    """n as an int; a bool, a non-integer or a negative n is a GraphError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
        raise GraphError(f"n must be a non-negative integer, got {n!r}")
    return int(n)


def reject_coerced(values, number, message, rows=False):
    """values, or a GraphError naming a list entry (row entry, if rows) that is no `number`
    or a bool for a non-bool `number`, which numpy would coerce ("1.5" to 1.5, true to 1)."""
    if isinstance(values, np.ndarray):  # its dtype says what it holds
        return values
    entries = (lambda: chain.from_iterable(values)) if rows else (lambda: values)
    try:
        bad = {t for t in set(map(type, entries()))
               if not issubclass(t, number) or (t is bool) != (number is bool)}
    except TypeError:  # values or a row is no sequence; the conversion names it
        return values
    for x in entries() if bad else ():
        if type(x) in bad:
            raise GraphError(f"{message}, got {x!r}")
    return values


def float_array(values, message):
    """values as a float64 array; ragged rows, or an integer past float64's range (named:
    the largest, as numpy's OverflowError names none), are a GraphError."""
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        flat = np.asarray(values, dtype=object).ravel()  # JSON floats past the range parse as inf
        big = max(flat, key=lambda x: abs(x) if isinstance(x, int) else 0)
        raise GraphError(f"{message}, got {big!r}") from None
    except (TypeError, ValueError) as exc:
        raise GraphError(f"{message} ({exc})") from exc


def build_graph(num_nodes, edges, features, labels, masks=None, split_seed=0):
    """Assemble and validate a Graph.

    Edges are rows whose first two entries are integer node ids (further
    entries are ignored); they are symmetrized and de-duplicated, and
    self-loops are dropped. When masks is None a stratified 60/20/20 split
    (seeded) is generated.
    """
    n = _node_count(num_nodes)
    reject_coerced(features, numbers.Real, "features must be a rectangular table of numbers",
                    rows=True)
    reject_coerced(labels, numbers.Integral, f"labels must be ({n},) integer class ids")
    reject_coerced(edges, numbers.Integral, "edges must be rows of integer node ids", rows=True)
    features = float_array(features, "features must be a rectangular table of numbers")
    if features.shape == (0,):  # an empty list is a table of no rows, as edges are
        features = features.reshape(0, 0)
    if features.ndim != 2 or features.shape[0] != n:
        raise GraphError(f"features must be ({n}, D), got {features.shape}")
    labels = np.asarray(labels)
    if labels.shape != (n,) or (n and labels.dtype.kind not in "iu"):
        raise GraphError(f"labels must be ({n},) integer class ids, got {labels.dtype} {labels.shape}")
    labels = labels.astype(np.int64)
    if n and labels.min() < 0:
        raise GraphError("labels must be non-negative class ids")

    pairs = np.asarray(edges)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] < 2 or pairs.dtype.kind not in "iu":
        raise GraphError("edges must be rows of at least two integer node ids, "
                         f"got {pairs.dtype} of shape {pairs.shape}")
    pairs = pairs[:, :2].astype(np.int64)
    outside = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)]
    if outside.size:
        raise GraphError(f"edge {tuple(outside[0].tolist())} references a node outside [0, {n})")
    src, dst = pairs[pairs[:, 0] != pairs[:, 1]].T
    # both directions, sorted by (node, neighbor) and de-duplicated; np.unique's
    # hashing pass is about 15 times slower than a sort on these near-sorted keys
    keys = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    indptr, indices = np.searchsorted(keys // n, np.arange(n + 1)), keys % n

    if masks is None:
        train, val, test = stratified_split(labels, np.random.default_rng(split_seed))
    else:
        try:
            train, val, test = (
                np.asarray(reject_coerced(masks[k], bool, f"{k} mask must hold booleans"), dtype=bool)
                for k in ("train", "val", "test"))
        except (KeyError, TypeError) as exc:  # a key is missing, or masks is no mapping
            raise GraphError(f"masks must map train, val and test to vectors ({exc})") from exc

    g = Graph(n, _read_only(indptr), _read_only(indices), _read_only(features),
              _read_only(labels), _read_only(train), _read_only(val), _read_only(test))
    validate_graph(g)
    return g


def validate_graph(g):
    """Raise GraphError unless every structural invariant holds."""
    n, indptr, indices = g.num_nodes, g.indptr, g.indices
    if (indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size
            or (np.diff(indptr) < 0).any()):
        raise GraphError(f"indptr must be {n + 1} non-decreasing offsets from 0 to {indices.size}")
    src = _sources(indptr)
    unsorted = np.append(False, (np.diff(src) == 0) & (np.diff(indices) <= 0))
    for bad, message in (
            (unsorted, "neighbor list of node {u} not sorted or not duplicate-free"),
            (indices == src, "self-loop at node {u}"),
            ((indices < 0) | (indices >= n), "neighbor {v} of node {u} out of range"),
            (~np.isin(indices * n + src, src * n + indices), "asymmetric edge ({u}, {v})")):
        hit = np.flatnonzero(bad)
        if hit.size:
            raise GraphError(message.format(u=src[hit[0]], v=indices[hit[0]]))
    for name in ("train_mask", "val_mask", "test_mask"):
        m = getattr(g, name)
        if m.shape != (g.num_nodes,) or m.dtype != np.bool_:
            raise GraphError(f"{name} must be a boolean vector of length {g.num_nodes}")
    overlap = (g.train_mask.astype(int) + g.val_mask.astype(int) + g.test_mask.astype(int))
    if overlap.max(initial=0) > 1:
        raise GraphError("train/val/test masks overlap")
    if not np.isfinite(g.features).all():
        raise GraphError("non-finite feature values")


def stratified_split(labels, rng):
    """Per-class masks by rng: int(0.6 k) of a class's k nodes train, int(0.2 k) val, the rest test."""
    n = len(labels)
    train, val, test = (np.zeros(n, dtype=bool) for _ in range(3))
    for c in np.unique(labels):
        ids = np.flatnonzero(labels == c)
        ids = ids[rng.permutation(len(ids))]
        n_tr, n_va = int(0.6 * len(ids)), int(0.2 * len(ids))
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

def load_graph(path, fmt="json", features_path=None, labels_path=None):
    """Load a graph from disk; one without masks gets build_graph's seed-0 split.

    fmt="json": single file with keys n, edges, features, labels and
    optional masks. fmt="edge-list+features": whitespace edge pairs in
    `path`, tab-separated feature rows in `features_path`, one integer label
    per line in `labels_path`; node count is the number of feature rows.
    """
    if fmt == "json":
        try:
            blob = read_json(path)
        except ValueError as exc:
            raise GraphError(str(exc)) from exc
        if not isinstance(blob, dict):
            raise GraphError(f"{path}: graph json must hold an object, got {type(blob).__name__}")
        for key in ("n", "edges", "labels"):
            if key not in blob:
                raise GraphError(f"graph json missing key {key!r}")
        features = blob.get("features")
        if features is None:
            # attribute-free graph: fall back to one-hot identity features
            features = np.eye(_node_count(blob["n"]))
        return build_graph(blob["n"], blob["edges"], features, blob["labels"],
                           masks=blob.get("masks"))
    if fmt == "edge-list+features":
        if labels_path is None:
            raise GraphError("edge-list format needs labels_path")
        labels = _read_table(labels_path, np.int64)
        if labels.shape[1] != 1:
            raise GraphError(f"{labels_path}: expected one integer label per line")
        labels = labels[:, 0]
        if features_path is None:
            features = np.eye(len(labels))
        else:
            features = _read_table(features_path, np.float64, delimiter="\t")
            if len(features) != len(labels) or not len(features):
                raise GraphError(f"{features_path}: {len(features)} feature rows "
                                 f"but {len(labels)} labels")
        edges = _read_table(path, np.int64, usecols=(0, 1))
        return build_graph(len(labels), edges, features, labels)
    raise GraphError(f"unknown graph format {fmt!r}")


def _read_table(path, dtype, **kwargs):
    """Rows of a text table as a 2-D array, skipping blank lines; an empty file has no rows."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt((line for line in fh if line.strip()), dtype=dtype,
                              comments=None, ndmin=2, **kwargs)
        except ValueError as exc:
            raise GraphError(f"cannot parse {path}: {exc}") from exc


def save_graph_json(g, path):
    """Serialize to the json format accepted by load_graph; deterministic bytes."""
    write_json(path, {
        "n": g.num_nodes,
        "edges": g.edge_list(),
        "features": g.features,
        "labels": g.labels.tolist(),
        "masks": {
            "train": g.train_mask.tolist(),
            "val": g.val_mask.tolist(),
            "test": g.test_mask.tolist(),
        },
    })


def write_json(path, obj):
    """Write the dict obj as compact JSON and a newline through the C encoder
    (json.dump streams through the pure-Python one). A 2-D array value is written
    as nested lists a block of rows at a time, never as one whole list or string."""
    encode, block = json.JSONEncoder(separators=(",", ":")).encode, 256
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for k, (key, value) in enumerate(obj.items()):
            fh.write("," if k else "")
            if not (isinstance(value, np.ndarray) and value.ndim == 2):
                fh.write(encode({key: value})[1:-1])  # '"key":value', keys coerced as json does
                continue
            fh.write(encode({key: []})[1:-2])  # '"key":['
            for i in range(0, len(value), block):
                fh.write(("," if i else "") + encode(value[i:i + block].tolist())[1:-1])
            fh.write("]")
        fh.write("}\n")


def read_json(path):
    """The JSON value in a file; one that does not parse is a ValueError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"cannot parse {path}: {exc}") from exc


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
    if classes < 1:
        raise GraphError(f"classes must be >= 1, got {classes}")
    if n < 0:
        raise GraphError(f"n must be >= 0, got {n}")
    if n % classes != 0:
        raise GraphError(f"n={n} not divisible by classes={classes}")
    if dim < classes:
        raise GraphError(f"dim={dim} too small for {classes} orthogonal class means")
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes, dtype=np.int64), n // classes)

    edges = []
    # row by row: the coins one draw over all pairs (u < v) gives, in order, in linear memory
    for i in range(n - 1):
        keep = rng.random(n - 1 - i) < np.where(labels[i + 1:] == labels[i], p_in, p_out)
        edges.append(np.stack([np.full(keep.sum(), i), np.flatnonzero(keep) + i + 1], axis=1))
    edges = np.concatenate(edges) if edges else []

    means = np.zeros((classes, dim))
    means[np.arange(classes), np.arange(classes)] = float(signal_strength)
    features = means[labels] + rng.standard_normal((n, dim))

    train, val, test = stratified_split(labels, rng)
    return build_graph(n, edges, features, labels,
                       masks={"train": train, "val": val, "test": test})


def inject_edge_noise(g, spec):
    """Add round(rate * |E|) edges between non-adjacent, differently-labeled nodes.

    Original edges, features, labels and masks are untouched. Deterministic
    from spec.seed: ranks drawn without replacement from the row-major list
    of free cross-class pairs (u < v) are decoded into pairs without building
    that list, so memory stays linear in nodes plus edges.
    """
    k = int(round(spec.edge_noise_rate * g.num_edges))
    if k == 0:
        return g
    rng = np.random.default_rng(spec.seed)
    n, labels, ids = g.num_nodes, g.labels, np.arange(g.num_nodes)
    src, dst = _sources(g.indptr), g.indices  # every edge, once from each end
    # the nodes class by class, ascending within a class; cls[u] is where u's class starts
    members = np.argsort(labels, kind="stable")
    cls = np.searchsorted(labels[members], labels)
    by_id = cls[members] * (n + 1) + members

    def outside(c, v):  # how many nodes before v lie outside the class that starts at c
        return v - np.searchsorted(by_id, c * (n + 1) + v) + c

    # row u lists the other-class nodes after u that are not u's neighbours
    other, later = outside(cls, ids), (dst > src) & (labels[src] != labels[dst])
    nbr_u, nbr_v = src[later], dst[later]
    nbr_first = np.searchsorted(nbr_u, ids)
    row = outside(cls, n) - other - np.bincount(nbr_u, minlength=n)
    row_start = np.cumsum(row) - row
    available = int(row_start[-1] + row[-1])
    if k > available:
        raise GraphError(f"cannot add {k} cross-class edges, only {available} pairs are absent")
    rank = rng.choice(available, size=k, replace=False)
    u = np.searchsorted(row_start, rank, side="right") - 1
    # skip u's neighbours, each keyed by the free pairs of its row before it; then q
    # counts the other-class nodes before v, and v skips u's class members among them
    nbr_key = ((row_start + nbr_first - other)[nbr_u] + outside(cls[nbr_u], nbr_v)
               - np.arange(nbr_u.size))
    q = rank + (other - row_start - nbr_first)[u] + np.searchsorted(nbr_key, rank, side="right")
    by_outside = cls[members] * (n + 1) + other[members]
    v = q + np.searchsorted(by_outside, cls[u] * (n + 1) + q, side="right") - cls[u]
    edges = np.concatenate([np.stack([src, dst], axis=1), np.stack([u, v], axis=1)])
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
