"""Dense numerical core: bias-free ReLU stacks, output heads, Adam, checkpoints.

All math runs in float64 numpy. A perceptron here is a list of weight
matrices applied as ``x -> W0 x -> relu -> W1 x -> ... -> Wlast x -> head``
with no bias terms anywhere. Forward passes return a cache of the layer
inputs only, so the matching backward pass can run without a tape: a hidden
layer's input is its predecessor's ReLU output, whose positive entries are
the ReLU's derivative mask.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .graph import float_array, read_json, reject_coerced, write_json

HEADS = ("linear", "sigmoid")

# Keeps sigmoid outputs strictly inside (0, 1) in float64 even for huge logits.
_SIGMOID_FLOOR = 1e-15
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates, denominator guard


def sigmoid(z):
    """Numerically stable logistic function, strictly inside (0, 1)."""
    if isinstance(z, float):  # numpy's exp, then float arithmetic: the array path's bits, a float
        ez = float(np.exp(-abs(z)))
        return min(max((1.0 if z >= 0 else ez) / (1.0 + ez), _SIGMOID_FLOOR), 1.0 - _SIGMOID_FLOOR)
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))  # never overflows: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below
    out = np.where(z >= 0, 1.0, ez) / (1.0 + ez)
    return np.minimum(np.maximum(out, _SIGMOID_FLOOR), 1.0 - _SIGMOID_FLOOR)


def softmax(logits):
    """Max-shifted softmax over the last axis; rows sum to 1 and stay strictly positive."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    # z <= 0 or NaN after the shift; exp(-700) is still a normal float64 (no underflow to 0)
    e = np.exp(np.maximum(z, -700.0))
    return e / e.sum(axis=-1, keepdims=True)


def glorot(rows, cols, rng):
    """Uniform init in [-sqrt(6/(fan_in+fan_out)), +...], seeded."""
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


@dataclass
class MlpParams:
    """Bias-free feedforward stack.

    ``weights[k]`` has shape (out_k, in_k); consecutive shapes must chain.
    ReLU sits between layers, never after the last matrix (the output head
    is chosen per call).
    """

    weights: list

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        if not self.weights:
            raise ValueError("MlpParams needs at least one weight matrix")
        for a, b in zip(self.weights, self.weights[1:]):
            if b.shape[1] != a.shape[0]:
                raise ValueError(f"incompatible layer shapes {a.shape} -> {b.shape}")

    @property
    def in_dim(self):
        return self.weights[0].shape[1]

    @property
    def out_dim(self):
        return self.weights[-1].shape[0]


def init_mlp(layer_sizes, rng):
    """Glorot-initialized stack for sizes [in, h1, ..., out]."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least an input and an output size")
    weights = [glorot(layer_sizes[k + 1], layer_sizes[k], rng) for k in range(len(layer_sizes) - 1)]
    return MlpParams(weights)


@dataclass
class MlpCache:
    inputs: list  # value entering each layer: inputs[0] is x, later ones are ReLU outputs
    head: str
    output: np.ndarray


def mlp_forward_batch(params, x, head="linear"):
    """Forward a batch of rows through the stack.

    x has shape (m, in_dim); returns (output (m, out_dim), cache).
    """
    if head not in HEADS:
        raise ValueError(f"unknown head {head!r}, expected one of {HEADS}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"input shape {x.shape} incompatible with in_dim {params.in_dim}")
    inputs = [x]
    a = x @ params.weights[0].T
    for w in params.weights[1:]:
        inputs.append(np.maximum(a, 0.0, out=a))  # in place on this layer's own matmul output
        a = a @ w.T
    out = sigmoid(a) if head == "sigmoid" else a
    return out, MlpCache(inputs, head, out)


def mlp_backward_batch(params, cache, upstream):
    """Backward pass; returns per-matrix gradients summed over the batch.

    upstream is d(loss)/d(output), shape (m, out_dim), for the forward call
    that produced cache.
    """
    if len(cache.inputs) != len(params.weights) or any(
            a.shape[1] != w.shape[1] for w, a in zip(params.weights, cache.inputs)):
        raise ValueError("cache does not match parameter stack")
    upstream = np.asarray(upstream, dtype=np.float64)
    y = cache.output
    if upstream.shape != y.shape:
        raise ValueError(f"upstream shape {upstream.shape} != output shape {y.shape}")
    g = upstream * y * (1.0 - y) if cache.head == "sigmoid" else upstream
    grads = [None] * len(params.weights)
    for k in reversed(range(len(params.weights))):
        grads[k] = g.T @ cache.inputs[k]
        if k > 0:
            g = (g @ params.weights[k]) * (cache.inputs[k] > 0)
    return grads


def mlp_forward(params, x, head="linear"):
    """Single-vector forward. Returns (output vector, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("mlp_forward expects a 1-d input vector")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    out, cache = mlp_forward_batch(params, x[None, :], head=head)
    return out[0], cache


def mlp_backward(params, cache, upstream):
    """Single-vector backward matching a mlp_forward call."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.ndim != 1:
        raise ValueError("mlp_backward expects a 1-d upstream gradient")
    return mlp_backward_batch(params, cache, upstream[None, :])


@dataclass(frozen=True)
class AdamState:
    """Adaptive-moment accumulators for a list of parameter matrices; a value
    that adam_step replaces, never writes."""

    lr: float
    step: int
    m: tuple
    v: tuple


def adam_init(params, lr):
    zeros = tuple(np.zeros_like(p) for p in params)  # never written, so both moments share them
    return AdamState(lr, 0, zeros, zeros)


def adam_step(state, params, grads):
    """One adaptive-moment step down a loss whose gradients are `grads`;
    returns (new parameter list, new AdamState)."""
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ValueError("parameter/gradient/state length mismatch")
    t = state.step + 1
    out, m, v = [], [], []
    for i, (p, g, m_i, v_i) in enumerate(zip(params, grads, state.m, state.v)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape or m_i.shape != p.shape:
            raise ValueError(f"shape mismatch at parameter {i}: {p.shape} vs {g.shape}")
        m.append(ADAM_BETA1 * m_i + (1.0 - ADAM_BETA1) * g)
        v.append(ADAM_BETA2 * v_i + (1.0 - ADAM_BETA2) * g * g)
        mhat = m[i] / (1.0 - ADAM_BETA1 ** t)
        vhat = v[i] / (1.0 - ADAM_BETA2 ** t)
        out.append(p - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS))
    return out, AdamState(state.lr, t, tuple(m), tuple(v))


def check_second_moments(state, what):
    """ValueError naming `what` if an Adam second moment overflowed (g * g past
    float64): every later update of that entry is 0 or NaN, so the fit stalls."""
    if not all(np.isfinite(v).all() for v in state.v):
        raise ValueError(f"{what}: Adam second moment overflowed; rescale the features")


CHECKPOINT_VERSION = 1


def save_arrays(path, named_arrays, extra=None):
    """Write named float64 matrices (plus optional metadata) as JSON.

    Floats are serialized with Python's shortest round-trip repr (at most 17
    significant digits), so load() reproduces them bit for bit.
    """
    arrays = {}
    for name in sorted(named_arrays):
        arr = np.asarray(named_arrays[name], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name!r} contains non-finite values")
        arrays[name] = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
    write_json(path, {"version": CHECKPOINT_VERSION, "extra": extra or {}, "arrays": arrays})


def load_arrays(path):
    """Inverse of save_arrays: (name -> array dict, extra dict); a bad array is a ValueError."""
    blob = read_json(path)
    if not isinstance(blob, dict):
        raise ValueError(f"checkpoint must hold a JSON object, got {type(blob).__name__}")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {blob.get('version')!r}")
    if not isinstance(blob.get("arrays"), dict):
        raise ValueError("checkpoint has no 'arrays' object")
    out = {}
    for name, entry in blob["arrays"].items():
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise ValueError(f"checkpoint array {name!r} needs 'shape' and 'data'")
        shape, data = entry["shape"], entry["data"]
        what = (f"checkpoint array {name!r} needs a shape of non-negative integers and flat "
                "data of as many numbers")
        if not isinstance(shape, list) or not isinstance(data, list):
            raise ValueError(f"{what}, got {type(shape).__name__} and {type(data).__name__}")
        reject_coerced(shape, numbers.Integral, what)
        reject_coerced(data, numbers.Real, what)
        if min(shape, default=0) < 0 or len(data) != math.prod(shape):
            raise ValueError(f"{what}, got shape {shape} and {len(data)} numbers")
        arr = float_array(data, f"checkpoint array {name!r} needs float64 numbers").reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"array {name!r} contains non-finite values")
        out[name] = arr
    extra = blob.get("extra", {})
    if not isinstance(extra, dict):
        raise ValueError(f"checkpoint 'extra' must be an object, got {type(extra).__name__}")
    return out, extra
