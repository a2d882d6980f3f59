import json
import math
import re

import numpy as np
import pytest

from graphdenoise import nn


def straight_line_forward(weights, x, head):
    """Independent re-implementation with explicit index loops."""
    a = list(map(float, x))
    for k, w in enumerate(weights):
        z = []
        for i in range(w.shape[0]):
            acc = 0.0
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            z.append(acc)
        if k < len(weights) - 1:
            a = [max(v, 0.0) for v in z]
        else:
            a = z
    if head == "sigmoid":
        return [1.0 / (1.0 + math.exp(-v)) for v in a]
    return a


def numeric_grads(loss_fn, weights, h=1e-5):
    """Central finite differences of a scalar loss over every weight entry."""
    grads = []
    for k, w in enumerate(weights):
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn()
            w[idx] = orig - h
            down = loss_fn()
            w[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def assert_close_grads(analytic, numeric, rel=1e-4, floor=1e-7):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        assert np.max(np.abs(a - n) / denom) < rel


def test_zero_weights_sigmoid_head_gives_half():
    p = nn.MlpParams([np.zeros((3, 4)), np.zeros((2, 3))])
    out, _ = nn.mlp_forward(p, np.array([1.0, -2.0, 3.0, 0.5]), head="sigmoid")
    assert np.allclose(out, 0.5)


def test_identity_composition_reproduces_relu():
    p = nn.MlpParams([np.eye(2), np.eye(2)])
    x = np.array([1.5, -0.5])
    out, _ = nn.mlp_forward(p, x, head="linear")
    assert np.array_equal(out, np.maximum(x, 0.0))


@pytest.mark.parametrize("head", ["linear", "sigmoid"])
def test_forward_matches_straight_line_oracle(head):
    rng = np.random.default_rng(7)
    for _ in range(20):
        sizes = [int(rng.integers(2, 6)) for _ in range(3)]
        p = nn.init_mlp(sizes, rng)
        x = rng.standard_normal(sizes[0])
        out, _ = nn.mlp_forward(p, x, head=head)
        expected = straight_line_forward(p.weights, x, head)
        assert np.max(np.abs(out - np.array(expected))) < 1e-12


def test_forward_three_layer_matches_oracle():
    rng = np.random.default_rng(3)
    p = nn.init_mlp([6, 5, 4, 1], rng)
    x = rng.standard_normal(6)
    out, _ = nn.mlp_forward(p, x, head="linear")
    expected = straight_line_forward(p.weights, x, "linear")
    assert abs(out[0] - expected[0]) < 1e-12


def test_forward_shape_and_finite_errors():
    p = nn.MlpParams([np.zeros((3, 4))])
    with pytest.raises(ValueError):
        nn.mlp_forward(p, np.zeros(5))
    with pytest.raises(ValueError):
        nn.mlp_forward(p, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValueError, match="unknown head"):
        nn.mlp_forward(p, np.zeros(4), head="softmax")


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(0)
    p = nn.init_mlp([4, 3, 2], rng)
    _, cache = nn.mlp_forward(p, rng.standard_normal(4), head="sigmoid")
    grads = nn.mlp_backward(p, cache, np.zeros(2))
    assert all(np.all(g == 0.0) for g in grads)


@pytest.mark.parametrize("head", ["linear", "sigmoid"])
def test_backward_matches_finite_differences(head):
    rng = np.random.default_rng(21)
    for _ in range(5):
        sizes = [int(rng.integers(2, 5)) for _ in range(3)]
        p = nn.init_mlp(sizes, rng)
        x = rng.standard_normal(sizes[0])
        upstream = rng.standard_normal(sizes[-1])

        def loss():
            out, _ = nn.mlp_forward(p, x, head=head)
            return float(upstream @ out)

        _, cache = nn.mlp_forward(p, x, head=head)
        analytic = nn.mlp_backward(p, cache, upstream)
        assert_close_grads(analytic, numeric_grads(loss, p.weights))


def test_dead_relu_unit_zeroes_inner_row_gradient():
    rng = np.random.default_rng(5)
    inner = rng.uniform(0.1, 1.0, size=(3, 4))
    inner[1] = -inner[1]  # unit 1 sees positive input, so its pre-activation < 0
    outer = rng.standard_normal((2, 3))
    p = nn.MlpParams([inner, outer])
    x = np.abs(rng.standard_normal(4)) + 0.1
    _, cache = nn.mlp_forward(p, x, head="linear")
    assert cache.inputs[1][0, 1] == 0.0
    grads = nn.mlp_backward(p, cache, np.ones(2))
    assert np.all(grads[0][1] == 0.0)


def test_forward_batch_leaves_caller_arrays_untouched():
    # the hidden ReLUs run in place on their own matmul outputs, never on x or a weight
    rng = np.random.default_rng(4)
    p = nn.init_mlp([5, 4, 3, 1], rng)
    x = rng.standard_normal((7, 5))
    before = [a.copy() for a in (x, *p.weights)]
    for head in nn.HEADS:
        nn.mlp_forward_batch(p, x, head=head)
    assert [a.tobytes() for a in (x, *p.weights)] == [a.tobytes() for a in before]


def test_backward_mismatched_cache_is_rejected():
    rng = np.random.default_rng(1)
    p = nn.init_mlp([4, 3, 2], rng)
    other = nn.init_mlp([5, 3, 2], rng)
    _, cache = nn.mlp_forward(other, rng.standard_normal(5))
    with pytest.raises(ValueError):
        nn.mlp_backward(p, cache, np.ones(2))


def test_batch_forward_backward_agree_with_single():
    rng = np.random.default_rng(11)
    p = nn.init_mlp([4, 6, 3], rng)
    xs = rng.standard_normal((5, 4))
    ups = rng.standard_normal((5, 3))
    out_b, cache_b = nn.mlp_forward_batch(p, xs, head="sigmoid")
    grads_b = nn.mlp_backward_batch(p, cache_b, ups)
    acc = [np.zeros_like(w) for w in p.weights]
    for i in range(5):
        out, cache = nn.mlp_forward(p, xs[i], head="sigmoid")
        assert np.allclose(out, out_b[i], atol=1e-14)
        for k, g in enumerate(nn.mlp_backward(p, cache, ups[i])):
            acc[k] += g
    for a, b in zip(acc, grads_b):
        assert np.allclose(a, b, atol=1e-12)


def test_gradient_check_invariant_100_random_triples():
    rng = np.random.default_rng(2024)
    heads = ["linear", "sigmoid"]
    for trial in range(100):
        sizes = [int(rng.integers(2, 6)) for _ in range(int(rng.integers(2, 4)))]
        if len(sizes) < 2:
            sizes.append(int(rng.integers(2, 6)))
        p = nn.init_mlp(sizes, rng)
        x = rng.standard_normal(sizes[0])
        head = heads[trial % 2]
        upstream = rng.standard_normal(sizes[-1])

        def loss():
            out, _ = nn.mlp_forward(p, x, head=head)
            return float(upstream @ out)

        _, cache = nn.mlp_forward(p, x, head=head)
        assert_close_grads(nn.mlp_backward(p, cache, upstream),
                           numeric_grads(loss, p.weights))


def test_softmax_sums_to_one_and_stays_positive():
    rng = np.random.default_rng(9)
    for _ in range(50):
        logits = rng.standard_normal(int(rng.integers(2, 8))) * rng.uniform(1, 400)
        s = nn.softmax(logits)
        assert abs(s.sum() - 1.0) < 1e-9
        assert np.all(s > 0.0)
    s = nn.softmax(np.array([1000.0, -1000.0, 0.0]))
    assert abs(s.sum() - 1.0) < 1e-9 and np.all(s > 0.0)


def test_softmax_matches_clipped_exp_form_bit_for_bit():
    def clipped(z, axis=-1):
        z = z - z.max(axis=axis, keepdims=True)
        e = np.exp(np.clip(z, -700.0, 0.0))
        return e / e.sum(axis=axis, keepdims=True)

    rng = np.random.default_rng(12)
    rows = [rng.standard_normal(int(rng.integers(1, 9))) * rng.uniform(1.0, 2000.0)
            for _ in range(500)]
    rows += [np.array(r) for r in ([np.inf, 0.0], [-np.inf, 0.0], [np.inf, -np.inf],
                                   [-np.inf, -np.inf], [np.nan, 1.0], [800.0, -800.0],
                                   [-800.0, 0.0, 800.0], [800.0, 800.0])]
    batch = rng.standard_normal((7, 5)) * 900.0
    with np.errstate(invalid="ignore"):
        for z in rows:
            assert nn.softmax(z).tobytes() == clipped(z).tobytes()
        assert nn.softmax(batch).tobytes() == clipped(batch, axis=1).tobytes()


def test_sigmoid_strictly_inside_unit_interval():
    z = np.array([-1e4, -800.0, -30.0, 0.0, 30.0, 800.0, 1e4])
    s = nn.sigmoid(z)
    assert np.all(s > 0.0) and np.all(s < 1.0)
    assert s[3] == 0.5


def test_sigmoid_of_a_float_is_the_array_path_bit_for_bit():
    # the walkers take one candidate's probability from its score alone; it
    # must keep the bits the all-candidates array sigmoid gave them
    special = [0.0, -0.0, 1e-17, -1e-17, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
               math.inf, -math.inf]
    z = np.concatenate([np.random.default_rng(0).normal(0.0, 4.0, 50_000), special])
    expected = nn.sigmoid(z)
    for scalars in (z.tolist(), list(z)):  # Python floats, and numpy float64s as walkers pass
        got = [nn.sigmoid(x) for x in scalars]
        assert all(type(p) is float for p in got)
        assert np.array(got).tobytes() == expected.tobytes()


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(0)
    params = [rng.standard_normal((2, 3))]
    state = nn.adam_init(params, lr=0.1)
    out, new = nn.adam_step(state, params, [np.zeros((2, 3))])
    assert np.array_equal(out[0], params[0])
    assert (state.step, new.step) == (0, 1)  # a value: the input state is not written


def test_adam_first_step_magnitude_is_learning_rate():
    # from zero moments, mhat = g and vhat = g^2, so the step is lr * sign(g)
    g = np.array([[3.0, -0.25], [1e-3, -7.0]])
    params = [np.zeros((2, 2))]
    state = nn.adam_init(params, lr=0.05)
    out, _ = nn.adam_step(state, params, [g])
    assert np.allclose(out[0], -0.05 * np.sign(g), atol=1e-6)


def test_adam_minimizes_quadratic():
    w = np.array([[1.0]])
    state = nn.adam_init([w], lr=0.05)
    for _ in range(200):
        (w,), state = nn.adam_step(state, [w], [2.0 * w])
    assert abs(w[0, 0]) < 0.05


def test_adam_shape_mismatch_rejected():
    params = [np.zeros((2, 2))]
    state = nn.adam_init(params, lr=1e-3)
    with pytest.raises(ValueError):
        nn.adam_step(state, params, [np.zeros((3, 2))])


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(17)
    named = {"a": rng.standard_normal((3, 4)) * 1e-7,
             "b": rng.standard_normal((2, 2)) * 1e9}
    path = tmp_path / "ckpt.json"
    nn.save_arrays(path, named, extra={"note": "x"})
    loaded, extra = nn.load_arrays(path)
    assert extra == {"note": "x"}
    for key, arr in named.items():
        assert np.array_equal(loaded[key], arr)


def test_checkpoint_rejects_bad_version(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text('{"version": 99, "arrays": {}}')
    with pytest.raises(ValueError):
        nn.load_arrays(path)


def test_checkpoint_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        nn.save_arrays(tmp_path / "x.json", {"a": np.array([[np.inf]])})


def test_checkpoint_integer_past_float64_range_is_named(tmp_path):
    # numpy's OverflowError would name no value and is no ValueError
    path = tmp_path / "ckpt.json"
    for big in (10**400, -10**400):
        path.write_text(json.dumps({"version": 1, "arrays": {
            "a": {"shape": [1, 3], "data": [0.5, big, 1.0]}}}))
        with pytest.raises(ValueError, match=re.escape(f"'a' needs float64 numbers, got {big}")):
            nn.load_arrays(path)
