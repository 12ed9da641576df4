"""Tensor engine tests: forward oracles, backward rules, AdamW, grad checking."""

import gc
import weakref

import numpy as np
import pytest

from retag.errors import ConfigError, ContractError, DimensionError, NumericError
from retag.numerics import (
    OptimState,
    RngStream,
    Tape,
    adamw_step,
    apply_op,
    backward,
    clip_grad_norm,
    cross_entropy,
    dropout,
    gather,
    gelu,
    grad_check,
    layer_norm,
    masked_fill,
    matmul,
    reduce_mean,
    reduce_sum,
    softmax,
    stop_gradient,
    tensor,
    transpose,
)


def t64(data, requires_grad=False):
    return tensor(data, requires_grad=requires_grad, dtype=np.float64)


# -- forward oracles ----------------------------------------------------------


def test_matmul_hand_case():
    a = tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tensor([[5.0], [6.0]])
    assert np.array_equal((a @ b).data, np.array([[17.0], [39.0]], dtype=np.float32))


def test_softmax_uniform_on_constant_input():
    out = softmax(tensor([0.0, 0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])
    assert np.isclose(out.data.sum(), 1.0)


def test_layer_norm_zero_variance_centers_to_zero():
    x = tensor([5.0, 5.0, 5.0])
    out = layer_norm(x, tensor([1.0, 1.0, 1.0]), tensor([0.0, 0.0, 0.0]), eps=1e-5)
    assert np.allclose(out.data, 0.0)


def test_shape_mismatch_names_op_and_shapes():
    with pytest.raises(DimensionError, match="matmul"):
        matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))
    with pytest.raises(DimensionError, match=r"add.*\(2, 3\).*\(4,\)"):
        tensor(np.zeros((2, 3))) + tensor(np.zeros(4))


def test_invalid_axis_is_range_error():
    with pytest.raises(IndexError):
        softmax(tensor([1.0, 2.0]), axis=3)


# -- stop gradient ------------------------------------------------------------


def test_stop_gradient_is_identity_forward():
    x = tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    assert np.array_equal(stop_gradient(x).data, x.data)


def test_stop_gradient_kills_gradient():
    x = tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        loss = stop_gradient(x).sum()
        grads = backward(loss, [x])
    assert np.array_equal(grads[x], np.zeros(3, dtype=np.float32))


def test_stop_gradient_leaves_live_branch_alone():
    x = tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape():
        loss = (stop_gradient(x) + x).sum()
        grads = backward(loss, [x])
    assert np.array_equal(grads[x], np.ones(3, dtype=np.float32))


# -- backward -----------------------------------------------------------------


def test_backward_product_rule():
    x = tensor(3.0, requires_grad=True)
    y = tensor(5.0, requires_grad=True)
    with Tape():
        grads = backward(x * y, [x, y])
    assert grads[x] == 5.0 and grads[y] == 3.0


def test_backward_softmax_cross_entropy_matches_analytic_form():
    logits = t64([[0.2, -1.3, 0.9]], requires_grad=True)
    target = np.array([2])
    with Tape():
        loss = cross_entropy(logits, target)
        grads = backward(loss, [logits])
    # independent oracle: probs - one_hot
    z = logits.data - logits.data.max()
    probs = np.exp(z) / np.exp(z).sum()
    expected = probs.copy()
    expected[0, 2] -= 1.0
    assert np.allclose(grads[logits], expected, atol=1e-12)


def test_backward_unused_leaf_gets_exact_zero():
    x = tensor([1.0, 2.0], requires_grad=True)
    unused = tensor([[4.0]], requires_grad=True)
    with Tape():
        grads = backward((x * x).sum(), [x, unused])
    assert np.array_equal(grads[unused], np.zeros((1, 1), dtype=np.float32))
    assert np.allclose(grads[x], 2 * x.data)


def test_backward_rejects_non_scalar_loss():
    x = tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = x * x
        with pytest.raises(ContractError):
            backward(y, [x])


def test_backward_is_linear_in_the_loss():
    rng = np.random.default_rng(7)
    w = t64(rng.normal(size=(3, 3)), requires_grad=True)
    x = t64(rng.normal(size=(2, 3)))

    def run(a, b):
        with Tape():
            h = gelu(x @ w)
            l1 = (h * h).mean()
            l2 = h.sum()
            return backward(l1 * a + l2 * b, [w])[w]

    g1 = run(1.0, 0.0)
    g2 = run(0.0, 1.0)
    combined = run(2.5, -0.75)
    assert np.allclose(combined, 2.5 * g1 - 0.75 * g2, atol=1e-12)


def test_reused_output_accumulates_gradient():
    x = tensor([2.0], requires_grad=True)
    with Tape():
        y = x * 3.0
        loss = (y * y).sum()
        grads = backward(loss, [x])
    assert np.allclose(grads[x], 2 * 3.0 * 3.0 * x.data)


def test_closing_a_tape_frees_its_activations():
    rng = np.random.default_rng(3)
    w = t64(rng.normal(size=(3, 3)), requires_grad=True)
    x = t64(rng.normal(size=(2, 3)))
    gc.disable()
    try:
        with Tape():
            h = gelu(x @ w)
            activation = weakref.ref(h.data)
            loss = (h * h).sum()
            backward(loss, [w])
        del h
        assert activation() is None
        with pytest.raises(ContractError):
            backward(loss, [w])
    finally:
        gc.enable()


# -- finite differences on every primitive ------------------------------------


def _fd_suite_cases():
    rng = np.random.default_rng(0)

    def r(*shape):
        return rng.normal(size=shape)

    proj = rng.normal(size=(4, 5))
    return [
        ("add", lambda p: (p["a"] + p["b"]).sum(), {"a": r(4, 5), "b": r(4, 5)}),
        ("add_broadcast", lambda p: (p["a"] + p["b"]).sum(), {"a": r(4, 5), "b": r(5)}),
        ("sub", lambda p: ((p["a"] - p["b"]) * (p["a"] - p["b"])).sum(), {"a": r(3, 2), "b": r(3, 2)}),
        ("mul", lambda p: (p["a"] * p["b"]).mean(), {"a": r(4, 3), "b": r(4, 3)}),
        ("matmul", lambda p: (p["a"] @ p["b"]).sum(), {"a": r(3, 4), "b": r(4, 2)}),
        ("matmul_batched", lambda p: (p["a"] @ p["b"]).sum(), {"a": r(2, 3, 4), "b": r(2, 4, 3)}),
        ("transpose", lambda p: (transpose(p["a"]) @ p["a"]).sum(), {"a": r(3, 4)}),
        ("reshape", lambda p: (p["a"].reshape((2, 6)) * p["a"].reshape((2, 6))).sum(), {"a": r(3, 4)}),
        ("index", lambda p: (p["a"][1:, :2] * p["a"][1:, :2]).sum(), {"a": r(3, 4)}),
        ("gather", lambda p: gather(p["a"], [0, 2, 2], axis=0).sum(), {"a": r(3, 4)}),
        ("sum_axis", lambda p: (reduce_sum(p["a"], axis=1) * tensor(proj[:, 0], dtype=np.float64)).sum(), {"a": r(4, 5)}),
        ("mean", lambda p: reduce_mean(p["a"]), {"a": r(4, 5)}),
        ("softmax", lambda p: (softmax(p["a"], axis=-1) * tensor(proj, dtype=np.float64)).sum(), {"a": r(4, 5)}),
        (
            "layer_norm",
            lambda p: (layer_norm(p["x"], p["g"], p["b"]) * tensor(proj, dtype=np.float64)).sum(),
            {"x": r(4, 5), "g": 1.0 + 0.1 * r(5), "b": 0.1 * r(5)},
        ),
        ("gelu", lambda p: (gelu(p["a"]) * tensor(proj, dtype=np.float64)).sum(), {"a": r(4, 5)}),
        (
            "masked_fill",
            lambda p: (masked_fill(p["a"], np.eye(4, 5, dtype=bool), -3.0) * tensor(proj, dtype=np.float64)).sum(),
            {"a": r(4, 5)},
        ),
        (
            "cross_entropy",
            lambda p: cross_entropy(p["a"], np.array([1, 0, 4, 2]), ignore_index=2),
            {"a": r(4, 5)},
        ),
    ]


@pytest.mark.parametrize("name,f,arrays", _fd_suite_cases(), ids=[c[0] for c in _fd_suite_cases()])
def test_primitive_gradients_match_finite_differences(name, f, arrays):
    params = {k: t64(v, requires_grad=True) for k, v in arrays.items()}
    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.summary()


def test_primitive_gradients_match_in_float32():
    # 32-bit autodiff against the float64 difference oracle.
    rng = np.random.default_rng(3)
    params = {
        "w": tensor(rng.normal(size=(4, 4)), requires_grad=True, dtype=np.float32),
        "b": tensor(rng.normal(size=(4,)), requires_grad=True, dtype=np.float32),
    }

    x = rng.normal(size=(3, 4))

    def loss(p):
        h = gelu(tensor(x, dtype=p["w"].dtype) @ p["w"] + p["b"])
        return (softmax(h, axis=-1) * h).sum()

    report = grad_check(loss, params, h=1e-5, tol=1e-4)
    assert report.passed, report.summary()


def test_grad_check_quadratic_passes():
    params = {"p": t64([0.3, -1.2, 2.0], requires_grad=True)}
    report = grad_check(lambda p: (p["p"] * p["p"]).sum(), params, h=1e-5, tol=1e-6)
    assert report.passed


def test_grad_check_negative_control_corrupted_matmul():
    # a matmul whose backward rule is off by 3% must be flagged
    def bad_matmul(a, b):
        out = a.data @ b.data

        def bwd(g):
            return 1.03 * (g @ b.data.T), a.data.T @ g

        return apply_op("bad_matmul", out, (a, b), bwd)

    rng = np.random.default_rng(5)
    params = {
        "a": t64(rng.normal(size=(3, 3)), requires_grad=True),
        "b": t64(rng.normal(size=(3, 2)), requires_grad=True),
    }
    report = grad_check(lambda p: bad_matmul(p["a"], p["b"]).sum(), params, h=1e-5, tol=1e-6)
    assert not report.passed


def test_grad_check_two_layer_mlp_cross_entropy():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 6))
    targets = np.array([1, 0, 2, 1])
    params = {
        "w1": t64(rng.normal(scale=0.5, size=(6, 8)), requires_grad=True),
        "b1": t64(np.zeros(8), requires_grad=True),
        "w2": t64(rng.normal(scale=0.5, size=(8, 3)), requires_grad=True),
        "b2": t64(np.zeros(3), requires_grad=True),
    }

    def f(p):
        h = gelu(tensor(x, dtype=np.float64) @ p["w1"] + p["b1"])
        return cross_entropy(h @ p["w2"] + p["b2"], targets)

    report = grad_check(f, params, h=1e-5, tol=1e-6)
    assert report.passed, report.summary()
    assert report.max_rel_err < 1e-6


def test_grad_check_raises_on_non_finite():
    params = {"p": t64([1.0], requires_grad=True)}
    with pytest.raises(NumericError):
        grad_check(lambda p: p["p"] * np.inf, params)


# -- AdamW ---------------------------------------------------------------------


def test_adamw_first_step_closed_form():
    g = np.array([0.3, -2.0, 0.001], dtype=np.float32)
    p = tensor(np.zeros(3), dtype=np.float32)
    lr, eps = 1e-2, 1e-8
    new, state = adamw_step({"p": p}, {"p": g}, OptimState.init({"p": p}), lr=lr, eps=eps, weight_decay=0.0)
    expected = -lr * g / (np.abs(g) + eps)
    assert np.allclose(new["p"].data, expected, atol=1e-7)
    assert state.t == 1


def test_adamw_zero_decay_reduces_to_adam():
    rng = np.random.default_rng(2)
    p0 = tensor(rng.normal(size=(4,)), dtype=np.float64)
    g = rng.normal(size=(4,))
    adam, _ = adamw_step({"p": p0}, {"p": g}, OptimState.init({"p": p0}), lr=0.1, weight_decay=0.0)
    wd, _ = adamw_step({"p": p0}, {"p": g}, OptimState.init({"p": p0}), lr=0.1, weight_decay=0.5)
    # decoupled decay adds exactly -lr * wd * p on top of the Adam step
    assert np.allclose(wd["p"].data, adam["p"].data - 0.1 * 0.5 * p0.data, atol=1e-12)


def test_adamw_is_deterministic():
    def run():
        rng = RngStream(9, ("init",))
        p = tensor(rng.normal(size=(5, 5)), dtype=np.float32)
        params, state = {"p": p}, OptimState.init({"p": p})
        for step in range(5):
            g = rng.child(f"g{step}").normal(size=(5, 5)).astype(np.float32)
            params, state = adamw_step(params, {"p": g}, state, lr=3e-4, weight_decay=0.01)
        return params["p"].data

    a, b = run(), run()
    assert np.array_equal(a, b)


def test_adamw_validates_inputs():
    p = tensor([1.0])
    state = OptimState.init({"p": p})
    with pytest.raises(ConfigError):
        adamw_step({"p": p}, {"p": np.array([1.0])}, state, lr=-1.0)
    with pytest.raises(DimensionError):
        adamw_step({"p": p}, {"p": np.zeros(2)}, state, lr=0.1)


def test_clip_grad_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    clipped, norm = clip_grad_norm(grads, 1.0)
    assert np.isclose(norm, 5.0)
    total = np.sqrt(sum((g * g).sum() for g in clipped.values()))
    assert np.isclose(total, 1.0)


# -- misc ----------------------------------------------------------------------


def test_tensors_are_immutable():
    x = tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 5.0


def test_no_nan_from_masked_softmax():
    scores = tensor(np.zeros((2, 4)))
    mask = np.array([[False, True, True, False], [False, False, False, False]])
    attn = softmax(masked_fill(scores, mask, -1e9), axis=-1)
    assert np.all(np.isfinite(attn.data))
    assert np.allclose(attn.data.sum(axis=-1), 1.0)


def test_dropout_scaling_and_determinism():
    x = tensor(np.ones((100, 10)))
    a = dropout(x, 0.5, RngStream(4, ("dropout",)))
    b = dropout(x, 0.5, RngStream(4, ("dropout",)))
    assert np.array_equal(a.data, b.data)
    kept = a.data[a.data != 0]
    assert np.allclose(kept, 2.0)  # inverted scaling
    assert abs(float((a.data != 0).mean()) - 0.5) < 0.1


def test_rng_streams_are_splittable_and_stable():
    root = RngStream(123)
    a1 = root.child("data").normal(size=4)
    # drawing from a sibling must not disturb the child derivation
    root.child("init").normal(size=100)
    a2 = RngStream(123).child("data").normal(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, RngStream(124).child("data").normal(size=4))
